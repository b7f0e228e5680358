"""Exact scalar arithmetic: arbitrary-precision rationals and odd prime fields.

Rational scalars are plain ``fractions.Fraction`` values (always normalized,
positive denominator).  Prime-field scalars are :class:`Fp` residues that
carry their modulus, so mixed-field arithmetic fails loudly instead of
coercing.  A plain ``int`` may stand on either side of ``+`` and ``*`` and on
the right of ``-`` and ``/``: the integers embed canonically in every field.

Text forms: a scalar prints as ``"a/b"`` (rationals, ``/b`` omitted when the
denominator is 1) or as its least nonnegative residue (prime fields).  Both
fields parse the same grammar ``[+-]digits[/digits]``, at most
``MAX_SCALAR_CHARS`` characters long.  A field prints as ``"Q"`` or
``"Fp:<p>"``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import isqrt

from .errors import (
    CharacteristicTwo,
    DivisionByZero,
    FieldMismatch,
    InputError,
    NotPrime,
)

__all__ = [
    "Fp",
    "Rationals",
    "PrimeField",
    "QQ",
    "GF",
    "parse_field",
    "is_prime",
]

# Longest scalar text accepted, blanks included: bounds the cost of parsing
# untrusted input.
MAX_SCALAR_CHARS = 1000

MAX_ECHO_CHARS = 200  # longest input text an error message quotes whole (see clip)

_SCALAR_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def clip(text: str) -> str:
    """Input text quoted in an error message: past MAX_ECHO_CHARS it is cut and its length given."""
    n = len(text)
    return text if n <= MAX_ECHO_CHARS else f"{text[:MAX_ECHO_CHARS]}... ({n} characters)"


def _parse_scalar(s: str):
    """The int or Fraction written as ``[+-]digits[/digits]``, or None."""
    m = _SCALAR_TEXT.fullmatch(s.strip()) if len(s) <= MAX_SCALAR_CHARS else None
    if m is None:
        return None
    if m[2] is None:
        return int(m[1])
    den = int(m[2])
    return Fraction(int(m[1]), den) if den else None


# Witness set making Miller-Rabin deterministic for n < 3.3 * 10**24,
# far beyond the machine-word moduli this package accepts.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for machine-word inputs."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Fp:
    """Residue modulo an odd prime p, with field arithmetic via operators.

    Instances are immutable and hashable.  Arithmetic accepts another
    :class:`Fp` with the same modulus or a plain ``int``, which may stand on
    the left only of ``+`` and ``*``; anything else (in particular a
    ``Fraction``) raises :class:`FieldMismatch`.
    """

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        object.__setattr__(self, "v", v % p)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Fp values are immutable")

    def _lift(self, other) -> int:
        if isinstance(other, Fp):
            if other.p != self.p:
                raise FieldMismatch(f"F{self.p} element mixed with F{other.p} element")
            return other.v
        if isinstance(other, int):
            return other % self.p
        raise FieldMismatch(
            f"F{self.p} element mixed with {type(other).__name__}"
        )

    def __add__(self, other):
        return Fp(self.v + self._lift(other), self.p)

    __radd__ = __add__

    def __sub__(self, other):
        return Fp(self.v - self._lift(other), self.p)

    def __mul__(self, other):
        return Fp(self.v * self._lift(other), self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._lift(other)
        if w == 0:
            raise DivisionByZero(f"division by zero in F{self.p}")
        return Fp(self.v * pow(w, -1, self.p), self.p)

    def __pow__(self, n: int):
        if n < 0 and not self.v:
            raise DivisionByZero(f"zero to a negative power in F{self.p}")
        return Fp(pow(self.v, n, self.p), self.p)

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"Fp({self.v}, {self.p})"


class _Field:
    """Shared by both fields: the constants are ``of(0)`` and ``of(1)``; a field is its ``name``."""

    def zero(self):
        return self.of(0)

    def one(self):
        return self.of(1)

    def __eq__(self, other):
        return isinstance(other, _Field) and other.name == self.name

    def __hash__(self):
        return hash(self.name)


class Rationals(_Field):
    """The field of rational numbers, elements are ``Fraction`` values."""

    characteristic = 0
    name = "Q"

    def of(self, x) -> Fraction:
        """Coerce an int, Fraction or text form into this field."""
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, Fp):
            raise FieldMismatch("prime-field element is not a rational scalar")
        raise InputError(f"cannot interpret {clip(repr(x))} as a rational scalar")

    def parse(self, s: str) -> Fraction:
        value = _parse_scalar(s)
        if value is None:
            raise InputError(f"bad rational scalar {clip(repr(s))}")
        return Fraction(value)

    def fmt(self, x) -> str:
        return str(self.of(x))

    def sqrt(self, x):
        """Exact square root, or None when x is not a rational square.

        The canonical root has nonnegative numerator.
        """
        x = self.of(x)
        if x < 0:
            return None
        n, d = x.numerator, x.denominator
        rn, rd = isqrt(n), isqrt(d)
        if rn * rn == n and rd * rd == d:
            return Fraction(rn, rd)
        return None

    def __repr__(self):
        return "Rationals()"


class PrimeField(_Field):
    """The finite field F_p for an odd prime p fitting in a machine word."""

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise NotPrime(f"{clip(repr(p))} is not a prime")
        if p == 2:
            raise CharacteristicTwo("characteristic 2 is not supported")
        if p.bit_length() > 63:
            raise InputError(f"prime modulus {clip(repr(p))} exceeds a machine word")
        if not is_prime(p):
            raise NotPrime(f"{p} is not a prime")
        self.p = self.characteristic = p
        self.name = f"Fp:{p}"

    def of(self, x) -> Fp:
        if isinstance(x, Fp):
            if x.p != self.p:
                raise FieldMismatch(f"F{x.p} element is not in F{self.p}")
            return x
        if isinstance(x, int):
            return Fp(x, self.p)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise InputError(
                    f"denominator of {x} vanishes modulo {self.p}"
                )
            return Fp(x.numerator * pow(x.denominator, -1, self.p), self.p)
        if isinstance(x, str):
            return self.parse(x)
        raise InputError(f"cannot interpret {clip(repr(x))} as an F{self.p} scalar")

    def parse(self, s: str) -> Fp:
        value = _parse_scalar(s)
        if value is None:
            raise InputError(f"bad F{self.p} scalar {clip(repr(s.strip()))}")
        return self.of(value)

    def fmt(self, x) -> str:
        return str(self.of(x).v)

    def sqrt(self, x):
        """Square root in F_p by Cipolla's method, or None for a non-residue.

        With t the first integer making w = t^2 - a a non-residue, (t + sqrt(w))^((p+1)/2),
        computed in F_p[sqrt(w)], is a root of a.  The canonical root is the smaller of the
        two residues.
        """
        a, p = self.of(x).v, self.p
        if pow(a, (p - 1) // 2, p) != 1:
            return None if a else Fp(0, p)
        t = next(t for t in range(p) if pow(t * t - a, (p - 1) // 2, p) == p - 1)
        w, (u, v), (s, r), n = (t * t - a) % p, (1, 0), (t, 1), (p + 1) // 2
        while n:  # (u + v sqrt(w)) *= (s + r sqrt(w)) for each set bit of n, squaring s + r sqrt(w)
            if n & 1:
                u, v = (u * s + v * r * w) % p, (u * r + v * s) % p
            s, r, n = (s * s + r * r * w) % p, 2 * s * r % p, n >> 1
        return Fp(min(u, p - u), p)

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = Rationals()

@cache
def GF(p: int) -> PrimeField:
    """Return the prime field F_p (cached)."""
    return PrimeField(p)


def parse_field(spec: str):
    """Parse a field spec: ``"Q"`` or ``"Fp:<p>"``."""
    if not isinstance(spec, str):
        raise InputError(f"field spec must be a string, got {clip(repr(spec))}")
    spec = spec.strip()
    if spec == "Q":
        return QQ
    if spec.startswith("Fp:"):
        try:
            p = int(spec[3:])
        except ValueError as exc:
            raise InputError(f"bad field spec {clip(repr(spec))}") from exc
        return GF(p)
    raise InputError(f"bad field spec {clip(repr(spec))} (expected 'Q' or 'Fp:<p>')")
