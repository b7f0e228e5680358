"""Scalar arithmetic over the rationals and odd prime fields."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import field_reference as fref

from hecke3.errors import (
    CharacteristicTwo,
    DivisionByZero,
    FieldMismatch,
    InputError,
    NotPrime,
)
from hecke3.fields import (
    GF, MAX_ECHO_CHARS, MAX_SCALAR_CHARS, QQ, PrimeField, Rationals, clip, parse_field,
)


class TestRationalArithmetic:
    def test_add(self):
        assert QQ.of("1/2") + QQ.of("1/3") == Fraction(5, 6)

    def test_self_division(self):
        for x in (Fraction(3, 7), Fraction(-2), Fraction(11, 4)):
            assert x / x == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1) / Fraction(0)

    def test_normalization_idempotent(self):
        x = Fraction(6, 4)
        assert x == Fraction(3, 2)
        assert QQ.of(QQ.fmt(x)) == x and QQ.fmt(x) == "3/2"


class TestPrimeFieldArithmetic:
    def test_mul(self):
        f7 = GF(7)
        assert f7.of(3) * f7.of(5) == f7.of(1)

    def test_self_division(self):
        f11 = GF(11)
        for v in range(1, 11):
            x = f11.of(v)
            assert x / x == f11.one()

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            GF(7).of(3) / GF(7).zero()

    def test_int_coercion(self):
        x = GF(7).of(3)
        assert 2 * x == GF(7).of(6)
        assert x + 11 == GF(7).of(0)
        assert (x + 1) / 2 == GF(7).of(2)

    def test_pow(self):
        x = GF(13).of(5)
        assert x ** 2 == GF(13).of(12)
        assert x ** -1 * x == GF(13).one()

    def test_zero_to_a_negative_power(self):
        assert issubclass(DivisionByZero, ZeroDivisionError)
        with pytest.raises(DivisionByZero):
            GF(7).zero() ** -1
        with pytest.raises(ZeroDivisionError):
            GF(7).of(14) ** -2
        assert GF(7).of(3) ** -1 == GF(7).of(5)
        assert GF(7).zero() ** 0 == GF(7).one()


class TestFieldMismatch:
    def test_fraction_plus_residue(self):
        with pytest.raises(FieldMismatch):
            Fraction(1, 2) + GF(7).of(3)

    def test_residues_of_different_moduli(self):
        with pytest.raises(FieldMismatch):
            GF(7).of(3) + GF(11).of(3)

    def test_cross_field_equality_is_false(self):
        assert not (GF(7).of(3) == Fraction(3))
        assert not (GF(7).of(3) == GF(11).of(3))


class TestSqrt:
    def test_rational_perfect_square(self):
        assert QQ.sqrt(Fraction(4, 9)) == Fraction(2, 3)

    def test_rational_non_square(self):
        assert QQ.sqrt(Fraction(2)) is None
        assert QQ.sqrt(Fraction(-4)) is None

    def test_prime_field(self):
        assert GF(7).sqrt(2) == GF(7).of(3)  # 3^2 = 9 = 2 (mod 7)

    def test_prime_field_non_residue(self):
        assert GF(7).sqrt(3) is None

    def test_canonical_choice_is_smaller_residue(self):
        assert GF(11).sqrt(4) == GF(11).of(2)  # not 9
        assert GF(13).sqrt(12) == GF(13).of(5)  # roots 5 and 8

    def test_tonelli_branch(self):
        # p = 1 (mod 4) exercises the full algorithm
        p = 65537
        f = GF(p)
        for v in (2, 3, 1234, 65000):
            s = f.sqrt(f.of(v * v))
            assert s is not None and s * s == f.of(v * v)

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 17, 97, 193, 257, 7681))
    def test_cipolla_matches_tonelli_shanks_on_every_residue(self, p):
        f = GF(p)
        assert [f.sqrt(a) for a in range(p)] == [fref.sqrt_mod(f, a) for a in range(p)]

    @pytest.mark.parametrize("p", (12289, 65537, 1_000_003, 998_244_353, 2**61 - 1,
                                   4_611_686_018_427_387_847))
    def test_cipolla_matches_tonelli_shanks_on_random_residues(self, p):
        f, rng = GF(p), random.Random(p)
        xs = [rng.randrange(p) for _ in range(300)]
        for a in xs + [x * x % p for x in xs]:  # about half non-residues, then squares
            assert f.sqrt(a) == fref.sqrt_mod(f, a)

    @given(st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4))
    def test_sqrt_squares_back(self, x):
        s = QQ.sqrt(x * x)
        assert s is not None
        assert s * s == x * x


class TestFieldGuard:
    def test_rationals_accepted(self):
        assert parse_field("Q").characteristic == 0

    def test_odd_prime_accepted(self):
        assert parse_field("Fp:7").characteristic == 7

    def test_characteristic_two_rejected(self):
        with pytest.raises(CharacteristicTwo):
            GF(2)

    def test_composite_rejected(self):
        with pytest.raises(NotPrime):
            GF(9)
        with pytest.raises(NotPrime):
            GF(1)

    def test_one_field_object_per_prime(self):
        assert GF(7) is GF(7) is parse_field("Fp:7")
        for _ in range(2):  # a rejected modulus is rejected again, not cached
            with pytest.raises(NotPrime):
                GF(15)

    @pytest.mark.parametrize("field", [QQ, GF(3), GF(7), GF(1_000_003)], ids=lambda f: f.name)
    def test_a_field_is_its_name(self, field):
        """One base defines the constants and equality; the two fields define none of it."""
        same = Rationals() if field is QQ else PrimeField(field.p)
        assert same is not field and same == field and hash(same) == hash(field.name)
        assert field != parse_field("Fp:5") and field != field.name
        assert (field.zero(), field.one()) == (field.of(0), field.of(1))
        assert type(field.zero()) is type(field.one()) is type(field.of(2))
        for cls in (Rationals, PrimeField):
            assert not {"zero", "one", "__eq__", "__hash__"} & set(vars(cls))

    def test_bad_spec(self):
        with pytest.raises(InputError):
            parse_field("R")
        with pytest.raises(InputError):
            parse_field("Fp:x")


class TestTextForms:
    def test_rational_forms(self):
        assert QQ.fmt(Fraction(-2, 3)) == "-2/3"
        assert QQ.fmt(Fraction(5)) == "5"
        assert QQ.parse("-7/2") == Fraction(-7, 2)

    def test_prime_field_forms(self):
        f7 = GF(7)
        assert f7.fmt(f7.of(-1)) == "6"
        assert f7.parse("1/2") == f7.of(4)

    def test_roundtrip(self):
        for s in ("0", "1", "-1", "3/2", "-11/17"):
            assert QQ.fmt(QQ.parse(s)) == s

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
    def test_one_grammar_with_a_length_bound(self, field):
        """Both fields read [+-]digits[/digits] and nothing longer than the cap."""
        assert field.parse(" -7/2 ") == field.of(Fraction(-7, 2))
        assert field.parse("+3") == field.of(3)
        assert field.parse("9" * MAX_SCALAR_CHARS) == field.of(int("9" * MAX_SCALAR_CHARS))
        for text in ("1e400", "0.5", "1/-2", "1_000", "1/0", "", "/2", "9" * (MAX_SCALAR_CHARS + 1)):
            with pytest.raises(InputError):
                field.parse(text)


def test_prime_field_agrees_with_rationals_mod_p():
    """Reduction mod p is a ring map on fractions with unit denominator."""
    rng = random.Random(7)
    p = 11
    f = GF(p)
    for _ in range(200):
        a = Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 4, 5, 6, 7]))
        b = Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 4, 5, 6, 7]))
        assert f.of(a) + f.of(b) == f.of(a + b)
        assert f.of(a) * f.of(b) == f.of(a * b)
        assert f.of(a) - f.of(b) == f.of(a - b)
        if f.of(b) != 0:
            assert f.of(a) / f.of(b) == f.of(a / b)


def test_clip_keeps_short_text_and_cuts_long_text():
    """Error messages quote input text whole up to a fixed length, else a prefix and its length."""
    for text in ("", "x", "'1/0'", "9" * MAX_ECHO_CHARS):
        assert clip(text) == text
    long = "7" * MAX_ECHO_CHARS + "8" * 10_000
    assert clip(long) == "7" * MAX_ECHO_CHARS + f"... ({len(long)} characters)"
    with pytest.raises(InputError) as exc:
        QQ.parse(long)
    assert str(exc.value) == f"bad rational scalar {clip(repr(long))}"
    assert len(str(exc.value)) < MAX_ECHO_CHARS + 50
