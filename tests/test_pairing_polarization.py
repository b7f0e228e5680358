"""The polarization sample of ``check_pairing_identities``, proved over Z[q, l].

The wedge identity's defect D(x) is a quadratic form in x whose coefficients
c_im are polynomials with integer coefficients in q and the 27 pairing
coordinates l[i][j][k].  The check evaluates D at e1, e2, e3, e1+e2 and
e1+e3, which vanish exactly when c_11, c_22, c_33, c_12 and c_13 do.  The test
computes every c_im symbolically and shows that each nonzero component of
c_23 is +-1 times one component, or the sum of two components, of those five.
So c_23 vanishes wherever they do, at any q and l in any field, and the point
e2+e3 can never be the first to fail.  A last test pins the check's sample to exactly
these five points, in that order, so the proof covers the sample the package ships.
"""

from itertools import product

from hecke3 import verifier
from hecke3.multilinear import idx2, unit_tensors, vol, wedge2


class Poly:
    """A polynomial over Z as {monomial: coefficient}, a monomial a sorted tuple of names."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {m: c for m, c in terms.items() if c}

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in _poly(other).terms.items():
            terms[m] = terms.get(m, 0) + c
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -_poly(other)

    def __rsub__(self, other):
        return _poly(other) - self

    def __mul__(self, other):
        terms = {}
        for (m, c), (n, d) in product(self.terms.items(), _poly(other).terms.items()):
            key = tuple(sorted(m + n))
            terms[key] = terms.get(key, 0) + c * d
        return Poly(terms)

    __rmul__ = __mul__

    def key(self):
        return frozenset(self.terms.items())


def _poly(x):
    return x if isinstance(x, Poly) else Poly({(): x})


Q = Poly({("q",): 1})
ELL = [[[Poly({(f"l{i}{j}{k}",): 1}) for k in range(3)] for j in range(3)] for i in range(3)]


def defect(x):
    """The 81 components D(x)[j, k, idx2(u, v)] of the wedge identity at an integer point x.

    D(x) = (L[x,e_j] ^ L[x,e_k] - L[x,x] ^ L[e_j,e_k])(e_u, e_v)
           - q vol(x, e_j, e_k) vol(x, e_u, e_v), with L[x,y](e_u) = sum x_i y_j l[i][j][u].
    """
    e = unit_tensors(1)
    lx = [[sum(x[i] * ELL[i][j][u] for i in range(3)) for u in range(3)] for j in range(3)]
    lxx = [sum(x[j] * lx[j][u] for j in range(3)) for u in range(3)]
    volx = [vol(x, e[u], e[v]) for u, v in product(range(3), repeat=2)]
    out = []
    for j, k in product(range(3), repeat=2):
        wedge = [s - t for s, t in zip(wedge2(lx[j], lx[k]), wedge2(lxx, ELL[j][k]))]
        out += [w - Q * (volx[idx2(j, k)] * c) for w, c in zip(wedge, volx)]
    return out


def coefficients():
    """{(i, m): the 81 components of c_im}, from D(e_i) and D(e_i + e_m) - D(e_i) - D(e_m)."""
    e = unit_tensors(1)
    diag = {i: defect(e[i]) for i in range(3)}
    out = {(i, i): d for i, d in diag.items()}
    for i, m in ((0, 1), (0, 2), (1, 2)):
        both = defect([s + t for s, t in zip(e[i], e[m])])
        out[i, m] = [b - s - t for b, s, t in zip(both, diag[i], diag[m])]
    return out


def test_c23_is_a_signed_sum_of_at_most_two_sampled_components():
    c = coefficients()
    pool = {p.key() for im in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2)) for p in c[im] if p.terms}
    targets = [p for p in c[1, 2] if p.terms]
    assert len(targets) == 54
    pool_polys = [Poly(dict(k)) for k in pool]
    for p in targets:
        found = p.key() in pool or (-p).key() in pool or any(
            (s * p - a).key() in pool for s in (1, -1) for a in pool_polys)
        assert found, p.terms


def test_defect_vanishes_on_a_valid_pairing():
    """The symbolic defect vanishes for Y = Id - flip at q = 1, whose pairing is l = vol."""
    e = unit_tensors(1)
    values = {f"l{i}{j}{k}": vol(e[i], e[j], e[k]) for i, j, k in product(range(3), repeat=3)}
    values["q"] = 1

    def at(p):
        total = 0
        for mono, coeff in p.terms.items():
            for name in mono:
                coeff *= values[name]
            total += coeff
        return total

    c = coefficients()
    assert all(at(p) == 0 for comps in c.values() for p in comps)
    assert any(p.terms for comps in c.values() for p in comps)


def test_the_check_samples_exactly_these_points():
    """The wedge identity is evaluated at e1, e2, e3, e1+e2 and e1+e3, named so, in that order."""
    e = unit_tensors(1)
    sums = [("e1+e2", [s + t for s, t in zip(e[0], e[1])]),
            ("e1+e3", [s + t for s, t in zip(e[0], e[2])])]
    assert [(name, list(x)) for name, x in verifier._SAMPLE] == [
        ("e1", e[0]), ("e2", e[1]), ("e3", e[2])] + sums
