"""Build a Hecke symmetry from geometric data and verify every identity.

A symmetry on the 3-dimensional space is pinned by a parameter q, two
vectors a, b and a symmetric bilinear form g subject to
(q-1)^2 = -4(g(a,a)g(b,b) - g(a,b)^2).  This script picks data by hand,
solves for the admissible q values, builds R, and runs the exact checks.
"""

import random
from fractions import Fraction

from hecke3 import (
    QQ,
    HeckeData,
    build_R,
    check_component_identity,
    run_suite,
    solve_q,
    std_basis,
    symmetric_form,
)
from hecke3.multilinear import change_of_basis, random_invertible

e1, e2, e3 = std_basis(QQ)

# a symmetric form that is isotropic on a = e1 and pairs a with b = e2
g = symmetric_form(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, Fraction(5)]])

qs = solve_q(e1, e2, g)
print("admissible q values:", [QQ.fmt(q) for q in qs])

for q in qs:
    sym = build_R(HeckeData(q, e1, e2, g))
    print(f"\nsymmetry at q = {QQ.fmt(q)}; R acts on e1(x)e2 as:")
    col = sym.R.col(1)
    for pos, c in enumerate(col):
        if c != 0:
            i, j = divmod(pos, 3)
            print(f"  {QQ.fmt(c)} * e{i+1}(x)e{j+1}")
    print("exact checks:")
    for rep in run_suite(sym):
        print(f"  {rep.name:28s} {'ok' if rep.passed else 'FAILED'}")
    print("component identity in three random bases:")
    rng = random.Random(0)
    for _ in range(3):
        rep = check_component_identity(change_of_basis(sym.Y, random_invertible(QQ, rng)), sym.q)
        print(f"  {rep.name:28s} {'ok' if rep.passed else 'FAILED'}")
