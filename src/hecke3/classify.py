"""Type classification of Hecke symmetries with polynomial symmetric algebra.

Up to basis change (over a closed field) there are eight types: two
one-parameter families with q != 1 and six isolated types with q = 1.  The
label is determined by field-independent invariants alone: the parameter q,
the rank of the bilinear form g, and the rank of its restriction to the
plane of the bivector.  Over a non-closed field the label therefore reports
the invariant triple without claiming equivalence under rational basis
change.

Canonical representatives use a = e1, b = e2 and the form matrices

   Type1 [[0,s,0],[s,0,0],[0,0,1]]   Type2 [[0,s,0],[s,0,0],[0,0,0]]   (s = (q-1)/2)
   Type3 [[1,0,0],[0,0,1],[0,1,0]]   Type4 diag(1,0,1)   Type5 diag(1,0,0)
   Type6 [[0,0,0],[0,0,1],[0,1,0]]   Type7 diag(0,0,1)   Type8 0
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Hecke3Error, InputError, InvalidQ
from .fields import QQ, clip
from .jsonio import matrix_to_json, vector_to_json
from .linalg import Matrix
from .multilinear import std_basis
from .heckecore import FOperator, HeckeData, HeckeSymmetry, extract_F

__all__ = [
    "TYPE_LABELS",
    "Q_FAMILIES",
    "ClassificationReport",
    "canonical_gram",
    "canonical",
    "classify",
]

TYPE_LABELS = tuple(f"Type{n}" for n in range(1, 9))
# the two one-parameter families, which take a q; the other six live at q = 1
Q_FAMILIES = TYPE_LABELS[:2]


@dataclass(frozen=True)
class ClassificationReport:
    """Label plus the invariants that determine it.

    ``rank_restricted`` is None exactly when the invariant operator is zero
    (Type 8), where no bivector plane exists.
    """

    label: str
    q: object
    rank_g: int
    rank_restricted: int | None
    f: FOperator

    def to_json(self) -> dict:
        fld = self.f.field
        return {
            "type": self.label,
            "q": fld.fmt(self.q),
            "rank_g": self.rank_g,
            "rank_restricted": self.rank_restricted,
            "F": {"g": matrix_to_json(self.f.g), "bivector": vector_to_json(fld, self.f.t)},
        }


def canonical_gram(label: str, q=None, field=QQ) -> Matrix:
    """The canonical form matrix of a type (q needed for Types 1 and 2)."""
    if label not in TYPE_LABELS:
        raise InputError(f"unknown type label {clip(repr(label))}")
    if label in Q_FAMILIES:
        if q is None:
            raise InvalidQ(f"{label} needs an explicit q")
        q = field.of(q)
        if q == 0 or q == 1:
            raise InvalidQ(f"{label} needs q outside {{0, 1}}")
        s = (q - 1) / 2
        return Matrix.from_rows(field, [[0, s, 0], [s, 0, 0], [0, 0, int(label == "Type1")]])
    grams = {
        "Type3": [1, 0, 0, 0, 0, 1, 0, 1, 0],
        "Type4": [1, 0, 0, 0, 0, 0, 0, 0, 1],
        "Type5": [1, 0, 0, 0, 0, 0, 0, 0, 0],
        "Type6": [0, 0, 0, 0, 0, 1, 0, 1, 0],
        "Type7": [0, 0, 0, 0, 0, 0, 0, 0, 1],
        "Type8": [0, 0, 0, 0, 0, 0, 0, 0, 0],
    }
    return Matrix.of_integers(field, 3, 3, grams[label])


def canonical(label: str, q=None, field=QQ) -> HeckeData:
    """Canonical quadruple of a type: a = e1, b = e2, the listed form.

    Types 3 to 8 live at q = 1; passing any other q for them is an error.
    """
    g = canonical_gram(label, q if label in Q_FAMILIES else None, field)
    e = std_basis(field)
    if label in Q_FAMILIES:
        return HeckeData(q, e[0], e[1], g)
    if q is not None and field.of(q) != 1:
        raise InvalidQ(f"{label} exists only at q = 1")
    return HeckeData(field.one(), e[0], e[1], g)


# (q == 1, rank g, rank of g on the bivector plane) -> label.  With F nonzero,
# (q-1)^2 = -4 delta makes q != 1 exactly when the restricted rank is 2, and
# rank_res <= rank g <= rank_res + 2 with g != 0: these are the only patterns.
_LABELS = {
    (False, 3, 2): "Type1", (False, 2, 2): "Type2",
    (True, 3, 1): "Type3", (True, 2, 1): "Type4", (True, 1, 1): "Type5",
    (True, 2, 0): "Type6", (True, 1, 0): "Type7",
}


def classify(sym: HeckeSymmetry) -> ClassificationReport:
    """Determine the type of a verified Hecke symmetry.

    A zero invariant operator is Type 8; otherwise the label is read off
    (q == 1, rank g, rank of g restricted to the bivector plane).
    """
    f_op = extract_F(sym)
    q = sym.q
    if f_op.is_zero():
        return ClassificationReport("Type8", q, 0, None, f_op)
    g = f_op.g
    rank_g = g.rank()
    t = f_op.plane  # its columns span the plane of the bivector
    rank_res = (t.transpose() * g * t).rank()
    key = (q == 1, rank_g, rank_res)
    if key not in _LABELS:
        raise Hecke3Error(f"internal inconsistency: impossible invariant pattern {key}")
    return ClassificationReport(_LABELS[key], q, rank_g, rank_res, f_op)
