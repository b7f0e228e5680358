"""The paper's listed data, hard-coded: independent oracles that only the tests read.

``reference_r_matrix`` gives the listed R values of Types 1 to 6 on the nine basis
monomials, and ``check_value_tables`` compares them with the symmetries the package
builds, its witness input led by the type (``typed_witness``).  ``reference_carriers``
gives, for each of the eight canonical types, generators of the carrier subalgebra listed
in the paper (``None`` where no carrier is listed).
"""

from hecke3.classify import Q_FAMILIES, TYPE_LABELS, canonical
from hecke3.fields import QQ
from hecke3.heckecore import build_R
from hecke3.linalg import Matrix
from hecke3.multilinear import idx2
from hecke3.verifier import CheckReport, column_witness


def matrix_unit(field, i: int, j: int) -> Matrix:
    """The 3x3 matrix unit E_ij (1-based indices, as in E13)."""
    return Matrix.of_integers(field, 3, 3, [int(c == 3 * i + j - 4) for c in range(9)])


def _table_type1(q, one):
    """R values of the first family on basis monomials, as sparse columns."""
    return {
        (0, 0): {(0, 0): q},
        (0, 1): {(0, 1): q - 1, (1, 0): one},
        (0, 2): {(0, 2): q - 1, (2, 0): one},
        (1, 0): {(0, 1): q},
        (1, 1): {(1, 1): q},
        (1, 2): {(2, 1): q},
        (2, 0): {(0, 2): q},
        (2, 1): {(2, 1): q - 1, (1, 2): one},
        (2, 2): {(2, 2): q, (0, 1): -one, (1, 0): one},
    }


def _table_type3(one):
    return {
        (0, 0): {(0, 0): one, (0, 1): one, (1, 0): -one},
        (0, 1): {(1, 0): one},
        (0, 2): {(2, 0): one, (1, 2): -one, (2, 1): one},
        (1, 0): {(0, 1): one},
        (1, 1): {(1, 1): one},
        (1, 2): {(2, 1): one},
        (2, 0): {(0, 2): one, (1, 2): -one, (2, 1): one},
        (2, 1): {(1, 2): one},
        (2, 2): {(2, 2): one, (0, 2): 2 * one, (2, 0): -2 * one},
    }


def reference_r_matrix(label: str, q, field=QQ) -> Matrix:
    """Hard-coded R values of Types 1 to 6 on the nine basis monomials.

    Types 1 and 2 take the given q; Types 3 to 6 are at q = 1.  Types 2, 4,
    5 and 6 differ from their neighbours in a handful of entries only.
    """
    one = field.one()
    if label in Q_FAMILIES:
        q = field.of(q)
        table = _table_type1(q, one)
        if label == "Type2":
            table[(2, 2)] = {(2, 2): q}
    else:
        table = _table_type3(one)
        if label == "Type4":
            table[(2, 2)] = {(2, 2): one, (0, 1): -one, (1, 0): one}
        elif label == "Type5":
            table[(2, 2)] = {(2, 2): one}
        elif label == "Type6":
            table[(0, 0)] = {(0, 0): one}
            table[(0, 2)] = {(2, 0): one}
            table[(2, 0)] = {(0, 2): one}
        elif label != "Type3":
            raise ValueError(f"no reference table for {label}")
    rows = [[field.zero()] * 9 for _ in range(9)]
    for (i, j), entries in table.items():
        for (k, l), c in entries.items():
            rows[idx2(k, l)][idx2(i, j)] = c
    return Matrix(field, rows)


def typed_witness(witness, label):
    """A column witness with the type label as the first key of its input; None stays None."""
    if witness is not None:
        witness["input"] = {"type": label, **witness["input"]}
    return witness


def check_value_tables(q, field=QQ) -> CheckReport:
    """Compare built symmetries of Types 1 to 6 against the value tables."""
    for label in TYPE_LABELS[:6]:
        use_q = q if label in Q_FAMILIES else None
        built = build_R(canonical(label, use_q, field)).R
        expected = reference_r_matrix(label, use_q, field)
        witness = typed_witness(column_witness(built, expected), label)
        if witness is not None:
            break
    return CheckReport("value_tables", witness)


def reference_carriers(field=QQ) -> dict:
    """The carrier subalgebras of the eight canonical types, as generators."""
    E = lambda i, j: matrix_unit(field, i, j)
    h = E(1, 1) + E(3, 3)
    return dict(zip(TYPE_LABELS, [
        None, None,
        [E(1, 1), E(1, 3), E(2, 1), E(2, 3), E(3, 1), E(3, 3)],
        [h, E(1, 3) - E(3, 1), E(2, 1), E(2, 3)],
        [h, E(2, 1), E(2, 3), E(3, 1)],
        [E(1, 3), E(3, 3)],
        [E(1, 3), E(2, 3)],
        [],
    ]))
