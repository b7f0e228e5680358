"""Bit-exact JSON envelopes for every value the command line emits.

Scalars are strings ("3/2", "-1", "5"), never JSON numbers, so output is
identical across runs and platforms and parses back exactly.  Key order is
fixed by construction order.
"""

from __future__ import annotations

from .errors import InputError
from .fields import clip, parse_field
from .linalg import Matrix
from .heckecore import HeckeData, HeckeSymmetry, build_R

__all__ = [
    "vector_to_json",
    "vector_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "hecke_data_to_json",
    "hecke_data_from_json",
    "symmetry_to_json",
    "load_symmetry",
]


def _scalar_from_json(field, x):
    """A scalar given as JSON text or an integer, read as its decimal text under the text bound."""
    if isinstance(x, bool) or not isinstance(x, (str, int)):
        raise InputError(f"a scalar must be a string or an integer, got {clip(repr(x))}")
    return field.parse(str(x))


def _record_field(obj, default_field):
    """The field named by a record's "field" key, else (a bare matrix too) the default field."""
    fld = parse_field(obj["field"]) if isinstance(obj, dict) and "field" in obj else default_field
    if fld is None:
        raise InputError("no field given and no default field set")
    return fld


def vector_to_json(field, v):
    return [field.fmt(x) for x in v]


def vector_from_json(field, data):
    if not isinstance(data, list) or len(data) != 3:
        raise InputError("expected a list of 3 scalars")
    return [_scalar_from_json(field, x) for x in data]


def matrix_to_json(m: Matrix):
    return [[m.field.fmt(x) for x in row] for row in m.rows]


def matrix_from_json(field, data, nrows, ncols) -> Matrix:
    if (
        not isinstance(data, list)
        or len(data) != nrows
        or any(not isinstance(r, list) or len(r) != ncols for r in data)
    ):
        raise InputError(f"expected a {nrows}x{ncols} matrix of scalars")
    try:
        return Matrix(field, [[_scalar_from_json(field, x) for x in row] for row in data])
    except InputError as exc:
        raise InputError(f"bad matrix entry: {exc}") from exc


def hecke_data_to_json(data: HeckeData) -> dict:
    fld = data.field
    return {
        "field": fld.name,
        "q": fld.fmt(data.q),
        "a": vector_to_json(fld, data.a),
        "b": vector_to_json(fld, data.b),
        "g": matrix_to_json(data.g),
    }


def hecke_data_from_json(obj: dict, default_field=None) -> HeckeData:
    if not isinstance(obj, dict):
        raise InputError("quadruple record must be a JSON object")
    fld = _record_field(obj, default_field)
    try:
        q = _scalar_from_json(fld, obj["q"])
        a = vector_from_json(fld, obj["a"])
        b = vector_from_json(fld, obj["b"])
        g = matrix_from_json(fld, obj["g"], 3, 3)
    except KeyError as exc:
        raise InputError(f"quadruple record misses key {exc}") from exc
    return HeckeData(q, a, b, g)


def symmetry_to_json(sym: HeckeSymmetry) -> dict:
    fld = sym.field
    out = {
        "field": fld.name,
        "q": fld.fmt(sym.q),
        "R": matrix_to_json(sym.R),
    }
    return out


def load_symmetry(obj, default_field=None) -> HeckeSymmetry:
    """Accept a quadruple record, a symmetry record, or a bare 9x9 matrix.

    Bare and record matrices are validated (quadratic relation, image and
    eigenvalue conditions); quadruple input is built, which validates the
    q constraint instead.  A record's "field" key names its field; a record
    without one, or a bare matrix, is read over ``default_field``.
    """
    if isinstance(obj, dict) and {"a", "b", "g"} <= set(obj):
        return build_R(hecke_data_from_json(obj, default_field))
    if isinstance(obj, dict) and "R" in obj:
        fld = _record_field(obj, default_field)
        R = matrix_from_json(fld, obj["R"], 9, 9)
        q = _scalar_from_json(fld, obj["q"]) if "q" in obj else None
        return HeckeSymmetry.from_matrix(R, q)
    if isinstance(obj, list):
        R = matrix_from_json(_record_field(obj, default_field), obj, 9, 9)
        return HeckeSymmetry.from_matrix(R)
    raise InputError("unrecognized input document")
