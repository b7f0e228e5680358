"""Exact Hecke symmetries on a 3-dimensional space with polynomial symmetric algebra.

The package constructs every invertible solution R of the braid equation
with quadratic relation (R - q)(R + 1) = 0 whose R-symmetric algebra is the
polynomial algebra in 3 commuting variables, verifies all defining
identities bit-exactly over the rationals or an odd prime field, classifies
the solutions into eight types, and analyzes the classical r-matrices
r = R0 R - Id together with their carrier Lie subalgebras.
"""

from .errors import (
    CharacteristicTwo,
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
    Hecke3Error,
    InputError,
    InvalidConstraint,
    InvalidQ,
    NoHeckeParameter,
    NotHeckeSym0,
    NotPrime,
    SingularDeformation,
    SingularMatrix,
    ZeroQ,
)
from .fields import GF, QQ, Fp, PrimeField, Rationals, parse_field
from .linalg import Matrix
from .multilinear import (
    alt2_basis,
    cyclic_shift,
    idx2,
    idx3,
    is_alt2,
    is_alt3,
    std_basis,
    tensor2,
    vol,
    wedge2,
)
from .heckecore import (
    FOperator,
    HeckeData,
    HeckeSymmetry,
    build_R,
    build_Y_from_F,
    conjugate,
    conjugate_data,
    deform,
    discriminant,
    extract_F,
    extract_q,
    flip_matrix,
    solve_q,
    symmetric_form,
)
from .verifier import (
    CheckReport,
    check_braid,
    check_component_identity,
    check_containments,
    check_cyclic_shift_identity,
    check_hecke,
    check_image_and_eigen,
    check_pairing_identities,
    fuzz,
    run_suite,
    sample_strategy_a,
    sample_strategy_b,
)
from .classify import (
    TYPE_LABELS,
    ClassificationReport,
    canonical,
    classify,
)
from .cybe import (
    FrobeniusResult,
    GlTensor,
    LieSubalgebra,
    carrier,
    check_cybe,
    check_symmetrized,
    classical_r,
    fingerprint,
    gl_tensor,
    is_frobenius,
    lie_subalgebra,
    r21,
)

__version__ = "0.1.0"
