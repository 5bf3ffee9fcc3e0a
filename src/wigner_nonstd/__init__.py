"""SU(2) Wigner-Racah algebra in the cyclic-phase (alpha) eigenscheme.

Layers, bottom up:

- halfint: exact half-integer labels and selection rules
- standard_wra: exact {J^2, J3}-scheme symbols (CG, 3-jm, 6-j)
- quon: q-deformed oscillator pair at q = exp(2 pi i/k)
- su2gen: the polar pair (H, U_r) and the spin generators it produces
- nonstandard: the {J^2, U_r} eigenbasis and its coupling apparatus
- verify / cli: invariant suites and the command-line surface
"""

from .halfint import HalfInt, m_values, coupled_j_values, triangle
from .standard_wra import (
    ExactSqrtRational,
    RadicalSum,
    cg,
    cg_float,
    sixj,
    threejm,
)
from .quon import (
    KronPair,
    QDeformation,
    QuonRep,
    build_h,
    build_rep,
    build_ur,
    w_algebra_residual,
)
from .su2gen import (
    ResidualReport,
    SpinOperatorSet,
    SpinSpace,
    build_spin_ops,
    casimir_identities,
    verify_su2,
)
from .nonstandard import (
    AlphaLabel,
    TensorOperator,
    alpha_labels,
    basis_matrix,
    cg_nonstandard,
    cg_nonstandard_tensor,
    f_small,
    fbar,
    fbar_tensor,
    overlap,
    recoupling_invariance_check,
    spherical_tensor_from_j,
    tensor_to_alpha,
    verify_cg_orthonormality,
    verify_eigenbasis,
    verify_fbar_symmetry,
    wigner_eckart_check,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaLabel",
    "ExactSqrtRational",
    "HalfInt",
    "KronPair",
    "QDeformation",
    "QuonRep",
    "RadicalSum",
    "ResidualReport",
    "SpinOperatorSet",
    "SpinSpace",
    "TensorOperator",
    "alpha_labels",
    "basis_matrix",
    "build_h",
    "build_rep",
    "build_spin_ops",
    "build_ur",
    "casimir_identities",
    "cg",
    "cg_float",
    "cg_nonstandard",
    "cg_nonstandard_tensor",
    "coupled_j_values",
    "f_small",
    "fbar",
    "fbar_tensor",
    "m_values",
    "overlap",
    "recoupling_invariance_check",
    "sixj",
    "spherical_tensor_from_j",
    "tensor_to_alpha",
    "threejm",
    "triangle",
    "verify_cg_orthonormality",
    "verify_eigenbasis",
    "verify_fbar_symmetry",
    "verify_su2",
    "w_algebra_residual",
    "wigner_eckart_check",
]
