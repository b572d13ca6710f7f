"""Exact-arithmetic toolkit for polarization obstructions on twisted powers
of elliptic curves.

The package constructs, for an odd prime p, the order-p integer cocycle
matrix and the degree-p^2 polarization form attached to the twist of a
(p-1)-st power of an elliptic curve, verifies the descent identities behind
the construction, and carries out the kernel-class calculus that shows the
resulting isogeny class admits no principal polarization.

The command line lives in polobstruct.cli and is not imported here, so
``python -m polobstruct.cli`` runs without runpy's already-imported warning.
"""

from .intlinalg import (
    IntPoly,
    Matrix,
    SnfResult,
    charpoly,
    col_hnf,
    col_lattice_contains,
    col_lattice_eq,
    det,
    hnf_row,
    int_kernel,
    invert,
    leading_principal_minors,
    matrix_from_json,
    matrix_to_json,
    minpoly,
    snf,
    solve_exact,
)
from .cyclotomic import (
    CycElem,
    RealElem,
    complex_conj,
    cyclotomic_poly,
    eta,
    format_element,
    is_odd_prime,
    is_totally_positive,
    norm_real_to_Q,
    norm_to_Q,
    parse_element,
    real_mult_matrix,
    regular_rep,
    restrict_to_real,
)
from .twist import (
    TwistData,
    build_b,
    build_zeta,
    centralizer_basis,
    endo_degree,
    endo_descends,
    flatten_matrices,
    pol_descends,
    power_basis_transform,
    reduce_shift,
    rosati,
    zeta_power_lattice,
)
from .galmod import (
    EpRank,
    TorsionModule,
    build_ptorsion,
    composition_factors,
    e_rank_of_order,
    filtration_dims,
    polarization_parity,
)
from .kergroup import (
    AbGroupPresentation,
    AlgebraDescriptor,
    AlgebraFactor,
    AttainabilityResult,
    CenterField,
    KerClass,
    LabelSet,
    ModelDescriptor,
    PhiSample,
    QuaternionAlgebra,
    SimpleLabel,
    attainable,
    b1_group,
    b2_group,
    b_subgroup_gens,
    cartier_dual,
    is_square_in_Qp,
    nrd_dagger_status,
    parity_hom,
    phi_p_part,
    prin_p_part,
    quaternion_positive,
    quaternion_witness_check,
    quotient_group,
    r_membership,
    twist_labels,
    twist_model,
)

__version__ = "0.1.0"

__all__ = [
    "IntPoly", "Matrix", "SnfResult", "charpoly", "col_hnf",
    "col_lattice_contains", "col_lattice_eq", "det", "hnf_row", "int_kernel",
    "invert", "leading_principal_minors", "matrix_from_json", "matrix_to_json",
    "minpoly", "snf", "solve_exact",
    "CycElem", "RealElem", "complex_conj", "cyclotomic_poly", "eta",
    "format_element", "is_odd_prime", "is_totally_positive", "norm_real_to_Q",
    "norm_to_Q", "parse_element", "real_mult_matrix", "regular_rep",
    "restrict_to_real",
    "TwistData", "build_b", "build_zeta", "centralizer_basis", "endo_degree",
    "endo_descends", "flatten_matrices", "pol_descends",
    "power_basis_transform", "reduce_shift", "rosati", "zeta_power_lattice",
    "EpRank", "TorsionModule", "build_ptorsion", "composition_factors",
    "e_rank_of_order", "filtration_dims", "polarization_parity",
    "AbGroupPresentation", "AlgebraDescriptor", "AlgebraFactor",
    "AttainabilityResult", "CenterField", "KerClass", "LabelSet",
    "ModelDescriptor", "PhiSample", "QuaternionAlgebra", "SimpleLabel",
    "attainable", "b1_group", "b2_group", "b_subgroup_gens", "cartier_dual",
    "is_square_in_Qp", "nrd_dagger_status", "parity_hom", "phi_p_part",
    "prin_p_part", "quaternion_positive", "quaternion_witness_check",
    "quotient_group", "r_membership", "twist_labels", "twist_model",
    "__version__",
]
