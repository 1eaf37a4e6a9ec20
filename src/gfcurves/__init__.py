"""Freely-acting subgroups of generalized Fermat curves and their quotients.

The package models the Z_p^n symmetry group of the degree-p fiber-product
curve with n+1 branch points, enumerates the subgroups acting freely on it,
emits cyclic p-gonal equations for the smooth quotients, classifies the
hyperelliptic ones with explicit Weierstrass data, and verifies everything
with independent numeric oracles.
"""

from .errors import (
    DomainError,
    MalformedPartitionError,
    NotFreeSubgroupError,
    ResourceLimitError,
    VerificationError,
)
from .groups import (
    CurveType,
    GroupElement,
    Subgroup,
    element_from_word,
    genus_fermat,
    has_fixed_points,
    standard_generators,
    subgroup_from_generators,
)
from .free_action import (
    AdmissiblePartition,
    allowed_hyperelliptic_ranks,
    brute_force_free_subgroups,
    count_free_subgroups,
    enumerate_free_subgroups,
    is_admissible,
    is_free_oracle,
    kernel_of_partition,
    quotient_genus,
)
from .gonal import (
    CyclicGonalModel,
    affine_representation,
    cyclic_gonal_model,
    invariant_lattice_basis,
)
from .hyperelliptic import (
    CaseLabel,
    CurveConstruction,
    HyperellipticCurve,
    build_curve,
    classify,
    curve_case1,
    curve_case2,
    curve_case3,
    curve_case4,
    curve_case5,
    hyperelliptic_z2n1_subgroups,
)
from .moduli import map_b, map_t, orbit_size, same_orbit, theta, theta_orbit, validate_lambda
from .riemann_sphere import INF, Moebius, is_inf, moebius_from_three_points
from .verify import (
    poly_identity_equal,
    sample_fiber,
    verify_hyperelliptic,
    verify_quotient_model,
)

__all__ = [
    "AdmissiblePartition",
    "CaseLabel",
    "CurveConstruction",
    "CurveType",
    "CyclicGonalModel",
    "DomainError",
    "GroupElement",
    "HyperellipticCurve",
    "INF",
    "MalformedPartitionError",
    "Moebius",
    "NotFreeSubgroupError",
    "ResourceLimitError",
    "Subgroup",
    "VerificationError",
    "affine_representation",
    "allowed_hyperelliptic_ranks",
    "brute_force_free_subgroups",
    "build_curve",
    "classify",
    "count_free_subgroups",
    "curve_case1",
    "curve_case2",
    "curve_case3",
    "curve_case4",
    "curve_case5",
    "cyclic_gonal_model",
    "element_from_word",
    "enumerate_free_subgroups",
    "genus_fermat",
    "has_fixed_points",
    "hyperelliptic_z2n1_subgroups",
    "invariant_lattice_basis",
    "is_admissible",
    "is_free_oracle",
    "is_inf",
    "kernel_of_partition",
    "map_b",
    "map_t",
    "moebius_from_three_points",
    "orbit_size",
    "poly_identity_equal",
    "quotient_genus",
    "same_orbit",
    "sample_fiber",
    "standard_generators",
    "subgroup_from_generators",
    "theta",
    "theta_orbit",
    "validate_lambda",
    "verify_hyperelliptic",
    "verify_quotient_model",
]

__version__ = "0.1.0"
