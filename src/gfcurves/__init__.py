"""Freely-acting subgroups of generalized Fermat curves and their quotients.

The package models the Z_p^n symmetry group of the degree-p fiber-product
curve with n+1 branch points, enumerates the subgroups acting freely on it,
emits cyclic p-gonal equations for the smooth quotients, classifies the
hyperelliptic ones with explicit Weierstrass data, and verifies everything
with independent numeric oracles.
"""

from .errors import (
    DomainError,
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
    standard_generators,
)
from .free_action import (
    allowed_hyperelliptic_ranks,
    count_free_subgroups,
    enumerate_free_subgroups,
    quotient_genus,
)
from .gonal import CyclicGonalModel, cyclic_gonal_model
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
from .moduli import orbit_size, same_orbit, theta, validate_lambda
from .riemann_sphere import INF, Moebius, is_inf, moebius_from_three_points
from .verify import (
    sample_fiber,
    verify_hyperelliptic,
    verify_quotient_model,
)

__all__ = [
    "CaseLabel",
    "CurveConstruction",
    "CurveType",
    "CyclicGonalModel",
    "DomainError",
    "GroupElement",
    "HyperellipticCurve",
    "INF",
    "Moebius",
    "NotFreeSubgroupError",
    "ResourceLimitError",
    "Subgroup",
    "VerificationError",
    "allowed_hyperelliptic_ranks",
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
    "hyperelliptic_z2n1_subgroups",
    "is_inf",
    "moebius_from_three_points",
    "orbit_size",
    "quotient_genus",
    "same_orbit",
    "sample_fiber",
    "standard_generators",
    "theta",
    "validate_lambda",
    "verify_hyperelliptic",
    "verify_quotient_model",
]

__version__ = "0.1.0"
