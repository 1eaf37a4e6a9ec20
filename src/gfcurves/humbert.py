"""Worked example for type (2, 4): all quotients of a genus-5 curve.

The ten rank-1 subgroups give genus-3 curves of the form
y^2 = (x^4 + 2(1-2a)x^2 + 1)(x^4 + 2(1-2b)x^2 + 1); the ten rank-2 subgroups
give genus-2 curves in six Weierstrass points.  Every construction here runs
through the general case machinery; what is frozen below is only the choice
of Moebius normalization per subgroup, picked to reproduce the published
tables verbatim (any other choice gives an equivalent curve).
"""

from __future__ import annotations

from itertools import combinations

from .errors import DomainError
from .free_action import quotient_genus
from .groups import CurveType, Subgroup
from .hyperelliptic import (
    HyperellipticCurve,
    block_difference_subgroup,
    block_subgroups,
    curve_case2,
    curve_case4,
)
from .moduli import valid_lambda
from .riemann_sphere import Moebius, as_exact, cnroot, json_number

CT_2_4 = CurveType(2, 4)

# (b1, b2, b3) anchor triples (cone-point indices) per rank-1 big part; these
# reproduce the published genus-3 parameter pairs (a, b) = (T(p_i), T(p_j)).
CASE4_ANCHOR_ORDER = {
    (1, 2): (4, 5, 3),
    (1, 3): (4, 5, 2),
    (1, 4): (5, 2, 3),
    (1, 5): (4, 2, 3),
    (2, 3): (4, 5, 1),
    (2, 4): (1, 5, 3),
    (2, 5): (1, 4, 3),
    (3, 4): (1, 2, 5),
    (3, 5): (1, 2, 4),
    (4, 5): (1, 2, 3),
}


def _genus2_square_maps(l1, l2):
    """The ten published degree-2 covers Q(z) = M(z^2), in table order.

    Each entry: (omitted cone-point indices, M acting on w = z^2, flip)
    where flip marks the published extra coordinate change x -> ix.
    """
    one, zero = as_exact(1), as_exact(0)
    return [
        ((1, 2), Moebius(one, zero, zero, one), True),
        ((1, 3), Moebius(one, one, zero, one), False),
        ((1, 4), Moebius(one, l1, zero, one), False),
        ((1, 5), Moebius(one, l2, zero, one), False),
        ((2, 3), Moebius(zero, one, one, one), False),
        ((2, 4), Moebius(zero, l1, one, one), False),
        ((2, 5), Moebius(zero, l2, one, one), False),
        ((3, 4), Moebius(one, l1, one, one), False),
        ((3, 5), Moebius(one, l2, one, one), False),
        ((4, 5), Moebius(l1, l2, one, one), False),
    ]


def rank1_subgroups_in_table_order() -> list[tuple[tuple[int, int], Subgroup]]:
    """(big part, subgroup) pairs for the ten rank-1 quotients, index order:
    the Case4 block subgroups, each with its block."""
    return [(big, Subgroup(CT_2_4, basis)) for basis, (_, big) in block_subgroups(CT_2_4, 1).items()]


def genus3_pairs(lam) -> list[dict]:
    """The ten (a, b) quartic parameters, via the frozen normalizations."""
    lam = valid_lambda(lam, 4)
    out = []
    for big, K in rank1_subgroups_in_table_order():
        construction = curve_case4(
            CT_2_4, lam, big, anchor_order=CASE4_ANCHOR_ORDER[big]
        )
        a, b = construction.details["q_values"]
        out.append(
            {
                "big_part": big,
                "subgroup": K,
                "pair": (a, b),
                "construction": construction,
            }
        )
    return out


def genus2_curves(lam) -> list[dict]:
    """The ten genus-2 quotient curves in the published normalization: each
    is curve_case2 with its published square map, the flipped one then
    taken through x -> ix.  A factor x^2 + c has c = -w for each w_value w,
    or c = w after the flip."""
    lam = valid_lambda(lam, 4)
    out = []
    for index, (omitted, w_map, flip) in enumerate(_genus2_square_maps(*lam), start=1):
        kept = tuple(sorted(set(range(1, 6)) - set(omitted)))
        construction = curve_case2(CT_2_4, lam, kept, square_map=w_map)
        curve = construction.curve
        if flip:
            curve = HyperellipticCurve(2, tuple(r for z in curve.roots[::2] for r in (z * 1j, -(z * 1j))))
        out.append(
            {
                "index": index,
                "omitted": omitted,
                "kept": kept,
                "subgroup": block_difference_subgroup(CT_2_4, kept),
                "w_map": w_map,
                "flip": flip,
                "factors": [
                    {"cone_index": i, "constant": w if flip else -w}
                    for i, w in zip(kept, construction.details["w_values"])
                ],
                "curve": curve,
            }
        )
    return out


def containment_table(lam) -> list[dict]:
    """Per rank-2 subgroup: its three rank-1 subgroups and their quartic covers.

    The genus-3 cover for a choice of third branch point b3 keeps the two
    quadratic factors away from b3 and doubles them to quartics x^4 + c.
    """
    return _containment(genus2_curves(lam))


def _containment(genus2) -> list[dict]:
    """containment_table from the entries of genus2_curves."""
    entries = []
    for entry in genus2:
        kept = entry["kept"]
        K = entry["subgroup"]
        covers = []
        for sub_pair in combinations(kept, 2):
            L = block_difference_subgroup(CT_2_4, sub_pair)
            if not K.contains_subgroup(L):
                raise DomainError("containment table inconsistency")
            b3 = next(i for i in kept if i not in sub_pair)
            quartic_constants = [
                f["constant"] for f in entry["factors"] if f["cone_index"] != b3
            ]
            roots = []
            for c in quartic_constants:
                roots.extend(cnroot(-c, 4, k) for k in range(4))
            cover_curve = HyperellipticCurve(3, tuple(roots))
            covers.append(
                {
                    "rank1_big_part": sub_pair,
                    "subgroup": L,
                    "b3": b3,
                    "quartic_constants": quartic_constants,
                    "curve": cover_curve,
                }
            )
        entries.append(
            {
                "index": entry["index"],
                "omitted": entry["omitted"],
                "subgroup": K,
                "curve": entry["curve"],
                "contains": covers,
            }
        )
    return entries


def full_report(lam) -> dict:
    """The complete worked example: pairs, curves, containment, genera."""
    lam = valid_lambda(lam, 4)
    genus2 = genus2_curves(lam)
    return {
        "lambda": lam,
        "genus3": genus3_pairs(lam),
        "genus2": genus2,
        "containment": _containment(genus2),
        "genus3_value": quotient_genus(CT_2_4, 1),
        "genus2_value": quotient_genus(CT_2_4, 2),
    }


def report_json(report: dict) -> dict:
    """The JSON payload of a full_report: lambda, the genus-3 pairs, the
    genus-2 curves and the containment table."""
    return {
        "lambda": list(map(json_number, report["lambda"])),
        "genus3_pairs": [
            {"big_part": list(e["big_part"]), "subgroup": e["subgroup"],
             "pair": list(map(json_number, e["pair"]))}
            for e in report["genus3"]
        ],
        "genus2_curves": [
            {
                "index": e["index"],
                "omitted": list(e["omitted"]),
                "subgroup": e["subgroup"],
                "factors": [
                    {"cone_index": f["cone_index"], "constant": json_number(f["constant"])}
                    for f in e["factors"]
                ],
                "curve": e["curve"].to_json(),
            }
            for e in report["genus2"]
        ],
        "containment": [
            {
                "index": e["index"],
                "subgroup": e["subgroup"],
                "contains": [
                    {
                        "subgroup": c["subgroup"],
                        "b3": c["b3"],
                        "quartic_constants": list(map(json_number, c["quartic_constants"])),
                    }
                    for c in e["contains"]
                ],
            }
            for e in report["containment"]
        ],
    }
