"""Independent output checks for the benchmark jobs.

Nothing here imports gfcurves.  Every expected value is derived from first
principles, so a check cannot pass because the program agrees with itself:

* subgroup counts come from the closed form S(r) / |GL_r(F_p)| (a Moebius
  inversion over the subspace lattice of F_p^r), not from the partition walk;
* orbit sizes come from normalising every ordered triple of cone points to
  (inf, 0, 1), not from the (n+1)! permutation scan;
* non-equivalence of two parameter tuples is certified by their multisets of
  4-point j-invariants, computed in exact Fractions.

A check takes the job's standard output and returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

INF = None  # the point at infinity in cone-point lists


# -- closed-form subgroup count -------------------------------------------------


def gaussian_binomial(r: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^r."""
    num = prod(p ** (r - i) - 1 for i in range(k))
    den = prod(p ** (i + 1) - 1 for i in range(k))
    return num // den


def gl_order(r: int, p: int) -> int:
    return prod(p**r - p**i for i in range(r))


def free_subgroup_count(p: int, n: int, m: int) -> int:
    """Freely-acting rank-m subgroups of type (p, n): S(r) / |GL_r(F_p)|, r = n - m.

    f(d) counts maps {1..n+1} -> F_p^d \\ {0} whose values sum to zero; S(r)
    keeps those whose values span F_p^r.
    """
    r, big_n = n - m, n + 1

    def f(d: int) -> int:
        q = p**d
        return ((q - 1) ** big_n + (q - 1) * (-1) ** big_n) // q

    spanning = sum(
        (-1) ** (r - k) * p ** comb(r - k, 2) * gaussian_binomial(r, k, p) * f(k)
        for k in range(r + 1)
    )
    count, rest = divmod(spanning, gl_order(r, p))
    if rest:
        raise ArithmeticError(f"S({r}) not divisible by |GL_{r}(F_{p})|")
    return count


# -- cone points, cross-ratios and orbits ---------------------------------------


def cone_points(lam) -> list:
    return [INF, Fraction(0), Fraction(1)] + list(lam)


def normalise(z, z1, z2, z3):
    """Image of z under the Moebius map sending z1, z2, z3 to inf, 0, 1.

    All four points are distinct and at most one of them is infinite.
    """
    if z is INF:
        return (z3 - z1) / (z3 - z2)
    if z1 is INF:
        return (z - z2) / (z3 - z2)
    if z2 is INF:
        return (z3 - z1) / (z - z1)
    if z3 is INF:
        return (z - z2) / (z - z1)
    return (z - z2) * (z3 - z1) / ((z - z1) * (z3 - z2))


def triple_images(lam) -> list[list]:
    """For each ordered triple of cone points, the images of the other points."""
    pts = cone_points(lam)
    out = []
    for i in range(len(pts)):
        for j in range(len(pts)):
            for k in range(len(pts)):
                if len({i, j, k}) < 3:
                    continue
                rest = [pts[x] for x in range(len(pts)) if x not in (i, j, k)]
                out.append([normalise(z, pts[i], pts[j], pts[k]) for z in rest])
    return out


def exact_orbit_size(lam) -> int:
    """Size of the orbit of an exact lambda tuple under cone-point relabelling.

    Each relabelling is fixed by which cone points go to (inf, 0, 1) and by
    the order of the rest; the images of the rest are distinct, so every
    distinct image set stands for (n-2)! ordered tuples.
    """
    sets = {frozenset(images) for images in triple_images(lam)}
    return len(sets) * factorial(len(lam))


def _close(a: complex, b: complex, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def float_orbit_size(lam, tol: float = 1e-9) -> int:
    """Orbit size for a floating-point tuple, merging image sets within tol.

    Image sets are compared by matching values pairwise within a relative
    tolerance, not by a rounded grid, so values that straddle a grid line
    still count once.
    """
    classes: list[list[complex]] = []
    for images in triple_images([complex(v) for v in lam]):
        images = [complex(v) for v in images]
        for rep in classes:
            remaining = list(rep)
            for v in images:
                hit = next((i for i, w in enumerate(remaining) if _close(v, w, tol)), None)
                if hit is None:
                    break
                remaining.pop(hit)
            else:
                break
        else:
            classes.append(images)
    return len(classes) * factorial(len(lam))


def j_invariant(a, b, c, d) -> Fraction:
    """j-invariant of four distinct points on the sphere (order-independent)."""
    x = normalise(d, a, b, c)
    return 256 * (x * x - x + 1) ** 3 / (x * x * (x - 1) ** 2)


def j_multiset(lam) -> Counter:
    return Counter(j_invariant(*quad) for quad in combinations(cone_points(lam), 4))


def certified_inequivalent(lam, delta) -> bool:
    """True when no relabelling of cone points maps lam to delta."""
    return j_multiset(lam) != j_multiset(delta)


# -- per-job output checks ----------------------------------------------------


def _load(stdout: str):
    try:
        return json.loads(stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def _key(subgroup: dict) -> tuple:
    return tuple(tuple(row) for row in subgroup["basis"])


def _rank_problems(p: int, n: int, rank: int, subgroups: list) -> list[str]:
    problems = []
    expected = free_subgroup_count(p, n, rank)
    if len(subgroups) != expected:
        problems.append(f"rank {rank}: {len(subgroups)} subgroups, closed form gives {expected}")
    if len({_key(s) for s in subgroups}) != len(subgroups):
        problems.append(f"rank {rank}: repeated subgroups")
    return problems


def check_enumerate(p: int, n: int):
    def check(stdout: str) -> list[str]:
        data, problems = _load(stdout)
        if data is None:
            return problems
        ranks = [entry["rank"] for entry in data["ranks"]]
        if ranks != list(range(1, n)):
            problems.append(f"ranks {ranks}, expected 1..{n - 1}")
        for entry in data["ranks"]:
            if entry["count"] != len(entry["subgroups"]):
                problems.append(f"rank {entry['rank']}: count disagrees with the list")
            problems += _rank_problems(p, n, entry["rank"], entry["subgroups"])
        return problems

    return check


def check_classify(p: int, n: int):
    def check(stdout: str) -> list[str]:
        data, problems = _load(stdout)
        if data is None:
            return problems
        by_rank: dict[int, list] = {m: [] for m in range(1, n)}
        for entry in data["entries"]:
            by_rank.setdefault(entry["rank"], []).append(entry["subgroup"])
        for rank, subgroups in sorted(by_rank.items()):
            problems += _rank_problems(p, n, rank, subgroups)
        counts = data["counts"]
        if sum(counts.values()) != len(data["entries"]):
            problems.append(
                f"label counts sum to {sum(counts.values())}, total is {len(data['entries'])}"
            )
        if Counter(e["label"] for e in data["entries"]) != Counter(counts):
            problems.append("label counts disagree with the entries")
        return problems

    return check


def check_verify(p: int, n: int, samples: int):
    def check(stdout: str) -> list[str]:
        data, problems = _load(stdout)
        if data is None:
            return problems
        if data["pass"] is not True:
            problems.append("verification did not pass")
        models = [c for c in data["checks"] if c["kind"] == "quotient_model"]
        by_rank: dict[int, list] = {m: [] for m in range(1, n)}
        for c in models:
            by_rank.setdefault(len(c["subgroup"]["basis"]), []).append(c["subgroup"])
        for rank, subgroups in sorted(by_rank.items()):
            problems += _rank_problems(p, n, rank, subgroups)
        for c in models:
            report = c["report"]
            if not report["checks"] or any(k["samples"] != samples for k in report["checks"]):
                problems.append(
                    f"model check of {c['subgroup']['generators']} did not run {samples} samples"
                )
        for c in data["checks"]:
            if c["report"]["pass"] is not True:
                problems.append(f"{c['kind']} failed for {c['subgroup']['generators']}")
        return problems

    return check


def check_orbit(expected: int):
    def check(stdout: str) -> list[str]:
        data, problems = _load(stdout)
        if data is None:
            return problems
        if data["orbit_size"] != expected:
            problems.append(
                f"orbit size {data['orbit_size']}, triple normalisation gives {expected}"
            )
        return problems

    return check


def check_inequivalent(stdout: str) -> list[str]:
    data, problems = _load(stdout)
    if data is None:
        return problems
    if data["equivalent"] is not False or data["witness"] is not None:
        problems.append("tuples with different j-invariant multisets reported equivalent")
    return problems


def check_humbert(stdout: str) -> list[str]:
    data, problems = _load(stdout)
    if data is None:
        return problems
    if len(data["genus2_curves"]) != 10:
        problems.append(f"{len(data['genus2_curves'])} genus-2 curves, expected 10")
    if len(data["genus3_pairs"]) != 10:
        problems.append(f"{len(data['genus3_pairs'])} genus-3 pairs, expected 10")
    return problems
