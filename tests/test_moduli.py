"""The parameter-domain symmetry action and orbit equivalence."""

import cmath
import json
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfcurves import (
    CurveType,
    DomainError,
    build_curve,
    classify,
    curve_case1,
    curve_case2,
    curve_case3,
    curve_case4,
    curve_case5,
    cyclic_gonal_model,
    enumerate_free_subgroups,
    moduli,
    moebius_from_three_points,
    orbit_size,
    riemann_sphere,
    same_orbit,
    sample_fiber,
    theta,
    validate_lambda,
)
from gfcurves.cli import main
from gfcurves.gonal import slope_table
from gfcurves.humbert import containment_table, full_report, genus2_curves, genus3_pairs
from gfcurves.moduli import Lambda, cone_points, invert_permutation, stabiliser, theta_orbit, valid_lambda
from helpers import (
    compose_permutations,
    count_calls,
    exhaustive_orbit_size,
    exhaustive_same_orbit,
    identity_permutation,
    j_invariants,
    map_b,
    map_t,
    moebius_stabiliser_order,
    permutation_images,
)

LAM = (Fraction(3), Fraction(7))


def test_validate_lambda():
    validate_lambda(LAM, 4)
    with pytest.raises(DomainError):
        validate_lambda((Fraction(0), Fraction(3)), 4)
    with pytest.raises(DomainError):
        validate_lambda((Fraction(1), Fraction(3)), 4)
    with pytest.raises(DomainError):
        validate_lambda((Fraction(3), Fraction(3)), 4)
    with pytest.raises(DomainError):
        validate_lambda((Fraction(3),), 4)
    for bad in (float("nan"), complex(float("nan"), 0), complex(1, float("nan"))):
        with pytest.raises(DomainError):
            validate_lambda((bad, Fraction(3)), 4)
        with pytest.raises(DomainError):
            validate_lambda((bad, 3.0), 4, tol=1e-12)
    # beyond 1/tol sphere_close cannot tell an entry from the cone point inf
    for big in (1e200, 10**400):
        with pytest.raises(DomainError, match="inf"):
            validate_lambda((big, 3.0), 4, tol=1e-12)


def test_a_lambda_is_checked_once(monkeypatch):
    lam3, lam4, lam5 = (
        validate_lambda(lam, len(lam) + 2)
        for lam in ((Fraction(4),), LAM, (Fraction(6), Fraction(2), Fraction(3)))
    )
    assert type(lam4) is Lambda and lam4 == LAM and valid_lambda(lam4, 4) is lam4
    ct4, ct5 = CurveType(2, 4), CurveType(2, 5)
    K = enumerate_free_subgroups(ct4, 2)[0]
    validations = count_calls(monkeypatch, moduli, "validate_lambda")
    theta((2, 1, 3, 4, 5), lam4)
    slope_table(ct4, lam4)
    curve_case1(ct5, lam5)
    curve_case2(ct4, lam4, kept_indices=(3, 4, 5))
    curve_case3(ct5, lam5)
    curve_case4(ct4, lam4, big_part=(1, 2))
    curve_case5(CurveType(3, 3), lam3)
    cyclic_gonal_model(K, lam4)
    sample_fiber(ct4, lam4, 0.5 + 0.5j, (0, 1, 0, 1))
    for report in (genus3_pairs, genus2_curves, containment_table, full_report):
        report(lam4)
    orbit_size(lam4)
    stabiliser(lam4)
    same_orbit(lam4, lam4)
    theta_orbit(lam4)
    for build in (classify, build_curve):
        build(K, lam4)
    assert validations == []


def test_a_lambda_of_the_wrong_length_is_checked_again(monkeypatch):
    lam4, lam5 = validate_lambda(LAM, 4), validate_lambda(LAM + (Fraction(11),), 5)
    ct5 = CurveType(2, 5)
    K = enumerate_free_subgroups(ct5, 1)[0]
    validations = count_calls(monkeypatch, moduli, "validate_lambda")
    calls = [
        lambda: valid_lambda(lam4, 5),
        lambda: slope_table(ct5, lam4),
        lambda: curve_case1(ct5, lam4),
        lambda: curve_case5(CurveType(3, 3), lam4),
        lambda: cyclic_gonal_model(K, lam4),
        lambda: sample_fiber(ct5, lam4, 0.5 + 0.5j, (0,) * 5),
        lambda: classify(K, lam4),
        lambda: same_orbit(lam5, lam4),
    ]
    for count, call in enumerate(calls, start=1):
        with pytest.raises(DomainError, match=r"lambda values for n = [35], got 2"):
            call()
        assert len(validations) == count


def test_theta_orbit_lists_exact_orbits_only():
    for lam in ((3.0, 7.0), (Fraction(3), complex(7, 1))):
        with pytest.raises(DomainError, match="orbit_size"):
            theta_orbit(lam)


def test_map_b_is_componentwise_inversion_and_involution():
    assert map_b(LAM) == (Fraction(1, 3), Fraction(1, 7))
    assert map_b(map_b(LAM)) == LAM


def test_map_t_formula_n4():
    l1, l2 = LAM
    assert map_t(LAM) == (l2 / (l2 - 1), l2 / (l2 - l1))


def test_theta_special_permutations_exact():
    # transposition of the first two cone points acts as b
    assert theta((2, 1, 3, 4, 5), LAM) == map_b(LAM)
    # full cycle acts as t
    assert theta((2, 3, 4, 5, 1), LAM) == map_t(LAM)
    # identity acts trivially
    assert theta(identity_permutation(4), LAM) == LAM


def test_theta_special_permutations_other_n():
    lam5 = (Fraction(3), Fraction(7), Fraction(11))
    assert theta((2, 1, 3, 4, 5, 6), lam5) == map_b(lam5)
    assert theta((2, 3, 4, 5, 6, 1), lam5) == map_t(lam5)


@pytest.mark.parametrize(
    "sigma, lam",
    [((1, 2, 3, 4, 5), (3, 3)), ((1, 2, 3, 4, 5), (0, 7)), ((1, 2, 3, 4), LAM), ((1, 1, 3, 4, 5), LAM)],
)
def test_theta_checks_lambda_and_sigma(sigma, lam):
    with pytest.raises(DomainError):
        theta(sigma, lam)


def test_theta_homomorphism_numeric():
    rng = random.Random(11)
    checked = 0
    while checked < 50:
        lam = tuple(
            complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(2)
        )
        try:
            validate_lambda(lam, 4)
        except DomainError:
            continue
        sigma = tuple(rng.sample(range(1, 6), 5))
        tau = tuple(rng.sample(range(1, 6), 5))
        lhs = theta(compose_permutations(sigma, tau), lam)
        rhs = theta(sigma, theta(tau, lam))
        for a, b in zip(lhs, rhs):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
        checked += 1


def test_permutation_utilities():
    sigma = (2, 3, 1, 5, 4)
    assert compose_permutations(sigma, invert_permutation(sigma)) == identity_permutation(4)


def test_images_stay_in_domain():
    rng = random.Random(5)
    for _ in range(25):
        lam = tuple(Fraction(rng.randint(2, 60), rng.randint(1, 7)) for _ in range(2))
        try:
            validate_lambda(lam, 4)
        except DomainError:
            continue
        validate_lambda(map_t(lam), 4)
        validate_lambda(map_b(lam), 4)
        sigma = tuple(rng.sample(range(1, 6), 5))
        validate_lambda(theta(sigma, lam), 4)


def test_generic_orbit_size_120():
    assert len(theta_orbit(LAM)) == 120


def test_orbit_generated_by_t_and_b():
    # closure of {t, b} on a generic tuple equals the full theta orbit
    seen = {LAM}
    frontier = [LAM]
    while frontier:
        current = frontier.pop()
        for image in (map_t(current), map_b(current)):
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    assert seen == set(theta_orbit(LAM))


def test_same_orbit_examples():
    ok, witness = same_orbit(LAM, map_b(LAM))
    assert ok and witness == (2, 1, 3, 4, 5)
    rng = random.Random(3)
    sigma = tuple(rng.sample(range(1, 6), 5))
    ok2, _ = same_orbit(LAM, theta(sigma, LAM))
    assert ok2
    ok3, witness3 = same_orbit(LAM, (Fraction(22, 7), Fraction(355, 113)))
    assert not ok3 and witness3 is None


def test_n3_orbit_collapses():
    # the symmetry group at n = 3 is a quotient of the permutation group,
    # so the orbit is smaller than 4! = 24
    lam = (Fraction(5),)
    orbit = theta_orbit(lam)
    assert len(orbit) == 6


# -- ordered-triple normalisation against the exhaustive scan -------------------


def seeded_tuples():
    """Exact and complex tuples for n = 3..6, generic ones and ones with a
    nontrivial stabiliser (harmonic, equianharmonic, (l, 1/l))."""
    rng = random.Random(2024)

    def exact(count):
        while True:
            lam = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(count))
            try:
                return validate_lambda(lam, count + 2)
            except DomainError:
                pass

    def inexact(count):
        while True:
            lam = tuple(complex(round(rng.uniform(-3, 3), 3), round(rng.uniform(-3, 3), 3))
                        for _ in range(count))
            if all(abs(v - w) > 0.1 for i, v in enumerate(lam) for w in (0, 1, *lam[:i])):
                return lam

    l = complex(2.0, 0.5)
    return [
        exact(1), exact(1), (Fraction(-1),),
        exact(2), exact(2), (Fraction(3), Fraction(1, 3)),
        exact(3), (Fraction(-1), Fraction(2), Fraction(1, 2)),
        exact(4),
        inexact(1), (cmath.exp(1j * math.pi / 3),),
        inexact(2), (l, 1 / l),
        inexact(3),
        inexact(4),
    ]


# near 0, 1 or inf, where closeness within tol stops being transitive: merging
# image sets one at a time counted 672, 108, 76 and 672 for these
NEAR_DEGENERATE = [(1e-5, 2e-5, 3e-5), (1e-5, 2e-5), (1e10, 3.0), (1 + 1e-6, 1 + 2e-6, 1 + 3e-6)]


@pytest.mark.parametrize("lam", seeded_tuples() + NEAR_DEGENERATE, ids=lambda lam: f"n{len(lam) + 2}")
def test_triples_match_exhaustive_scan(lam):
    rng = random.Random(len(lam))
    images = permutation_images(lam)
    assert orbit_size(lam) == exhaustive_orbit_size(images, lam)
    # equivalent pairs, including lam itself: same verdict and the same witness
    deltas = [lam] + [theta(tuple(rng.sample(range(1, len(lam) + 4), len(lam) + 3)), lam)
                      for _ in range(3)]
    # a non-equivalent pair: a perturbed image
    deltas.append(tuple(v + Fraction(1, 97) if isinstance(v, Fraction) else v + 0.01
                        for v in deltas[-1]))
    for delta in deltas:
        assert same_orbit(lam, delta) == exhaustive_same_orbit(images, delta)
    assert not same_orbit(lam, deltas[-1])[0]


def _moebius_images(lam):
    """(triple, rest, images) per ordered triple, by the Moebius route."""
    pts = cone_points(lam)
    indices = range(len(pts))
    for triple in permutations(indices, 3):
        mob = moebius_from_three_points(*(pts[t] for t in triple))
        rest = [x for x in indices if x not in triple]
        yield triple, rest, [mob(pts[x]) for x in rest]


@pytest.mark.parametrize("kind", ["exact", "float", "complex"])
def test_triples_match_the_moebius_route(kind):
    rng = random.Random(f"triples-{kind}")
    for n in range(3, 9 if kind == "exact" else 8):
        while True:
            if kind == "exact":
                # plain ints as well as Fractions, as the CLI and callers pass them
                lam = tuple(rng.choice([rng.randint(-30, 30), Fraction(rng.randint(-30, 30), rng.randint(1, 30))])
                            for _ in range(n - 2))
            elif kind == "float":
                lam = tuple(rng.uniform(-4, 4) for _ in range(n - 2))
            else:
                lam = tuple(complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(n - 2))
            try:
                lam = validate_lambda(lam, n)
                break
            except DomainError:
                pass
        # the Moebius route on Fractions is exact; on floats it is the reference
        reference = tuple(Fraction(v) for v in lam) if kind == "exact" else lam
        seen = 0
        for (triple, rest, images), (ref_triple, ref_rest, ref_images) in zip(
            moduli._normalised_triples(lam), _moebius_images(reference), strict=True
        ):
            assert (triple, rest) == (ref_triple, ref_rest)
            for image, z in zip(images, ref_images, strict=True):
                if kind == "exact":
                    num, den = image
                    assert type(num) is int and type(den) is int and den > 0
                    assert math.gcd(num, den) == 1 and Fraction(num, den) == z
                else:
                    assert abs(image - z) <= 1e-12 * max(1.0, abs(z))
            seen += 1
        assert seen == (n + 1) * n * (n - 1)


def test_orbit_path_builds_no_moebius_map(monkeypatch):
    exact = GENERIC7
    inexact = (complex(1.2345, 0.5), complex(-2.1, 1.3), complex(0.3, -2.2), complex(2.5, 2.5))
    maps = count_calls(monkeypatch, riemann_sphere, "moebius_from_three_points")
    for lam in (exact, inexact):
        assert orbit_size(lam) == math.factorial(len(lam) + 3)
        delta = theta((2, 1, *range(3, len(lam) + 4)), lam)
        assert len(maps) == 1  # theta keeps the Moebius route, and is counted
        maps.clear()
        assert same_orbit(lam, delta)[0]
        assert not same_orbit(lam, tuple(v + 1 for v in delta))[0]
        assert maps == []


def per_pair_same_orbit(lam, delta, tol: float = 1e-9):
    """same_orbit on exact lambda with each (num, den) image made a number
    again for every entry of delta it is compared with, not once: a Fraction
    equal to the entry when delta is exact, else a float sphere_close to it."""
    n = len(lam) + 2
    if all(not isinstance(d, (float, complex)) for d in delta):
        targets = list(delta)
        close = lambda z, d: Fraction(*z) == d  # noqa: E731
    else:
        targets = [complex(d) for d in delta]
        close = lambda z, d: riemann_sphere.sphere_close(z[0] / z[1], d, tol)  # noqa: E731
    witness = min(moduli._matches(n, moduli._normalised_triples(lam), targets, close), default=None)
    return witness is not None, witness


def exact_sweep_pairs():
    """Seeded exact (lam, delta) pairs at n = 4..7: deltas in the orbit,
    perturbed ones and unrelated ones, for generic lambda and for lambda
    with a nontrivial stabiliser."""
    rng = random.Random("same-orbit-sweep")
    special = {5: (Fraction(-1), Fraction(2), Fraction(1, 2)), 6: (Fraction(-1), Fraction(2), Fraction(1, 2), 3)}
    pairs = []
    for n in range(4, 8):
        for index in range(7):
            lam = special.get(n) if index == 0 else None
            while lam is None:
                candidate = tuple(rng.choice([rng.randint(-12, 12), Fraction(rng.randint(-12, 12), rng.randint(1, 12))])
                                  for _ in range(n - 2))
                try:
                    lam = validate_lambda(candidate, n)
                except DomainError:
                    pass
            for _ in range(2):
                delta = theta(tuple(rng.sample(range(1, n + 2), n + 1)), lam)
                pairs.append((lam, delta))
                nudged = list(delta)
                nudged[rng.randrange(n - 2)] += Fraction(1, rng.randint(50, 500))
                pairs.append((lam, tuple(nudged)))
            unrelated = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(n - 2))
            pairs.append((lam, unrelated))
    return pairs


def test_same_orbit_converts_exact_images_once_with_the_same_answers():
    pairs = [(lam, delta) for lam, delta in exact_sweep_pairs() if _is_lambda(delta, len(lam) + 2)]
    assert len(pairs) >= 100
    verdicts = [same_orbit(lam, delta) for lam, delta in pairs]
    assert verdicts == [per_pair_same_orbit(lam, delta) for lam, delta in pairs]
    assert 40 <= sum(ok for ok, _ in verdicts) < len(pairs)
    # the witness is the one the exhaustive scan finds where that is cheap
    for (lam, delta), verdict in zip(pairs, verdicts):
        if len(lam) == 2:
            assert verdict == exhaustive_same_orbit(permutation_images(lam), delta)


@pytest.mark.parametrize(
    "delta, near",
    [
        ((3, Fraction(7000000000001, 1000000000000)), (1, 2, 3, 4, 5)),
        ((Fraction(1, 3), Fraction(1000000000001, 7000000000000)), (2, 1, 3, 4, 5)),
    ],
)
def test_same_orbit_decides_exact_tuples_exactly(capsys, delta, near):
    # each delta lies within 1e-9 of an image of lambda, theta(near, lambda),
    # but not in the exact orbit: exact tuples are matched by ==, and only a
    # float entry makes the match sphere_close
    lam = (Fraction(3), Fraction(7))
    assert delta not in theta_orbit(lam)
    assert same_orbit(lam, delta) == (False, None) == per_pair_same_orbit(lam, delta)
    assert same_orbit(lam, tuple(map(float, delta))) == (True, near)
    assert same_orbit(lam, theta(near, lam)) == (True, near)
    main(["moduli", "--lambda", "3", "7", "--delta", *map(str, delta)])
    assert capsys.readouterr().out == "equivalent: False\n"


def _is_lambda(lam, n) -> bool:
    try:
        validate_lambda(lam, n)
    except DomainError:
        return False
    return True


def test_near_coincident_points_match_exhaustive_scan():
    # both points lie within tol of both entries of delta, so a per-point
    # match alone would assign them the same position
    lam = (2.0, 2.0 + 1e-12)
    images = permutation_images(lam)
    for delta in [(2.0, 3.0), (2.0 + 1e-12, 2.0), (1 / 2.0, 1 / (2.0 + 1e-12))]:
        assert same_orbit(lam, delta) == exhaustive_same_orbit(images, delta)
    assert same_orbit(lam, (2.0, 3.0)) == (False, None)


def test_special_orbit_sizes():
    # stabilisers of order 4, 2, 2 and 6: harmonic, (l, 1/l), equianharmonic
    assert orbit_size((Fraction(-1),)) == 3
    assert orbit_size((Fraction(3), Fraction(1, 3))) == 60
    assert orbit_size((Fraction(-1), Fraction(2), Fraction(1, 2))) == 60
    assert orbit_size((cmath.exp(1j * math.pi / 3),)) == 2
    # plain ints count as exact, also where floats of the images would collide
    assert orbit_size((10**20, 10**20 + 1)) == orbit_size((Fraction(10**20), Fraction(10**20 + 1)))


@pytest.mark.parametrize(
    "lam, order",
    [
        ((Fraction(-1), Fraction(2), Fraction(1, 2)), 12),
        ((Fraction(2),), 8),
        ((Fraction(-1),), 8),
        ((Fraction(3), Fraction(7)), 1),
        ((Fraction(1, 2), Fraction(-1)), 2),
    ],
)
def test_stabiliser_is_a_group_of_known_order(lam, order):
    n = len(lam) + 2
    for form in (lam, tuple(float(v) for v in lam)):
        group = stabiliser(form)
        assert len(group) == order
        assert identity_permutation(n) in group
        assert all(compose_permutations(g, h) in group for g in group for h in group)
        assert all(theta(g, lam) == lam for g in group)


def test_stabiliser_refuses_a_set_that_is_not_a_group():
    # both entries lie beyond 1/tol, where sphere_close cannot tell them
    # apart or from inf: the matched relabelings are not closed
    with pytest.raises(DomainError, match="not a group"):
        stabiliser((1e200, 2e200))


@pytest.mark.parametrize(
    "lam",
    [
        (3.0000000005, 0.33333333327777775),
        (complex(2.0000000005, 0.5), 1 / complex(2.0000000005, 0.5)),
    ],
)
def test_float_orbit_not_split_by_rounding(lam):
    # (l, 1/l) has a stabiliser of order 2, so its orbit has 120 / 2 = 60
    # points; some of its images straddle a 9-decimal rounding boundary,
    # where rounded keys count 76 and 68
    assert orbit_size(lam) == 60 == exhaustive_orbit_size(permutation_images(lam), lam)


GENERIC7 = (Fraction(3), Fraction(5), Fraction(7), Fraction(11), Fraction(13))
GENERIC8 = GENERIC7 + (Fraction(17),)


@pytest.mark.parametrize(
    "lam, sigma",
    [(GENERIC7, (4, 1, 6, 2, 8, 3, 7, 5)), (GENERIC8, (4, 9, 1, 6, 2, 8, 3, 7, 5))],
    ids=["n7", "n8"],
)
def test_orbits_pinned_at_n7_and_n8(lam, sigma):
    n = len(lam) + 2
    assert orbit_size(lam) == math.factorial(n + 1)  # 40,320 and 362,880
    delta = theta(sigma, lam)
    ok, witness = same_orbit(lam, delta)
    assert ok and theta(witness, lam) == delta
    # a generic lambda has a trivial stabiliser, so the witness is sigma itself
    assert witness == sigma
    other = tuple(v + 1 for v in lam[:-1]) + (Fraction(-1, 2),)
    assert j_invariants(other) != j_invariants(lam)
    assert same_orbit(lam, other) == (False, None)


small_lambda = st.integers(2, 4).flatmap(
    lambda count: st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(lambda v: v not in (0, 1)),
        min_size=count, max_size=count, unique=True,
    )
).map(tuple)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(small_lambda, st.data())
def test_theta_is_a_group_action_and_same_orbit_finds_witness(lam, data):
    n = len(lam) + 2
    sigma = tuple(data.draw(st.permutations(range(1, n + 2))))
    tau = tuple(data.draw(st.permutations(range(1, n + 2))))
    assert theta(identity_permutation(n), lam) == lam
    assert theta(compose_permutations(sigma, tau), lam) == theta(sigma, theta(tau, lam))
    delta = theta(sigma, lam)
    ok, witness = same_orbit(lam, delta)
    assert ok and theta(witness, lam) == delta


def _seeded_lambda(n: int, kind: str):
    """A seeded exact tuple at n whose G_lambda holds, by construction, the
    identity alone ("generic"), z -> 1/z ("inverse": pairs (x, 1/x), and -1
    when n - 2 is odd) or the six maps that permute 0, 1, inf (n = 11,
    "anharmonic": -1, 2, 1/2 and the six images of one x); the seeded
    entries are otherwise generic, so those are all of G_lambda."""
    rng = random.Random(f"{kind}/{n}")
    while True:
        x = [Fraction(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(n - 2)]
        if any(v in (0, 1) for v in x):
            continue
        if kind == "generic":
            lam = tuple(x)
        elif kind == "inverse":
            lam = tuple(v for y in x[: (n - 2) // 2] for v in (y, 1 / y)) + (Fraction(-1),) * ((n - 2) % 2)
        else:
            y = x[0]
            lam = (Fraction(-1), Fraction(2), Fraction(1, 2), y, 1 / y, 1 - y, 1 / (1 - y), y / (y - 1), (y - 1) / y)
        try:
            return validate_lambda(lam, n)
        except DomainError:
            continue


@pytest.mark.parametrize(
    "n, kind, order",
    [(n, kind, order) for n in range(9, 13) for kind, order in (("generic", 1), ("inverse", 2))]
    + [(11, "anharmonic", 6)],
)
def test_moduli_beyond_n8_against_the_moebius_stabiliser(capsys, n, kind, order):
    lam = _seeded_lambda(n, kind)
    assert moebius_stabiliser_order(lam) == order
    values = [str(v) for v in lam]
    assert main(["moduli", "--lambda", *values, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["orbit_size"] == math.factorial(n + 1) // order
    sigma = tuple(random.Random(n).sample(range(1, n + 2), n + 1))
    delta = theta(sigma, lam)
    assert main(["moduli", "--lambda", *values, "--delta", *map(str, delta), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    witness = tuple(data["witness"])
    assert data["equivalent"] and theta(witness, lam) == delta
    # the first of the order relabelings that send lam to delta
    assert witness <= sigma and (order > 1 or witness == sigma)


# entries that lie within tol of each other: a relabeling that swaps them
# fixes lambda too, so the stabiliser takes every assignment of each
# matching triple, not the first alone
@pytest.mark.parametrize(
    "lam, size",
    [((2.00000000001, 2.00000000002), 30), ((2.00000000001, 2.00000000002, 5.0), 360)],
)
def test_near_coincident_entries_match_the_exhaustive_orbit(capsys, lam, size):
    assert orbit_size(lam) == exhaustive_orbit_size(permutation_images(lam), lam) == size
    assert main(["moduli", "--lambda", *map(repr, lam)]) == 0
    assert capsys.readouterr().out == f"orbit size {size}\n"


def test_near_coincident_clusters_are_refused(capsys):
    # three such entries match relabelings that are not a group (exit 2);
    # twelve make the search for every assignment factorial (exit 5)
    assert main(["moduli", "--lambda", "2.00000000001", "2.00000000002", "2.00000000003"]) == 2
    assert "not a group" in capsys.readouterr().err
    assert main(["moduli", "--lambda", *(f"2.{j:011d}" for j in range(1, 13))]) == 5
    assert "assignment steps" in capsys.readouterr().err
