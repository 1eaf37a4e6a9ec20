"""Seeded inputs and the fixed job set of each benchmark workload.

A workload is a list of jobs; a job is one ``gfcurves`` CLI invocation plus
the independent check of its output.  The program only ever sees the
generated argv.  Inputs depend on the workload name and the seed alone, so
the same seed gives the same argv on every machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks

HEIGHT = 9  # numerators in [-HEIGHT, HEIGHT], denominators in [1, HEIGHT]
COMPLEX_RADIUS = 3.0
COMPLEX_GAP = 0.25  # minimum distance between complex cone points


@dataclass(frozen=True)
class Job:
    name: str
    argv: list[str]
    check: Callable[[str], list[str]]


def rational_tuple(rng: random.Random, count: int) -> tuple[Fraction, ...]:
    """Distinct small-height rationals avoiding 0 and 1: a point of V_{count+2}."""
    values: list[Fraction] = []
    while len(values) < count:
        v = Fraction(rng.randint(-HEIGHT, HEIGHT), rng.randint(1, HEIGHT))
        if v not in (0, 1) and v not in values:
            values.append(v)
    return tuple(values)


def complex_tuple(rng: random.Random, count: int) -> tuple[complex, ...]:
    """Complex cone points with 4-decimal parts, well apart from 0, 1 and each other."""
    values: list[complex] = []
    while len(values) < count:
        v = complex(
            round(rng.uniform(-COMPLEX_RADIUS, COMPLEX_RADIUS), 4),
            round(rng.uniform(-COMPLEX_RADIUS, COMPLEX_RADIUS), 4),
        )
        if all(abs(v - w) >= COMPLEX_GAP for w in (0, 1, *values)):
            values.append(v)
    return tuple(values)


def certified_delta(rng: random.Random, lam) -> tuple[Fraction, ...]:
    """A rational tuple whose j-invariant multiset differs from lam's."""
    while True:
        delta = rational_tuple(rng, len(lam))
        if checks.certified_inequivalent(lam, delta):
            return delta


def fmt(v) -> str:
    """CLI spelling of a lambda value: 'num/den', 'num' or 're,im'."""
    if isinstance(v, complex):
        return f"{v.real:.4f},{v.imag:.4f}"
    return str(v)


def _lam(values) -> list[str]:
    return ["--lambda", *map(fmt, values)]


def catalog(rng: random.Random) -> list[Job]:
    lam7 = rational_tuple(rng, 5)
    lam4 = rational_tuple(rng, 2)
    return [
        Job("classify-2-7", ["classify", "-p", "2", "-n", "7", *_lam(lam7), "--format", "json"],
            checks.check_classify(2, 7)),
        Job("enumerate-3-5", ["enumerate", "-p", "3", "-n", "5", "--format", "json"],
            checks.check_enumerate(3, 5)),
        Job("enumerate-5-4", ["enumerate", "-p", "5", "-n", "4", "--format", "json"],
            checks.check_enumerate(5, 4)),
        Job("humbert-demo", ["humbert-demo", *_lam(lam4), "--format", "json"],
            checks.check_humbert),
    ]


def verify_battery(rng: random.Random) -> list[Job]:
    lam6 = rational_tuple(rng, 4)
    lam4 = rational_tuple(rng, 2)
    sample_seed = rng.randrange(10**6)
    return [
        Job("verify-2-6",
            ["verify", "-p", "2", "-n", "6", *_lam(lam6), "--samples", "20",
             "--seed", str(sample_seed), "--format", "json"],
            checks.check_verify(2, 6, 20)),
        Job("verify-3-4",
            ["verify", "-p", "3", "-n", "4", *_lam(lam4), "--samples", "100", "--format", "json"],
            checks.check_verify(3, 4, 100)),
    ]


def moduli_orbit(rng: random.Random) -> list[Job]:
    lam = rational_tuple(rng, 5)
    delta = certified_delta(rng, lam)
    clam = complex_tuple(rng, 4)
    return [
        Job("orbit-exact-7", ["moduli", *_lam(lam), "--format", "json"],
            checks.check_orbit(checks.exact_orbit_size(lam))),
        Job("same-orbit-miss-7", ["moduli", *_lam(lam), "--delta", *map(fmt, delta), "--format", "json"],
            checks.check_inequivalent),
        Job("orbit-float-6", ["moduli", *_lam(clam), "--format", "json"],
            checks.check_orbit(checks.float_orbit_size(clam))),
    ]


WORKLOADS = {
    "catalog": catalog,
    "verify-battery": verify_battery,
    "moduli-orbit": moduli_orbit,
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
