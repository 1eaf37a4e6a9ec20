"""Command-line interface: enumeration, quotients, classification, moduli.

Exit codes: 0 success, 1 stdout closed early, 2 invalid parameters,
3 non-free subgroup, 4 verification failure, 5 resource cutoff.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from fractions import Fraction
from _json import encode_basestring_ascii  # the C function that json.encoder uses, without loading json
from functools import lru_cache
from itertools import repeat
from types import FunctionType, GeneratorType

from . import humbert
from .errors import DomainError, NotFreeSubgroupError, ResourceLimitError, VerificationError
from .free_action import free_subgroup_batches, free_subgroup_count, quotient_genus
from .gonal import cyclic_gonal_model
from .groups import CurveType, Subgroup, element_from_word, exponent_word, genus_fermat
from .hyperelliptic import CaseLabel, block_subgroups, build_curve, expected_label_counts, rank_label
from .hyperelliptic import hyperelliptic_z2n1_subgroups
from .moduli import orbit_size, same_orbit, theta_orbit, validate_lambda
from .riemann_sphere import json_number
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

# Every command's work is priced in units of about a microsecond, before any
# walk or draw, and refused (exit 5) over WORK_BUDGET.  enumerate and
# classify pay WALK_COST per free subgroup (walking it, classifying it and
# writing it: 5-9 us as a command on a 2-vCPU VM, from enumerate (7,5) to
# classify (359,3) at the budget's edge; (23,4) is over it), moduli
# TRIPLE_COST per ordered triple of cone points (27-83 us for a float orbit or
# a search from n = 12 to 48).  verify pays VERIFY_MODEL_COST per free
# subgroup's model (enumerating, modelling, certifying, classifying and
# reporting it, and checking its curve, whose checks sort its roots once:
# 0.7-1.1 s as a command for (19997,2) at the budget's edge) and
# VERIFY_POINT_COST per cone factor of each fiber point, drawn once per call.
# A walk of rank m goes m rows deep, each of n + 1 entries, before its first
# subgroup, whose basis it then writes: each rank also pays ENTRY_COST per
# entry of one such basis, less the one unit that its first subgroup pays.
# Only a deep rank pays more than that unit: rank n - 1 of (2,n), with one
# subgroup at odd n and none at even n.  The deepest in the budget, (2,1413),
# takes 0.7 s as a command with its 34 MB of JSON on a 2-vCPU VM.
WORK_BUDGET = 4_000_000
WALK_COST = 15
TRIPLE_COST = 50
VERIFY_MODEL_COST = 200
VERIFY_POINT_COST = 12
ENTRY_COST = 2


def require_work(what: str, cost: int, ct: CurveType | None, ranks, unit: int) -> list[int]:
    """The count of free subgroups of each rank in ``ranks`` of ct; refuse
    ``what`` (ResourceLimitError) when ``cost`` units plus, for each rank,
    ``unit`` per subgroup and its depth (see ENTRY_COST) exceed WORK_BUDGET.
    Each rank is priced by its closed-form count, which free_subgroup_count
    refuses at once when it exceeds what is left of the budget."""
    counts = []
    try:
        for m in ranks:
            cost += max(0, m * (ct.n + 1) * ENTRY_COST - unit)
            counts.append(free_subgroup_count(ct, m, (WORK_BUDGET - cost) // unit))
            cost += counts[-1] * unit
    except ResourceLimitError:
        cost = math.inf
    if cost > WORK_BUDGET:
        raise ResourceLimitError(f"{what} exceeds the budget of {WORK_BUDGET} work units")
    return counts


def require_verify_budget(ct: CurveType, samples: int, models: int | None = None) -> None:
    """Refuse a verification whose estimate exceeds WORK_BUDGET: ``models``
    quotient models (by default one per free subgroup of ct, and then the
    curves of ct too) checked against ``samples`` drawn fiber points."""
    what = f"verification of type ({ct.p},{ct.n}) at {samples} samples"
    cost = samples * ct.n * VERIFY_POINT_COST
    if models is not None:
        require_work(what, cost + models * VERIFY_MODEL_COST, ct, (), 0)
    else:
        require_work(what, cost, ct, range(1, ct.n), VERIFY_MODEL_COST)


def parse_scalar(text: str):
    """Parse 're', 're,im', or 'num/den' into a number (exact when rational);
    any other text, or a zero denominator, raises DomainError."""
    text = text.strip()
    try:
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
    except (ValueError, ZeroDivisionError):
        raise DomainError(
            f"cannot read {text!r} as a number: expected 're', 're,im' or 'num/den' with den != 0"
        ) from None


def parse_lambda(values, n: int):
    lam = tuple(parse_scalar(v) for v in values or ())
    return validate_lambda(lam, n, tol=1e-12 if any(isinstance(v, (float, complex)) for v in lam) else 0.0)


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# The text of a scalar of each exact type, as json.dumps writes it
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def json_text(value, pad: str = "\n", _open: set | None = None) -> str:
    """The bytes of json.dumps(value, sort_keys=True, indent=2), each of
    its newlines replaced by ``pad``, the newline and indent that close the
    value; json escapes every control character in a string, so its only
    raw newlines are layout.  It is the CLI's one JSON writer, for the values
    that the commands build: dicts with str keys, lists, tuples, str, int,
    float, bool, None and Subgroup, each of exactly that type; any other
    value or key raises TypeError, and a value that contains itself
    ValueError.  It never enters the stdlib's encoder,
    which writes indented JSON in pure Python, a generator per level.  A
    Subgroup, which carries nearly all of a catalog's bytes, is written as
    its to_json() dict would be, from its memoised rows and words."""
    kind = type(value)
    scalar = _SCALAR_TEXT.get(kind)
    if scalar is not None:
        return scalar(value)
    if kind is Subgroup:
        return _subgroup_text(value, pad)
    if kind is not dict and kind is not list and kind is not tuple:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not value:
        return "{}" if kind is dict else "[]"
    # the ids of the containers open around this one, as json.dumps keeps them
    key = id(value)
    if _open is None:
        _open = {key}
    elif key in _open:
        raise ValueError("Circular reference detected")
    else:
        _open.add(key)
    inner = pad + "  "
    get = _SCALAR_TEXT.get
    # scalars, most of the members and elements, are written in place; a
    # key that is not a str makes encode_basestring_ascii raise TypeError
    if kind is dict:
        items = [
            encode_basestring_ascii(k) + ": "
            + (scalar(v) if (scalar := get(type(v))) is not None else json_text(v, inner, _open))
            for k, v in sorted(value.items())
        ]
        text = "{" + inner + ("," + inner).join(items) + pad + "}"
    else:
        items = [scalar(v) if (scalar := get(type(v))) is not None else json_text(v, inner, _open) for v in value]
        text = "[" + inner + ("," + inner).join(items) + pad + "]"
    _open.remove(key)
    return text


# A catalog repeats few distinct basis rows: 119 values over the 45,001 rows
# of a (2,7) classification, at most p^n in general.  Each row's text is
# memoised with its quoted generator word.
@lru_cache(maxsize=4096)
def _basis_row_text(row: tuple[int, ...], indent: str) -> tuple[str, str]:
    inner = indent + "  "
    text = "[" + inner + ("," + inner).join(map(int.__repr__, row)) + indent + "]"
    return text, encode_basestring_ascii(exponent_word(row))


def _subgroup_text(K: Subgroup, pad: str) -> str:
    rows, sep, head, middle, tail, trivial = _subgroup_frame(pad, K.curve_type.n, K.curve_type.p)
    if not K.basis:
        return trivial
    texts, words = _prefix_text(K.basis[:-1], rows, sep)
    text, word = _basis_row_text(K.basis[-1], rows)
    return head + texts + text + middle + words + word + tail


@lru_cache(maxsize=4)
def _prefix_text(prefix: tuple, indent: str, sep: str) -> tuple[str, str]:
    """The texts of the rows ``prefix`` and their words, each followed by ``sep``.  The walk
    yields the subgroups of one prefix together: more entries would only hold more text."""
    pairs = [_basis_row_text(row, indent) for row in prefix]
    return "".join(text + sep for text, _ in pairs), "".join(word + sep for _, word in pairs)


@lru_cache(maxsize=64)
def _subgroup_frame(pad: str, n: int, p: int) -> tuple[str, ...]:
    """The fixed text of a subgroup at ``pad``: the indent of its basis rows
    and words, their separator, the text before the rows, between the rows
    and the words and after the words, and the whole text of the trivial
    subgroup, whose lists are empty."""
    inner = pad + "  "
    rows = inner + "  "
    numbers = "," + inner + f'"n": {n},' + inner + f'"p": {p}' + pad + "}"
    return (
        rows,
        "," + rows,
        "{" + inner + '"basis": [' + rows,
        inner + "]," + inner + '"generators": [' + rows,
        inner + "]" + numbers,
        "{" + inner + '"basis": [],' + inner + '"generators": []' + numbers,
    )


# The most classify entries that one batch writes at once, about 0.1 MB of
# text at (2,7): a run's text is never held whole, and a batch with its
# copies on the way to stdout stays small beside the subgroups of the walk.
ENTRY_BATCH = 128


class _Entries:
    """A run of consecutive classify or verify entries of curve type ct that
    differ only in their subgroups, each written as its dict would be: the
    dict ``members(*key)`` and a last member "subgroup".  Only write_json
    writes it, among the values it streams; json_text refuses it.
    ``stretches`` is a nonempty list of (prefix, rows), each a leaf batch of
    the walk or a piece of one: the subgroups with bases prefix + (row,), of
    rank at least 1, in walk order.  _entries_text writes each stretch around
    one text of its shared rows and words.  ``key`` holds every
    value that the members write, each of its places (and of its values'
    fields) holds one type and no float is -0.0 (equal to 0.0, but written
    differently), so entries with equal keys have equal text around their
    subgroups.  A verify check's report, a model's or a curve's, is such a
    key: each of its residuals is a literal 0.0 or is made of abs() values
    by maxima and division by a positive scale, so none is -0.0."""

    __slots__ = ("curve_type", "stretches", "members", "key")

    def __init__(self, curve_type: CurveType, stretches: list, members, key: tuple):
        self.curve_type = curve_type
        self.stretches = stretches
        self.members = members
        self.key = key


@lru_cache(maxsize=256)
def _entry_frame(pad: str, members, key: tuple) -> tuple[str, str]:
    """The text of an entry of _Entries at ``pad`` before and after its
    subgroup: the members, whose keys all sort before "subgroup", and the
    subgroup key."""
    inner = pad + "  "
    head = "".join(
        inner + encode_basestring_ascii(k) + ": " + json_text(v, inner) + ","
        for k, v in sorted(members(*key).items())
    )
    return "{" + head + inner + '"subgroup": ', pad + "}"


def _entries_text(entries: _Entries, pad: str) -> str:
    """The entries of ``entries`` at ``pad``, separated as list elements, in
    one join of pieces: for each stretch, the text before and between its
    rows is joined once, around each last row's memoised text and word."""
    head, tail = _entry_frame(pad, entries.members, entries.key)
    ct = entries.curve_type
    rows, sep, opening, middle, closing, _ = _subgroup_frame(pad + "  ", ct.n, ct.p)
    close = closing + tail
    joint = close + "," + pad + head + opening  # from one entry's last word to the next one's rows
    pieces = []
    for prefix, last in entries.stretches:
        texts, words = _prefix_text(prefix, rows, sep)
        before, between = joint + texts, middle + words
        for text, word in map(_basis_row_text, last, repeat(rows)):
            pieces += before, text, between, word
    pieces[0] = head + opening + pieces[0][len(joint):]  # the first entry follows none
    pieces.append(close)
    return "".join(pieces)


def _runs(segments, size: int):
    """The runs of ``segments``, (key, prefix, rows, extra) in walk order, as
    (key, stretches, extra): consecutive segments with equal keys and no
    extra are one run, cut into runs of at most ``size`` rows, and a segment
    with an extra is a run of its own."""
    key, stretches, room = None, [], 0
    for segment_key, prefix, rows, extra in segments:
        if extra is not None or segment_key != key or not room:
            if stretches:
                yield key, stretches, None
            key, stretches, room = segment_key, [], size
            if extra is not None:
                yield key, [(prefix, rows)], extra
                stretches, room = [], 0
                continue
        start = 0  # rows[start:] are left to place
        while len(rows) - start > room:
            stretches.append((prefix, rows[start : start + room]))
            yield key, stretches, None
            start, stretches, room = start + room, [], size
        stretches.append((prefix, rows[start:] if start else rows))
        room -= len(rows) - start
    if stretches:
        yield key, stretches, None


def _classify_members(label: CaseLabel, quotient_genus: int, rank: int) -> dict:
    return {"label": label.value, "quotient_genus": quotient_genus, "rank": rank}


def _check_members(kind: str, report) -> dict:
    return {"kind": kind, "report": report.to_json()}


def write_json(write, value, pad: str = "\n") -> None:
    """Pass the bytes of json_text(value, pad) to ``write`` in pieces, where
    ``value`` may hold generators along a path of dicts and generators: a
    dict with a generator among its direct values is written member by
    member, with str keys sorted, and a generator as the list it yields, one
    element at a time.  An _Entries element is written as the entries it
    stands for, a member that is a function as the value it returns when
    its turn comes (after every member that sorts before it), and every
    other value is one json_text string."""
    if not _streams(value):
        write(json_text(value, pad))
        return
    inner = pad + "  "
    if type(value) is dict:
        items = [(encode_basestring_ascii(k) + ": ", v) for k, v in sorted(value.items())]  # refused before a byte
        brackets = "{}"
    else:
        items = (("", v) for v in value)
        brackets = "[]"
    sep = brackets[0] + inner
    for prefix, item in items:
        if _streams(item):
            write(sep + prefix)
            write_json(write, item, inner)
        elif type(item) is _Entries:
            write(sep + prefix + _entries_text(item, inner))
        else:
            write(sep + prefix + json_text(item() if type(item) is FunctionType else item, inner))
        sep = "," + inner
    write(pad + brackets[1] if sep[0] == "," else brackets)  # an empty generator is []


def _streams(value) -> bool:
    kind = type(value)
    return kind is GeneratorType or (
        kind is dict and any(type(v) is GeneratorType for v in value.values())
    )


def emit(payload: dict, fmt: str, lines=()) -> None:
    """Write payload as indent-2 JSON (streamed through write_json), or the
    text lines, which may come from a generator."""
    write = sys.stdout.write
    if fmt == "json":
        write_json(write, payload)
        write("\n")
    else:
        for line in lines:
            write(line + "\n")


def cmd_enumerate(args) -> int:
    ct = CurveType(args.p, args.n)
    ranks = [args.m] if args.m is not None else list(range(1, ct.n))
    counts = require_work(f"enumeration of type ({ct.p},{ct.n})", 0, ct, ranks, WALK_COST)
    walked = {}  # rank -> subgroups walked
    payload = {
        "p": ct.p,
        "n": ct.n,
        "genus": genus_fermat(ct),
        "ranks": (  # each rank is walked while its subgroups are written
            {
                "rank": m,
                "count": count,
                "quotient_genus": quotient_genus(ct, m) if count else None,
                "subgroups": (Subgroup(ct, prefix + (row,)) for prefix, rows in _walk(ct, m, walked) for row in rows),
            }
            for m, count in zip(ranks, counts)
        ),
    }
    emit(payload, args.format, _enumerate_lines(ct, ranks, counts, walked))
    for m, count in zip(ranks, counts):
        if walked[m] != count:
            raise VerificationError(f"rank {m} of type ({ct.p},{ct.n}): the walk met {walked[m]} "
                                    f"subgroups, the closed form gives {count}")
    return EXIT_OK


def _walk(ct: CurveType, m: int, walked: dict):
    """The leaf batches of rank m, their subgroups tallied in walked[m]."""
    walked[m] = 0
    for prefix, rows in free_subgroup_batches(ct, m):
        walked[m] += len(rows)
        yield prefix, rows


def _enumerate_lines(ct: CurveType, ranks, counts, walked):
    yield f"type ({ct.p},{ct.n}), curve genus {genus_fermat(ct)}"
    for m, count in zip(ranks, counts):
        yield f"rank {m}: {count} freely-acting subgroup(s)"
        for prefix, rows in _walk(ct, m, walked):
            head = "  <" + "".join(word + ", " for word in map(exponent_word, prefix))
            for row in rows:
                yield head + exponent_word(row) + ">"


def _parse_subgroup(ct: CurveType, spec: str) -> Subgroup:
    words = [w for w in spec.split(",") if w.strip()]
    if not words:
        raise DomainError("empty subgroup specification")
    return Subgroup.from_generators(ct, [element_from_word(ct, w) for w in words])


def cmd_quotient(args) -> int:
    ct = CurveType(args.p, args.n)
    lam = parse_lambda(args.lam, ct.n)
    K = _parse_subgroup(ct, args.k)
    require_verify_budget(ct, args.samples, models=1)
    model = cyclic_gonal_model(K, lam, paper_style=args.paper_style)
    [report] = verify_quotient_model([model], samples=args.samples, seed=args.seed)
    payload = {
        "p": ct.p,
        "n": ct.n,
        "lambda": list(map(json_number, lam)),
        "subgroup": K,
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
    rank_label(ct, 1)  # refuses p = 2 with n < 4 before any walk
    require_work(f"classification of type ({ct.p},{ct.n})", 0, ct, range(1, ct.n), WALK_COST)
    lam = parse_lambda(args.lam, ct.n)
    # counts and curves come before the first byte ("counts" sorts before "entries");
    # each rank is walked while its entries are written, then checked against its counts
    expected = expected_label_counts(ct, lam, args.tol)
    curves = [{basis: build_curve(Subgroup(ct, basis), lam, tol=args.tol) for basis in block_subgroups(ct, m)}
              for m in range(1, ct.n)]
    counts = {}
    for label, count in (item for tally in expected.values() for item in tally.items()):
        counts[label.value] = counts.get(label.value, 0) + count
    walked = {}  # rank -> label -> subgroups walked
    runs = _runs(_classify_segments(ct, curves, walked), ENTRY_BATCH)
    payload = {"p": ct.p, "n": ct.n, "lambda": list(map(json_number, lam)),
               "entries": _classify_entries(ct, runs), "counts": counts}
    z2n1 = None
    if ct.p == 2 and ct.n % 2 == 0:
        hyper, non_hyper = hyperelliptic_z2n1_subgroups(ct)
        z2n1 = (len(hyper), len(non_hyper))
        payload["hyperelliptic_z2n1"], payload["non_hyperelliptic_z2n1"] = z2n1
    emit(payload, args.format, _classify_lines(ct, runs, sum(counts.values()), counts, z2n1))
    for m, label in ((m, label) for m in walked for label in CaseLabel):
        want, got = expected.get(m, {}).get(label, 0), walked[m].get(label, 0)
        if want != got:
            raise VerificationError(f"rank {m} of type ({ct.p},{ct.n}): the walk met {got} {label.value} "
                                    f"subgroups, the closed form and block table give {want}")
    return EXIT_OK


def _classify_segments(ct: CurveType, curves: list, walked: dict):
    """The classification as segments ((label, quotient genus, rank), prefix,
    rows, construction), rank by rank as each is walked, its labels tallied
    in ``walked``: consecutive subgroups of one leaf batch and one label
    without a curve, or one subgroup with its curve.  A subgroup outside
    ``curves`` is NotHyperelliptic."""
    no_curve = (CaseLabel.NOT_HYPERELLIPTIC, None)
    for m, built in enumerate(curves, start=1):
        tally = walked[m] = {}
        genus = None
        for prefix, rows in free_subgroup_batches(ct, m):
            if genus is None:
                genus = quotient_genus(ct, m)
            if not built:
                tally[no_curve[0]] = tally.get(no_curve[0], 0) + len(rows)
                yield (no_curve[0], genus, m), prefix, rows, None
                continue
            label, run = None, []
            for row in rows:
                case, construction = built.get(prefix + (row,), no_curve)
                tally[case] = tally.get(case, 0) + 1
                if construction is None and case is label:
                    run.append(row)
                    continue
                if run:
                    yield (label, genus, m), prefix, run, None
                label, run = case, [row]
                if construction is not None:
                    yield (case, genus, m), prefix, run, construction
                    label, run = None, []
            if run:
                yield (label, genus, m), prefix, run, None


def _classify_entries(ct: CurveType, runs):
    for key, stretches, construction in runs:
        if construction is None:
            yield _Entries(ct, stretches, _classify_members, key)
        else:
            label, genus, m = key
            [(prefix, [row])] = stretches
            yield {"subgroup": Subgroup(ct, prefix + (row,)), "rank": m, "quotient_genus": genus,
                   "label": label.value, "curve": construction.curve.to_json()}


def _classify_lines(ct: CurveType, runs, total, counts, z2n1):
    yield f"type ({ct.p},{ct.n}): {total} freely-acting subgroups"
    for (label, _, m), stretches, _ in runs:
        for prefix, rows in stretches:
            head = f"  rank {m} <" + "".join(word + ", " for word in map(exponent_word, prefix))
            tail = f">: {label.value}"
            for row in rows:
                yield head + exponent_word(row) + tail
    yield "counts: " + ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    if z2n1 is not None:
        yield (f"hyperelliptic-Z2^{ct.n - 1}: {z2n1[0]}, "
               f"non-hyperelliptic-Z2^{ct.n - 1}: {z2n1[1]}")


def cmd_humbert_demo(args) -> int:
    lam = parse_lambda(args.lam or ["3", "7"], 4)
    report = humbert.full_report(lam)
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
    emit(humbert.report_json(report), args.format, lines)
    return EXIT_OK


def cmd_moduli(args) -> int:
    if not args.lam:
        raise DomainError("moduli requires --lambda values")
    n = len(args.lam) + 2
    lam = parse_lambda(args.lam, n)
    delta = parse_lambda(args.delta, n) if args.delta else None
    # every orbit question is one about the images of each ordered triple
    require_work(f"orbit matching at n = {n}", (n + 1) * n * (n - 1) * TRIPLE_COST, None, (), 0)
    if delta is not None:
        equivalent, witness = same_orbit(lam, delta, tol=args.tol)
        payload = {
            "n": n,
            "lambda": list(map(json_number, lam)),
            "delta": list(map(json_number, delta)),
            "equivalent": equivalent,
            "witness": list(witness) if witness else None,
        }
        lines = [
            f"equivalent: {equivalent}"
            + (f", witness permutation {witness}" if witness else "")
        ]
    else:
        listed = n <= LISTED_ORBIT_MAX_N and all(not isinstance(v, (float, complex)) for v in lam)
        size = len(theta_orbit(lam)) if listed else orbit_size(lam, tol=args.tol)
        payload = {"n": n, "lambda": list(map(json_number, lam)), "orbit_size": size}
        lines = [f"orbit size {size}"]
    emit(payload, args.format, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    ct = CurveType(args.p, args.n)
    rank_label(ct, 1)  # refuses p = 2 with n < 4 before any walk or fiber draw
    require_verify_budget(ct, args.samples)
    lam = parse_lambda(args.lam, ct.n)
    passed = [True]  # cleared as the first failed check is written
    checks = _verify_checks(ct, lam, args)
    # "checks" sorts before "pass", and the text's overall line comes last:
    # each check runs while its entry is written, and the verdict after all
    payload = {"p": ct.p, "n": ct.n, "lambda": list(map(json_number, lam)),
               "pass": lambda: passed[0], "checks": _verify_entries(ct, checks, passed)}
    emit(payload, args.format, _verify_lines(checks, passed))
    return EXIT_OK if passed[0] else EXIT_VERIFICATION


# The fewest models that one verify_quotient_model call checks, but the last:
# each call draws its fiber points anew, so it also takes at least samples x n
# models, and its draw (VERIFY_POINT_COST per cone factor) costs at most 6%
# of its models (VERIFY_MODEL_COST each).  The verify-battery types, (2,6)
# with 1,192 models and (3,4) with 115, take one call each.
MODEL_BATCH = 2048


def _verify_checks(ct: CurveType, lam, args):
    """Each check as a segment ((kind, report), prefix, [row], None) in walk
    order: every model's, then its curve's where it has one.  The models are
    built and checked a batch at a time, as the walk reaches them."""
    for batch in _model_batches(ct, max(MODEL_BATCH, args.samples * ct.n)):
        subgroups = [Subgroup(ct, prefix + (row,)) for prefix, row, _ in batch]
        reports = verify_quotient_model((cyclic_gonal_model(K, lam) for K in subgroups),
                                        samples=args.samples, seed=args.seed)
        for (prefix, row, blocks), K, report in zip(batch, subgroups, reports):
            yield ("quotient_model", report), prefix, [row], None
            if K.basis in blocks:
                case, construction = build_curve(K, lam, tol=args.tol)
                if construction is not None:
                    hreport = verify_hyperelliptic(construction, tol=args.tol)
                    yield (f"hyperelliptic_{case.value}", hreport), prefix, [row], None


def _model_batches(ct: CurveType, size: int):
    """Every free subgroup of ct as (prefix, row, blocks), rank by rank, in
    lists of at least ``size`` but the last; blocks is its rank's block
    table, the only subgroups with curves."""
    batch = []
    for m in range(1, ct.n):
        blocks = block_subgroups(ct, m)
        for prefix, rows in free_subgroup_batches(ct, m):
            batch += [(prefix, row, blocks) for row in rows]
            if len(batch) >= size:
                yield batch
                batch = []
    if batch:
        yield batch


# The most verify entries that one batch writes at once: a verify entry's
# text is several times a classify entry's, and batches of 128 measurably
# raise a verify's peak memory where batches of 16 do not.
CHECK_BATCH = 16


def _verify_entries(ct: CurveType, checks, passed: list):
    # a check is keyed on its own report: the model reports share their
    # sampled check, so consecutive checks of one kind with equal reports
    # are one run, written in batches of at most CHECK_BATCH
    for key, stretches, _ in _runs(checks, CHECK_BATCH):
        if not key[1].passed:
            passed[0] = False
        yield _Entries(ct, stretches, _check_members, key)


def _verify_lines(checks, passed: list):
    for (kind, report), prefix, [row], _ in checks:
        verdict = report.passed
        if not verdict:
            passed[0] = False
        yield f"{kind} <{', '.join(map(exponent_word, prefix + (row,)))}>: " + ("pass" if verdict else "FAIL")
    yield f"overall: {'pass' if passed[0] else 'FAIL'}"


# An argument that starts like a negative number is a value, never an
# option: parse_scalar decides whether it is one (-6/5, -1,2, -.5, -1e-9).
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfcurves",
        description="Smooth quotients of generalized Fermat curves.",
    )
    # let negative lambda and delta values pass as arguments
    parser._negative_number_matcher = _NEGATIVE_VALUE
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_type=True, lam=True):
        p._negative_number_matcher = _NEGATIVE_VALUE
        if needs_type:
            p.add_argument("-p", type=int, required=True, help="prime p")
            p.add_argument("-n", type=int, required=True, help="number of factors n")
        if lam:
            p.add_argument("--lambda", dest="lam", nargs="*", default=None,
                           help="lambda values: 're', 're,im', or 'num/den'")
        p.add_argument("--format", choices=("json", "text"), default="text")

    def sampled(p):
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)

    def tolerant(p):
        p.add_argument("--tol", type=float, default=1e-9)

    p_enum = sub.add_parser("enumerate", help="freely-acting subgroups by rank")
    common(p_enum, lam=False)
    p_enum.add_argument("-m", type=int, default=None, help="restrict to one rank")
    p_enum.set_defaults(func=cmd_enumerate)

    p_quot = sub.add_parser("quotient", help="cyclic p-gonal quotient model")
    common(p_quot)
    p_quot.add_argument("--k", required=True, help="subgroup generators, e.g. 'a1*a2,a1*a3'")
    sampled(p_quot)
    p_quot.add_argument("--paper-style", action="store_true",
                        help="append redundant pairwise-product monomials")
    p_quot.set_defaults(func=cmd_quotient)

    p_cls = sub.add_parser("classify", help="hyperelliptic classification table")
    common(p_cls)
    tolerant(p_cls)
    p_cls.set_defaults(func=cmd_classify)

    p_dem = sub.add_parser("humbert-demo", help="full worked example for type (2,4)")
    common(p_dem, needs_type=False)
    p_dem.set_defaults(func=cmd_humbert_demo)

    p_mod = sub.add_parser("moduli", help="orbit equivalence of parameter tuples")
    common(p_mod, needs_type=False)
    tolerant(p_mod)
    p_mod.add_argument("--delta", nargs="*", default=None,
                       help="second tuple for an equivalence verdict")
    p_mod.set_defaults(func=cmd_moduli)

    p_ver = sub.add_parser("verify", help="run the numeric verification battery")
    common(p_ver)
    sampled(p_ver)
    tolerant(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = getattr(args, "tol", 1.0)
        if not (math.isfinite(tol) and tol > 0):
            raise DomainError(f"--tol = {tol} must be positive and finite")
        if getattr(args, "samples", 1) < 1:
            raise DomainError(f"--samples = {args.samples} must be at least 1")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # stdout was closed early, as by `| head`: send what is still
        # buffered to the null device so that the final flush succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
