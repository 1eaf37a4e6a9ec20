"""Self-tests of the benchmark: its checks, its tracer and its inputs.

    python -m pytest bench

Each output check must accept a genuine program output and reject the same
output deliberately corrupted.
"""

from __future__ import annotations

import contextlib
import copy
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import run
import tracer as tracing
import workloads

sys.path.insert(0, str(run.SRC))
import gfcurves.cli  # noqa: E402


def program_json(*argv) -> dict:
    sink = run.CountingSink()
    with contextlib.redirect_stdout(sink):
        assert gfcurves.cli.main([*argv, "--format", "json"]) == 0
    return json.loads(sink.getvalue())


def parse_value(text: str):
    if "," in text:
        re_part, im_part = text.split(",")
        return complex(float(re_part), float(im_part))
    return Fraction(text)


def rejects(check, data) -> bool:
    return bool(check(json.dumps(data)))


def test_closed_form_matches_enumerated_counts():
    assert [checks.free_subgroup_count(2, 7, m) for m in range(1, 7)] == [119, 2191, 7415, 4221, 273, 1]
    assert sum(checks.free_subgroup_count(3, 5, m) for m in range(1, 5)) == 1716
    assert sum(checks.free_subgroup_count(5, 4, m) for m in range(1, 4)) == 863


def test_enumerate_check_rejects_wrong_count_and_repeats():
    check = checks.check_enumerate(2, 4)
    data = program_json("enumerate", "-p", "2", "-n", "4")
    assert check(json.dumps(data)) == []
    short = copy.deepcopy(data)
    short["ranks"][0]["subgroups"].pop()
    short["ranks"][0]["count"] -= 1
    assert rejects(check, short)
    repeated = copy.deepcopy(data)
    repeated["ranks"][0]["subgroups"][1] = repeated["ranks"][0]["subgroups"][0]
    assert rejects(check, repeated)
    miscounted = copy.deepcopy(data)
    miscounted["ranks"][1]["count"] += 1
    assert rejects(check, miscounted)
    assert checks.check_enumerate(2, 4)("not json")


def test_classify_check_rejects_wrong_label_counts():
    check = checks.check_classify(2, 5)
    data = program_json("classify", "-p", "2", "-n", "5", "--lambda", "3", "7", "11")
    assert check(json.dumps(data)) == []
    inflated = copy.deepcopy(data)
    label = next(iter(inflated["counts"]))
    inflated["counts"][label] += 1
    assert rejects(check, inflated)
    dropped = copy.deepcopy(data)
    dropped["entries"].pop()
    assert rejects(check, dropped)


def test_verify_check_rejects_failures_and_short_sampling():
    check = checks.check_verify(2, 4, 3)
    data = program_json("verify", "-p", "2", "-n", "4", "--lambda", "3", "7", "--samples", "3")
    assert check(json.dumps(data)) == []
    failed = copy.deepcopy(data)
    failed["pass"] = False
    assert rejects(check, failed)
    short = copy.deepcopy(data)
    short["checks"][0]["report"]["checks"][0]["samples"] = 2
    assert rejects(check, short)
    missing = copy.deepcopy(data)
    missing["checks"].remove(next(c for c in missing["checks"] if c["kind"] == "quotient_model"))
    assert rejects(check, missing)
    assert checks.check_verify(2, 4, 4)(json.dumps(data))


@pytest.mark.parametrize(
    "lam",
    [
        ("3", "7"),
        ("-1",),  # harmonic: orbit of 3, not 4! = 24
        ("-1", "2", "1/2"),
        ("2,1", "-1,0.5", "0.3,-2"),
    ],
)
def test_orbit_check_matches_program_and_rejects_wrong_size(lam):
    values = [parse_value(v) for v in lam]
    expected = (
        checks.float_orbit_size(values)
        if any(isinstance(v, complex) for v in values)
        else checks.exact_orbit_size(values)
    )
    check = checks.check_orbit(expected)
    data = program_json("moduli", "--lambda", *lam)
    assert check(json.dumps(data)) == []
    wrong = dict(data, orbit_size=data["orbit_size"] + 1)
    assert rejects(check, wrong)


def test_inequivalence_check_rejects_equivalent_verdict():
    lam = (Fraction(3), Fraction(7))
    delta = (Fraction(5), Fraction(-2))
    assert checks.certified_inequivalent(lam, delta)
    assert not checks.certified_inequivalent(lam, (Fraction(1, 3), Fraction(1, 7)))
    data = program_json("moduli", "--lambda", "3", "7", "--delta", "5", "-2")
    assert checks.check_inequivalent(json.dumps(data)) == []
    assert rejects(checks.check_inequivalent, dict(data, equivalent=True, witness=[1, 2, 3, 4, 5]))


def test_humbert_check_rejects_missing_curve():
    data = program_json("humbert-demo", "--lambda", "3", "7")
    assert checks.check_humbert(json.dumps(data)) == []
    short = copy.deepcopy(data)
    short["genus2_curves"].pop()
    assert rejects(checks.check_humbert, short)


def test_inputs_repeat_per_seed_and_lie_in_the_domain():
    for name in workloads.WORKLOADS:
        first = [job.argv for job in workloads.jobs_for(name, 7)]
        assert first == [job.argv for job in workloads.jobs_for(name, 7)]
    assert [j.argv for j in workloads.jobs_for("catalog", 1)] != [
        j.argv for j in workloads.jobs_for("catalog", 2)
    ]
    rng = random.Random(0)
    for _ in range(50):
        lam = workloads.rational_tuple(rng, 5)
        assert len(set(lam)) == 5 and not set(lam) & {0, 1}
        assert checks.certified_inequivalent(lam, workloads.certified_delta(rng, lam))
        values = workloads.complex_tuple(rng, 4)
        assert [parse_value(workloads.fmt(v)) for v in values] == list(values)
        assert all(abs(v) >= 0.25 and abs(v - 1) >= 0.25 for v in values)


def test_tracer_self_times_sum_to_job_wall_and_counts_repeat():
    jobs = [
        workloads.Job("verify", ["verify", "-p", "2", "-n", "4", "--lambda", "3", "7", "--samples", "3",
                                 "--format", "json"], checks.check_verify(2, 4, 3)),
        workloads.Job("orbit", ["moduli", "--lambda", "3", "7", "--format", "json"], checks.check_orbit(120)),
    ]
    original_emit = gfcurves.cli.emit
    passes = []
    for _ in range(2):
        untraced = [run.run_in_process(gfcurves.cli.main, job) for job in jobs]
        trace = tracing.Tracer()
        with trace:
            assert gfcurves.cli.emit is not original_emit
            traced = [run.run_in_process(gfcurves.cli.main, job, trace, i) for i, job in enumerate(jobs)]
        assert not any(r["problems"] for r in untraced + traced)
        passes.append(run.trace_metrics(trace.summary(), traced, untraced))
    assert gfcurves.cli.emit is original_emit
    first, second = passes
    layer_total = sum(first[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_total + first["unattributed_s"] == pytest.approx(first["trace.wall_s"], rel=1e-9)
    counts = {k: v for k, v in first.items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in second.items() if not k.endswith("_s")}
    assert first["verify.sample_fiber.calls"] == 3 * first["verify.verify_quotient_model.calls"] > 0
    assert first["moduli.theta.calls"] == 120


def test_job_peak_rss_is_the_jobs_own():
    ballast = b"\1" * (200 << 20)  # lifts this process's peak RSS far above a small job's
    result = run.run_cli(["enumerate", "-p", "2", "-n", "4"], run.cli_env(), time.perf_counter() + 60)
    del ballast
    assert result["exit_code"] == 0 and run.PEAK_TAG not in result["stderr"]
    assert 0 < result["peak_rss_mb"] < 100


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
