#!/usr/bin/env python3
"""gfcurves benchmark: seeded CLI workloads with checked outputs and tracing.

    python3 bench/run.py --workload catalog --seed 1 --seconds 40 --trace 0

Run from the repository root (the benchmark finds ``src/`` next to its own
directory).  One client runs the workload's jobs one at a time in a closed
loop, repeating the whole job set until ``--seconds`` have passed.

``--trace 0`` runs every job in a fresh interpreter, as ``python -m
gfcurves.cli`` would for a CLI user, and reports the end-to-end metrics: wall and
CPU time of the job set in units of a fixed reference computation timed
around each job (``reference.py``), the largest peak RSS of a job, and the
median launch time of ``<subcommand> --help`` (set-up), also scaled by the
reference and given in seconds at its typical speed.  The benchmark and
its jobs stay on one CPU.  ``--trace 1`` runs the same jobs
in process through ``gfcurves.cli.main``, once plain and once with the
outside-in tracer, and reports per-layer counts and times plus per-module
import times.

Every job output is checked against references the benchmark computes
itself.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table, and the full record (seed, argv, per-job exit code,
output bytes and peak RSS, environment) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

import reference
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

IMPORT_RUNS = 5
RUN_DEADLINE_S = 150.0  # a job still running then is killed and counts as failed

# wall_rel and cpu_rel: the job set's time divided by the mean time of the
# reference timed around its jobs, so that the host's speed drift cancels
# (reference.py).  setup_s: a launch's time divided by the reference timed
# just before it, times reference.SECONDS.  The raw wall_s, cpu_s and
# launch_s are in the table and the record.
END_TO_END = {
    "wall_rel": "ref",
    "cpu_rel": "ref",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# Per-layer metrics printed on the result line with --trace 1.  Self times of
# functions that some workload never calls are left to the table and the
# record: they read exactly 0.0 on every run of that workload.
PER_LAYER = {
    "free_action.enumerate_free_subgroups.calls": "count",
    "free_action.kernel_of_partition.calls": "count",
    "free_action.is_admissible.calls": "count",
    "free_action.subgroups": "count",
    "free_action.kernel_yield": "subgroup/kernel",
    "groups.rref_mod_p.calls": "count",
    "groups.nullspace_mod_p.calls": "count",
    "groups.Subgroup.from_generators.calls": "count",
    "groups.rref_per_subgroup": "call/subgroup",
    "hyperelliptic.build_curve.calls": "count",
    "hyperelliptic.constructions": "count",
    "cli.emit.bytes": "B",
    "cli.emit.self_s": "s",
    "cli.self_s": "s",
    "verify.verify_quotient_model.calls": "count",
    "verify.sample_fiber.calls": "count",
    "verify.verify_hyperelliptic.calls": "count",
    "verify.samples_per_model": "sample/model",
    "gonal.cyclic_gonal_model.calls": "count",
    "gonal.slope_table.calls": "count",
    "moduli.validate_lambda.calls": "count",
    "moduli.theta.calls": "count",
    "moduli.self_s": "s",
    "riemann_sphere.moebius_from_three_points.calls": "count",
    "riemann_sphere.sphere_close.calls": "count",
    "riemann_sphere.self_s": "s",
    **{f"{layer}.errors": "count" for layer in tracing.LAYERS},
    **{f"{layer}.import_s": "s" for layer in tracing.LAYERS},
    "import.total_s": "s",
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def another_round(start: float, rounds: list, seconds: int) -> bool:
    """Run at least one round, then another only if it should end within seconds."""
    if not rounds:
        return True
    elapsed = perf_counter() - start
    return elapsed + elapsed / len(rounds) <= seconds


def cli_env() -> dict:
    """The caller's environment with src/ first on the path and bytecode
    caching on, as for an installed CLI, so set-up measures imports rather
    than compiling every module on every launch."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# -- fresh-interpreter runs ----------------------------------------------------

# Runs the CLI as ``python -m gfcurves.cli`` does, then reports the job's own
# peak RSS (VmHWM) on its last stderr line.  ``ru_maxrss`` from wait4 will not
# do: Linux keeps a process's peak RSS across exec, so it would count this
# benchmark process's peak at the moment the job was spawned.
PEAK_TAG = "bench-peak-rss-kb"
CLI_MAIN = f"""\
import runpy, sys
try:
    runpy.run_module("gfcurves.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        peak = [line.split()[1] for line in status if line.startswith("VmHWM:")]
    sys.stderr.write("\\n{PEAK_TAG} " + peak[0] + "\\n")
"""


def run_cli(argv: list[str], env: dict, deadline: float) -> dict:
    """One fresh-interpreter run of the CLI, with its rusage and peak RSS."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "stderr.txt", "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_MAIN, *argv],
            stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env,
        )
        killer = threading.Timer(max(1.0, deadline - start), proc.kill)
        killer.start()
        try:
            stdout = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            killer.cancel()
        wall = perf_counter() - start
        err.seek(0)
        stderr, _, peak_kb = err.read().decode(errors="replace").rpartition(f"\n{PEAK_TAG} ")
    if not peak_kb.strip().isdigit():  # the job died before it could report
        stderr, peak_kb = stderr + peak_kb, str(usage.ru_maxrss)
    return {
        "exit_code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": int(peak_kb) / 1024,
        "output_bytes": len(stdout),
        "stdout": stdout.decode(errors="replace"),
        "stderr": stderr[-2000:],
    }


def check_output(job, exit_code: int, stdout: str) -> list[str]:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return job.check(stdout)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return [f"malformed output: {exc!r}"]


def pin_to_one_cpu() -> None:
    """Keep this process and the jobs it starts on one CPU, so that the
    reference times the CPU the jobs run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_untraced(jobs, seconds: int, deadline: float, record: dict) -> tuple[dict, list]:
    """Job sets as fresh subprocesses.  Before each job, one timed launch of
    its subcommand's ``--help`` samples set-up time, so set-up is sampled
    across the whole run like the jobs are.  The reference is timed before
    the first job and after every job; a job set's ``*_rel`` divides its time
    by the mean of the reference timings from just before its first job to
    just after its last."""
    env = cli_env()
    problems = []
    setup_s, launch_s = [], []
    sets = []
    wall_rel, cpu_rel = [], []

    def launch_help(command: str) -> float:
        result = run_cli([command, "--help"], env, deadline)
        if result["exit_code"] != 0:
            problems.append(f"{command} --help: exit code {result['exit_code']}")
        return result["wall_s"]

    launch_help(jobs[0].argv[0])  # untimed: compiles bytecode on a fresh checkout
    reference.timed()  # untimed: warms the reference up
    start = perf_counter()
    refs = [reference.timed()]  # (wall, cpu) of each reference timing
    while another_round(start, sets, seconds):
        results = []
        around = refs[-1:]
        for job in jobs:
            launch_s.append(launch_help(job.argv[0]))
            setup_s.append(launch_s[-1] / around[-1][0] * reference.SECONDS)
            result = run_cli(job.argv, env, deadline)
            result["problems"] = check_output(job, result["exit_code"], result.pop("stdout"))
            results.append(result)
            around.append(reference.timed())
        refs += around[1:]
        sets.append(results)
        wall_rel.append(sum(r["wall_s"] for r in results) / statistics.fmean(w for w, _ in around))
        cpu_rel.append(sum(r["cpu_s"] for r in results) / statistics.fmean(c for _, c in around))
    samples = {
        "wall_rel": wall_rel,
        "cpu_rel": cpu_rel,
        "wall_s": [sum(r["wall_s"] for r in s) for s in sets],
        "cpu_s": [sum(r["cpu_s"] for r in s) for s in sets],
        "peak_rss_mb": [max(r["peak_rss_mb"] for r in s) for s in sets],
        "setup_s": setup_s,
        "launch_s": launch_s,
        "reference_s": [wall for wall, _ in refs],
    }
    record["sets"] = sets
    return samples, problems


# -- in-process and traced runs ------------------------------------------------


class CountingSink(io.TextIOBase):
    """Stand-in for stdout that keeps the text and counts its bytes."""

    def __init__(self):
        self.parts: list[str] = []
        self.bytes = 0

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.parts.append(text)
        self.bytes += len(text.encode())
        return len(text)

    def getvalue(self) -> str:
        return "".join(self.parts)


def run_in_process(main, job, trace=None, job_id: int = 0) -> dict:
    sink = CountingSink()
    if trace is not None:
        trace.job = job_id
    crash = ""
    with contextlib.redirect_stdout(sink):
        start = perf_counter()
        try:
            code = main(list(job.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code, crash = 1, traceback.format_exc()
        wall = perf_counter() - start
    problems = check_output(job, code if isinstance(code, int) else 1, sink.getvalue())
    if crash:
        problems.append(crash)
    return {"exit_code": code, "wall_s": wall, "output_bytes": sink.bytes, "problems": problems}


def trace_metrics(summary: dict, traced: list, untraced: list) -> dict:
    functions = summary["functions"]
    calls = {name: f["calls"] for name, f in functions.items()}
    metrics = {}
    for name, f in functions.items():
        metrics[f"{name}.calls"] = f["calls"]
        metrics[f"{name}.self_s"] = f["self_s"]
    for layer in tracing.LAYERS:
        mine = [name for name in functions if name.split(".")[0] == layer]
        metrics[f"{layer}.self_s"] = sum(functions[name]["self_s"] for name in mine)
        metrics[f"{layer}.errors"] = sum(summary["errors"].get(name, 0) for name in mine)
    subgroups = summary["outcomes"].get("free_action.enumerate_free_subgroups", 0)
    kernels = calls["free_action.kernel_of_partition"]
    models = calls["verify.verify_quotient_model"]
    metrics["free_action.subgroups"] = subgroups
    metrics["free_action.kernel_yield"] = subgroups / kernels if kernels else 0.0
    metrics["groups.rref_per_subgroup"] = calls["groups.rref_mod_p"] / subgroups if subgroups else 0.0
    metrics["hyperelliptic.constructions"] = summary["outcomes"].get("hyperelliptic.build_curve", 0)
    metrics["verify.samples_per_model"] = calls["verify.sample_fiber"] / models if models else 0.0
    metrics["cli.emit.bytes"] = sum(r["output_bytes"] for r in traced)  # all CLI output goes through emit
    wall = sum(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = wall
    metrics["unattributed_s"] = wall - summary["top_level_s"]
    metrics["trace.overhead_s"] = wall - sum(r["wall_s"] for r in untraced)
    return metrics


def import_times(env: dict) -> tuple[dict, list[str]]:
    """Self import time per gfcurves module from ``python -X importtime``."""
    samples: dict[str, list[float]] = {}
    problems = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gfcurves.cli"],
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=60,
        )
        if proc.returncode != 0:
            problems.append(f"import gfcurves.cli: exit code {proc.returncode}")
            continue
        total = 0.0
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            module = fields[2].strip()
            if module.split(".")[0] != "gfcurves":
                continue
            if module in ("gfcurves", "gfcurves.cli"):
                # the package, then cli: together they cover every gfcurves module
                total += int(fields[1]) / 1e6
            layer = module.removeprefix("gfcurves.")
            if layer in tracing.TARGETS:
                samples.setdefault(f"{layer}.import_s", []).append(int(fields[0]) / 1e6)
        samples.setdefault("import.total_s", []).append(total)
    return samples, problems


def run_traced(jobs, seconds: int, record: dict) -> tuple[dict, list]:
    sys.path.insert(0, str(SRC))
    import gfcurves.cli

    location = Path(gfcurves.cli.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SystemExit(f"error: imported gfcurves from {location}, not from {SRC}")
    samples, problems = import_times(cli_env())
    passes = []
    start = perf_counter()
    while another_round(start, passes, seconds):
        # Each job runs plain and then traced, back to back, so that both
        # halves of trace.overhead_s see the same machine load.
        trace = tracing.Tracer()
        untraced, traced = [], []
        for i, job in enumerate(jobs):
            untraced.append(run_in_process(gfcurves.cli.main, job))
            with trace:
                traced.append(run_in_process(gfcurves.cli.main, job, trace, i))
        summary = trace.summary()
        metrics = trace_metrics(summary, traced, untraced)
        layer_total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
        if abs(layer_total + metrics["unattributed_s"] - metrics["trace.wall_s"]) > 1e-6 * metrics["trace.wall_s"]:
            problems.append("layer self times plus unattributed_s do not sum to the job wall")
        passes.append({"untraced": untraced, "traced": traced, "metrics": metrics})
    counts = {k: v for k, v in passes[0]["metrics"].items() if not k.endswith("_s")}
    for p in passes[1:]:
        if any(p["metrics"][k] != v for k, v in counts.items()):
            problems.append("trace counts differ between passes")
    for name in passes[0]["metrics"]:
        values = [p["metrics"][name] for p in passes]
        samples[name] = values if name.endswith("_s") else values[:1]  # counts are equal
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{record['workload']}-seed{record['seed']}-spans.tsv"
    trace.write_spans(spans_path)
    record["passes"] = passes
    record["spans"] = str(spans_path.relative_to(ROOT))
    return samples, problems


# -- reporting -----------------------------------------------------------------


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30
            ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def table(samples: dict, listed: dict) -> list[str]:
    lines = []
    for name in sorted(samples):
        values = samples[name]
        unit = listed.get(name) or ("s" if name.endswith("_s") else "count")
        mark = "*" if name in listed else " "
        lines.append(
            f"{mark} {name:<50} {statistics.median(values):>14.6g} {unit:<15} n={len(values)}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "gfcurves" / "cli.py").is_file():
        print(f"error: no gfcurves sources under {SRC}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so that a running job is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_to_one_cpu()
    deadline = perf_counter() + RUN_DEADLINE_S
    jobs = workloads.jobs_for(args.workload, args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "jobs": [{"name": job.name, "argv": ["gfcurves", *job.argv]} for job in jobs],
    }
    if args.trace:
        samples, problems = run_traced(jobs, args.seconds, record)
        runs = [r for p in record["passes"] for r in p["untraced"] + p["traced"]]
        wanted = PER_LAYER
    else:
        samples, problems = run_untraced(jobs, args.seconds, deadline, record)
        runs = [r for s in record["sets"] for r in s]
        wanted = END_TO_END
    attempted = len(runs)
    failed = sum(1 for r in runs if r["problems"])
    problems += [problem for r in runs for problem in r["problems"]]
    record["samples"] = samples
    record["attempted"], record["failed"] = attempted, failed
    record["failed_frac"] = failed / attempted
    record["problems"] = problems

    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for job in record["jobs"]:
        print(f"  {job['name']}: {' '.join(job['argv'])}")
    print("  (* = on the result line; values are medians of n samples)")
    for line in table(samples, wanted):
        print(line)
    print(f"  {'failed_frac':<50} {failed / attempted:>14.6g} {'job/job':<15} n={attempted}")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(f"record: {record_path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in wanted.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
