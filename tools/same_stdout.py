"""Compare the CLI's exit codes, stdout and stderr under two source trees.

    python tools/same_stdout.py PARENT_ROOT CHANGE_ROOT

Each command runs as ``python -m gfcurves.cli ARGV`` once under each tree,
with that tree's ``src`` first on PYTHONPATH.  The commands are the keys of
GOLDEN_STDOUT in CHANGE_ROOT/tests/test_cli.py (read with ast, not
imported), the benchmark jobs of CHANGE_ROOT/bench/workloads.py at seeds
1-3, and the edge commands below.  Every command whose exit code, stdout or
stderr (each stream by SHA-256) differs is printed with what differs; the
exit status is 1 if any does.
Standard library only.
"""

from __future__ import annotations

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

SEEDS = (1, 2, 3)

# Every command's JSON at exact, float and complex lambda, and each refusal
EDGE_COMMANDS = [
    "enumerate -p 5 -n 3 --format json",
    "enumerate -p 2 -n 4 --format json",
    "quotient -p 3 -n 4 --lambda 2,1 5 --k a1*a2 --format json",
    "quotient -p 2 -n 4 --lambda 3 7 --k 1 --format json",
    "quotient -p 2 -n 4 --lambda 3 7 --k a1*a2 --paper-style --format json",
    "classify -p 2 -n 5 --lambda 0.5 2.5 -3.25 --format json",
    "classify -p 5 -n 3 --lambda 2,1 --format json",
    "classify -p 3 -n 2 --format json",
    "humbert-demo --lambda 0.5,0.8660254037844386 2 --format json",
    "moduli --lambda 2,1 3,-1 --format json",
    "moduli --lambda 3 7 11 --delta 1/3 1/7 1/11 --format json",
    "verify -p 7 -n 3 --lambda 2,1 --samples 3 --format json",
    "verify -p 2 -n 4 --lambda 1e-9 2 --samples 2 --format json",  # exit 4
    "classify -p 2 -n 3 --format json",  # exit 2: p = 2 needs n >= 4
    "quotient -p 2 -n 4 --lambda 3 7 --k a1*a2 --samples 0 --format json",  # exit 2
    "quotient -p 2 -n 4 --lambda 3 7 --k a1 --format json",  # exit 3: a1 fixes points
    "enumerate -p 3 -n 7 --format json",  # exit 5: over the work budget
    "enumerate -p 2 -n 901 -m 900 --format json",  # exit 0: one subgroup, 900 rows deep
    "enumerate -p 2 -n 902 -m 901 --format json",  # exit 0: no subgroup, 901 rows deep
    "enumerate -p 2 -n 989 -m 988 --format json",  # exit 0: one subgroup, 988 rows deep
    "enumerate -p 2 -n 1201 -m 1200 --format json",  # exit 0: one subgroup, 1,200 rows deep
    "enumerate -p 2 -n 1415 -m 1414 --format json",  # exit 5: its basis entries are over the work budget
    "quotient -p 3 -n 2 --k a1*a2 --format json",  # exit 3: the witness is a_{n+1}
    "quotient -p 5 -n 3 --lambda 2 --k a1*a2^4 --paper-style --format json",
    "verify -p 3 -n 2 --samples 2 --format json",
    # the largest streamed outputs of the baseline
    "enumerate -p 2 -n 8",
    "enumerate -p 7 -n 5",
    "classify -p 359 -n 3 --lambda 5",
    "verify -p 2 -n 7 --lambda 9 -1/9 -2/5 -7 5 --samples 20",
]


def golden_commands(root: Path) -> list[list[str]]:
    """The keys of the GOLDEN_STDOUT dict literal in tests/test_cli.py."""
    tree = ast.parse((root / "tests" / "test_cli.py").read_text())
    for node in tree.body:
        targets = [getattr(target, "id", None) for target in getattr(node, "targets", ())]
        if targets == ["GOLDEN_STDOUT"]:
            return [ast.literal_eval(key).split() for key in node.value.keys]
    raise SystemExit("tests/test_cli.py has no GOLDEN_STDOUT")


def bench_commands(root: Path) -> list[list[str]]:
    """The argv of every benchmark job at SEEDS, without writing to bench/."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "bench"))
    import workloads

    return [job.argv for name in workloads.WORKLOADS for seed in SEEDS for job in workloads.jobs_for(name, seed)]


def run(root: Path, argv: list[str]) -> tuple[int, str, str]:
    """The exit code and the stdout and stderr hashes of the CLI under root."""
    path = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-m", "gfcurves.cli", *argv], cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), hashlib.sha256(proc.stderr).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    commands, seen = [], set()
    for command in golden_commands(change) + bench_commands(change) + [c.split() for c in EDGE_COMMANDS]:
        if tuple(command) not in seen:
            seen.add(tuple(command))
            commands.append(command)
    differ = 0
    for command in commands:
        before, after = run(parent, command), run(change, command)
        if before != after:
            differ += 1
            streams = ", ".join(f"{name} {'differs' if b != a else 'same'}"
                                for name, b, a in zip(("stdout", "stderr"), before[1:], after[1:]))
            print(f"differs: exit {before[0]} -> {after[0]}, {streams}: {' '.join(command)}")
    print(f"{len(commands)} commands: {len(commands) - differ} same, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
