"""A fixed amount of pure-Python work, timed between the benchmark's jobs.

The benchmark's host changes speed by up to 1.6x for seconds to minutes at a
time, and the job times change with it.  Timed on the same CPU right before
and right after each job, this reference measures the speed the job ran at;
the end-to-end ``*_rel`` metrics divide each job's time by it.

The work mixes what the program spends its time on: modular row reduction on
small int tuples, dicts keyed by tuples, Fraction and complex arithmetic, and
JSON text of many small objects.  It imports nothing from gfcurves, so a
change to the program leaves it unchanged.  It keeps little memory live: a
job's peak RSS, as ``wait4`` reports it, is never below the benchmark
process's own peak RSS when the job is started.
"""

from __future__ import annotations

import cmath
import itertools
import json
import time
from fractions import Fraction

# The median wall time of work() on the machine the benchmark was made on
# (2-vCPU Intel Xeon VM, Python 3.11.7).  setup_s, which the benchmark
# reports in seconds, is a launch time divided by the reference timed just
# before it, converted back to seconds with this constant.
SECONDS = 0.415


def work() -> tuple:
    seen: dict[tuple, int] = {}
    text = 0
    for perm in itertools.islice(itertools.permutations(range(8)), 14000):
        rows = [[(perm[i] * (j + 1) + i) % 7 for j in range(8)] for i in range(4)]
        for i, row in enumerate(rows):
            inv = pow(row[i] or 1, 5, 7)
            rows[i] = [x * inv % 7 for x in row]
        key = tuple(map(tuple, rows))
        seen[key] = seen.get(key, 0) + 1
        text += len(json.dumps({"perm": perm, "rows": rows}))
    total = Fraction(0)
    for i in range(1, 7000):
        total += Fraction(i % 17 + 1, i % 11 + 1) * Fraction(3, i % 29 + 1)
    z = 0j
    for i in range(56000):
        z += cmath.sqrt(complex(i % 13 - 6, i % 7 - 3)) * cmath.exp(1j * i)
    return len(seen), text, total, z


def timed() -> tuple[float, float]:
    """Wall and CPU seconds of one ``work()``."""
    wall, cpu = time.perf_counter(), time.process_time()
    work()
    return time.perf_counter() - wall, time.process_time() - cpu
