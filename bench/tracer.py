"""Outside-in tracing of gfcurves: wrap public functions, record spans.

The tracer edits nothing under ``src/``.  It rebinds each traced function in
every loaded ``gfcurves.*`` module namespace that holds it (so from-imports
and intra-module callers go through the wrapper too) and restores the
originals afterwards.  Each call becomes a span (name, parent span, job,
start, end) kept in memory; self time is a span's duration minus the
durations of its direct children.

Generator functions are refused: a wrapper would only time the creation of
the generator, and its body would be charged to whoever iterates it.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

# Traced functions per layer.  "Class.method" names a method or classmethod.
# Besides the functions the metrics name, the list holds the cross-layer
# callees that cost time (require_free inside gonal and hyperelliptic,
# from_exponents and to_json inside free_action and cli, ...), so that their
# time is charged to their own layer rather than to the caller's.
TARGETS = {
    "groups": [
        "rref_mod_p",
        "nullspace_mod_p",
        "GroupElement.from_exponents",
        "Subgroup.from_generators",
        "Subgroup.to_json",
    ],
    "free_action": [
        "enumerate_free_subgroups",
        "kernel_of_partition",
        "is_admissible",
        "require_free",
    ],
    "gonal": ["cyclic_gonal_model", "invariant_lattice_basis", "slope_table"],
    "hyperelliptic": [
        "build_curve",
        "classify",
        "curve_case1",
        "curve_case2",
        "curve_case3",
        "curve_case4",
        "curve_case5",
    ],
    "humbert": ["full_report"],
    "verify": ["verify_quotient_model", "sample_fiber", "random_t1", "verify_hyperelliptic"],
    "moduli": ["validate_lambda", "theta", "theta_orbit", "same_orbit"],
    "riemann_sphere": ["moebius_from_three_points", "sphere_close"],
    "cli": [
        "build_parser",
        "cmd_enumerate",
        "cmd_classify",
        "cmd_humbert_demo",
        "cmd_moduli",
        "cmd_verify",
        "emit",
    ],
}

LAYERS = list(TARGETS)

# Results worth counting besides calls: subgroups returned by enumeration and
# curves actually constructed by build_curve.
OUTCOMES = {
    "free_action.enumerate_free_subgroups": len,
    "hyperelliptic.build_curve": lambda result: int(result[1] is not None),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name index, parent span or -1, job, start, end)
        self.errors: Counter = Counter()
        self.outcomes: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, qualname: str, fn):
        if inspect.isgeneratorfunction(fn):
            raise ValueError(f"{qualname} is a generator function")
        if qualname not in self.names:
            self.names.append(qualname)
        name_id = self.names.index(qualname)
        spans, stack, errors = self.spans, self._stack, self.errors
        outcome = OUTCOMES.get(qualname)
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[qualname] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, parent, tracer.job, start, end)
            if outcome is not None:
                tracer.outcomes[qualname] += outcome(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    def install(self) -> None:
        """Wrap every target.  Call after gfcurves.cli has been imported."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "gfcurves"]
        for layer, names in TARGETS.items():
            home = sys.modules[f"gfcurves.{layer}"]
            for name in names:
                qualname = f"{layer}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(qualname, raw.__func__))
                    else:
                        new = self._wrap(qualname, raw)
                    self._restore.append((cls, attr, raw))
                    setattr(cls, attr, new)
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(qualname, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        """Calls, self time and top-level time per traced function."""
        child = [0.0] * len(self.spans)
        for name_id, parent, job, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        top_level_s = 0.0
        for index, (name_id, parent, job, start, end) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += (end - start) - child[index]
            if parent < 0:
                top_level_s += end - start
        return {
            "functions": {
                name: {"calls": calls[name], "self_s": self_s[name]} for name in self.names
            },
            "top_level_s": top_level_s,
            "errors": dict(self.errors),
            "outcomes": dict(self.outcomes),
        }

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, parent, job, name, start, end."""
        with open(path, "w") as out:
            out.write("id\tparent\tjob\tname\tstart\tend\n")
            for index, (name_id, parent, job, start, end) in enumerate(self.spans):
                out.write(f"{index}\t{parent}\t{job}\t{self.names[name_id]}\t{start:.9f}\t{end:.9f}\n")
