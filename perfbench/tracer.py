"""Per-layer spans for one curvestats job, recorded from outside the package.

The tracer wraps functions of the installed ``curvestats`` modules in
place.  A function is rebound in every ``curvestats`` module namespace
(and every module-level dict) that holds it, because modules such as
``curvewin`` and ``charsum`` do ``from .ffield import char_indices`` and
a patch of ``ffield`` alone would miss their calls.  Methods are wrapped
on their class.  A target that no longer exists is reported as missing
instead of failing the job.

A span's self time is its duration minus the part of that interval its
child spans cover.  Work a thread pool runs on behalf of a span is
recorded as that span's child, so a span that waits on its workers does
not count the wait as its own work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _pow_counts(arg, result):
    n = int(np.size(arg("xs")))
    exp = int(arg("exp"))
    return {"elements": n, "mulmods": n * (exp.bit_length() + bin(exp).count("1"))}


# span name -> (module, attribute paths, counters or None); counters(arg, result)
# gets arg(name), the value of the wrapped call's parameter of that name
TARGETS = {
    "ffield.pow_mod_vec": ("ffield", ["pow_mod_vec"], _pow_counts),
    "ffield.char_indices": (
        "ffield", ["char_indices"], lambda arg, r: {"elements": int(np.size(arg("xs")))}
    ),
    "ffield.char_index_table": ("ffield", ["char_index_table"], None),
    "ffield.from_prime": ("ffield", ["FieldSpec.from_prime"], None),
    "polyff.eval_vec": (
        "polyff", ["Poly.eval_vec"], lambda arg, r: {"elements": int(np.size(arg("xs")))}
    ),
    "polyff.factor": ("polyff", ["factor"], None),
    "curvewin.fiber_array": ("curvewin", ["fiber_array"], None),
    "curvewin.window_counts": (
        "curvewin", ["window_counts"], lambda arg, r: {"windows": int(np.size(r))}
    ),
    "curvewin.restricted_window_counts": ("curvewin", ["restricted_window_counts"], None),
    "curvewin.histogram": (
        "curvewin",
        ["residue_histogram", "discrepancy", "joint_histogram", "JointHistogram.discrepancy"],
        None,
    ),
    # private: no public function separates the exact DP from the sampling
    "rwalk.block_types": (
        "rwalk", ["_block_type_distribution"], lambda arg, r: {"types": int(len(r[0]))}
    ),
    "rwalk.model_sampling": (
        "rwalk", ["_model_core"], lambda arg, r: {"trials": int(arg("trials"))}
    ),
    "rwalk.enumerations": (
        "rwalk", ["exact_prop21a", "exact_prop21b", "exact_prop21c"], None
    ),
    "charsum.incomplete_sum": ("charsum", ["incomplete_sum"], None),
    "charsum.census": ("charsum", ["census_m", "joint_census"], None),
    **{
        f"acceptance.criterion_{n}": ("acceptance", [f"criterion_{n}"], None)
        for n in range(1, 12)
    },
}


MODULES = sorted({modname for modname, _, _ in TARGETS.values()})


class Tracer:
    """Collects spans in memory; ``summary()`` aggregates them by name."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span or None, counters]
        self.missing: list[str] = []
        self.max_threads = 1
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, count=None, params=()):
        """Run fn(*args, **kwargs) inside a span called name; params are
        fn's parameter names, which count uses to read the arguments."""
        kwargs = kwargs or {}
        stack = self._stack()
        rec = [name, 0.0, 0.0, stack[-1] if stack else None, None]
        self.spans.append(rec)
        stack.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()
        if count is not None:
            rec[4] = count(
                lambda p: kwargs[p] if p in kwargs else args[params.index(p)], result
            )
        return result

    def _wrap(self, name, fn, count):
        params = list(inspect.signature(fn).parameters)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count, params)

        return traced

    def install(self) -> "Tracer":
        """Wrap every target and the thread pool's submit; returns self."""
        modules = {}
        for m in MODULES:
            try:
                modules[m] = importlib.import_module(f"curvestats.{m}")
            except ImportError:
                pass
        pkg = [m for k, m in sys.modules.items() if k.split(".")[0] == "curvestats"]
        for name, (modname, paths, count) in TARGETS.items():
            mod = modules.get(modname)
            for path in paths:
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(f"{modname}.{path}")
                    continue
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, count)))
                elif owner_name:
                    setattr(owner, attr, self._wrap(name, raw, count))
                else:
                    self._rebind_everywhere(pkg, raw, self._wrap(name, raw, count))
        self._trace_pool()
        return self

    @staticmethod
    def _rebind_everywhere(modules, old, new):
        for mod in modules:
            ns = vars(mod)
            for key, value in list(ns.items()):
                if value is old:
                    ns[key] = new
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is old:
                            value[k] = new

    def _trace_pool(self):
        tracer = self
        submit = ThreadPoolExecutor.submit

        def traced_submit(executor, fn, /, *args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None

            def task(*a, **k):
                tracer.max_threads = max(tracer.max_threads, threading.active_count())
                worker_stack = tracer._stack()
                worker_stack.append(parent)
                try:
                    return fn(*a, **k)
                finally:
                    worker_stack.pop()

            return submit(executor, task, *args, **kwargs)

        ThreadPoolExecutor.submit = traced_submit

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s and summed counters."""
        children = defaultdict(list)
        for rec in self.spans:
            if rec[3] is not None:
                children[id(rec[3])].append((rec[1], rec[2]))
        out: dict[str, dict[str, float]] = {}
        for rec in self.spans:
            name, start, end, _, counters = rec
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(id(rec), ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - covered
            for key, value in (counters or {}).items():
                agg[key] = agg.get(key, 0) + value
        return out
