"""Layer boundaries of dirmax and the two ways the benchmark observes them.

A layer is a dirmax module; its boundary is the set of public functions
listed in LAYERS.  A function is wrapped at every module namespace that
bound it (``apply_T_adjoint`` is bound in maximal, badness, stopping_time
and verify), so internal calls through those names are seen as well.
Modules are taken from ``sys.modules``: the package re-exports some
functions under module names (``dirmax.badness`` is the function), so
attribute access on the package would find the wrong object.

``SpanTracer`` keeps one span per call in memory (name, start, end, parent,
run id) and derives self time as duration minus the time covered by child
spans.  ``CallCounter`` takes no clock readings: it counts calls and feeds
each call's arguments and result to the work counters in ``counters.py``.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter

LAYERS = {
    "instances": ["make_kakeya_bundle", "cascade_field", "random_field", "random_grid", "build_corpus"],
    "family": ["enumerate_family", "is_good_collection"],
    "grids": ["integrate_scaled", "column_prefix", "average"],
    "maximal": ["maximal_apply", "linearize", "apply_T", "apply_T_adjoint", "estimate_norm", "m2_vertical"],
    "geometry": ["overlap_measure", "union_measure"],
    "badness": [
        "badness_table", "shrink_iterate", "shrink_once", "reformulate_check",
        "badness_components", "BadnessEngine.badness_of", "BadnessEngine.box_mass",
    ],
    "stopping_time": [
        "run_generations", "compute_assignments", "stopping_intervals", "partition_theta",
        "omega_levels", "classify_points", "domination_check",
    ],
    "oracle": ["enumerate_family", "maximal_apply", "stopping_intervals", "omega_levels", "badness", "shrink_once"],
    "verify": [
        "check_oracle_equivalence", "check_exact_identities", "check_stopping_theorems",
        "check_shrinking", "check_reformulation", "check_domination",
    ],
}

FUNCTIONS = [f"{layer}.{qual}" for layer, quals in LAYERS.items() for qual in quals]


def _owner(layer: str, qual: str):
    """(object holding the attribute, attribute name), or (None, name) if gone."""
    owner = sys.modules.get("dirmax." + layer)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner, attr


class _Wrapping:
    """Install a wrapper for every listed function at every binding site."""

    def __init__(self, extra: list[str] = ()):
        self.targets = FUNCTIONS + list(extra)  # "layer.qualname" each
        self.missing: list[str] = []

    def install(self) -> None:
        originals: dict[int, tuple[str, object]] = {}
        for name in self.targets:
            layer, qual = name.split(".", 1)
            owner, attr = _owner(layer, qual)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            originals[id(fn)] = (name, fn)
            if isinstance(owner, type):  # a method: wrap on the class itself
                setattr(owner, attr, self.wrap(name, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "dirmax" and not modname.startswith("dirmax."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[1] is value:
                    setattr(module, attr, self.wrap(*hit))

    def wrap(self, name: str, fn):
        raise NotImplementedError


class SpanTracer(_Wrapping):
    """One in-memory span per wrapped call; the run id names the phase."""

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float, int] | None] = []
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (self.run_id, name_id, t0, t1, parent)

        return traced

    def summary(self, run_ids) -> tuple[dict[str, float], Counter, float]:
        """Per-function self seconds and calls over the given phases, and the
        time their top-level spans cover."""
        child = [0.0] * len(self.spans)
        for run, _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict[str, float] = {name: 0.0 for name in self.targets}
        calls: Counter = Counter()
        covered = 0.0
        for i, (run, name_id, t0, t1, parent) in enumerate(self.spans):
            if run not in run_ids:
                continue
            name = self.names[name_id]
            self_s[name] += (t1 - t0) - child[i]
            calls[name] += 1
            if parent < 0:
                covered += t1 - t0
        return self_s, calls, covered

    def write(self, path, run_names: dict[int, str]) -> None:
        """All spans as gzip CSV: run, span, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("run,span,parent,name,start_s,end_s\n")
            for i, (run, name_id, t0, t1, parent) in enumerate(self.spans):
                out.write(f"{run_names[run]},{i},{parent},{self.names[name_id]},{t0:.9f},{t1:.9f}\n")


class CallCounter(_Wrapping):
    """Call counts plus per-call hooks; no clock readings at all.

    ``hooks`` maps a function name to ``hook(args, kwargs, result)``.  The
    stack of active wrapped names lets a hook see its caller.
    """

    def __init__(self, hooks: dict, extra: list[str] = ()):
        super().__init__(extra)
        self.hooks = hooks
        self.calls: Counter = Counter()
        self.stack: list[str] = []

    def wrap(self, name: str, fn):
        hook = self.hooks.get(name)
        calls, stack = self.calls, self.stack

        def counted(*args, **kwargs):
            calls[name] += 1
            stack.append(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return counted
