"""Exact work counters, computed from the inputs and outputs of layer calls.

No counter reads a clock, so each must repeat exactly between runs of one
program on one seed; a difference means the program is nondeterministic.
The counters run in their own pass (``CountPass``), apart from the traced
pass, because computing them costs time that would distort self times.
"""

from __future__ import annotations

import sys
from collections import Counter

from tracer import CallCounter

COUNTERS = {
    # name: (unit, better, meaning)
    "family.members": ("count", "lower", "members returned by family.enumerate_family"),
    "dyadic.objects": ("count", "lower", "DyadicRational objects constructed while building the inputs and running the job"),
    "grids.member_cols": ("count", "lower", "(member, column) pairs integrated by grids.integrate_scaled"),
    "maximal.splat_cells": (
        "count", "lower",
        "(member, cell) pairs in the splat domains: center-row cells of every member for maximal_apply "
        "and linearize, touched cells of every member with nonzero chooser mass for apply_T_adjoint",
    ),
    "maximal.max_bits": ("bits", "lower", "largest numerator bit length among grid inputs and outputs of M, rho, T, T*"),
    "maximal.ascent_steps": ("count", "lower", "T*T ascent steps taken by estimate_norm"),
    "badness.overlap_hit_ratio": ("ratio", "higher", "BadnessEngine.inter calls answered from its cache, over inter calls"),
    "badness.windows_scanned": (
        "count", "lower",
        "candidate (I, K) windows of shrink_once: 2^(m+1)-1 vertical K for every base I with choosers under it",
    ),
    "badness.windows_selected": ("count", "higher", "bad windows selected by shrink_once"),
    "badness.window_yield": ("ratio", "higher", "windows_selected over windows_scanned"),
    "badness.dichotomy_failures": ("count", "lower", "dichotomy audit records returned by shrink_once"),
    "stopping_time.generations": ("count", "lower", "generations returned by run_generations"),
    "stopping_time.classified_cells": ("count", "lower", "cells passed to classify_points"),
}


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _max_bits(*grids) -> int:
    best = 0
    for g in grids:
        if g.nums:
            best = max(best, max(max(g.nums), -min(g.nums)).bit_length())
    return best


class CountPass:
    """Call counts and the COUNTERS over one set-up and job, from wrappers at
    the layer boundaries."""

    def __init__(self):
        self.values: Counter = Counter()
        hooks = {
            "family.enumerate_family": self._family,
            "grids.integrate_scaled": self._integrate,
            "maximal.maximal_apply": self._splat_centers,
            "maximal.linearize": self._splat_centers,
            "maximal.apply_T": self._apply_T,
            "maximal.apply_T_adjoint": self._splat_adjoint,
            "maximal.estimate_norm": self._ascent,
            "geometry.overlap_measure": self._overlap,
            "badness.BadnessEngine.inter": self._inter,
            "badness.shrink_once": self._shrink_once,
            "stopping_time.run_generations": self._generations,
            "stopping_time.classify_points": self._classified,
        }
        self.counter = CallCounter(hooks, extra=["badness.BadnessEngine.inter"])

    # -- lifecycle -----------------------------------------------------

    def install(self) -> None:
        self.counter.install()
        cls = sys.modules["dirmax.dyadic"].DyadicRational
        init = cls.__init__
        values = self.values

        def counting_init(obj, *args, **kwargs):
            values["dyadic.objects"] += 1
            init(obj, *args, **kwargs)

        cls.__init__ = counting_init

    def result(self) -> tuple[dict[str, float], dict[str, int]]:
        v = self.values
        out = {name: v[name] for name in COUNTERS}
        out["badness.overlap_hit_ratio"] = (
            (v["inter"] - v["inter_misses"]) / v["inter"] if v["inter"] else 0.0
        )
        out["badness.window_yield"] = (
            v["badness.windows_selected"] / v["badness.windows_scanned"]
            if v["badness.windows_scanned"] else 0.0
        )
        calls = dict(self.counter.calls)
        calls.pop("badness.BadnessEngine.inter", None)
        return out, calls

    # -- hooks: (args, kwargs, result) of one call -----------------------

    def _family(self, args, kwargs, fam) -> None:
        self.values["family.members"] += len(fam.members)

    def _integrate(self, args, kwargs, out) -> None:
        R = _arg(args, kwargs, 0, "R")
        self.values["grids.member_cols"] += R.col_hi - R.col_lo

    def _splat_centers(self, args, kwargs, out) -> None:
        f, fam = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "fam")
        spec = fam.spec
        per_col = 1 << (spec.m - spec.m_w)
        self.values["maximal.splat_cells"] += per_col * sum(r.col_hi - r.col_lo for r in fam.members)
        grids = (f, out) if hasattr(out, "nums") else (f,)
        self._bits(*grids)

    def _apply_T(self, args, kwargs, out) -> None:
        self._bits(_arg(args, kwargs, 1, "f"), out)

    def _splat_adjoint(self, args, kwargs, out) -> None:
        rho, g = _arg(args, kwargs, 0, "rho"), _arg(args, kwargs, 1, "g")
        weighted = set()
        nums = g.nums
        for idx, e in enumerate(rho.entries):
            if e >= 0 and nums[idx]:
                weighted.add(e)
        cells = 0
        members = rho.fam.members
        for mi in weighted:
            r = members[mi]
            for c in range(r.col_lo, r.col_hi):
                r0, r1 = r.touched_rows(c)
                cells += r1 - r0
        self.values["maximal.splat_cells"] += cells
        self._bits(g, out)

    def _bits(self, *grids) -> None:
        b = _max_bits(*grids)
        if b > self.values["maximal.max_bits"]:
            self.values["maximal.max_bits"] = b

    def _ascent(self, args, kwargs, report) -> None:
        self.values["maximal.ascent_steps"] += sum(1 for _, it, _ in report.rows if it > 0)

    def _overlap(self, args, kwargs, out) -> None:
        stack = self.counter.stack
        if stack and stack[-1] == "badness.BadnessEngine.inter":
            self.values["inter_misses"] += 1

    def _inter(self, args, kwargs, out) -> None:
        self.values["inter"] += 1

    def _shrink_once(self, args, kwargs, out) -> None:
        cells, rho = _arg(args, kwargs, 0, "cells"), _arg(args, kwargs, 1, "rho")
        members, entries = rho.fam.members, rho.entries
        spec = rho.fam.spec
        # integer (level, index) pairs: hooks must construct no DyadicRational
        bases = {(members[e].base.level, members[e].base.index) for e in (entries[i] for i in cells) if e >= 0}
        with_choosers = sum(
            1
            for level in range(spec.m_w + 1)
            for index in range(1 << level)
            if any(bl >= level and bi >> (bl - level) == index for bl, bi in bases)
        )
        _, diag = out
        self.values["badness.windows_scanned"] += with_choosers * ((1 << (spec.m + 1)) - 1)
        self.values["badness.windows_selected"] += sum(len(ks) for _, ks in diag.windows)
        self.values["badness.dichotomy_failures"] += len(diag.dichotomy_failures)

    def _generations(self, args, kwargs, result) -> None:
        self.values["stopping_time.generations"] += len(result.generations)

    def _classified(self, args, kwargs, out) -> None:
        self.values["stopping_time.classified_cells"] += len(set(_arg(args, kwargs, 0, "cells")))
