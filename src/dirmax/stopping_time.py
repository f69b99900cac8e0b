"""Stopping-time machinery: slope assignments, Carleson packing, point classes.

Per interval I the assignment walks the dyadic tree top-down, keeping a slope
cell for J only when it is popular (J's row of the field's popularity table)
and does not contain a cell already used by a longer ancestor.  Chosen
popularity sets are then pairwise disjoint, which gives the exact packing
bound sum mu_J <= |I| and the halving of the stopping-interval shadow.  Point
classes come from antichain layers of the (interval, slope) order; iterating
over generations produces the pairwise disjoint sets that decompose the
linearized operator.  Cell sets are sorted read-only int32 arrays of
column-major cell indices, so the cells under an interval are one
np.searchsorted slice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dyadic import DyadicRational
from .family import RectangleFamily, popular_table
from .geometry import DyadicInterval, SlopeCell, dyadic_inside
from .grids import GridFunction, OneVarField, _cell_set, cell_array
from .maximal import ChoiceMap, _scaled_averages, apply_T_adjoint, m2_vertical


@dataclass(frozen=True)
class ThetaPair:
    """A pair (J, s) with s in T(J), ordered per the stopping-time argument."""

    interval: DyadicInterval
    slope: SlopeCell

    def leq(self, other: "ThetaPair") -> bool:
        """(J,s) <= (J',s'): same interval with center(s) <= center(s'), or J strictly inside J'."""
        if self.interval == other.interval:
            return self.slope.center <= other.slope.center
        return other.interval.strictly_contains(self.interval)

    def lt(self, other: "ThetaPair") -> bool:
        return self != other and self.leq(other)

    def comparable(self, other: "ThetaPair") -> bool:
        return self.leq(other) or other.leq(self)

    def sort_key(self):
        return (self.interval.level, self.interval.index, self.slope.index)


@dataclass(frozen=True)
class SlopeAssignment:
    """T(J) for every dyadic J under the root, with exact popularity masses."""

    root: DyadicInterval
    chosen: Mapping[DyadicInterval, tuple[SlopeCell, ...]]
    mu: Mapping[ThetaPair, DyadicRational]

    def theta(self) -> tuple[ThetaPair, ...]:
        pairs = [
            ThetaPair(J, s) for J, cells in self.chosen.items() for s in cells
        ]
        pairs.sort(key=ThetaPair.sort_key)
        return tuple(pairs)

    def mu_of(self, J: DyadicInterval) -> DyadicRational:
        total = DyadicRational(0)
        for s in self.chosen.get(J, ()):
            total = total + self.mu[ThetaPair(J, s)]
        return total


def compute_assignments(
    I: DyadicInterval, v: OneVarField, w: DyadicRational, delta: DyadicRational
) -> SlopeAssignment:
    """Top-down slope assignment under I: popular cells not containing used ones."""
    spec = v.spec
    if w != spec.w or I.level > spec.m_w:
        raise ValueError("interval/width mismatch")
    tables = [t.tolist() for t in popular_table(v, delta)]
    chosen: dict[DyadicInterval, tuple[SlopeCell, ...]] = {}
    mu: dict[ThetaPair, DyadicRational] = {}

    def visit(J: DyadicInterval, blocked: frozenset[int]) -> None:
        k = spec.m_w - J.level
        counts = tables[J.level][J.index]
        keep = tuple(SlopeCell(k, j) for j, n in enumerate(counts) if n and j not in blocked)
        chosen[J] = keep
        for s in keep:
            mu[ThetaPair(J, s)] = DyadicRational(counts[s.index], spec.m)
        if k > 0:
            child_blocked = frozenset(
                {b >> 1 for b in blocked} | {s.index >> 1 for s in keep}
            )
            for child in J.children():
                visit(child, child_blocked)

    visit(I, frozenset())
    return SlopeAssignment(I, chosen, mu)


def carleson_sum(assign: SlopeAssignment) -> DyadicRational:
    """Sum of mu_J over all J under the root; at most |root| by disjointness."""
    total = DyadicRational(0)
    for value in assign.mu.values():
        total = total + value
    return total


def stopping_intervals(assign: SlopeAssignment) -> tuple[DyadicInterval, ...]:
    """Maximal dyadic J under the root where the running density sum reaches 2."""
    out: list[DyadicInterval] = []

    def visit(J: DyadicInterval, acc: DyadicRational) -> None:
        mu = assign.mu_of(J)
        acc = acc + DyadicRational(mu.num, mu.exp - J.level)  # + mu_J / |J|
        if acc >= 2:
            out.append(J)
            return
        for child in J.children():
            if child in assign.chosen:
                visit(child, acc)

    visit(assign.root, DyadicRational(0))
    return tuple(sorted(out, key=lambda J: (J.level, J.index)))


def shadow_measure(intervals: Iterable[DyadicInterval]) -> DyadicRational:
    """Exact measure of a union of pairwise disjoint dyadic intervals."""
    total = DyadicRational(0)
    for J in intervals:
        total = total + J.length
    return total


def partition_theta(
    assign: SlopeAssignment, stops: Sequence[DyadicInterval]
) -> tuple[ThetaPair, ...]:
    """The good pairs of Theta: those buried inside no stopping interval."""
    return tuple(
        pair for pair in assign.theta() if not any(S.contains(pair.interval) for S in stops)
    )


def omega_levels(
    theta_good: Sequence[ThetaPair], theta_full: Sequence[ThetaPair]
) -> tuple[tuple[ThetaPair, ...], ...]:
    """Antichain layers: maximal good pairs, then good members of child sets.

    Children of a pair are the maximal pairs strictly below it in the full
    order on Theta; each layer keeps only the good ones.
    """
    full = sorted(set(theta_full), key=ThetaPair.sort_key)
    good = set(theta_good)
    if not good.issubset(full):
        raise ValueError("good pairs must come from the full pair set")

    def maximal(pairs: Iterable[ThetaPair]) -> list[ThetaPair]:
        pairs = list(pairs)
        return [p for p in pairs if not any(p.lt(q) for q in pairs)]

    levels: list[tuple[ThetaPair, ...]] = []
    current = sorted(maximal(good), key=ThetaPair.sort_key)
    children_cache: dict[ThetaPair, tuple[ThetaPair, ...]] = {}

    def children(p: ThetaPair) -> tuple[ThetaPair, ...]:
        if p not in children_cache:
            below = [q for q in full if q.lt(p)]
            children_cache[p] = tuple(maximal(below))
        return children_cache[p]

    guard = len(full) + 1
    while current and guard:
        levels.append(tuple(current))
        nxt = set()
        for p in current:
            for q in children(p):
                if q in good:
                    nxt.add(q)
        current = sorted(nxt, key=ThetaPair.sort_key)
        guard -= 1
    return tuple(levels)


def _under(cells: np.ndarray, J: DyadicInterval, m: int) -> np.ndarray:
    """The cells of a cell set whose column lies under J: one index range."""
    cols = J.columns(m)
    lo, hi = np.searchsorted(cells, (cols.start << m, cols.stop << m))
    return cells[lo:hi]


@dataclass(frozen=True, eq=False)
class ClassifyResult:
    """Point classes over one interval: F_n layers, good/bad cells, collections."""

    f_sets: tuple[np.ndarray, ...]
    good_cells: np.ndarray
    bad_cells: np.ndarray
    collections: tuple[RectangleFamily, ...]


def classify_points(
    cells: Iterable[int],
    rho: ChoiceMap,
    omegas: Sequence[Sequence[ThetaPair]],
    I: DyadicInterval,
) -> ClassifyResult:
    """Sort E-cells into F_n layers by the antichain their choice sits under.

    A cell is in F_n when its choice's base lies in J and its slope cell
    contains s for some (J, s) of layer n: one test per chosen key row.
    """
    fam = rho.fam
    cells = _cell_set(cell_array(fam.spec, cells))
    chosen = rho.entries[cells]
    if (chosen < 0).any():
        raise ValueError("cell without a choice cannot be classified")
    uniq = np.flatnonzero(np.bincount(chosen, minlength=len(fam)))
    k, base, slope, _ = fam.sort_keys[uniq].T
    level = fam.spec.m_w - k
    if not dyadic_inside(level, base, I.level, I.index).all():
        raise ValueError("choice escapes interval")
    hit = np.zeros((len(omegas), len(fam)), dtype=bool)  # per layer, per member
    for n, layer in enumerate(omegas):
        for p in layer:
            J, s = p.interval, p.slope
            under = dyadic_inside(level, base, J.level, J.index)
            hit[n, uniq] |= under & dyadic_inside(s.level, s.index, k, slope)
    good = hit.any(axis=0)[chosen]
    return ClassifyResult(
        tuple(_cell_set(cells[row[chosen]]) for row in hit),
        _cell_set(cells[good]),
        _cell_set(cells[~good]),
        tuple(fam.subfamily(np.flatnonzero(row)) for row in hit),
    )


@dataclass(frozen=True)
class IntervalRecord:
    """Everything the iteration produced over one interval of one generation."""

    interval: DyadicInterval
    assignment: SlopeAssignment
    stops: tuple[DyadicInterval, ...]
    omegas: tuple[tuple[ThetaPair, ...], ...]
    classify: ClassifyResult


@dataclass(frozen=True, eq=False)
class GenerationRecord:
    index: int
    intervals: tuple[DyadicInterval, ...]
    records: tuple[IntervalRecord, ...]
    good_cells: np.ndarray
    bad_cells: np.ndarray


@dataclass(frozen=True)
class DecompositionResult:
    generations: tuple[GenerationRecord, ...]
    truncated: bool

    def a_sets(self) -> list[np.ndarray]:
        return [g.good_cells for g in self.generations]

    def final_bad(self) -> np.ndarray:
        return self.generations[-1].bad_cells if self.generations else _cell_set(np.empty(0))


def run_generations(
    v: OneVarField,
    w: DyadicRational,
    delta: DyadicRational,
    rho: ChoiceMap,
    max_gen: int = 64,
) -> DecompositionResult:
    """Iterate the interval lemma from [0,1] over a fixed linearization."""
    spec = v.spec
    if w != spec.w:
        raise ValueError("interval/width mismatch")
    if max_gen < 0:
        raise ValueError("max_gen must be nonnegative")
    m = spec.m
    intervals = [DyadicInterval(0, 0)]
    e_cells = _cell_set(np.flatnonzero(rho.entries >= 0))
    generations: list[GenerationRecord] = []
    truncated = False
    while intervals and len(e_cells):
        if len(generations) >= max_gen:
            truncated = True
            break
        records = []
        next_intervals: list[DyadicInterval] = []
        for I in intervals:
            assign = compute_assignments(I, v, w, delta)
            stops = stopping_intervals(assign)
            th_good = partition_theta(assign, stops)
            omegas = omega_levels(th_good, assign.theta())
            cl = classify_points(_under(e_cells, I, m), rho, omegas, I)
            records.append(IntervalRecord(I, assign, stops, omegas, cl))
            next_intervals.extend(stops)
        good_all = _cell_set(np.concatenate([r.classify.good_cells for r in records]))
        e_cells = _cell_set(np.concatenate([r.classify.bad_cells for r in records]))
        generations.append(
            GenerationRecord(len(generations), tuple(intervals), tuple(records), good_all, e_cells)
        )
        intervals = sorted(next_intervals, key=lambda J: (J.level, J.index))
    return DecompositionResult(tuple(generations), truncated)


# -- generation pieces and the vertical-maximal domination test ----------------


def piece_cells(result: DecompositionResult, j: int) -> list[tuple[DyadicInterval, int, np.ndarray]]:
    """(J, n, cells) pieces of generation j; cells take their first matching layer."""
    out = []
    for rec in result.generations[j].records:
        seen = np.empty(0, dtype=np.int32)
        for n, fs in enumerate(rec.classify.f_sets):
            fresh = _cell_set(np.setdiff1d(fs, seen, assume_unique=True))
            seen = np.concatenate((seen, fresh))
            if len(fresh):
                out.append((rec.interval, n, fresh))
    return out


@dataclass(frozen=True)
class DominationViolation:
    generation: int
    interval: DyadicInterval
    layer: int
    cell: int
    average: str
    vertical_max: str


def domination_check(
    result: DecompositionResult,
    rho: ChoiceMap,
    f: GridFunction,
    max_pieces: int | None = None,
) -> tuple[list[DominationViolation], int, Fraction]:
    """Compare chosen-rectangle averages of T*(piece f) against m2_vertical.

    Runs over every piece (j, J, n) and every cell of a strictly later
    generation under J -- the domain on which the vertical-transport argument
    operates (the diagonal k = j is controlled by the good-collection bound
    instead).  Returns (violations, tuples checked, worst excess ratio where
    m2_vertical > 0); an empty violation list means the domination held exactly.
    Each tuple is decided by one cross-product of Python ints: avg_R(g) is
    avgs[e] / 2^scale and M2 g(x) is num / (den << g.scale), with scale - g.scale
    = 2m + 2, so nothing wraps; Fractions are built only for the violations.
    """
    m = rho.spec.m
    violations = []
    checked = 0
    worst = Fraction(0)
    a_sets = result.a_sets()
    for j in range(len(result.generations) - 1):
        pieces = piece_cells(result, j)
        if max_pieces is not None:
            pieces = pieces[:max_pieces]
        for J, n, cells in pieces:
            g = apply_T_adjoint(rho, f.masked(cells))
            num, den = m2_vertical(g)
            avgs, scale = _scaled_averages(rho.fam, g)
            shift = scale - g.scale
            for k in range(j + 1, len(result.generations)):
                cells = _under(a_sets[k], J, m)
                checked += len(cells)
                for idx, e, x, d in zip(
                    cells.tolist(), rho.entries[cells].tolist(), num[cells].tolist(), den[cells].tolist()
                ):
                    if avgs[e] * d > x << shift:
                        avg, rhs = Fraction(avgs[e], 1 << scale), Fraction(x, d << g.scale)
                        violations.append(
                            DominationViolation(j, J, n, idx, str(avg), str(rhs))
                        )
                        if rhs:
                            worst = max(worst, avg / rhs)
    return violations, checked, worst


# -- structured text export ----------------------------------------------------


def _runs(cells: np.ndarray) -> list[list[int]]:
    """[start, length] of each run of consecutive indices in a cell set."""
    starts = np.flatnonzero(np.diff(cells, prepend=-2) != 1)
    return np.stack([cells[starts], np.diff(starts, append=len(cells))], axis=1).tolist()


def decomposition_to_json(result: DecompositionResult) -> str:
    """Stable-keyed JSON of the full generation tree (cell sets run-length coded)."""
    payload = {
        "truncated": result.truncated,
        "generations": [
            {
                "index": g.index,
                "intervals": [[J.level, J.index] for J in g.intervals],
                "good_cells": _runs(g.good_cells),
                "bad_cells": _runs(g.bad_cells),
                "records": [
                    {
                        "interval": [rec.interval.level, rec.interval.index],
                        "assignment": [
                            {
                                "interval": [J.level, J.index],
                                "slopes": [s.index for s in cells],
                            }
                            for J, cells in sorted(
                                rec.assignment.chosen.items(),
                                key=lambda kv: (kv[0].level, kv[0].index),
                            )
                            if cells
                        ],
                        "stops": [[J.level, J.index] for J in rec.stops],
                        "omegas": [
                            [
                                [p.interval.level, p.interval.index, p.slope.index]
                                for p in layer
                            ]
                            for layer in rec.omegas
                        ],
                        "f_sets": [_runs(fs) for fs in rec.classify.f_sets],
                    }
                    for rec in g.records
                ],
            }
            for g in result.generations
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=1)
