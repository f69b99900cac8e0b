"""Stopping-time machinery: slope assignments, Carleson packing, point classes.

Per interval I the assignment walks the dyadic tree top-down, keeping a slope
cell for J only when it is popular (J's row of the field's popularity table)
and does not contain a cell already used by a longer ancestor.  Chosen
popularity sets are then pairwise disjoint, which gives the exact packing
bound sum mu_J <= |I| and the halving of the stopping-interval shadow.  Point
classes come from antichain layers of the (interval, slope) order; iterating
over generations produces the pairwise disjoint sets that decompose the
linearized operator.

Theta is integer rows.  A pair (J, s) is the row (level, index, slope index)
of J = [index, index + 1) / 2^level and the slope cell s at level
m_w - level; the assignment adds the count |G_{J,s}| * 2^m as a fourth
column, so mu_{J,s} = count / 2^m.  Row sets are sorted by (level, index,
slope), and (J, s) <= (J', s') when J = J' and s <= s', or J lies strictly
inside J'.  Cell sets are sorted read-only int32 arrays of column-major cell
indices, so the cells under an interval are one np.searchsorted slice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from .dyadic import DyadicRational
from .family import _unique_rows, popular_table
from .geometry import DyadicInterval, GridSpec, dyadic_inside
from .grids import GridFunction, OneVarField, _cell_set, cell_array
from .maximal import ChoiceMap, _scaled_averages, apply_T_adjoint, m2_vertical


@dataclass(frozen=True, eq=False)
class SlopeAssignment:
    """T(J) for every dyadic J under the root: a read-only int64 row
    (level, index, slope index, count) per chosen pair, mu = count / 2^m."""

    spec: GridSpec
    root: DyadicInterval
    rows: np.ndarray


def compute_assignments(
    I: DyadicInterval, v: OneVarField, w: DyadicRational, delta: DyadicRational
) -> SlopeAssignment:
    """Top-down slope assignment under I: popular cells not containing used ones."""
    spec = v.spec
    if w != spec.w or I.level > spec.m_w:
        raise ValueError("interval/width mismatch")
    return _assign(I, spec, popular_table(v, delta))


def _assign(I: DyadicInterval, spec: GridSpec, tables: list[np.ndarray]) -> SlopeAssignment:
    """The walk of ``compute_assignments`` over ``popular_table``, one level at a time.

    ``blocked`` marks, per J of the level, the slope cells that contain a
    cell kept above J.  A child's cell j contains its parent's cells 2j and
    2j + 1, so it is blocked when either of them is blocked or kept.
    """
    blocked = np.zeros((1, 1 << (spec.m_w - I.level)), dtype=bool)
    rows = []
    for level in range(I.level, spec.m_w + 1):
        first = I.index << (level - I.level)
        counts = tables[level][first : first + len(blocked)]
        keep = (counts > 0) & ~blocked
        at, slope = np.nonzero(keep)
        rows.append(np.column_stack([np.full(len(at), level), first + at, slope, counts[keep]]))
        if level < spec.m_w:
            blocked = np.repeat((blocked | keep).reshape(len(keep), -1, 2).any(-1), 2, axis=0)
    rows = np.concatenate(rows).astype(np.int64)
    rows.flags.writeable = False
    return SlopeAssignment(spec, I, rows)


def carleson_sum(assign: SlopeAssignment) -> DyadicRational:
    """Sum of mu_J over all J under the root; at most |root| by disjointness."""
    return DyadicRational(int(assign.rows[:, 3].sum()), assign.spec.m)


def stopping_intervals(assign: SlopeAssignment) -> tuple[DyadicInterval, ...]:
    """Maximal dyadic J under the root where the running density sum reaches 2.

    ``acc`` is 2^m times the sum of mu_J' / |J'| over the J' from the root
    down to each J of a level, so a row adds count << level, and J stops at
    acc >= 2^(m+1) unless an ancestor stopped.  J's popularity sets are
    disjoint, so a level adds at most 2^m and acc stays below (m_w + 1) 2^m.
    """
    I, rows = assign.root, assign.rows
    acc = np.zeros(1, dtype=np.int64)
    live = np.ones(1, dtype=bool)
    out = []
    for level in range(I.level, assign.spec.m_w + 1):
        first = I.index << (level - I.level)
        at = rows[rows[:, 0] == level]
        np.add.at(acc, at[:, 1] - first, at[:, 3] << level)
        stop = live & (acc >= 2 << assign.spec.m)
        out += [DyadicInterval(level, first + i) for i in np.flatnonzero(stop).tolist()]
        live, acc = np.repeat(live & ~stop, 2), np.repeat(acc, 2)
    return tuple(out)


def shadow_measure(intervals: Iterable[DyadicInterval]) -> DyadicRational:
    """Exact measure of a union of pairwise disjoint dyadic intervals."""
    levels = [J.level for J in intervals]
    top = max(levels, default=0)
    return DyadicRational(sum(1 << (top - level) for level in levels), top)


def partition_theta(assign: SlopeAssignment, stops: Sequence[DyadicInterval]) -> np.ndarray:
    """The good pairs of Theta: the rows whose interval lies inside no stopping interval."""
    rows = assign.rows
    S = np.array([(J.level, J.index) for J in stops], dtype=np.int64).reshape(-1, 2)
    inside = dyadic_inside(rows[:, :1], rows[:, 1:2], S[:, 0], S[:, 1]).any(axis=1)
    return rows[~inside, :3]


def omega_levels(theta_good, theta_full) -> tuple[np.ndarray, ...]:
    """Antichain layers: maximal good pairs, then good members of child sets.

    Under Theta's order the maximal pairs of a set are the top slope of each
    of its intervals that lies strictly inside no other of them.  The
    children of (J, s), the maximal pairs of ``full`` strictly below it, are
    the next lower slope at J if there is one, else the top slope of each
    interval of ``full`` whose nearest strict ancestor in ``full`` is J.
    Each layer keeps only the good children, as sorted rows.
    """
    rows = lambda pairs: _unique_rows(np.asarray(pairs, dtype=np.int64).reshape(-1, 3))
    full, good = rows(theta_full), rows(theta_good)
    where = {row: n for n, row in enumerate(map(tuple, full.tolist()))}
    at = [where.get(row, -1) for row in map(tuple, good.tolist())]
    if -1 in at:
        raise ValueError("good pairs must come from the full pair set")
    if not at:
        return ()
    is_good = np.zeros(len(full), dtype=bool)
    is_good[at] = True
    lower = np.append(False, (full[1:, :2] == full[:-1, :2]).all(1))  # row n - 1 is the next lower slope
    which = np.cumsum(~lower) - 1  # each row's interval
    first = np.flatnonzero(~lower)
    spans = full[first, :2]
    top = np.append(first[1:], len(full)) - 1  # each interval's top slope row
    # inner[a, b]: interval a lies strictly inside interval b
    inner = dyadic_inside(spans[:, :1], spans[:, 1:2], spans[:, 0], spans[:, 1])
    inner &= ~np.eye(len(spans), dtype=bool)
    nearest = np.where(inner.any(1), np.where(inner, spans[:, 0], -1).argmax(1), -1)

    last = np.full(len(spans), -1)
    np.maximum.at(last, which[is_good], np.flatnonzero(is_good))  # top good slope
    has = last >= 0
    current = np.zeros(len(full), dtype=bool)
    current[last[has & ~(inner & has).any(1)]] = True
    levels = []
    while current.any():
        levels.append(full[current])
        nxt = np.zeros(len(full), dtype=bool)
        nxt[np.flatnonzero(current & lower) - 1] = True
        bottom = np.zeros(len(spans) + 1, dtype=bool)  # the last entry stands for "none"
        bottom[which[current & ~lower]] = True
        nxt[top[bottom[nearest]]] = True
        current = nxt & is_good
    return tuple(levels)


def _under(cells: np.ndarray, J: DyadicInterval, m: int) -> np.ndarray:
    """The cells of a cell set whose column lies under J: one index range."""
    cols = J.columns(m)
    lo, hi = np.searchsorted(cells, (cols.start << m, cols.stop << m))
    return cells[lo:hi]


@dataclass(frozen=True, eq=False)
class ClassifyResult:
    """Point classes over one interval: F_n layers and good/bad cells."""

    f_sets: tuple[np.ndarray, ...]
    good_cells: np.ndarray
    bad_cells: np.ndarray


def classify_points(
    cells: Iterable[int],
    rho: ChoiceMap,
    omegas: Sequence[np.ndarray],
    I: DyadicInterval,
) -> ClassifyResult:
    """Sort E-cells into F_n layers by the antichain their choice sits under.

    A cell is in F_n when its choice's base lies in J and its slope cell
    contains s for some row (J, s) of layer n: one broadcast per layer over
    the chosen key rows.
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
        J_level, J_index, s = np.asarray(layer, dtype=np.int64).reshape(-1, 3).T
        under = dyadic_inside(level[:, None], base[:, None], J_level, J_index)
        under &= dyadic_inside(fam.spec.m_w - J_level, s, k[:, None], slope[:, None])
        hit[n, uniq] = under.any(axis=1)
    good = hit.any(axis=0)[chosen]
    return ClassifyResult(
        tuple(_cell_set(cells[row[chosen]]) for row in hit),
        _cell_set(cells[good]),
        _cell_set(cells[~good]),
    )


@dataclass(frozen=True, eq=False)
class IntervalRecord:
    """Everything the iteration produced over one interval of one generation."""

    interval: DyadicInterval
    assignment: SlopeAssignment
    stops: tuple[DyadicInterval, ...]
    omegas: tuple[np.ndarray, ...]
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
    tables = popular_table(v, delta)
    while intervals and len(e_cells):
        if len(generations) >= max_gen:
            truncated = True
            break
        records = []
        next_intervals: list[DyadicInterval] = []
        for I in intervals:
            assign = _assign(I, spec, tables)
            stops = stopping_intervals(assign)
            th_good = partition_theta(assign, stops)
            omegas = omega_levels(th_good, assign.rows[:, :3])
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
    M2 g runs on those cells' columns only.  Each tuple is decided by one
    cross-product of Python ints: avg_R(g) is avgs[e] / 2^scale and M2 g(x) is
    num / (den << g.scale), with scale - g.scale = 2m + 2, so nothing wraps.
    """
    if max_pieces is not None and max_pieces < 0:
        raise ValueError("max_pieces must be nonnegative")
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
            later = [_under(a_sets[k], J, m) for k in range(j + 1, len(result.generations))]
            read = np.bincount(np.concatenate(later) >> m, minlength=1 << m) > 0
            place = np.cumsum(read) - 1  # a read column's position among them
            g = apply_T_adjoint(rho, f.masked(cells))
            num, den = m2_vertical(g, np.flatnonzero(read))
            avgs, scale = _scaled_averages(rho.fam, g)
            shift = scale - g.scale
            for cells in later:
                checked += len(cells)
                at = (place[cells >> m] << m) | (cells & ((1 << m) - 1))
                for idx, e, x, d in zip(
                    cells.tolist(), rho.entries[cells].tolist(), num[at].tolist(), den[at].tolist()
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
                            {"interval": J, "slopes": [row[2] for row in rows]}
                            for J, rows in groupby(rec.assignment.rows.tolist(), key=lambda row: row[:2])
                        ],
                        "stops": [[J.level, J.index] for J in rec.stops],
                        "omegas": [layer.tolist() for layer in rec.omegas],
                        "f_sets": [_runs(fs) for fs in rec.classify.f_sets],
                    }
                    for rec in g.records
                ],
            }
            for g in result.generations
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=1)
