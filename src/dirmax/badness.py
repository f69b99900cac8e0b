"""Badness of rectangles, vertical-window splits, and the shrinking iteration.

The badness of R against a chooser set E is the R-average of T* applied to
the indicator of the E-points whose chosen rectangle projects inside
pi_1(R).  All quadratic pairings here use true staircase intersections, so
identities like the in/out split and the single-rectangle reformulation are
exact dyadic equalities.

Everything runs in integers over one member table built from the family
(``BadnessEngine``): each member's slab progression at the scale 2^S,
S = m + m_w + 2 (``GridSpec.slab_scale``), its pi_2 ends and its base level.
A vertical window [a, b) is a pair of grid points over 2^m, and its clipped
triple is ``geometry.window_triple``.  Every scan reads one
weight vector, counts[Q] << level_Q (nu_Q / |Q| over a fixed power of two)
per member Q, zeroed for the members it leaves out.  Overlaps are
``geometry.slab_overlap`` of two progressions; a member's mass below height
y, G(y), is ``geometry.slab_cover``, and its mass in [a, b) is G(b) - G(a).
B_R is an integer numerator over 2^exp (``BadnessEngine.exp``).  A
shrinking step tabulates w * G at the grid points and B_R once per member,
for the bad-window scan under every base I, the audit and the bands.  The
scan, the audit and the bands compare with lambda0 by cross-multiplying
integers, so a DyadicRational is built only for a value the layer returns.
Cell sets are sorted read-only int32 arrays, as in stopping_time.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dyadic import DyadicRational
from .family import RectangleFamily
from .geometry import DyadicInterval
from .geometry import slab_cover, slab_overlap, slab_rows, slab_run, slab_union, window_triple
from .grids import _cell_set, cell_array
from .maximal import ChoiceMap, nu_all

UNIVERSAL_BADNESS_FACTOR = 20  # dichotomy constant: C_key = 20 * lambda0
MAX_SHRINK_STEPS = 32  # shrink_iterate stops a longer trace and marks it truncated


def _coerce_lambda(lam0) -> DyadicRational:
    if isinstance(lam0, int):
        lam0 = DyadicRational(lam0)
    if not isinstance(lam0, DyadicRational):
        raise TypeError("lambda0 must be dyadic")
    if lam0 < 1:
        raise ValueError("lambda0 must be at least 1")
    return lam0


class BadnessEngine:
    """One integer table over a family's members for every badness scan.

    Each member's key row is tabulated once, at the scale 2^S of every slab
    (``GridSpec.slab_scale``): its slab run (first column, first slab
    bottom, step, columns, slab height), its pi_2 ends (an (N, 2) int64
    array) and its base (level, index).  A scan passes one weight per
    member, nu_Q / |Q| = counts[Q] << level_Q over 4^m / 2^m_w
    (``weights``) or 0, as Python ints so that no product wraps.  B_R is
    ``badness_of`` over 2^exp, exp = 3m + S - 2m_w.
    """

    def __init__(self, fam: RectangleFamily):
        self.spec = spec = fam.spec
        self.scale = spec.slab_scale
        self.exp = 3 * spec.m + self.scale - 2 * spec.m_w
        keys = fam.sort_keys.T
        c0, lo, step = slab_run(spec, *keys)
        i, d = keys[1], spec.m_w - keys[0]  # d is the base level
        cols, height = 1 << (spec.m - d), 1 << (self.scale - spec.m_w)
        self.runs: list[tuple[int, int, int, int, int]] = [
            (*row, height) for row in zip(c0.tolist(), lo.tolist(), step.tolist(), cols.tolist())
        ]
        self.ends = np.stack((lo, lo + (cols - 1) * step + height), axis=1)  # pi_2 over 2^S
        self._level_shift = d
        self.levels: list[int] = d.tolist()
        self.bases: list[tuple[int, int]] = list(zip(self.levels, i.tolist()))
        self._inside: dict[tuple[int, int], list[int]] = {}  # by every interval over the base
        for mi, (level, index) in enumerate(self.bases):
            for up in range(level + 1):
                self._inside.setdefault((up, index >> (level - up)), []).append(mi)

    def inside_base(self, base: tuple[int, int]) -> list[int]:
        """Member indices whose base sits inside the interval (level, index), ascending."""
        return self._inside.get(base, [])

    def weights(self, counts: Sequence[int]) -> np.ndarray:
        """Per member Q, counts[Q] << level_Q (int64: at most 2^(2m + m_w))."""
        return np.asarray(counts, dtype=np.int64) << self._level_shift

    def touched_cells(self, mi: int) -> np.ndarray:
        """The cells with positive overlap with member mi's staircase, ascending."""
        spec = self.spec
        c0, lo, step, cols, _ = self.runs[mi]
        c = np.arange(cols)
        a, b, _, _ = slab_rows(spec, lo + c * step)
        first = ((c0 + c) << spec.m) + a  # rows a .. b, and b - a is the same in every column
        return (first[:, None] + np.arange(b[0] - a[0] + 1)).ravel()

    def fits(self, a: int, b: int) -> np.ndarray:
        """Per member: pi_2 lies inside the window [a, b) (grid points over 2^m)."""
        u = self.scale - self.spec.m
        return (a << u <= self.ends[:, 0]) & (self.ends[:, 1] <= b << u)

    def badness_of(self, mi: int, weights: list[int]) -> int:
        """B_R over 2^exp: (1/|R|) integral over R of T* of the weighted choosers under pi_1(R)."""
        run, runs = self.runs[mi], self.runs
        total = 0
        for qi in self.inside_base(self.bases[mi]):
            w = weights[qi]
            if w:
                total += w * slab_overlap(run, runs[qi])
        # |R cap Q| is slab_overlap over 2^(S + m), and 1/|R| = 2^(level_R + m_w)
        return total << self.levels[mi]


def badness_table(cells: Iterable[int], rho: ChoiceMap) -> "BadnessTable":
    """nu and badness for every member against one chooser set."""
    eng = BadnessEngine(rho.fam)
    counts = nu_all(rho, cells)
    weights = eng.weights(counts).tolist()
    two_m = 2 * eng.spec.m
    nus = tuple(DyadicRational(c, two_m) for c in counts)
    bs = tuple(DyadicRational(eng.badness_of(mi, weights), eng.exp) for mi in range(len(rho.fam)))
    return BadnessTable(nus, bs)


@dataclass(frozen=True)
class BadnessTable:
    nu: tuple[DyadicRational, ...]
    badness: tuple[DyadicRational, ...]

    def to_csv(self) -> str:
        lines = ["member,nu,badness"]
        for i, (n, b) in enumerate(zip(self.nu, self.badness)):
            lines.append(f"{i},{n.render()},{b.render()}")
        return "\n".join(lines) + "\n"


def reformulate_check(
    cells: Iterable[int], rho: ChoiceMap
) -> tuple[DyadicRational, DyadicRational]:
    """Exact (integral of (T* 1_E)^2, sum of nu_R * B_R); lhs <= 2*rhs always.

    Both sides sum w_a * w_b * |R_a cap R_b| (w = counts << level) in one
    pass over the pairs (a, b) with b's base inside a's.  rhs takes each
    pair once.  lhs runs over every ordered pair with nested bases, so it
    also takes the reversed pair (b, a), which the pass does not visit when
    the bases differ.
    """
    eng = BadnessEngine(rho.fam)
    weights = eng.weights(nu_all(rho, cells)).tolist()
    runs, levels = eng.runs, eng.levels
    lhs = rhs = 0
    for a, wa in enumerate(weights):
        if not wa:
            continue
        for b in eng.inside_base(eng.bases[a]):
            if weights[b]:
                x = wa * weights[b] * slab_overlap(runs[a], runs[b])
                rhs += x
                lhs += x if levels[b] == levels[a] else 2 * x
    spec = eng.spec
    exp = 5 * spec.m + eng.scale - 2 * spec.m_w
    return DyadicRational(lhs, exp), DyadicRational(rhs, exp)


def badness_components(
    mi: int,
    K: DyadicInterval,
    cells: Iterable[int],
    rho: ChoiceMap,
) -> tuple[DyadicRational, DyadicRational]:
    """Split of B_R for member mi by in/out choosers over the window K: parts sum to B_R."""
    if not 0 <= mi < len(rho.fam):
        raise ValueError("member index out of range")
    m = rho.fam.spec.m
    if K.level > m:
        raise ValueError(f"window level {K.level} is finer than the grid's rows (m = {m})")
    eng = BadnessEngine(rho.fam)
    w = eng.weights(nu_all(rho, cells))
    rows = K.columns(m)  # K's grid points over 2^m
    inside = eng.fits(*window_triple(rows.start, rows.stop, 1 << m))
    b_in, b_out = (eng.badness_of(mi, (w * keep).tolist()) for keep in (inside, ~inside))
    return DyadicRational(b_in, eng.exp), DyadicRational(b_out, eng.exp)


def _cover_rows(eng: BadnessEngine, weights: list[int]) -> dict[int, tuple[int, int, list[int]]]:
    """Per member with choosers: its pi_2 ends and its weight times the slab
    mass below each of the 2^m + 1 grid points (over 2^S)."""
    u = eng.scale - eng.spec.m  # grid point p sits at p << u
    grid = range((1 << eng.spec.m) + 1)
    ends = eng.ends.tolist()  # the scan compares Python ints
    rows = {}
    for qi, w in enumerate(weights):
        if w:
            _, start, step, cols, height = eng.runs[qi]  # a *args call costs ~20% here
            rows[qi] = (*ends[qi], [w * slab_cover(start, step, cols, height, p << u) for p in grid])
    return rows


def _select_bad_windows(
    eng: BadnessEngine,
    I: DyadicInterval,
    covers: dict[int, tuple[int, int, list[int]]],
    lam0: DyadicRational,
) -> tuple[DyadicInterval, ...]:
    """The bad-window scan over one base I, in scaled integers.

    Every vertical window at level <= m, its triple and the triple of that
    run over the 2^m + 1 grid points p (p / 2^m).  covers holds, for each
    member with choosers, its pi_2 ends and its weight times the slab mass
    below every grid point (slab_cover, at the common scale 2^S), so the
    mass in [a, b) is cover[b] - cover[a]; a shrinking step builds it once
    and the scan reads the rows of the members under I.  The out-mass of a
    window is the total mass minus that of the members whose pi_2 fits the
    triple, and only members no taller than the triple can fit.
    """
    spec = eng.spec
    m = spec.m
    n = 1 << m
    rows = [covers[qi] for qi in eng.inside_base((I.level, I.index)) if qi in covers]
    if not rows:
        return ()
    u = eng.scale - m  # grid point p sits at p << u
    total = [sum(col) for col in zip(*(cover for _, _, cover in rows))]
    rows.sort(key=lambda r: r[1] - r[0])
    heights = [hi - lo for lo, hi, _ in rows]
    # b_out = (mass / 2^(3m + S - m_w)) / (2^-I.level * (b - a) / 2^m) >= lam0
    lhs_shift = I.level + lam0.exp
    rhs_shift = u + 3 * m - spec.m_w

    def out_reaches(a: int, b: int, ta: int, tb: int) -> bool:
        """B_out over [a, b) reaches lam0, [ta, tb) its triple."""
        ta, tb = ta << u, tb << u
        mass = total[b] - total[a]
        for lo, hi, cover in rows[: bisect_right(heights, tb - ta)]:
            if ta <= lo and hi <= tb:
                mass -= cover[b] - cover[a]
        return mass << lhs_shift >= (lam0.num * (b - a)) << rhs_shift

    out = []
    for level in range(m + 1):
        span = n >> level
        for index in range(1 << level):
            a, b = index * span, (index + 1) * span
            ta, tb = window_triple(a, b, n)
            if out_reaches(a, b, ta, tb) and not out_reaches(ta, tb, *window_triple(ta, tb, n)):
                out.append(DyadicInterval(level, index))
    return tuple(out)


@dataclass(frozen=True)
class DichotomyRecord:
    member: int
    badness: str
    inside_shrunk: bool
    badness_after: str


@dataclass(frozen=True, eq=False)
class ShrinkDiagnostics:
    windows: tuple[tuple[DyadicInterval, tuple[DyadicInterval, ...]], ...]
    halved: bool
    dichotomy_failures: tuple[DichotomyRecord, ...]
    badness: tuple[int, ...]  # B_R over 2^exp against the step's input; empty without the audit


def shrink_once(
    cells: Iterable[int],
    rho: ChoiceMap,
    lam0,
    audit: bool = True,
) -> tuple[np.ndarray, ShrinkDiagnostics]:
    """One shrinking step: E' is the union of I x 3K over the bad windows.

    The diagnostics carry the dichotomy audit: every member must satisfy
    B_R <= 20*lam0, or be contained in E' with B_R <= 20*lam0 + B_R^{E'}.
    Audit failures are reported as records, never silently dropped.
    """
    lam0 = _coerce_lambda(lam0)
    eng = BadnessEngine(rho.fam)
    spec = eng.spec
    m = spec.m
    cells = _cell_set(cell_array(spec, cells))
    weights = eng.weights(nu_all(rho, cells)).tolist()
    covers = _cover_rows(eng, weights)

    windows = []
    grid = np.zeros((spec.n, spec.n), dtype=bool)  # grid[c, r] is cell (c << m) + r
    for level in range(spec.m_w + 1):
        for index in range(1 << level):
            I = DyadicInterval(level, index)
            cal = _select_bad_windows(eng, I, covers, lam0)
            if not cal:
                continue
            windows.append((I, cal))
            cols = I.columns(m)
            for K in cal:  # 3K clipped to [0, 1], in rows, as _select_bad_windows reads it
                rows = K.columns(m)
                ta, tb = window_triple(rows.start, rows.stop, spec.n)
                grid[cols.start : cols.stop, ta:tb] = True
    in_shrunk = grid.ravel()
    shrunk = _cell_set(np.flatnonzero(in_shrunk))

    halved = 2 * len(shrunk) <= len(cells)
    failures: list[DichotomyRecord] = []
    bs: tuple[int, ...] = ()
    if audit:
        # B_R > 20 lam0 is b / 2^exp > cap / 2^(exp + lam0.exp)
        cap = (UNIVERSAL_BADNESS_FACTOR * lam0.num) << eng.exp
        weights_after = eng.weights(nu_all(rho, shrunk)).tolist()
        bs = tuple(eng.badness_of(mi, weights) for mi in range(len(rho.fam)))
        for mi, b in enumerate(bs):
            if b << lam0.exp <= cap:
                continue
            inside = bool(in_shrunk[eng.touched_cells(mi)].all())
            b_after = eng.badness_of(mi, weights_after)
            if inside and (b - b_after) << lam0.exp <= cap:
                continue
            shown, shown_after = (DyadicRational(x, eng.exp).render() for x in (b, b_after))
            failures.append(DichotomyRecord(mi, shown, inside, shown_after))
    return shrunk, ShrinkDiagnostics(tuple(windows), halved, tuple(failures), bs)


@dataclass(frozen=True)
class BandRow:
    k: int
    members: tuple[int, ...]
    union_measure: DyadicRational
    reference: DyadicRational  # 2^-k |E|
    contained: bool


@dataclass(frozen=True, eq=False)
class ShrinkTrace:
    steps: tuple[np.ndarray, ...]  # E_0, E_1, ...
    measures: tuple[DyadicRational, ...]
    diagnostics: tuple[ShrinkDiagnostics, ...]
    bands: tuple[BandRow, ...]
    truncated: bool

    def to_csv(self) -> str:
        lines = ["step,measure"]
        for i, mval in enumerate(self.measures):
            lines.append(f"{i},{mval.render()}")
        return "\n".join(lines) + "\n"


class ShrinkHalvingError(RuntimeError):
    def __init__(self, trace: ShrinkTrace):
        super().__init__("shrinking step failed to halve the set")
        self.trace = trace


def shrink_iterate(cells: Iterable[int], rho: ChoiceMap, lam0) -> ShrinkTrace:
    """Iterated shrinking with the badness-band decay report.

    Bands S_{Ck} = {R : B_R^{E_0} >= C*k} with C = 20*lam0 must satisfy the
    containment chain R in S_{Ck} => R inside E_{k-1} (k >= 2), and each step
    must at least halve; a halving failure raises with the trace attached.
    B_R^{E_0} is the first step's audit table.
    """
    lam0 = _coerce_lambda(lam0)
    spec = rho.fam.spec
    area_exp = 2 * spec.m
    steps = [_cell_set(cell_array(spec, cells))]
    diags: list[ShrinkDiagnostics] = []
    truncated = False
    while len(steps[-1]):
        if len(steps) > MAX_SHRINK_STEPS:
            truncated = True
            break
        nxt, diag = shrink_once(steps[-1], rho, lam0)
        diags.append(diag)
        steps.append(nxt)
        if not diag.halved:
            measures = tuple(DyadicRational(len(s), area_exp) for s in steps)
            raise ShrinkHalvingError(
                ShrinkTrace(tuple(steps), measures, tuple(diags), (), False)
            )

    eng = BadnessEngine(rho.fam)
    cap = (UNIVERSAL_BADNESS_FACTOR * lam0.num) << eng.exp  # 20 lam0 over 2^(exp + lam0.exp)
    b0 = diags[0].badness if diags else ()  # no step, no bands: E_0 is empty
    bands: list[BandRow] = []
    k = 1
    while True:
        members = tuple(mi for mi, b in enumerate(b0) if b << lam0.exp >= cap * k)
        if not members:
            break
        contained = True
        if k >= 2:
            in_target = np.zeros(spec.n_cells, dtype=bool)  # E_{k-1}, empty past the trace
            if k - 1 < len(steps):
                in_target[steps[k - 1]] = True
            contained = all(in_target[eng.touched_cells(mi)].all() for mi in members)
        union = DyadicRational(slab_union(eng.runs[mi] for mi in members), eng.scale + spec.m)
        reference = DyadicRational(len(steps[0]), area_exp + k)
        bands.append(BandRow(k, members, union, reference, contained))
        k += 1
    measures = tuple(DyadicRational(len(s), area_exp) for s in steps)
    return ShrinkTrace(tuple(steps), measures, tuple(diags), tuple(bands), truncated)
