"""Badness of rectangles, vertical-window splits, and the shrinking iteration.

The badness of R against a chooser set E is the R-average of T* applied to
the indicator of the E-points whose chosen rectangle projects inside
pi_1(R).  All quadratic pairings here use true staircase intersections, so
identities like the in/out split and the single-rectangle reformulation are
exact dyadic equalities.

Everything runs in integers over one member table (``BadnessEngine``): each
member's slab progression at the scale 2^S, S = m + m_w + 2, its pi_2 ends
and its base level, so nu_Q / |Q| is counts[Q] << level_Q over a fixed
power of two.  Overlaps are ``geometry.slab_overlap`` of two progressions;
a member's mass below height y, G(y), is ``geometry.slab_cover``, and its
mass in [a, b) is G(b) - G(a).  B_R, the reformulation sums and box masses
build one DyadicRational at return.  The bad-window scan of a shrinking
step tabulates G once per base I and compares B_out with lambda0 by
cross-multiplying integers, so it builds no DyadicRational or Fraction per
window.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .dyadic import DyadicRational
from .family import RectangleFamily, is_good_collection
from .geometry import DyadicInterval, Parallelogram, Window, slab_cover, slab_overlap, union_measure
from .grids import GridFunction
from .maximal import ChoiceMap, apply_T_adjoint, estimate_norm, maximal_apply, nu_all

UNIVERSAL_BADNESS_FACTOR = 20  # dichotomy constant: C_key = 20 * lambda0


def _coerce_lambda(lam0) -> DyadicRational:
    if isinstance(lam0, int):
        lam0 = DyadicRational(lam0)
    if not isinstance(lam0, DyadicRational):
        raise TypeError("lambda0 must be dyadic")
    if lam0 < 1:
        raise ValueError("lambda0 must be at least 1")
    return lam0


class BadnessEngine:
    """One integer table over a linearization's members for every badness scan.

    Each member is tabulated once at the scale 2^S, S = m + m_w + 2 (the
    grid's largest y_scale): its slab run (first column, first slab bottom,
    step, columns, slab height), its pi_2 ends and its base level.  A member
    weighs (nu_Q / |Q|) = counts[Q] << level_Q over 4^m / 2^m_w.
    """

    def __init__(self, rho: ChoiceMap):
        self.fam = rho.fam
        self.spec = spec = rho.fam.spec
        self.scale = S = spec.m + spec.m_w + 2
        self.runs: list[tuple[int, int, int, int, int]] = []
        self.ends: list[tuple[int, int]] = []  # pi_2 = [lo, hi) over 2^S
        self.levels: list[int] = []
        self._inside: dict[tuple[int, int], list[int]] = {}
        for mi, R in enumerate(self.fam.members):
            start, step, cols, height = R.slabs(S)
            self.runs.append((R.col_lo, start, step, cols, height))
            self.ends.append((start, start + (cols - 1) * step + height))
            level, index = R.base.level, R.base.index
            self.levels.append(level)
            for up in range(level + 1):
                self._inside.setdefault((up, index >> (level - up)), []).append(mi)

    def inside_base(self, I: DyadicInterval) -> list[int]:
        """Member indices whose horizontal projection sits inside I, ascending."""
        return self._inside.get((I.level, I.index), [])

    def fits(self, W: Window) -> list[bool]:
        """Per member: pi_2 lies inside W."""
        lo, hi = W.lo.num << self.scale, W.hi.num << self.scale
        return [lo <= a << W.lo.exp and b << W.hi.exp <= hi for a, b in self.ends]

    def badness_of(
        self, mi: int, counts: Sequence[int], member_filter: Callable[[int], bool] | None = None
    ) -> DyadicRational:
        """B_R: (1/|R|) integral over R of T*(1 restricted to pi_1(R)-choosers)."""
        run, runs, levels = self.runs[mi], self.runs, self.levels
        total = 0
        for qi in self.inside_base(self.fam.members[mi].base):
            cnt = counts[qi]
            if cnt and (member_filter is None or member_filter(qi)):
                total += (cnt << levels[qi]) * slab_overlap(run, runs[qi])
        # |R cap Q| is slab_overlap over 2^(S + m), and 1/|R| = 2^(level_R + m_w)
        spec = self.spec
        return DyadicRational(total << levels[mi], 3 * spec.m + self.scale - 2 * spec.m_w)

    def box_mass(
        self,
        counts: Sequence[int],
        members: Sequence[int],
        I: DyadicInterval,
        W: Window,
        keep: Callable[[int], bool],
    ) -> DyadicRational:
        """Integral over I x W of T* of the indicator of the kept choosers."""
        t = max(self.scale, W.lo.exp, W.hi.exp)
        d = t - self.scale
        a = W.lo.num << (t - W.lo.exp)
        b = W.hi.num << (t - W.hi.exp)
        total = 0
        for qi in members:
            if counts[qi] and keep(qi):
                _, start, step, cols, height = self.runs[qi]
                slabs = start << d, step << d, cols, height << d
                total += (counts[qi] << self.levels[qi]) * (
                    slab_cover(*slabs, b) - slab_cover(*slabs, a)
                )
        # slab mass over 2^t, times the cell width 2^-m
        return DyadicRational(total, 3 * self.spec.m + t - self.spec.m_w)


def badness(R: Parallelogram, cells: Iterable[int], rho: ChoiceMap) -> DyadicRational:
    """Badness of R against the chooser set: exact weighted intersection count."""
    fam = rho.fam
    try:
        mi = fam.members.index(R)
    except ValueError:
        raise ValueError("rectangle is not a family member") from None
    eng = BadnessEngine(rho)
    return eng.badness_of(mi, nu_all(rho, cells))


def badness_table(cells: Iterable[int], rho: ChoiceMap) -> "BadnessTable":
    """nu and badness for every member against one chooser set."""
    eng = BadnessEngine(rho)
    counts = nu_all(rho, cells)
    area = eng.spec.cell_area
    nus = tuple(DyadicRational(c, 0) * area for c in counts)
    bs = tuple(eng.badness_of(mi, counts) for mi in range(len(rho.fam)))
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
    eng = BadnessEngine(rho)
    counts = nu_all(rho, cells)
    runs, levels = eng.runs, eng.levels
    lhs = rhs = 0
    for a, ca in enumerate(counts):
        if not ca:
            continue
        wa = ca << levels[a]
        for b in eng.inside_base(rho.fam.members[a].base):
            if counts[b]:
                x = wa * (counts[b] << levels[b]) * slab_overlap(runs[a], runs[b])
                rhs += x
                lhs += x if levels[b] == levels[a] else 2 * x
    spec = eng.spec
    exp = 5 * spec.m + eng.scale - 2 * spec.m_w
    return DyadicRational(lhs, exp), DyadicRational(rhs, exp)


def in_out_split(
    I: DyadicInterval,
    K: DyadicInterval | Window,
    cells: Iterable[int],
    rho: ChoiceMap,
) -> tuple[Fraction, Fraction]:
    """(B_in, B_out): averages over I x K of T* of the split chooser indicators.

    Choosers whose rectangle projects inside I split by whether the vertical
    extent of the chosen rectangle lies inside the tripled window 3K.
    Averages over tripled (length 3/2^l) windows are exact but not dyadic,
    hence the Fraction return.
    """
    eng = BadnessEngine(rho)
    counts = nu_all(rho, cells)
    W = _window_of(K)
    if W.lo == W.hi:
        return Fraction(0), Fraction(0)
    members = eng.inside_base(I)
    inside = eng.fits(W.triple())
    mass_in = eng.box_mass(counts, members, I, W, inside.__getitem__)
    mass_out = eng.box_mass(counts, members, I, W, lambda qi: not inside[qi])
    denom = I.length.as_fraction() * W.length.as_fraction()
    return mass_in.as_fraction() / denom, mass_out.as_fraction() / denom


def _window_of(K: DyadicInterval | Window) -> Window:
    return K.window() if isinstance(K, DyadicInterval) else K


def badness_components(
    R: Parallelogram,
    K: DyadicInterval | Window,
    cells: Iterable[int],
    rho: ChoiceMap,
) -> tuple[DyadicRational, DyadicRational]:
    """Split of B_R by in/out choosers over the window K: parts sum to B_R."""
    fam = rho.fam
    mi = fam.members.index(R)
    eng = BadnessEngine(rho)
    counts = nu_all(rho, cells)
    inside = eng.fits(_window_of(K).triple())
    b_in = eng.badness_of(mi, counts, inside.__getitem__)
    b_out = eng.badness_of(mi, counts, lambda qi: not inside[qi])
    return b_in, b_out


def select_bad_windows(
    I: DyadicInterval,
    cells: Iterable[int],
    rho: ChoiceMap,
    lam0,
) -> tuple[DyadicInterval, ...]:
    """Vertical dyadic K with B_out(I,K) >= lambda0 but B_out(I,3K) < lambda0."""
    lam0 = _coerce_lambda(lam0)
    eng = BadnessEngine(rho)
    counts = nu_all(rho, cells)
    return _select_bad_windows(eng, I, counts, lam0)


def _select_bad_windows(
    eng: BadnessEngine,
    I: DyadicInterval,
    counts: Sequence[int],
    lam0: DyadicRational,
) -> tuple[DyadicInterval, ...]:
    """The bad-window scan over one base I, in scaled integers.

    Every vertical window at level <= m, its triple and the triple of that
    run over the 2^m + 1 grid points p (p / 2^m).  One table per I holds,
    for each member under I with choosers, its weight times the slab mass
    below every grid point (slab_cover, at the common scale 2^S), so the
    mass in [a, b) is cover[b] - cover[a].  The out-mass of a window is
    the total mass minus that of the members whose pi_2 fits the triple,
    and only members no taller than the triple can fit.
    """
    spec = eng.spec
    m = spec.m
    n = 1 << m
    active = [qi for qi in eng.inside_base(I) if counts[qi]]
    if not active:
        return ()
    u = eng.scale - m  # grid point p sits at p << u
    rows = []
    for qi in active:
        _, start, step, cols, height = eng.runs[qi]
        w = counts[qi] << eng.levels[qi]
        cover = [w * slab_cover(start, step, cols, height, p << u) for p in range(n + 1)]
        rows.append((*eng.ends[qi], cover))
    total = [sum(col) for col in zip(*(cover for _, _, cover in rows))]
    rows.sort(key=lambda r: r[1] - r[0])
    heights = [hi - lo for lo, hi, _ in rows]
    # b_out = (mass / 2^(3m + S - m_w)) / (2^-I.level * (b - a) / 2^m) >= lam0
    lhs_shift = I.level + lam0.exp
    rhs_shift = u + 3 * m - spec.m_w

    def out_reaches(a: int, b: int) -> bool:
        ln = b - a
        ta, tb = max(0, a - ln) << u, min(n, b + ln) << u
        mass = total[b] - total[a]
        for lo, hi, cover in rows[: bisect_right(heights, tb - ta)]:
            if ta <= lo and hi <= tb:
                mass -= cover[b] - cover[a]
        return mass << lhs_shift >= (lam0.num * ln) << rhs_shift

    out = []
    for level in range(m + 1):
        span = n >> level
        for index in range(1 << level):
            a = index * span
            if out_reaches(a, a + span) and not out_reaches(
                max(0, a - span), min(n, a + 2 * span)
            ):
                out.append(DyadicInterval(level, index))
    return tuple(out)


@dataclass(frozen=True)
class DichotomyRecord:
    member: int
    badness: str
    inside_shrunk: bool
    badness_after: str


@dataclass(frozen=True)
class ShrinkDiagnostics:
    lam0: DyadicRational
    windows: tuple[tuple[DyadicInterval, tuple[DyadicInterval, ...]], ...]
    f_cells: frozenset[int]
    halved: bool
    dichotomy_failures: tuple[DichotomyRecord, ...]


def _member_inside_cells(R: Parallelogram) -> set[int]:
    """All cells with positive overlap with the staircase."""
    m = R.spec.m
    out = set()
    for c in range(R.col_lo, R.col_hi):
        r0, r1 = R.touched_rows(c)
        out.update(range((c << m) + r0, (c << m) + r1))
    return out


def shrink_once(
    cells: Iterable[int],
    rho: ChoiceMap,
    lam0,
    audit: bool = True,
) -> tuple[frozenset[int], ShrinkDiagnostics]:
    """One shrinking step: E' is the union of I x 3K over the bad windows.

    The diagnostics carry the auxiliary large-maximal set F and the dichotomy
    audit: every member must satisfy B_R <= 20*lam0, or be contained in E'
    with B_R <= 20*lam0 + B_R^{E'}.  Audit failures are reported as records,
    never silently dropped.
    """
    lam0 = _coerce_lambda(lam0)
    eng = BadnessEngine(rho)
    spec = eng.spec
    m = spec.m
    cells = frozenset(cells)
    counts = nu_all(rho, cells)

    windows = []
    shrunk: set[int] = set()
    for level in range(spec.m_w + 1):
        for index in range(1 << level):
            I = DyadicInterval(level, index)
            cal = _select_bad_windows(eng, I, counts, lam0)
            if not cal:
                continue
            windows.append((I, cal))
            for K in cal:
                TW = K.triple()
                r0 = TW.lo.num << (m - TW.lo.exp)
                r1 = TW.hi.num << (m - TW.hi.exp)
                for c in I.columns(m):
                    base = c << m
                    shrunk.update(range(base + r0, base + r1))
    shrunk_f = frozenset(shrunk)

    halved = 2 * len(shrunk_f) <= len(cells)
    failures: list[DichotomyRecord] = []
    f_cells: frozenset[int] = frozenset()
    if audit:
        g = apply_T_adjoint(rho, GridFunction.indicator(spec, cells))
        mg = maximal_apply(g, rho.fam)
        # F = {M g >= lam0/2}: n / 2^scale >= num / 2^(exp + 1), in integers
        half_lam = lam0.num << mg.scale
        f_cells = frozenset(
            idx for idx, n in enumerate(mg.nums) if n << (lam0.exp + 1) >= half_lam
        )
        cap = DyadicRational(UNIVERSAL_BADNESS_FACTOR) * lam0
        counts_after = nu_all(rho, shrunk_f)
        for mi in range(len(rho.fam)):
            b = eng.badness_of(mi, counts)
            if b <= cap:
                continue
            inside = _member_inside_cells(rho.fam.members[mi]) <= shrunk_f
            b_after = eng.badness_of(mi, counts_after)
            if inside and b <= cap + b_after:
                continue
            failures.append(
                DichotomyRecord(mi, b.render(), inside, b_after.render())
            )
    return shrunk_f, ShrinkDiagnostics(
        lam0, tuple(windows), f_cells, halved, tuple(failures)
    )


@dataclass(frozen=True)
class BandRow:
    k: int
    members: tuple[int, ...]
    union_measure: DyadicRational
    reference: DyadicRational  # 2^-k |E|
    contained: bool


@dataclass(frozen=True)
class ShrinkTrace:
    lam0: DyadicRational
    steps: tuple[frozenset[int], ...]  # E_0, E_1, ...
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


def shrink_iterate(
    cells: Iterable[int],
    rho: ChoiceMap,
    lam0,
    max_steps: int = 32,
    audit: bool = True,
) -> ShrinkTrace:
    """Iterated shrinking with the badness-band decay report.

    Bands S_{Ck} = {R : B_R^{E_0} >= C*k} with C = 20*lam0 must satisfy the
    containment chain R in S_{Ck} => R inside E_{k-1} (k >= 2), and each step
    must at least halve; a halving failure raises with the trace attached.
    """
    lam0 = _coerce_lambda(lam0)
    spec = rho.fam.spec
    area_exp = 2 * spec.m
    steps = [frozenset(cells)]
    diags: list[ShrinkDiagnostics] = []
    truncated = False
    while steps[-1]:
        if len(steps) > max_steps:
            truncated = True
            break
        nxt, diag = shrink_once(steps[-1], rho, lam0, audit=audit)
        diags.append(diag)
        steps.append(nxt)
        if not diag.halved:
            measures = tuple(DyadicRational(len(s), area_exp) for s in steps)
            raise ShrinkHalvingError(
                ShrinkTrace(lam0, tuple(steps), measures, tuple(diags), (), False)
            )
        if not nxt:
            break

    eng = BadnessEngine(rho)
    counts0 = nu_all(rho, steps[0])
    cap = DyadicRational(UNIVERSAL_BADNESS_FACTOR) * lam0
    b0 = [eng.badness_of(mi, counts0) for mi in range(len(rho.fam))]
    e0_measure = DyadicRational(len(steps[0]), area_exp)
    bands: list[BandRow] = []
    k = 1
    while True:
        thresh = cap * DyadicRational(k)
        members = tuple(mi for mi, b in enumerate(b0) if b >= thresh)
        if not members:
            break
        contained = True
        if k >= 2:
            target = steps[k - 1] if k - 1 < len(steps) else frozenset()
            contained = all(
                _member_inside_cells(rho.fam.members[mi]) <= target for mi in members
            )
        bands.append(
            BandRow(
                k,
                members,
                union_measure([rho.fam.members[mi] for mi in members]),
                DyadicRational(e0_measure.num, e0_measure.exp + k),
                contained,
            )
        )
        k += 1
    measures = tuple(DyadicRational(len(s), area_exp) for s in steps)
    return ShrinkTrace(
        lam0, tuple(steps), measures, tuple(diags), tuple(bands), truncated
    )


# -- many good collections: the log N growth experiment -----------------------


@dataclass(frozen=True)
class GrowthReport:
    rows: tuple[tuple[int, float, float], ...]  # (N, best_ratio, fit_residual)
    slope: float
    intercept: float

    def to_csv(self) -> str:
        lines = ["n,best_ratio,fit_residual"]
        for n, ratio, resid in self.rows:
            lines.append(f"{n},{ratio:.12g},{resid:.12g}")
        return "\n".join(lines) + "\n"


def multi_collection_experiment(
    n_values,
    builder: Callable[[int], Sequence[RectangleFamily]],
    seeds: Callable[[RectangleFamily], list[GridFunction]],
    ascent_iters: int = 1,
) -> GrowthReport:
    """Best Rayleigh ratio of M over unions of N good collections, N sweeping.

    builder(N) must produce N pairwise-distinct organized good collections;
    anything else is rejected with its witness.  seeds(union) supplies the
    test functions.  The report fits ratio against 1 + log2 N.
    """
    if isinstance(n_values, int):
        vals = []
        n = 2
        while n <= n_values:
            vals.append(n)
            n *= 2
        n_values = vals
    measured = []
    for n in n_values:
        collections = list(builder(n))
        if len(collections) != n:
            raise ValueError(f"builder produced {len(collections)} collections, wanted {n}")
        keys = set()
        union = None
        for col in collections:
            good, witness = is_good_collection(col)
            if not (good and witness.organized):
                raise ValueError(f"builder yielded a non-good collection: {witness}")
            key = col.sort_keys.tobytes()
            if key in keys:
                raise ValueError("builder yielded duplicate collections")
            keys.add(key)
            union = col if union is None else union.union(col)
        report = estimate_norm(union, seeds(union), ascent_iters)
        measured.append((n, report.best_ratio))
    xs = np.array([1.0 + math.log2(n) for n, _ in measured])
    ys = np.array([r for _, r in measured])
    if len(measured) >= 2:
        coef = np.polyfit(xs, ys, 1)
        slope, intercept = float(coef[0]), float(coef[1])
    else:
        slope, intercept = 0.0, float(ys[0]) if len(ys) else 0.0
    rows = tuple(
        (n, ratio, float(ratio - (slope * (1.0 + math.log2(n)) + intercept)))
        for n, ratio in measured
    )
    return GrowthReport(rows, slope, intercept)
