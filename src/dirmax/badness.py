"""Badness of rectangles, vertical-window splits, and the shrinking iteration.

The badness of R against a chooser set E is the R-average of T* applied to
the indicator of the E-points whose chosen rectangle projects inside
pi_1(R).  All quadratic pairings here use true staircase intersections, so
identities like the in/out split and the single-rectangle reformulation are
exact dyadic equalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .dyadic import DyadicRational
from .family import RectangleFamily, is_good_collection
from .geometry import DyadicInterval, Parallelogram, Window, overlap_measure, union_measure
from .grids import GridFunction
from .maximal import ChoiceMap, apply_T_adjoint, estimate_norm, maximal_apply

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
    """Shared geometry caches for badness scans over one linearization."""

    def __init__(self, rho: ChoiceMap):
        self.rho = rho
        self.fam = rho.fam
        self.spec = rho.fam.spec
        members = self.fam.members
        self.pi2: list[Window] = [r.pi2() for r in members]
        self._inter: dict[tuple[int, int], DyadicRational] = {}
        self._by_base: dict[DyadicInterval, list[int]] = {}
        for mi, r in enumerate(members):
            self._by_base.setdefault(r.base, []).append(mi)

    # -- chooser counts ----------------------------------------------------

    def nu_counts(self, cells: Iterable[int]) -> list[int]:
        counts = [0] * len(self.fam.members)
        entries = self.rho.entries
        for idx in cells:
            e = entries[idx]
            if e >= 0:
                counts[e] += 1
        return counts

    def inside_base(self, I: DyadicInterval) -> list[int]:
        """Member indices whose horizontal projection sits inside I."""
        out = []
        for base, idxs in self._by_base.items():
            if I.contains(base):
                out.extend(idxs)
        out.sort()
        return out

    # -- exact pairings -----------------------------------------------------

    def inter(self, a: int, b: int) -> DyadicRational:
        key = (a, b) if a <= b else (b, a)
        val = self._inter.get(key)
        if val is None:
            val = overlap_measure(self.fam.members[key[0]], self.fam.members[key[1]])
            self._inter[key] = val
        return val

    def badness_of(
        self, mi: int, counts: Sequence[int], member_filter: Callable[[int], bool] | None = None
    ) -> DyadicRational:
        """B_R: (1/|R|) integral over R of T*(1 restricted to pi_1(R)-choosers)."""
        R = self.fam.members[mi]
        area = self.spec.cell_area
        total = DyadicRational(0)
        for qi in self.inside_base(R.base):
            cnt = counts[qi]
            if cnt == 0 or (member_filter is not None and not member_filter(qi)):
                continue
            Q = self.fam.members[qi]
            ov = self.inter(mi, qi)
            if ov.num:
                # nu_Q / |Q| * |R cap Q|
                total = total + DyadicRational(cnt, 0) * area * ov / Q.measure
        return total / R.measure

    def box_mass(
        self,
        counts: Sequence[int],
        members: Sequence[int],
        I: DyadicInterval,
        W: Window,
        keep: Callable[[int], bool],
    ) -> DyadicRational:
        """Integral over I x W of T* of the indicator of the kept choosers."""
        spec = self.spec
        total_num = 0
        total_exp = 0
        for qi in members:
            cnt = counts[qi]
            if cnt == 0 or not keep(qi):
                continue
            Q = self.fam.members[qi]
            s = Q.y_scale
            wlo = W.lo.num << (s - W.lo.exp)
            whi = W.hi.num << (s - W.hi.exp)
            acc = 0
            for c in range(Q.col_lo, Q.col_hi):
                lo, hi = Q.slab_scaled(c)
                seg = min(hi, whi) - max(lo, wlo)
                if seg > 0:
                    acc += seg
            if acc:
                # cnt/4^m / |Q| * acc/2^s * cell width
                e = 2 * spec.m + s + spec.m - Q.base.level - spec.m_w
                if total_num == 0:
                    total_num, total_exp = cnt * acc, e
                else:
                    t = max(total_exp, e)
                    total_num = (total_num << (t - total_exp)) + (
                        (cnt * acc) << (t - e)
                    )
                    total_exp = t
        return DyadicRational(total_num, total_exp)


def restricted_choosers(
    cells: Iterable[int], rho: ChoiceMap, I: DyadicInterval
) -> frozenset[int]:
    """E_I: the cells of E whose chosen rectangle projects inside I."""
    fam = rho.fam
    keep = set()
    inside = [I.contains(r.base) for r in fam.members]
    for idx in cells:
        e = rho.entries[idx]
        if e >= 0 and inside[e]:
            keep.add(idx)
    return frozenset(keep)


def badness(R: Parallelogram, cells: Iterable[int], rho: ChoiceMap) -> DyadicRational:
    """Badness of R against the chooser set: exact weighted intersection count."""
    fam = rho.fam
    try:
        mi = fam.members.index(R)
    except ValueError:
        raise ValueError("rectangle is not a family member") from None
    eng = BadnessEngine(rho)
    return eng.badness_of(mi, eng.nu_counts(cells))


def badness_table(cells: Iterable[int], rho: ChoiceMap) -> "BadnessTable":
    """nu and badness for every member against one chooser set."""
    eng = BadnessEngine(rho)
    counts = eng.nu_counts(cells)
    area = eng.spec.cell_area
    nus = tuple(DyadicRational(c, 0) * area for c in counts)
    bs = tuple(eng.badness_of(mi, counts) for mi in range(len(rho.fam.members)))
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
    """Exact (integral of (T* 1_E)^2, sum of nu_R * B_R); lhs <= 2*rhs always."""
    eng = BadnessEngine(rho)
    counts = eng.nu_counts(cells)
    fam = rho.fam
    area = eng.spec.cell_area
    active = [i for i, c in enumerate(counts) if c]
    lhs = DyadicRational(0)
    for a in active:
        Ra = fam.members[a]
        ca = DyadicRational(counts[a], 0) * area / Ra.measure
        for b in active:
            Rb = fam.members[b]
            if not (Ra.base.contains(Rb.base) or Rb.base.contains(Ra.base)):
                continue
            ov = eng.inter(a, b)
            if ov.num:
                cb = DyadicRational(counts[b], 0) * area / Rb.measure
                lhs = lhs + ca * cb * ov
    rhs = DyadicRational(0)
    for a in active:
        nu_a = DyadicRational(counts[a], 0) * area
        rhs = rhs + nu_a * eng.badness_of(a, counts)
    return lhs, rhs


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
    return _in_out_split(eng, I, K, eng.nu_counts(cells))


def _window_of(K: DyadicInterval | Window) -> Window:
    return K.window() if isinstance(K, DyadicInterval) else K


def _in_out_split(
    eng: BadnessEngine,
    I: DyadicInterval,
    K: DyadicInterval | Window,
    counts: Sequence[int],
) -> tuple[Fraction, Fraction]:
    W = _window_of(K)
    TW = W.triple()
    members = eng.inside_base(I)
    inside = [TW.contains_window(eng.pi2[qi]) for qi in range(len(eng.fam.members))]
    mass_in = eng.box_mass(counts, members, I, W, lambda qi: inside[qi])
    mass_out = eng.box_mass(counts, members, I, W, lambda qi: not inside[qi])
    denom = I.length.as_fraction() * W.length.as_fraction()
    if not denom:
        return Fraction(0), Fraction(0)
    return mass_in.as_fraction() / denom, mass_out.as_fraction() / denom


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
    counts = eng.nu_counts(cells)
    TW = _window_of(K).triple()
    b_in = eng.badness_of(mi, counts, lambda qi: TW.contains_window(eng.pi2[qi]))
    b_out = eng.badness_of(mi, counts, lambda qi: not TW.contains_window(eng.pi2[qi]))
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
    counts = eng.nu_counts(cells)
    return _select_bad_windows(eng, I, counts, lam0)


def _select_bad_windows(
    eng: BadnessEngine,
    I: DyadicInterval,
    counts: Sequence[int],
    lam0: DyadicRational,
) -> tuple[DyadicInterval, ...]:
    out = []
    m = eng.spec.m
    members = eng.inside_base(I)
    if not any(counts[qi] for qi in members):
        return ()
    lam0_fr = lam0.as_fraction()
    for level in range(m + 1):
        for index in range(1 << level):
            K = DyadicInterval(level, index)
            _, b_out = _in_out_split(eng, I, K, counts)
            if b_out < lam0_fr:
                continue
            _, b_out3 = _in_out_split(eng, I, K.triple(), counts)
            if b_out3 < lam0_fr:
                out.append(K)
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
        base = c << m
        out.update(range(base + r0, base + r1))
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
    counts = eng.nu_counts(cells)

    windows = []
    shrunk: set[int] = set()
    for level in range(spec.m_w + 1):
        for index in range(1 << level):
            I = DyadicInterval(level, index)
            cal = _select_bad_windows(eng, I, counts, lam0)
            if not cal:
                continue
            windows.append((I, cal))
            c0 = I.index << (m - I.level)
            c1 = (I.index + 1) << (m - I.level)
            for K in cal:
                TW = K.triple()
                r0 = TW.lo.num << (m - TW.lo.exp)
                r1 = TW.hi.num << (m - TW.hi.exp)
                for c in range(c0, c1):
                    base = c << m
                    shrunk.update(range(base + r0, base + r1))
    shrunk_f = frozenset(shrunk)

    halved = 2 * len(shrunk_f) <= len(cells)
    failures: list[DichotomyRecord] = []
    f_cells: frozenset[int] = frozenset()
    if audit:
        g = apply_T_adjoint(rho, GridFunction.indicator(spec, cells))
        mg = maximal_apply(g, rho.fam)
        half_lam = DyadicRational(lam0.num, lam0.exp + 1)
        f_cells = frozenset(
            idx
            for idx, n in enumerate(mg.nums)
            if DyadicRational(n, mg.scale) >= half_lam
        )
        cap = DyadicRational(UNIVERSAL_BADNESS_FACTOR) * lam0
        counts_after = eng.nu_counts(shrunk_f)
        for mi in range(len(rho.fam.members)):
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
    counts0 = eng.nu_counts(steps[0])
    cap = DyadicRational(UNIVERSAL_BADNESS_FACTOR) * lam0
    b0 = [eng.badness_of(mi, counts0) for mi in range(len(rho.fam.members))]
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
            key = tuple(r.sort_key() for r in col.members)
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
