"""The maximal operator over a family, its linearization, adjoint, and norms.

M averages a nonnegative grid function over every family member containing a
point and takes the supremum.  On a finite family the supremum is attained,
so the linearization rho picks the argmax member per cell (canonical-order
tie-break) and the linear operator T averages over rho(x).

One painter pass gives both: members paint their center-row cells in rising
(average, -index) order, so each cell keeps the largest average and, among
equal averages, the lowest index.  The painted values are Mf and the painted
indices are rho, so Mf is exactly T_rho f at its own linearization, at the
same scale; the T*T ascent feeds Mf to T* with no second averaging pass.

T* is computed against the exact staircase geometry: the indicator of a
member enters as its per-cell coverage fractions, which is precisely what
makes <Tf, g> = <f, T*g> an exact identity on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dyadic import DyadicRational
from .family import RectangleFamily
from .geometry import GridSpec
from .grids import GridFunction, RationalGrid, integrate_scaled


@dataclass(frozen=True)
class ChoiceMap:
    """Per-cell argmax member index; -1 exactly on the exceptional set X."""

    fam: RectangleFamily
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.fam.spec.n_cells:
            raise ValueError("choice map entry count mismatch")

    @property
    def spec(self) -> GridSpec:
        return self.fam.spec

    def covered_cells(self) -> list[int]:
        return [i for i, e in enumerate(self.entries) if e >= 0]

    def exceptional_cells(self) -> list[int]:
        return [i for i, e in enumerate(self.entries) if e < 0]

    def check(self) -> None:
        """Validate cell-center containment and that -1 marks exactly X."""
        members = self.fam.members
        covered = [False] * self.spec.n_cells
        for r in members:
            for idx in r.cell_indices():
                covered[idx] = True
        for idx, e in enumerate(self.entries):
            if e >= 0:
                if not (0 <= e < len(members)):
                    raise ValueError("corrupt choice map")
                c, row = self.spec.cell_coords(idx)
                if not members[e].contains_cell(c, row):
                    raise ValueError("choice map entry outside its rectangle")
            elif covered[idx]:
                raise ValueError("uncovered mark on a covered cell")


def _scaled_averages(fam: RectangleFamily, f: GridFunction) -> tuple[list[int], int]:
    """Per-member averages over a common power-of-two scale."""
    spec = fam.spec
    top = 2 * spec.m + 2 + f.scale
    vals = []
    for r in fam.members:
        num, exp = integrate_scaled(r, f)
        # average = num / 2^(exp - level - m_w); bring to the common scale
        e = exp - r.base.level - spec.m_w
        vals.append(num << (top - e))
    return vals, top


def _require_nonneg(f: GridFunction) -> None:
    if any(n < 0 for n in f.nums):
        raise ValueError("operator input must be nonnegative")


def _paint(f: GridFunction, fam: RectangleFamily) -> tuple[list[int], list[int], int]:
    """(Mf numerators, argmax member per cell, scale); 0 and -1 on X.

    Members paint their center-row cells in rising (average, -index) order,
    so the last writer of a cell is the canonical argmax.
    """
    spec = fam.spec
    if spec != f.spec:
        raise ValueError("incompatible grids")
    avgs, scale = _scaled_averages(fam, f)
    members = fam.members
    m = spec.m
    cnt = 1 << (m - spec.m_w)
    best = [0] * spec.n_cells
    idxs = [-1] * spec.n_cells
    # a stable sort over falling indices puts the lowest index last among ties
    for mi in sorted(range(len(members) - 1, -1, -1), key=avgs.__getitem__):
        r = members[mi]
        fill_avg, fill_idx = [avgs[mi]] * cnt, [mi] * cnt
        sh = r.y_scale - m
        half = (1 << (sh - 1)) - 1  # row r0 is the first whose center is >= lo
        start = r.col_lo << m
        for lo in r.slab_lows():
            a = start + ((lo + half) >> sh)
            best[a : a + cnt] = fill_avg
            idxs[a : a + cnt] = fill_idx
            start += 1 << m
    return best, idxs, scale


def maximal_apply(f: GridFunction, fam: RectangleFamily) -> GridFunction:
    """Mf: per cell, the largest member average among members containing it."""
    best, _, scale = _paint(f, fam)
    return GridFunction(fam.spec, scale, best)


def linearize(f: GridFunction, fam: RectangleFamily) -> ChoiceMap:
    """Argmax member per covered cell; ties broken by canonical member order."""
    _, idxs, _ = _paint(f, fam)
    return ChoiceMap(fam, tuple(idxs))


def _check_entries(rho: ChoiceMap) -> None:
    if max(rho.entries) >= len(rho.fam.members):
        raise ValueError("corrupt choice map")


def apply_T(rho: ChoiceMap, f: GridFunction) -> GridFunction:
    """T_rho f: the average of f over the chosen rectangle, 0 on X."""
    fam = rho.fam
    spec = fam.spec
    if spec != f.spec:
        raise ValueError("incompatible grids")
    _check_entries(rho)
    avgs, scale = _scaled_averages(fam, f)
    out = [avgs[e] if e >= 0 else 0 for e in rho.entries]
    return GridFunction(spec, scale, out)


def apply_T_adjoint(rho: ChoiceMap, g: GridFunction) -> GridFunction:
    """T* g = sum over members of (mass of g on the choosers) * 1_R / |R|.

    1_R enters with exact per-cell coverage fractions of the staircase, so
    adjointness against apply_T holds exactly.
    """
    fam = rho.fam
    spec = fam.spec
    if spec != g.spec:
        raise ValueError("incompatible grids")
    _check_entries(rho)
    mass = [0] * len(fam.members)  # scaled by 2^(g.scale + 2m)
    for e, n in zip(rho.entries, g.nums):
        if e >= 0:
            mass[e] += n
    m = spec.m
    out = [0] * spec.n_cells
    for r, w in zip(fam.members, mass):
        if not w:
            continue
        # per cell: mass * overlap(slab, cell)/cell / |R|, as in integrate_scaled
        coef = w << (2 * (spec.m_w - r.k))
        sh = r.y_scale - m
        mask = (1 << sh) - 1
        height = 1 << (r.y_scale - spec.m_w)
        full = coef << sh
        base = r.col_lo << m
        for lo in r.slab_lows():
            hi = lo + height
            a = base + (lo >> sh)
            b = base + ((hi - 1) >> sh) + 1
            out[a:b] = [x + full for x in out[a:b]]
            out[a] -= coef * (lo & mask)
            out[b - 1] -= coef * (-hi & mask)
            base += 1 << m
    return GridFunction(spec, g.scale + 2 * m + 2, out)


def nu(rho: ChoiceMap, cells, member) -> DyadicRational:
    """nu_R^F: measure of the F-cells whose choice is the given member.

    The member may be given as its index or as the parallelogram itself.
    """
    if not isinstance(member, int):
        member = rho.fam.members.index(member)
    entries = rho.entries
    count = sum(1 for idx in cells if entries[idx] == member)
    return DyadicRational(count, 2 * rho.spec.m)


def nu_all(rho: ChoiceMap, cells) -> list[int]:
    """Chooser cell counts for every member (scaled nu: count per member)."""
    counts = [0] * len(rho.fam.members)
    entries = rho.entries
    for idx in cells:
        e = entries[idx]
        if e >= 0:
            counts[e] += 1
    return counts


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _max_slope_to_hull(hull, x: int, y: int, hull_on_left: bool) -> tuple[int, int]:
    """Steepest chord between fixed point (x, y) and a convex chain.

    `hull` lists prefix-sum points sorted by x; the chord slope is computed
    left-to-right so the returned (num, den) has den > 0.  Slope along the
    chain is unimodal, so a binary search on consecutive comparisons finds
    the peak; comparisons are exact integer cross-multiplications.
    """

    def slope(i: int) -> tuple[int, int]:
        ax, ay = hull[i]
        if hull_on_left:
            return y - ay, x - ax
        return ay - y, ax - x

    lo, hi = 0, len(hull) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        n1, d1 = slope(mid)
        n2, d2 = slope(mid + 1)
        if n1 * d2 >= n2 * d1:
            hi = mid
        else:
            lo = mid + 1
    n1, d1 = slope(lo)
    if hi != lo:
        n2, d2 = slope(hi)
        if n2 * d1 > n1 * d2:
            return n2, d2
    return n1, d1


def _column_vertical_max(pref: list[int], n: int) -> list[Fraction]:
    """Per cell, the max average of the column over segments containing it.

    best(r) maximizes (P[r1]-P[r0])/(r1-r0) over r0 <= r < r1: the steepest
    chord of the prefix-sum graph crossing position r.  Divide and conquer
    on the cell range: chords inside a half recurse; crossing chords query
    the static hull of the far side once per endpoint, with a running max.
    """
    best = [(pref[r + 1] - pref[r], 1) for r in range(n)]  # single cells

    def better(cur, cand):
        return cand if cand[0] * cur[1] > cur[0] * cand[1] else cur

    def solve(lo: int, hi: int) -> None:
        if hi - lo <= 1:
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        solve(mid, hi)
        # crossing chords: r0 in [lo, mid-1], r1 in [mid+1, hi]
        left = [(i, pref[i]) for i in range(lo, mid)]
        lower = []
        for p in left:
            while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
                lower.pop()
            lower.append(p)
        run = None
        for r in range(hi - 1, mid - 1, -1):  # cells right of the split
            cand = _max_slope_to_hull(lower, r + 1, pref[r + 1], True)
            run = cand if run is None else better(run, cand)
            best[r] = better(best[r], run)
        right = [(i, pref[i]) for i in range(mid + 1, hi + 1)]
        upper = []
        for p in right:
            while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) >= 0:
                upper.pop()
            upper.append(p)
        run = None
        for r in range(lo, mid):  # cells left of the split
            cand = _max_slope_to_hull(upper, r, pref[r], False)
            run = cand if run is None else better(run, cand)
            best[r] = better(best[r], run)

    solve(0, n)
    return [Fraction(a, b) for a, b in best]


def m2_vertical(g: GridFunction) -> RationalGrid:
    """Hardy-Littlewood maximal function along vertical cell-aligned segments.

    Exact: per cell, the best average of g over the column segments through
    it.  Averages over odd segment lengths are not dyadic, hence the
    Fraction-valued grid.
    """
    _require_nonneg(g)
    spec = g.spec
    m = spec.m
    n = spec.n
    nums = g.nums
    out: list[Fraction] = [Fraction(0)] * spec.n_cells
    sc = 1 << g.scale
    for c in range(n):
        base = c << m
        pref = [0] * (n + 1)
        for r in range(n):
            pref[r + 1] = pref[r] + nums[base + r]
        col = _column_vertical_max(pref, n)
        for r in range(n):
            out[base + r] = col[r] / sc
    return RationalGrid(spec, out)


# -- norm estimation ----------------------------------------------------------


@dataclass(frozen=True)
class NormReport:
    """Rayleigh-ratio lower estimates for ||M|| on L2 (heuristic ascent)."""

    family_size: int
    rows: tuple[tuple[int, int, float], ...]  # (seed_id, iteration, ratio)
    best_ratio: float

    def to_text(self) -> str:
        lines = [
            f"family_size {self.family_size}",
            f"best_ratio {self.best_ratio:.12g}",
            f"rows {len(self.rows)}",
        ]
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["seed_id,iteration,ratio"]
        for sid, it, ratio in self.rows:
            lines.append(f"{sid},{it},{ratio:.12g}")
        return "\n".join(lines) + "\n"


def rayleigh_ratio(f: GridFunction, fam: RectangleFamily) -> float:
    """||Mf||_2 / ||f||_2 from exact squared norms."""
    if f.is_zero():
        raise ValueError("degenerate seed")
    return _ratio(maximal_apply(f, fam), f)


def _ratio(mf: GridFunction, f: GridFunction) -> float:
    return math.sqrt(float(mf.l2_sq().as_fraction() / f.l2_sq().as_fraction()))


_MAX_ASCENT_SCALE = 96


def estimate_norm(
    fam: RectangleFamily, seeds: list[GridFunction], ascent_iters: int
) -> NormReport:
    """Lower estimates of ||M||_2->2: seed ratios plus T*T ascent refreshes.

    The ascent relinearizes at the current iterate and follows f <- T* T f;
    all reported ratios are genuine Rayleigh quotients, so the best ratio is
    a certified lower estimate, never an upper bound.  One painter pass per
    iterate gives both Mf and rho, and Mf is T_rho f at that rho.
    """
    spec = fam.spec
    rows = []
    best = 0.0
    for sid, seed in enumerate(seeds):
        if seed.spec != spec:
            raise ValueError("incompatible grids")
        if seed.is_zero():
            raise ValueError("degenerate seed")
        f = seed
        # each grid is dropped once used: memory, not time, bounds m here
        for it in range(ascent_iters + 1):
            painted, idxs, scale = _paint(f, fam)
            mf = GridFunction(spec, scale, painted)
            del painted
            ratio = _ratio(mf, f)
            rows.append((sid, it, ratio))
            if ratio > best:
                best = ratio
            if it == ascent_iters:
                break
            rho = ChoiceMap(fam, tuple(idxs))
            del f, idxs
            nxt = apply_T_adjoint(rho, mf)
            del rho, mf
            if nxt.is_zero():
                break
            if nxt.scale > _MAX_ASCENT_SCALE:
                nxt = nxt.rescaled(_MAX_ASCENT_SCALE)
                if nxt.is_zero():
                    break
            f = nxt.reduced()
            del nxt
    return NormReport(len(fam.members), tuple(rows), best)
