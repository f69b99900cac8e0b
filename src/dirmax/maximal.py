"""The maximal operator over a family, its linearization, adjoint, and norms.

M averages a nonnegative grid function over every family member containing a
point and takes the supremum.  On a finite family the supremum is attained,
so the linearization rho picks the argmax member per cell (canonical-order
tie-break) and the linear operator T averages over rho(x).

Member averages come from one exact int64 numpy kernel over all members at
once wherever a proven bit bound allows it (_int64_exact), and otherwise,
as for the wide T*T ascent iterates, from the Python-int integrate_scaled
member by member.  One rank painter gives Mf and rho: each cell keeps the
member of highest (average, -index) rank, that is the largest average and,
among equal averages, the lowest index.  So Mf is exactly T_rho f at its own
linearization, at the same scale, and the T*T ascent feeds Mf to T* with no
second averaging pass.

T* is computed against the exact staircase geometry: the indicator of a
member enters as its per-cell coverage fractions, which is precisely what
makes <Tf, g> = <f, T*g> an exact identity on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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


# The int64 kernel.  With b the bit length of f's largest numerator, every
# intermediate stays below 2^(b + 2m + 2): a column prefix sum is below
# 2^(b + m); a slab's row sum shifted to y units (sh = k + 2 bits, k <= m - 2)
# below 2^(b + 2m); a member's integral below 2^(b + 2k + 2m + 2 - 2m_w), and
# its average, shifted up by 2(m_w - k) to the common scale, below
# 2^(b + 2m + 2).  Partial sums of nonnegative column integrals stay below
# their total.  So b + 2m + 3 <= 62 keeps every value below 2^61, inside an
# int64 with room to spare.
_INT64_BITS = 62
_BLOCK = 1 << 15  # member-columns per numpy block


def _int64_exact(f: GridFunction) -> bool:
    """True when the int64 kernel provably computes f's averages exactly."""
    return max(f.nums).bit_length() + 2 * f.spec.m + 3 <= _INT64_BITS


def _blocks(fam: RectangleFamily):
    """(member indices, columns, slab bottoms, k) per block of one k level.

    Columns and slab bottoms (scaled by 2^y_scale) are int64 arrays of shape
    (members, columns of a level-k member), about _BLOCK entries per block.
    """
    spec = fam.spec
    m, keys = spec.m, fam.sort_keys
    for k in range(spec.m_w + 1):
        sel = np.flatnonzero(keys[:, 0] == k)
        cols = spec.m - spec.m_w + k  # log2 of the columns per member
        span = np.arange(1 << cols)
        step = max(1, _BLOCK >> cols)
        for a in range(0, len(sel), step):
            part = sel[a : a + step]
            _, base, slope, t = keys[part].T
            c = (base << cols)[:, None] + span
            lift = t << (k + m + 2 - spec.offset_exp)
            yield part, c, (2 * slope + 1)[:, None] * (2 * c + 1) + lift[:, None], k


def _averages_int64(fam: RectangleFamily, f: GridFunction) -> list[int]:
    """integrate_scaled over every member at once, at the common scale.

    Only valid where _int64_exact(f) holds.
    """
    spec = fam.spec
    m, m_w, n = spec.m, spec.m_w, spec.n
    pref = np.zeros((n, n + 1), dtype=np.int64)  # per-column prefix sums
    pref[:, 1:] = np.array(f.nums, dtype=np.int64).reshape(n, n)
    np.cumsum(pref, axis=1, out=pref)
    out = np.empty(len(fam), dtype=np.int64)
    for part, c, lo, k in _blocks(fam):
        # the slab [lo, hi) touches rows a..b, each 2^sh units high: all of
        # them whole, less the part of row a below lo and of row b above hi
        sh = k + 2
        mask = (1 << sh) - 1
        hi = lo + (1 << (k + m + 2 - m_w))
        a, b = lo >> sh, (hi - 1) >> sh
        pa, pb = pref[c, a], pref[c, b + 1]
        cols = ((pb - pa) << sh) - (lo & mask) * (pref[c, a + 1] - pa)
        cols -= (-hi & mask) * (pb - pref[c, b])
        out[part] = cols.sum(axis=1) << (2 * (m_w - k))
    return out.tolist()


def _scaled_averages(fam: RectangleFamily, f: GridFunction) -> tuple[list[int], int]:
    """Per-member averages over the common scale 2^(2m + 2 + f.scale)."""
    spec = fam.spec
    if _int64_exact(f):
        vals = _averages_int64(fam, f)
    else:
        # average = integral / 2^(level + m_w); level = m_w - k
        vals = [integrate_scaled(r, f)[0] << 2 * (spec.m_w - r.k) for r in fam.members]
    return vals, 2 * spec.m + 2 + f.scale


def _require_nonneg(f: GridFunction) -> None:
    if any(n < 0 for n in f.nums):
        raise ValueError("operator input must be nonnegative")


def _rank_grid(fam: RectangleFamily, avgs: list[int]) -> tuple[np.ndarray, list[int]]:
    """Per cell the rank of its argmax member (0 on X), and members by rank.

    Members are ranked 1..N in rising (average, -index) order and each cell
    keeps the highest rank among the members whose center rows hold it, so
    ties go to the lowest index.  A member holds 2^(m - m_w) consecutive rows
    of each of its columns: its rank is marked at the first of them with
    np.maximum.at (every repeated index is applied, unlike a fancy
    assignment), then a running max over each column, doubling its window
    m - m_w times, spreads the mark over the rest.
    """
    spec = fam.spec
    m = spec.m
    order = sorted(range(len(avgs) - 1, -1, -1), key=avgs.__getitem__)
    rank = np.empty(len(avgs), dtype=np.int32)
    rank[order] = np.arange(1, len(avgs) + 1, dtype=np.int32)
    top = np.zeros(spec.n_cells, dtype=np.int32)
    for part, c, lo, k in _blocks(fam):
        sh = k + 2  # rows are 2^sh units high; r0 is the first center >= lo
        r0 = (lo + ((1 << (sh - 1)) - 1)) >> sh
        np.maximum.at(top, ((c << m) + r0).ravel(), np.repeat(rank[part], c.shape[1]))
    grid = top.reshape(spec.n, spec.n)
    d = 1
    while d < 1 << (m - spec.m_w):
        np.maximum(grid[:, d:], grid[:, :-d], out=grid[:, d:])
        d <<= 1
    return top, order


def _cells(table: list, top: np.ndarray) -> list:
    """[table[r] for r in top]: every cell shares its member's object."""
    return np.array(table, dtype=object)[top].tolist()


def _paint(
    f: GridFunction, fam: RectangleFamily
) -> tuple[np.ndarray, list[int], list[int], int]:
    """(rank grid, Mf numerators by rank, member by rank, scale).

    _cells of the two tables gives Mf and rho; rank 0 maps to 0 and -1 on X.
    """
    if fam.spec != f.spec:
        raise ValueError("incompatible grids")
    avgs, scale = _scaled_averages(fam, f)
    top, order = _rank_grid(fam, avgs)
    return top, [0] + [avgs[i] for i in order], [-1] + order, scale


def maximal_apply(f: GridFunction, fam: RectangleFamily) -> GridFunction:
    """Mf: per cell, the largest member average among members containing it."""
    top, vals, _, scale = _paint(f, fam)
    return GridFunction._adopt(fam.spec, scale, _cells(vals, top))


def linearize(f: GridFunction, fam: RectangleFamily) -> ChoiceMap:
    """Argmax member per covered cell; ties broken by canonical member order."""
    top, _, members, _ = _paint(f, fam)
    return ChoiceMap(fam, tuple(_cells(members, top)))


def _check_entries(rho: ChoiceMap) -> None:
    if max(rho.entries) >= len(rho.fam):
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
    return GridFunction._adopt(spec, scale, out)


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
    mass = [0] * len(fam)  # scaled by 2^(g.scale + 2m)
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
    return GridFunction._adopt(spec, g.scale + 2 * m + 2, out)


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
    counts = [0] * len(rho.fam)
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


def ascent_iterate(g: GridFunction) -> GridFunction | None:
    """The next power-ascent iterate from g: g at a scale of at most
    _MAX_ASCENT_SCALE bits, reduced; None once it is zero."""
    if g.is_zero():
        return None
    if g.scale > _MAX_ASCENT_SCALE:
        g = g.rescaled(_MAX_ASCENT_SCALE)
        if g.is_zero():
            return None
    return g.reduced()


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
            top, vals, members, scale = _paint(f, fam)
            mf = GridFunction._adopt(spec, scale, _cells(vals, top))
            del vals
            ratio = _ratio(mf, f)
            rows.append((sid, it, ratio))
            if ratio > best:
                best = ratio
            if it == ascent_iters:
                break
            rho = ChoiceMap(fam, tuple(_cells(members, top)))
            del f, top, members
            nxt = apply_T_adjoint(rho, mf)
            del rho, mf
            f = ascent_iterate(nxt)
            del nxt
            if f is None:
                break
    return NormReport(len(fam), tuple(rows), best)
