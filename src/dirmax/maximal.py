"""The maximal operator over a family, its linearization, adjoint, and norms.

M averages a nonnegative grid function over every family member containing a
point and takes the supremum.  On a finite family the supremum is attained,
so the linearization rho picks the argmax member per cell (canonical-order
tie-break) and the linear operator T averages over rho(x).

Member averages come from one exact numpy kernel for every numerator width:
a slab's column integral is its rows summed less the parts of its end rows
outside it (geometry.slab_rows), with the rows read from an int64 prefix
table where a proven bit bound allows it (_int64_exact) and otherwise, as
for the wide T*T ascent iterates, from f's values as Python ints; each bound
reads the bit length f recorded when it was built.  Nothing here builds
a Parallelogram: the kernels read the family's key rows, and the oracle's
maximal_apply referees the painter.  One rank painter gives Mf and rho: each
cell keeps the member of highest (average, -index) rank, that is the largest
average and, among equal averages, the lowest index.  So Mf is exactly T_rho
f at its own linearization, at the same scale, and the T*T ascent feeds Mf to
T* with no second averaging pass.  rho is a read-only int32 array over the
cells: T is one gather, T*'s chooser masses one np.add.at and the nu counts
one bincount.

T* is that kernel's transpose: over the same blocks, each member's chooser
mass goes back onto the rows the kernel reads, with the same coverage
fractions, through one difference array, so <Tf, g> = <f, T*g> is exact.

estimate_norm's squared norms are sums over the members, not the cells:
||Mf||^2 from the cells each member wins, and ||T* Mf||^2 = <Mf, T T* Mf> by
that exact adjointness.  Seeds and the iterates the scale cap rounds down
square cell by cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dyadic import DyadicRational
from .family import RectangleFamily
from .geometry import GridSpec, first_center_row, slab_rows, slab_run
from .grids import _INT64_BITS, GridFunction, _int_array, cell_array


@dataclass(frozen=True, eq=False)
class ChoiceMap:
    """Per-cell argmax member index, -1 exactly on the exceptional set X: a
    read-only int32 array over the cells, checked once here to lie in [-1, N)."""

    fam: RectangleFamily
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries)
        if (e.dtype.kind not in "iu" or e.shape != (self.fam.spec.n_cells,)
                or e.min() < -1 or e.max() >= len(self.fam)):
            raise ValueError("corrupt choice map")
        e = e.astype(np.int32)
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    @property
    def spec(self) -> GridSpec:
        return self.fam.spec

    def covered_cells(self) -> list[int]:
        return np.flatnonzero(self.entries >= 0).tolist()

    def exceptional_cells(self) -> list[int]:
        return np.flatnonzero(self.entries < 0).tolist()


# The member kernel.  By the row rule (geometry.slab_rows) a slab's column
# integral is (rows a..b summed) << (m_w + 2) - below * row a - above * row b,
# at most its first term.  With B the bit length of f's largest numerator:
# a column prefix sum is below 2^(B + m); the first term, 2^(m - m_w) + 1
# rows shifted by m_w + 2, below 2^(B + m + 3); a member's column integrals,
# 2^(m - m_w + k) slabs of 2^(m + 2) units over 2^S, summed and shifted up by
# m_w - k to the common scale, below 2^(B + 2m + 2).  So B + 2m + 3 <= 62
# keeps all below 2^61 on int64; otherwise f's ints are read.
#
# Its transpose, the T* splat, has its own bound.  With M the largest |mass|
# and N the member count, a slab's whole-row coefficient, mass << (m_w - k)
# times the row height 2^(m_w + 2), and each of its four difference entries
# (rows a, a + 1, b, b + 1) are below 2^(bits(M) + 2m_w + 2).  A slab touches
# at least 5 rows, so one flat index takes at most two entries of a member:
# from its slab in that column and from closing the one in the column before.
# Every partial sum np.add.at leaves is below 2^(bits(M) + bits(N) + 2m_w + 3)
# in absolute value, the prefix sums (the output) below half that.  So
# bits(M) + 2m_w + 3 + bits(N) <= 62 keeps all below 2^62; otherwise the same
# code runs on Python ints.
#
# m2_vertical's recurrence has a third.  With b the bit length of g's largest
# numerator and n = 2^m rows, a column prefix sum, and so a segment sum, is at
# most n (2^b - 1) < 2^(b + m); the cross-products compare such a sum with a
# segment length of at most n, so each is below 2^(b + 2m).  b + 2m <= 62
# keeps all below 2^62; otherwise the same code runs on Python ints.  T*'s
# chooser masses, sums of at most n^2 numerators, share this bound.
_BLOCK = 1 << 15  # member-columns per numpy block


def _int64_exact(f: GridFunction) -> bool:
    """True when the kernel's int64 side provably computes f's averages exactly."""
    return f.bits + 2 * f.spec.m + 3 <= _INT64_BITS


def _splat_dtype(mass: np.ndarray, fam: RectangleFamily):
    """np.int64 where the T* splat of these (nonnegative) member masses is provably exact, else object."""
    bits = int(mass.max(initial=0)).bit_length() + len(fam).bit_length()
    return np.int64 if bits + 2 * fam.spec.m_w + 3 <= _INT64_BITS else object


def _vertical_dtype(g: GridFunction):
    """np.int64 where m2_vertical on g, or any sum of g's cells, is provably exact, else object."""
    return np.int64 if g.bits + 2 * g.spec.m <= _INT64_BITS else object


def _blocks(fam: RectangleFamily, size: int):
    """(member indices, columns, slab bottoms, k) per block of one k level.

    Columns and slab bottoms (over 2^S, as geometry.slab_run) are
    int64 arrays of shape (members, columns of a member), about size entries.
    """
    spec, keys = fam.spec, fam.sort_keys
    for k in range(spec.m_w + 1):
        sel = np.flatnonzero(keys[:, 0] == k)
        cols = spec.m - spec.m_w + k  # log2 of the columns per member
        span = np.arange(1 << cols)
        step = max(1, size >> cols)
        for a in range(0, len(sel), step):
            part = sel[a : a + step]
            c0, lo, dlo = (x[:, None] for x in slab_run(spec, *keys[part].T))
            yield part, c0 + span, lo + dlo * span, k


def _scaled_averages(fam: RectangleFamily, f: GridFunction) -> tuple[list[int], int]:
    """Per-member averages over the common scale 2^(2m + 2 + f.scale).

    Each slab reads its rows a..b summed, row a and row b: from one int64 table
    of column prefix sums under _int64_exact, else gathered from f's values as
    Python ints, about _BLOCK >> 3 at a time, so no table of new ints is built.
    """
    spec = fam.spec
    n, rows = spec.n, (1 << (spec.m - spec.m_w)) + 1  # rows a slab touches
    narrow = _int64_exact(f)
    if narrow:
        pref = np.zeros((n, n + 1), dtype=np.int64)
        pref[:, 1:] = f.array.reshape(n, n)
        np.cumsum(pref, axis=1, out=pref)
    else:  # win[c, a]: the rows from a on of column c
        win = sliding_window_view(f.array.astype(object, copy=False).reshape(n, n), rows, axis=1)
    out = np.empty(len(fam), dtype=np.int64 if narrow else object)
    for part, c, lo, k in _blocks(fam, _BLOCK if narrow else (_BLOCK >> 3) // rows):
        a, b, below, above = slab_rows(spec, lo)
        if narrow:
            pa, pb = pref[c, a], pref[c, b + 1]
            whole, first, last = pb - pa, pref[c, a + 1] - pa, pb - pref[c, b]
        else:
            g = win[c, a]
            whole, first, last = g.sum(axis=2), g[..., 0], g[..., -1]
        cols = (whole << (spec.m_w + 2)) - below * first - above * last
        out[part] = cols.sum(axis=1) << (spec.m_w - k)
    return out.tolist(), 2 * spec.m + 2 + f.scale


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
    for part, c, lo, k in _blocks(fam, _BLOCK):
        r0 = first_center_row(spec, lo)
        np.maximum.at(top, ((c << m) + r0).ravel(), np.repeat(rank[part], c.shape[1]))
    grid = top.reshape(spec.n, spec.n)
    d = 1
    while d < 1 << (m - spec.m_w):
        np.maximum(grid[:, d:], grid[:, :-d], out=grid[:, d:])
        d <<= 1
    return top, order


def _cells(table: list, top: np.ndarray) -> np.ndarray:
    """[table[r] for r in top] as one array (grids._int_array's dtype rule)."""
    return _int_array(table)[top]


def _paint(
    f: GridFunction, fam: RectangleFamily
) -> tuple[np.ndarray, list[int], list[int], int]:
    """(rank grid, member averages, members by rank, scale).

    The cells of rank r take member order[r - 1] and its average; rank 0 is X.
    """
    if fam.spec != f.spec:
        raise ValueError("incompatible grids")
    avgs, scale = _scaled_averages(fam, f)
    top, order = _rank_grid(fam, avgs)
    return top, avgs, order, scale


def _mf(
    spec: GridSpec, top: np.ndarray, avgs: list[int], order: list[int], scale: int
) -> GridFunction:
    """Mf from a paint: every cell reads its chooser's average, X reads 0."""
    return GridFunction._adopt(spec, scale, _cells([0] + [avgs[i] for i in order], top))


def _rho(fam: RectangleFamily, top: np.ndarray, order: list[int]) -> ChoiceMap:
    """rho from a paint: every cell names its chooser, X names -1."""
    return ChoiceMap(fam, np.array([-1] + order, dtype=np.int32)[top])


def maximal_apply(f: GridFunction, fam: RectangleFamily) -> GridFunction:
    """Mf: per cell, the largest member average among members containing it."""
    top, avgs, order, scale = _paint(f, fam)
    return _mf(fam.spec, top, avgs, order, scale)


def linearize(f: GridFunction, fam: RectangleFamily) -> ChoiceMap:
    """Argmax member per covered cell; ties broken by canonical member order."""
    top, _, order, _ = _paint(f, fam)
    return _rho(fam, top, order)


def apply_T(rho: ChoiceMap, f: GridFunction) -> GridFunction:
    """T_rho f: the average of f over the chosen rectangle, 0 on X."""
    fam = rho.fam
    spec = fam.spec
    if spec != f.spec:
        raise ValueError("incompatible grids")
    avgs, scale = _scaled_averages(fam, f)
    return GridFunction._adopt(spec, scale, _cells(avgs + [0], rho.entries))  # X reads the 0


def apply_T_adjoint(rho: ChoiceMap, g: GridFunction) -> GridFunction:
    """T* g = sum over members of (mass of g on the choosers) * 1_R / |R|.

    The transpose of _scaled_averages over the same _blocks: each slab adds
    its member's coefficient to its rows a..b whole and takes off the parts
    of rows a and b outside the slab, the per-cell coverage fractions that
    kernel weighs f by.  So <Tf, g> = <f, T*g> is exact on the grid.
    """
    fam = rho.fam
    spec = fam.spec
    if spec != g.spec:
        raise ValueError("incompatible grids")
    chosen = rho.entries >= 0
    nums = g.array[chosen].astype(_vertical_dtype(g), copy=False)
    mass = np.zeros(len(fam), dtype=nums.dtype)  # scaled by 2^(g.scale + 2m)
    np.add.at(mass, rho.entries[chosen], nums)
    mass = mass.astype(_splat_dtype(mass, fam))
    m = spec.m
    # one column-major difference array: a slab that ends on its column's
    # last row closes at the next column's first index, hence n^2 + 1 entries;
    # the parts of rows a and b outside the slab enter as point pairs
    diff = np.zeros(spec.n_cells + 1, dtype=mass.dtype)
    for part, c, lo, k in _blocks(fam, _BLOCK >> 3):  # Python-int temporaries stay small
        a, b, below, above = slab_rows(spec, lo)
        a, b = a + (c << m), b + (c << m)
        coef = (mass[part] << (spec.m_w - k))[:, None]
        full = coef << (spec.m_w + 2)
        np.add.at(diff, a, full - coef * below)
        np.add.at(diff, a + 1, coef * below)
        np.subtract.at(diff, b, coef * above)
        np.add.at(diff, b + 1, coef * above - full)
    np.cumsum(diff, out=diff)
    return GridFunction._adopt(spec, g.scale + 2 * m + 2, diff[:-1])


def nu_all(rho: ChoiceMap, cells) -> list[int]:
    """Chooser cell counts for every member (scaled nu: count per member)."""
    chosen = rho.entries[cell_array(rho.spec, cells)]
    return np.bincount(chosen[chosen >= 0], minlength=len(rho.fam)).tolist()


def _raise_to(num: np.ndarray, den: np.ndarray, cnum: np.ndarray, cden: np.ndarray) -> None:
    """num/den <- cnum/cden wherever the candidate average is larger (dens > 0)."""
    take = cnum * den > num * cden
    np.copyto(num, cnum, where=take)
    np.copyto(den, cden, where=take)


def m2_vertical(g: GridFunction, columns) -> tuple[np.ndarray, np.ndarray]:
    """Hardy-Littlewood maximal function along vertical cell-aligned segments,
    on the given columns of g (sorted and distinct; range(n) for all).

    Exact: per cell of those columns, the best average of g over the column
    segments through it, as two 1-D integer arrays (num, den), column by
    column: M2 g at row r of the i-th column given is num[i n + r] /
    (den[i n + r] << g.scale), den the length of a best segment.  Averages
    over odd lengths are not dyadic, hence the pair; callers compare them by
    integer cross-products.

    One recurrence over segment lengths L = n .. 1 runs on the columns at
    once.  C_L[c, a] is the best average of column c over the segments that
    contain rows [a, a + L).  A longer segment containing [a, a + L) contains
    [a - 1, a + L) or [a, a + L + 1), so C_L[a] = max(S_L[a] / L, C_{L+1}[a - 1],
    C_{L+1}[a]), with S_L[a] the column sum over [a, a + L) from prefix sums
    and C_n[0] the whole column's average; M2 g at row r is C_1[r].  Each C_L
    is a (numerator, length) pair compared only by integer cross-products.
    With b the bit length g recorded, every cross-product is below
    2^(b + 2m), so the recurrence runs in int64 when b + 2m <= 62
    (_vertical_dtype) and on Python ints otherwise; the arrays keep that dtype.
    """
    n = g.spec.n
    cols = np.asarray(columns, dtype=np.int64)
    if len(cols) and (cols[0] < 0 or cols[-1] >= n or (cols[1:] <= cols[:-1]).any()):
        raise ValueError("columns must be sorted, distinct and in range")
    dtype = _vertical_dtype(g)
    pref = np.zeros((len(cols), n + 1), dtype=dtype)
    pref[:, 1:] = g.array.reshape(n, n)[cols]  # [column, row]
    np.cumsum(pref, axis=1, out=pref)
    num = pref[:, n:] - pref[:, :1]
    den = np.full_like(num, n)
    for L in range(n - 1, 0, -1):
        seg = pref[:, L:] - pref[:, :-L]
        lens = np.full_like(seg, L)
        _raise_to(seg[:, :-1], lens[:, :-1], num, den)  # C_{L+1}[a]
        _raise_to(seg[:, 1:], lens[:, 1:], num, den)  # C_{L+1}[a - 1]
        num, den = seg, lens
    return num.ravel(), den.ravel()


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


def _ratio(mf_sq: DyadicRational, f_sq: DyadicRational) -> float:
    return math.sqrt(float(mf_sq.as_fraction() / f_sq.as_fraction()))


_MAX_ASCENT_SCALE = 96  # an iterate's scale is capped here, rounding it down


def estimate_norm(
    fam: RectangleFamily, seeds: list[GridFunction], ascent_iters: int
) -> NormReport:
    """Lower estimates of ||M||_2->2: seed ratios plus T*T ascent refreshes.

    The ascent relinearizes at the current iterate and follows f <- T* T f;
    all reported ratios are genuine Rayleigh quotients, so the best ratio is
    a certified lower estimate, never an upper bound.  One painter pass per
    iterate gives both Mf and rho, and Mf is T_rho f at that rho.

    Both squared norms are exact sums over the N members, not the cells.
    With wins_R the cells rho gives to R and a_R = avg_R(f), Mf's mass on R's
    choosers is mass_R = wins_R a_R, and ||Mf||^2 = sum_R mass_R a_R.  The
    next iterate f' = T* Mf has ||f'||^2 = <Mf, T_rho f'> = sum_R mass_R avg_R(f'),
    the averages the next painter pass computes anyway, since T* is the exact
    transpose of the member kernel.  A seed, and an iterate the 96-bit cap
    rounded down (so no longer T* Mf), takes f.l2_sq() instead.  Mf and rho
    become grids only for the T* step that follows them.
    """
    if ascent_iters < 0:
        raise ValueError("ascent_iters must be nonnegative")
    if not seeds:
        raise ValueError("no seeds")
    spec = fam.spec
    m2 = 2 * spec.m
    rows = []
    best = 0.0
    for sid, seed in enumerate(seeds):
        if seed.spec != spec:
            raise ValueError("incompatible grids")
        if seed.is_zero():
            raise ValueError("degenerate seed")
        f, mass = seed, None
        # each grid is dropped once used: memory, not time, bounds m here
        for it in range(ascent_iters + 1):
            top, avgs, order, scale = _paint(f, fam)
            if mass is None:
                f_sq = f.l2_sq()
            else:  # <Mf, T_rho f> over the last step's Mf, at its scale mf_scale
                f_sq = DyadicRational(sum(map(mul, mass, avgs)), mf_scale + scale + m2)
            wins = np.zeros(len(fam), dtype=np.int64)
            wins[order] = np.bincount(top, minlength=len(fam) + 1)[1:]
            mass = list(map(mul, wins.tolist(), avgs))
            ratio = _ratio(DyadicRational(sum(map(mul, mass, avgs)), 2 * scale + m2), f_sq)
            rows.append((sid, it, ratio))
            if ratio > best:
                best = ratio
            if it == ascent_iters:
                break
            mf, rho = _mf(spec, top, avgs, order, scale), _rho(fam, top, order)
            del f, top, avgs
            nxt = apply_T_adjoint(rho, mf)
            del rho, mf
            if nxt.scale > _MAX_ASCENT_SCALE:
                nxt = nxt.rescaled(_MAX_ASCENT_SCALE)
                mass = None  # rounded down: f is no longer T* Mf
            if nxt.is_zero():
                break
            f, mf_scale = nxt.reduced(), scale
            del nxt
    return NormReport(len(fam), tuple(rows), best)
