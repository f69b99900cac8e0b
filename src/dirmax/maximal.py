"""The maximal operator over a family, its linearization, adjoint, and norms.

M averages a nonnegative grid function over every family member containing a
point and takes the supremum.  On a finite family the supremum is attained,
so the linearization rho picks the argmax member per cell (canonical-order
tie-break) and the linear operator T averages over rho(x).

Member averages come from one exact numpy kernel for every numerator width:
a slab's column integral is its rows summed less the parts of its end rows
outside it (geometry.slab_rows), with the rows read from an int64 prefix
table where a proven bit bound allows it (_int64_exact) and otherwise, as
for the wide T*T ascent iterates, from f's Python ints.  Only ChoiceMap.check
walks the family's Parallelogram objects, to check the painter without
sharing its code.  One rank painter gives Mf and rho: each cell keeps the
member of highest (average, -index) rank, that is the largest average and,
among equal averages, the lowest index.  So Mf is exactly T_rho f at its own
linearization, at the same scale, and the T*T ascent feeds Mf to T* with no
second averaging pass.  rho is a read-only int32 array over the cells: T is
one gather, T*'s chooser masses one np.add.at and the nu counts one bincount.

T* is that kernel's transpose: over the same blocks, each member's chooser
mass goes back onto the rows the kernel reads, with the same coverage
fractions, through one difference array, so <Tf, g> = <f, T*g> is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dyadic import DyadicRational
from .family import RectangleFamily
from .geometry import GridSpec, first_center_row, slab_rows, slab_run
from .grids import GridFunction, RationalGrid, cell_array


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

    def check(self) -> None:
        """Validate cell-center containment and that -1 marks exactly X."""
        members = self.fam.members
        covered = [False] * self.spec.n_cells
        for r in members:
            for idx in r.cell_indices():
                covered[idx] = True
        for idx, e in enumerate(self.entries.tolist()):
            if e >= 0:
                c, row = self.spec.cell_coords(idx)
                if not members[e].contains_cell(c, row):
                    raise ValueError("choice map entry outside its rectangle")
            elif covered[idx]:
                raise ValueError("uncovered mark on a covered cell")


# The member kernel.  By the row rule (geometry.slab_rows) a slab's column
# integral is (rows a..b summed) << (k + 2) - below * row a - above * row b,
# at most its first term.  With B the bit length of f's largest numerator:
# a column prefix sum is below 2^(B + m); the first term, 2^(m - m_w) + 1
# rows shifted by k + 2 <= m_w + 2, below 2^(B + m + 3); a member's column
# integrals, 2^(m - m_w + k) slabs of 2^(m - m_w + k + 2) units, summed and
# shifted up by 2(m_w - k) to the common scale, below 2^(B + 2m + 2).  So
# B + 2m + 3 <= 62 keeps all below 2^61 on int64; otherwise f's ints are read.
#
# Its transpose, the T* splat, has its own bound.  With M the largest |mass|
# and N the member count, a slab's coefficient mass << (2m_w - k + 2) and
# each of its four difference entries (rows a, a + 1, b, b + 1) are below
# 2^(bits(M) + 2m_w + 2).  A slab touches at least 5 rows, so one flat index
# takes at most two entries of a member: from its slab in that column and
# from closing the one in the column before.  Every partial sum np.add.at
# leaves is below 2^(bits(M) + bits(N) + 2m_w + 3) in absolute value, the
# prefix sums (the output) below half that.  So bits(M) + 2m_w + 3 + bits(N)
# <= 62 keeps all below 2^62; otherwise the same code runs on Python ints.
#
# m2_vertical's recurrence has a third.  With b the bit length of g's largest
# numerator and n = 2^m rows, a column prefix sum, and so a segment sum, is at
# most n (2^b - 1) < 2^(b + m); the cross-products compare such a sum with a
# segment length of at most n, so each is below 2^(b + 2m).  b + 2m <= 62
# keeps all below 2^62; otherwise the same code runs on Python ints.  T*'s
# chooser masses, sums of at most n^2 numerators, share this bound.
_INT64_BITS = 62
_BLOCK = 1 << 15  # member-columns per numpy block


def _int64_exact(f: GridFunction) -> bool:
    """True when the kernel's int64 side provably computes f's averages exactly."""
    return max(f.nums).bit_length() + 2 * f.spec.m + 3 <= _INT64_BITS


def _splat_dtype(mass: list[int], fam: RectangleFamily):
    """np.int64 where the T* splat of these member masses is provably exact, else object."""
    bits = max((x.bit_length() for x in mass), default=0) + len(fam).bit_length()
    return np.int64 if bits + 2 * fam.spec.m_w + 3 <= _INT64_BITS else object


def _vertical_dtype(g: GridFunction):
    """np.int64 where m2_vertical on g, or any sum of g's cells, is provably exact, else object."""
    return np.int64 if max(g.nums).bit_length() + 2 * g.spec.m <= _INT64_BITS else object


def _blocks(fam: RectangleFamily, size: int):
    """(member indices, columns, slab bottoms, k) per block of one k level.

    Columns and slab bottoms (over 2^(k + m + 2), as geometry.slab_run) are
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
    of column prefix sums under _int64_exact, else gathered from f's own ints,
    about _BLOCK >> 3 at a time, so no table of new ints is built.
    """
    spec = fam.spec
    n, rows = spec.n, (1 << (spec.m - spec.m_w)) + 1  # rows a slab touches
    narrow = _int64_exact(f)
    if narrow:
        pref = np.zeros((n, n + 1), dtype=np.int64)
        pref[:, 1:] = np.array(f.nums, dtype=np.int64).reshape(n, n)
        np.cumsum(pref, axis=1, out=pref)
    else:  # win[c, a]: the rows from a on of column c
        win = sliding_window_view(np.array(f.nums, dtype=object).reshape(n, n), rows, axis=1)
    out = np.empty(len(fam), dtype=np.int64 if narrow else object)
    for part, c, lo, k in _blocks(fam, _BLOCK if narrow else (_BLOCK >> 3) // rows):
        a, b, below, above = slab_rows(spec, k, lo)
        if narrow:
            pa, pb = pref[c, a], pref[c, b + 1]
            whole, first, last = pb - pa, pref[c, a + 1] - pa, pb - pref[c, b]
        else:
            g = win[c, a]
            whole, first, last = g.sum(axis=2), g[..., 0], g[..., -1]
        cols = (whole << (k + 2)) - below * first - above * last
        out[part] = cols.sum(axis=1) << (2 * (spec.m_w - k))
    return out.tolist(), 2 * spec.m + 2 + f.scale


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
    for part, c, lo, k in _blocks(fam, _BLOCK):
        r0 = first_center_row(k, lo)
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
) -> tuple[np.ndarray, list[int], np.ndarray, int]:
    """(rank grid, Mf numerators by rank, member by rank as int32, scale).

    _cells(vals, top) gives Mf and members[top] rho; rank 0 maps to 0 and -1 on X.
    """
    if fam.spec != f.spec:
        raise ValueError("incompatible grids")
    avgs, scale = _scaled_averages(fam, f)
    top, order = _rank_grid(fam, avgs)
    return top, [0] + [avgs[i] for i in order], np.array([-1] + order, dtype=np.int32), scale


def maximal_apply(f: GridFunction, fam: RectangleFamily) -> GridFunction:
    """Mf: per cell, the largest member average among members containing it."""
    top, vals, _, scale = _paint(f, fam)
    return GridFunction._adopt(fam.spec, scale, _cells(vals, top))


def linearize(f: GridFunction, fam: RectangleFamily) -> ChoiceMap:
    """Argmax member per covered cell; ties broken by canonical member order."""
    top, _, members, _ = _paint(f, fam)
    return ChoiceMap(fam, members[top])


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
    nums = np.array(g.nums, dtype=_vertical_dtype(g))[chosen]
    mass = np.zeros(len(fam), dtype=nums.dtype)  # scaled by 2^(g.scale + 2m)
    np.add.at(mass, rho.entries[chosen], nums)
    mass = mass.tolist()
    mass = np.array(mass, dtype=_splat_dtype(mass, fam))
    m = spec.m
    # one column-major difference array: a slab that ends on its column's
    # last row closes at the next column's first index, hence n^2 + 1 entries;
    # the parts of rows a and b outside the slab enter as point pairs
    diff = np.zeros(spec.n_cells + 1, dtype=mass.dtype)
    for part, c, lo, k in _blocks(fam, _BLOCK >> 3):  # Python-int temporaries stay small
        a, b, below, above = slab_rows(spec, k, lo)
        a, b = a + (c << m), b + (c << m)
        coef = (mass[part] << 2 * (spec.m_w - k))[:, None]
        full = coef << (k + 2)
        np.add.at(diff, a, full - coef * below)
        np.add.at(diff, a + 1, coef * below)
        np.subtract.at(diff, b, coef * above)
        np.add.at(diff, b + 1, coef * above - full)
    np.cumsum(diff, out=diff)
    return GridFunction._adopt(spec, g.scale + 2 * m + 2, diff[:-1].tolist())


def nu(rho: ChoiceMap, cells, member) -> DyadicRational:
    """nu_R^F: measure of the F-cells whose choice is the given member.

    The member may be given as its index (any integer in [0, N)) or as the
    parallelogram itself.
    """
    if not isinstance(member, (int, np.integer)):
        member = rho.fam.index(member)
    elif not 0 <= member < len(rho.fam):
        raise ValueError("member index out of range")
    return DyadicRational(nu_all(rho, cells)[member], 2 * rho.spec.m)


def nu_all(rho: ChoiceMap, cells) -> list[int]:
    """Chooser cell counts for every member (scaled nu: count per member)."""
    chosen = rho.entries[cell_array(rho.spec, cells)]
    return np.bincount(chosen[chosen >= 0], minlength=len(rho.fam)).tolist()


def _raise_to(num: np.ndarray, den: np.ndarray, cnum: np.ndarray, cden: np.ndarray) -> None:
    """num/den <- cnum/cden wherever the candidate average is larger (dens > 0)."""
    take = cnum * den > num * cden
    np.copyto(num, cnum, where=take)
    np.copyto(den, cden, where=take)


def m2_vertical(g: GridFunction) -> RationalGrid:
    """Hardy-Littlewood maximal function along vertical cell-aligned segments.

    Exact: per cell, the best average of g over the column segments through
    it.  Averages over odd segment lengths are not dyadic, hence the
    Fraction-valued grid.

    One recurrence over segment lengths L = n .. 1 runs on all columns at
    once.  C_L[c, a] is the best average of column c over the segments that
    contain rows [a, a + L).  A longer segment containing [a, a + L) contains
    [a - 1, a + L) or [a, a + L + 1), so C_L[a] = max(S_L[a] / L, C_{L+1}[a - 1],
    C_{L+1}[a]), with S_L[a] the column sum over [a, a + L) from prefix sums
    and C_n[0] the whole column's average; M2 g at row r is C_1[r].  Each C_L
    is a (numerator, length) pair compared only by integer cross-products.
    With b the bit length of g's largest numerator, every cross-product is
    below 2^(b + 2m), so the recurrence runs in int64 when b + 2m <= 62
    (_vertical_dtype) and on Python ints otherwise.
    """
    _require_nonneg(g)
    spec = g.spec
    n = spec.n
    dtype = _vertical_dtype(g)
    pref = np.zeros((n, n + 1), dtype=dtype)
    pref[:, 1:] = np.array(g.nums, dtype=dtype).reshape(n, n)  # [column, row]
    np.cumsum(pref, axis=1, out=pref)
    num = pref[:, n:] - pref[:, :1]
    den = np.full_like(num, n)
    for L in range(n - 1, 0, -1):
        seg = pref[:, L:] - pref[:, :-L]
        lens = np.full_like(seg, L)
        _raise_to(seg[:, :-1], lens[:, :-1], num, den)  # C_{L+1}[a]
        _raise_to(seg[:, 1:], lens[:, 1:], num, den)  # C_{L+1}[a - 1]
        num, den = seg, lens
    num, den = num.ravel().tolist(), den.ravel().tolist()
    return RationalGrid(spec, [Fraction(x, d << g.scale) for x, d in zip(num, den)])


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
            rho = ChoiceMap(fam, members[top])
            del f, top, members
            nxt = apply_T_adjoint(rho, mf)
            del rho, mf
            f = ascent_iterate(nxt)
            del nxt
            if f is None:
                break
    return NormReport(len(fam), tuple(rows), best)
