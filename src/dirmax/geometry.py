"""Dyadic intervals, slope cells, grid specification, and the staircase of key rows.

All geometry lives on the unit square.  A "parallelogram" here is the discrete
staircase model: the union, over the grid columns of its base interval, of
vertical slabs of height w anchored at slope*x_center + offset.  A family
names each one by an integer key row (k, base index, slope index, offset
steps); ``check_key_rows`` is the one rule set for those rows, and
``slab_run``/``slab_rows`` the one staircase formula.  Every length, measure
and overlap below is exact: a dyadic rational, or an integer over a stated
power of two.  The staircase has one integer scale per axis: every member's
slab ends are integers over 2^S, S = m + m_w + 2 (``GridSpec.slab_scale``),
and a vertical window [a, b) is a pair of grid points over 2^m
(``window_triple``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicRational


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """Half-open dyadic interval [index/2^level, (index+1)/2^level) inside [0,1).
    A slope cell is one: length 2^k * w takes level k, and its center is the slope."""

    level: int
    index: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("interval level must be nonnegative")
        if not 0 <= self.index < (1 << self.level):
            raise ValueError("interval must lie in [0,1)")

    @property
    def lo(self) -> DyadicRational:
        return DyadicRational(self.index, self.level)

    @property
    def hi(self) -> DyadicRational:
        return DyadicRational(self.index + 1, self.level)

    @property
    def length(self) -> DyadicRational:
        return DyadicRational(1, self.level)

    def columns(self, m: int) -> range:
        """The columns (or rows) of a 2^m x 2^m grid that the interval covers:
        start and stop are its ends as grid points over 2^m."""
        sh = m - self.level
        return range(self.index << sh, (self.index + 1) << sh)

    @property
    def center(self) -> DyadicRational:
        """The midpoint, the slope that a slope cell stands for."""
        return DyadicRational(2 * self.index + 1, self.level + 1)

    def contains(self, other: "DyadicInterval") -> bool:
        """self contains other (as sets)."""
        return bool(dyadic_inside(other.level, other.index, self.level, self.index))

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi})"


@dataclass(frozen=True)
class GridSpec:
    """A 2^m x 2^m cell grid on [0,1]^2 with rectangle width w = 2^-m_w.

    offset_half selects the vertical offset quantum: w when False, w/2 when
    True.  Width must span at least 4 columns (m_w <= m - 2) so the staircase
    stays a faithful shape.
    """

    m: int
    m_w: int
    offset_half: bool = False

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("grid exponent m must be at least 2")
        if not 0 <= self.m_w <= self.m - 2:
            raise ValueError("need 0 <= m_w <= m - 2")

    @property
    def n(self) -> int:
        """Cells per side."""
        return 1 << self.m

    @property
    def n_cells(self) -> int:
        return 1 << (2 * self.m)

    @property
    def w(self) -> DyadicRational:
        return DyadicRational(1, self.m_w)

    @property
    def offset_exp(self) -> int:
        """The offset step is 2^-offset_exp."""
        return self.m_w + 1 if self.offset_half else self.m_w

    @property
    def slab_scale(self) -> int:
        """S = m + m_w + 2: every slab end is an integer over 2^S."""
        return self.m + self.m_w + 2

    @property
    def offstep_code(self) -> str:
        return "w2" if self.offset_half else "w"

    def cell_index(self, c: int, r: int) -> int:
        return (c << self.m) + r


def spec_from_offstep(m: int, m_w: int, code: str) -> GridSpec:
    if code == "w":
        return GridSpec(m, m_w, False)
    if code == "w2":
        return GridSpec(m, m_w, True)
    raise ValueError(f"unknown offset step code {code!r}")


# -- staircase formulas of key rows (k, i, j, t), elementwise on ints or int64 arrays


def slab_run(spec: GridSpec, k, i, j, t):
    """(first column, first slab bottom, step), over 2^S (S = spec.slab_scale):
    column c's slab starts at slope * x_c + offset = ((2j + 1)(2c + 1) <<
    (m_w - k)) + t * 2^(S - offset_exp), so the bottoms step by 2(2j + 1) <<
    (m_w - k) a column."""
    d = spec.m_w - k
    c0 = i << (spec.m - d)
    lift = t << (spec.slab_scale - spec.offset_exp)
    return c0, ((2 * j + 1) * (2 * c0 + 1) << d) + lift, 2 * (2 * j + 1) << d


def max_offset_steps(spec: GridSpec, i, j):
    """Largest t with t*step + slope*sup(base) + w <= 1, negative if none, for
    base index i and slope index j of one length level."""
    # 1 - w - slope*sup(base) = room / 2^(m_w + 1), since |base| = 2^k * w
    room = (2 << spec.m_w) - 2 - (2 * j + 1) * (i + 1)
    return room >> (spec.m_w + 1 - spec.offset_exp)


def check_key_rows(spec: GridSpec, rows: np.ndarray) -> None:
    """ValueError unless every int64 key row (k, i, j, t) names a member of the spec."""
    k, i, j, t = rows.T
    if ((k < 0) | (k > spec.m_w)).any():
        raise ValueError("length exponent must lie in [0, m_w]")
    if (i >> (spec.m_w - k)).any():  # nonzero exactly when i < 0 or i >= 2^(m_w - k)
        raise ValueError("base index out of range")
    if (j >> k).any():
        raise ValueError("slope index out of range")
    if (t < 0).any():
        raise ValueError("offset must be nonnegative")
    if (t > max_offset_steps(spec, i, j)).any():
        raise ValueError("parallelogram leaves the unit square")


def dyadic_inside(level, index, outer_level, outer_index):
    """Dyadic [index/2^level) inside [outer_index/2^outer_level), elementwise."""
    d = level - outer_level
    return (d >= 0) & ((index >> np.maximum(d, 0)) == outer_index)


def first_center_row(spec: GridSpec, lo):
    """The first row whose center is at or above the slab bottom lo (over 2^S,
    so rows are 2^(m_w + 2) units high)."""
    return (lo + (1 << (spec.m_w + 1)) - 1) >> (spec.m_w + 2)


def slab_rows(spec: GridSpec, lo):
    """(a, b, below, above): the slab with bottom lo (over 2^S, rows 2^(m_w + 2)
    high) touches rows a..b = a + 2^(m - m_w); below is the part of row a under
    it, above that of row b over it.  slab_run's bottoms are odd multiples of
    2^(m_w - k), k <= m_w, so lo sits on no row line and on no row center, and
    below + above is one row."""
    row = 1 << (spec.m_w + 2)
    a, below = lo >> (spec.m_w + 2), lo & (row - 1)
    return a, a + (1 << (spec.m - spec.m_w)), below, row - below


def window_triple(a, b, n):
    """The concentric triple of the window [a, b), clipped to [0, n]: rows
    [max(0, a - (b - a)), min(n, b + (b - a)))."""
    return max(0, a - (b - a)), min(n, b + (b - a))


@dataclass(frozen=True)
class Parallelogram:
    """Read-only view of one key row (k, base index, slope index, offset steps)
    that ``RectangleFamily`` has checked: its base and the grid columns and
    rows its slabs touch, from slab_run and slab_rows."""

    spec: GridSpec
    row: tuple[int, int, int, int]

    @property
    def base(self) -> DyadicInterval:
        return DyadicInterval(self.spec.m_w - self.row[0], self.row[1])

    @property
    def col_lo(self) -> int:
        return self.base.columns(self.spec.m).start

    @property
    def col_hi(self) -> int:
        """One past the last column."""
        return self.base.columns(self.spec.m).stop

    def touched_rows(self, c: int) -> tuple[int, int]:
        """(first, one-past-last) rows with positive overlap with the column-c slab."""
        c0, lo, step = slab_run(self.spec, *self.row)
        a, b, _, _ = slab_rows(self.spec, lo + (c - c0) * step)
        return a, b + 1


def slab_cover(start: int, step: int, n: int, height: int, y: int) -> int:
    """G(y) = sum over c < n of clamp(y - (start + c*step), 0, height).

    The total length below y of the n slabs [lo, lo + height) whose bottoms
    lo run through an arithmetic progression, so the mass of the slabs in a
    window [a, b) is G(b) - G(a).  O(1): the slabs wholly below y and the
    slabs cut by y are two runs of consecutive c.  Any integer step; height
    must be positive.
    """
    if step < 0:
        start, step = start + (n - 1) * step, -step
    if step == 0:
        return n * min(max(y - start, 0), height)
    full = min(n, max(0, (y - height - start) // step + 1))  # lo <= y - height
    below = min(n, max(0, (y - start - 1) // step + 1))  # lo < y
    cut = below - full
    return full * height + cut * (y - start) - step * (cut * (full + below - 1) // 2)


def slab_overlap(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Overlap length, summed over shared columns, of two slab runs at one scale.

    A run is (first column, first slab bottom, step, columns, slab height),
    as ``badness.BadnessEngine.runs`` holds one per member: the slab bottoms
    form an arithmetic progression over the columns.  Over a shared column
    the two slabs overlap in
    clamp(b_lo + h_b - a_lo, 0, h_a) - clamp(b_lo - a_lo, 0, h_a), and
    a_lo - b_lo runs through an arithmetic progression, so the sum over the
    shared columns is a difference of two slab_cover values.
    """
    ca, a0, astep, an, ah = a
    cb, b0, bstep, bn, bh = b
    c0 = max(ca, cb)
    n = min(ca + an, cb + bn) - c0
    if n <= 0:
        return 0
    start = a0 + (c0 - ca) * astep - b0 - (c0 - cb) * bstep
    step = astep - bstep
    return slab_cover(start, step, n, ah, bh) - slab_cover(start, step, n, ah, 0)


def slab_union(runs) -> int:
    """Length of the union of slab runs at one scale, summed over columns; a
    run is (first column, first slab bottom, step, columns, slab height), as
    in slab_overlap."""
    by_col: dict[int, list[tuple[int, int]]] = {}
    for c0, lo, step, n, height in runs:
        for c in range(c0, c0 + n):
            by_col.setdefault(c, []).append((lo, lo + height))
            lo += step
    total = 0
    for segs in by_col.values():
        segs.sort()
        cur_lo, cur_hi = segs[0]
        for lo, hi in segs[1:]:
            if lo > cur_hi:
                total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            elif hi > cur_hi:
                cur_hi = hi
        total += cur_hi - cur_lo
    return total
