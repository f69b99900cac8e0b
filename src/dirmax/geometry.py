"""Dyadic intervals, slope cells, grid specification, and staircase parallelograms.

All geometry lives on the unit square.  A "parallelogram" here is the discrete
staircase model: the union, over the grid columns of its base interval, of
vertical slabs of height w anchored at slope*x_center + offset.  Every length,
measure and overlap below is an exact dyadic rational.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dyadic import DyadicRational


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """Half-open dyadic interval [index/2^level, (index+1)/2^level) inside [0,1)."""

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
        """The columns of a 2^m-column grid that the interval covers."""
        sh = m - self.level
        return range(self.index << sh, (self.index + 1) << sh)

    def contains(self, other: "DyadicInterval") -> bool:
        """self contains other (as sets)."""
        if other.level < self.level:
            return False
        return (other.index >> (other.level - self.level)) == self.index

    def strictly_contains(self, other: "DyadicInterval") -> bool:
        return self != other and self.contains(other)

    def intersects(self, other: "DyadicInterval") -> bool:
        return self.contains(other) or other.contains(self)

    def parent(self) -> "DyadicInterval":
        if self.level == 0:
            raise ValueError("[0,1) has no parent")
        return DyadicInterval(self.level - 1, self.index >> 1)

    def children(self) -> tuple["DyadicInterval", "DyadicInterval"]:
        return (
            DyadicInterval(self.level + 1, self.index << 1),
            DyadicInterval(self.level + 1, (self.index << 1) | 1),
        )

    def window(self) -> "Window":
        return Window(self.lo, self.hi)

    def triple(self) -> "Window":
        """Concentric triple clipped to [0,1]."""
        return self.window().triple()

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi})"


@dataclass(frozen=True)
class Window:
    """Half-open interval [lo, hi) with dyadic endpoints, kept inside [0,1]."""

    lo: DyadicRational
    hi: DyadicRational

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("window endpoints out of order")

    @property
    def length(self) -> DyadicRational:
        return self.hi - self.lo

    def contains_value(self, x) -> bool:
        return self.lo <= x < self.hi

    def triple(self) -> "Window":
        ln = self.length
        lo = self.lo - ln
        hi = self.hi + ln
        zero = DyadicRational(0)
        one = DyadicRational(1)
        if lo < zero:
            lo = zero
        if hi > one:
            hi = one
        return Window(lo, hi)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi})"


@dataclass(frozen=True, order=True)
class SlopeCell:
    """Discrete slope at level k: the dyadic interval [j/2^k, (j+1)/2^k).

    The slope value itself is the center (j + 1/2)/2^k; rectangles of length
    2^k * w use slopes at level k.  Containment between cells is ordinary
    dyadic interval containment.
    """

    level: int
    index: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("slope level must be nonnegative")
        if not 0 <= self.index < (1 << self.level):
            raise ValueError("slope cell must lie in [0,1)")

    @property
    def center(self) -> DyadicRational:
        return DyadicRational(2 * self.index + 1, self.level + 1)

    def interval(self) -> DyadicInterval:
        return DyadicInterval(self.level, self.index)

    def window(self) -> Window:
        return self.interval().window()

    def contains(self, other: "SlopeCell") -> bool:
        return self.interval().contains(other.interval())

    def __str__(self) -> str:
        return f"slope<{self.center}>"


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
    def cell(self) -> DyadicRational:
        return DyadicRational(1, self.m)

    @property
    def cell_area(self) -> DyadicRational:
        return DyadicRational(1, 2 * self.m)

    @property
    def offset_exp(self) -> int:
        return self.m_w + 1 if self.offset_half else self.m_w

    @property
    def offset_step(self) -> DyadicRational:
        return DyadicRational(1, self.offset_exp)

    @property
    def offstep_code(self) -> str:
        return "w2" if self.offset_half else "w"

    def x_center(self, c: int) -> DyadicRational:
        return DyadicRational(2 * c + 1, self.m + 1)

    def y_center(self, r: int) -> DyadicRational:
        return DyadicRational(2 * r + 1, self.m + 1)

    def cell_index(self, c: int, r: int) -> int:
        return (c << self.m) + r

    def cell_coords(self, idx: int) -> tuple[int, int]:
        return idx >> self.m, idx & (self.n - 1)


def spec_from_offstep(m: int, m_w: int, code: str) -> GridSpec:
    if code == "w":
        return GridSpec(m, m_w, False)
    if code == "w2":
        return GridSpec(m, m_w, True)
    raise ValueError(f"unknown offset step code {code!r}")


@dataclass(frozen=True)
class Parallelogram:
    """Width-w staircase parallelogram: base interval, slope cell, offset.

    Length is |base| = 2^k * w with the slope cell at level k.  Offsets are
    quantized to the spec's offset step, and the shape must sit inside the
    unit square: offset >= 0 and slope*sup(base) + offset + w <= 1 (no
    clipping, so the measure |base|*w is exact).
    """

    spec: GridSpec
    base: DyadicInterval
    slope: SlopeCell
    offset: DyadicRational

    def __post_init__(self):
        k = self.spec.m_w - self.base.level
        if k < 0:
            raise ValueError("base shorter than rectangle width")
        if self.slope.level != k:
            raise ValueError("slope level does not match base length")
        if self.offset.num < 0:
            raise ValueError("offset must be nonnegative")
        if self.offset.exp > self.spec.offset_exp:
            raise ValueError("offset is not a multiple of the offset step")
        # top = slope center * sup(base) + offset + w, all over 2^(m_w + 1)
        e = self.spec.m_w + 1
        top = (
            (2 * self.slope.index + 1) * (self.base.index + 1)
            + (self.offset.num << (e - self.offset.exp))
            + 2
        )
        if top > 1 << e:
            raise ValueError("parallelogram leaves the unit square")

    @property
    def k(self) -> int:
        """Length exponent: L(R) = 2^k * w."""
        return self.spec.m_w - self.base.level

    @property
    def length(self) -> DyadicRational:
        return self.base.length

    @property
    def measure(self) -> DyadicRational:
        return DyadicRational(1, self.base.level + self.spec.m_w)

    def sort_key(self) -> tuple[int, int, int, int]:
        """Canonical family order: (k, base index, slope index, offset steps)."""
        t = self.offset.num << (self.spec.offset_exp - self.offset.exp)
        return (self.k, self.base.index, self.slope.index, t)

    # -- column geometry (scaled-integer internals) ---------------------

    @property
    def col_lo(self) -> int:
        return self.base.columns(self.spec.m).start

    @property
    def col_hi(self) -> int:
        """One past the last column."""
        return self.base.columns(self.spec.m).stop

    @property
    def y_scale(self) -> int:
        """All slab endpoints are integers over 2^y_scale."""
        return self.slope.level + self.spec.m + 2

    def slab_scaled(self, c: int) -> tuple[int, int]:
        """(lo, hi) of the column-c slab, scaled by 2^y_scale."""
        s = self.y_scale
        lo = (2 * self.slope.index + 1) * (2 * c + 1) + (
            self.offset.num << (s - self.offset.exp)
        )
        return lo, lo + (1 << (s - self.spec.m_w))

    def slab_lows(self) -> range:
        """slab_scaled(c)[0] for every column c of the base, in column order."""
        step = 2 * (2 * self.slope.index + 1)
        lo, _ = self.slab_scaled(self.col_lo)
        return range(lo, lo + step * (self.col_hi - self.col_lo), step)

    def slabs(self, scale: int) -> tuple[int, int, int, int]:
        """(first slab bottom, step, columns, slab height) scaled by 2^scale.

        The slab bottoms form an arithmetic progression (``slab_lows``);
        scale must be at least y_scale.
        """
        lows = self.slab_lows()
        d = scale - self.y_scale
        return lows.start << d, lows.step << d, len(lows), 1 << (scale - self.spec.m_w)

    def column_segment(self, c: int) -> tuple[DyadicRational, DyadicRational]:
        """The vertical slab [s*x_c + b, s*x_c + b + w) over column c."""
        if not self.col_lo <= c < self.col_hi:
            raise ValueError("column out of range")
        lo, hi = self.slab_scaled(c)
        s = self.y_scale
        return DyadicRational(lo, s), DyadicRational(hi, s)

    def center_rows(self, c: int) -> tuple[int, int]:
        """(first row, count) of rows whose centers lie in the column-c slab.

        The count is always 2^(m - m_w): the slab is half-open of height w.
        """
        lo, _ = self.slab_scaled(c)
        d = 1 << (self.y_scale - self.spec.m - 1)
        r0 = (lo + d - 1) // (2 * d)
        return r0, 1 << (self.spec.m - self.spec.m_w)

    def touched_rows(self, c: int) -> tuple[int, int]:
        """(first, one-past-last) rows with positive overlap with the slab."""
        lo, hi = self.slab_scaled(c)
        u = 1 << (self.y_scale - self.spec.m)
        return lo // u, (hi - 1) // u + 1

    def contains_cell(self, c: int, r: int) -> bool:
        if not self.col_lo <= c < self.col_hi:
            return False
        r0, cnt = self.center_rows(c)
        return r0 <= r < r0 + cnt

    def cell_indices(self):
        """Flat indices of cells whose centers lie inside the staircase."""
        m = self.spec.m
        for c in range(self.col_lo, self.col_hi):
            r0, cnt = self.center_rows(c)
            base = (c << m) + r0
            yield from range(base, base + cnt)

    def pi2(self) -> Window:
        """Vertical extent of the slab union (slabs sit at column centers)."""
        lo, _ = self.slab_scaled(self.col_lo)
        _, hi = self.slab_scaled(self.col_hi - 1)
        s = self.y_scale
        return Window(DyadicRational(lo, s), DyadicRational(hi, s))

    def __str__(self) -> str:
        return f"R(k={self.k}, base={self.base}, s={self.slope.center}, b={self.offset})"


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

    A run is (first column, *Parallelogram.slabs(scale)).  Over a shared
    column the two slabs overlap in
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


def overlap_measure(a: Parallelogram, b: Parallelogram) -> DyadicRational:
    """Exact area of the intersection of two staircase parallelograms."""
    if a.spec != b.spec:
        raise ValueError("incompatible grids")
    s = max(a.y_scale, b.y_scale)
    total = slab_overlap((a.col_lo, *a.slabs(s)), (b.col_lo, *b.slabs(s)))
    return DyadicRational(total, s + a.spec.m)


def union_measure(members) -> DyadicRational:
    """Exact area of the union of staircase parallelograms (same grid)."""
    members = list(members)
    if not members:
        return DyadicRational(0)
    spec = members[0].spec
    s = max(r.y_scale for r in members)
    by_col: dict[int, list[tuple[int, int]]] = {}
    for r in members:
        if r.spec != spec:
            raise ValueError("incompatible grids")
        lo, step, n, height = r.slabs(s)
        for c in range(r.col_lo, r.col_lo + n):
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
    return DyadicRational(total, s + spec.m)
