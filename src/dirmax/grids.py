"""Grid functions on the unit square, one-variable fields, exact integration, file I/O.

A GridFunction stores one nonnegative dyadic rational per cell as an integer
numerator over a single power-of-two scale, so sums, maxima and integrals stay
in integer arithmetic.  The MAXGRID v1 text format round-trips canonically.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import repeat
from operator import mul, or_, rshift
from typing import Iterable, Sequence

import numpy as np

from .dyadic import DyadicRational
from .geometry import DyadicInterval, GridSpec, Parallelogram, Window, slab_rows, spec_from_offstep


def _to_scaled(values, what: str) -> tuple[int, list[int]]:
    """Common power-of-two scale and integer numerators for dyadic inputs."""
    pairs = []
    scale = 0
    for v in values:
        if isinstance(v, int):
            d = DyadicRational(v)
        elif isinstance(v, DyadicRational):
            d = v
        elif isinstance(v, Fraction):
            d = DyadicRational.from_fraction(v)
        else:
            raise TypeError(f"{what} values must be dyadic, got {type(v).__name__}")
        pairs.append(d)
        scale = max(scale, d.exp)
    return scale, [d.num << (scale - d.exp) for d in pairs]


def cell_array(spec: GridSpec, cells) -> np.ndarray:
    """Cell indices (an integer array, or any iterable of ints) as an integer
    array, each checked to lie in [0, n_cells)."""
    cells = cells if isinstance(cells, np.ndarray) else np.fromiter(cells, dtype=np.int64)
    if cells.dtype.kind not in "iu":
        raise TypeError("cell indices must be integers")
    if len(cells) and (cells.min() < 0 or cells.max() >= spec.n_cells):
        raise ValueError("cell index out of range")
    return cells


def _check_grid(spec: GridSpec, scale: int, nums: Sequence[int]) -> None:
    if len(nums) != spec.n_cells:
        raise ValueError("grid value count mismatch")
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    if min(nums) < 0:
        raise ValueError("grid values must be nonnegative")


class GridFunction:
    """A nonnegative function constant on grid cells, values exact dyadic."""

    __slots__ = ("spec", "scale", "nums")

    def __init__(self, spec: GridSpec, scale: int, nums: Sequence[int]):
        _check_grid(spec, scale, nums)
        self.spec = spec
        self.scale = scale
        self.nums = list(nums)

    # -- constructors ----------------------------------------------------

    @classmethod
    def _adopt(cls, spec: GridSpec, scale: int, nums: list[int]) -> "GridFunction":
        """Checked like the constructor, but keeps ``nums`` itself: only for a
        list this package has just built and no one else holds."""
        _check_grid(spec, scale, nums)
        g = cls.__new__(cls)
        g.spec, g.scale, g.nums = spec, scale, nums
        return g

    @classmethod
    def zeros(cls, spec: GridSpec) -> "GridFunction":
        return cls._adopt(spec, 0, [0] * spec.n_cells)

    @classmethod
    def constant(cls, spec: GridSpec, value) -> "GridFunction":
        scale, nums = _to_scaled([value], "grid")
        return cls._adopt(spec, scale, nums * spec.n_cells)

    @classmethod
    def from_values(cls, spec: GridSpec, values: Iterable) -> "GridFunction":
        scale, nums = _to_scaled(values, "grid")
        return cls._adopt(spec, scale, nums)

    @classmethod
    def indicator(cls, spec: GridSpec, cells: Iterable[int]) -> "GridFunction":
        return cls.constant(spec, 1).masked(cells)

    # -- access ------------------------------------------------------------

    def value(self, c: int, r: int) -> DyadicRational:
        return DyadicRational(self.nums[self.spec.cell_index(c, r)], self.scale)

    def value_at(self, idx: int) -> DyadicRational:
        return DyadicRational(self.nums[idx], self.scale)

    def values(self) -> list[DyadicRational]:
        return [DyadicRational(n, self.scale) for n in self.nums]

    def support_cells(self) -> list[int]:
        return [i for i, n in enumerate(self.nums) if n]

    def support_measure(self) -> DyadicRational:
        return DyadicRational(sum(1 for n in self.nums if n), 2 * self.spec.m)

    def is_zero(self) -> bool:
        return not any(self.nums)

    # -- algebra -------------------------------------------------------

    def reduced(self) -> "GridFunction":
        """Canonical representation: strip common powers of two from the scale."""
        bits = reduce(or_, self.nums, 0)
        sh = min(self.scale, (bits & -bits).bit_length() - 1) if bits else self.scale
        if not sh:
            return self
        return GridFunction._adopt(
            self.spec, self.scale - sh, list(map(rshift, self.nums, repeat(sh)))
        )

    def rescaled(self, scale: int) -> "GridFunction":
        """Same function at a given scale; rounds down if scale is coarser."""
        if scale >= self.scale:
            sh = scale - self.scale
            return GridFunction._adopt(self.spec, scale, [n << sh for n in self.nums])
        sh = self.scale - scale
        return GridFunction._adopt(self.spec, scale, [n >> sh for n in self.nums])

    def masked(self, cells: Iterable[int]) -> "GridFunction":
        """Pointwise product with the indicator of a cell set."""
        nums, src = [0] * self.spec.n_cells, self.nums
        for i in cell_array(self.spec, cells).tolist():
            nums[i] = src[i]
        return GridFunction._adopt(self.spec, self.scale, nums)

    def __eq__(self, other):
        if not isinstance(other, GridFunction):
            return NotImplemented
        if self.spec != other.spec:
            return False
        e = max(self.scale, other.scale)
        sa, sb = e - self.scale, e - other.scale
        return all((a << sa) == (b << sb) for a, b in zip(self.nums, other.nums))

    def __hash__(self):
        r = self.reduced()
        return hash((r.spec, r.scale, tuple(r.nums)))

    # -- norms and exact sums --------------------------------------------

    def integral(self) -> DyadicRational:
        return DyadicRational(sum(self.nums), self.scale + 2 * self.spec.m)

    def l2_sq(self) -> DyadicRational:
        """Exact integral of the square over the unit square."""
        return DyadicRational(
            sum(map(mul, self.nums, self.nums)), 2 * self.scale + 2 * self.spec.m
        )

    def lp_norm(self, p: float) -> float:
        """Reporting-only L^p norm (floats allowed outside the exact core)."""
        area = 0.25 ** self.spec.m
        sc = 2.0 ** self.scale
        return (sum((n / sc) ** p for n in self.nums) * area) ** (1.0 / p)

    def integrate_box(self, horiz: DyadicInterval, vert: Window) -> DyadicRational:
        """Exact integral over an axis-parallel, cell-aligned box."""
        m = self.spec.m
        if vert.lo.exp > m or vert.hi.exp > m:
            raise ValueError("box is not cell-aligned")
        if horiz.level > m:
            raise ValueError("box is not cell-aligned")
        r0 = vert.lo.num << (m - vert.lo.exp)
        r1 = vert.hi.num << (m - vert.hi.exp)
        total = 0
        for c in horiz.columns(m):
            base = c << m
            total += sum(self.nums[base + r0 : base + r1])
        return DyadicRational(total, self.scale + 2 * m)


class OneVarField:
    """Slope field v with v(a, b) = v(a): one dyadic value in [0,1] per column."""

    __slots__ = ("spec", "scale", "nums")

    def __init__(self, spec: GridSpec, scale: int, nums: Sequence[int]):
        if len(nums) != spec.n:
            raise ValueError("field value count mismatch")
        top = 1 << scale
        if any(n < 0 or n > top for n in nums):
            raise ValueError("field values must lie in [0,1]")
        self.spec = spec
        self.scale = scale
        self.nums = list(nums)

    @classmethod
    def from_values(cls, spec: GridSpec, values: Iterable) -> "OneVarField":
        scale, nums = _to_scaled(values, "field")
        return cls(spec, scale, nums)

    @classmethod
    def constant(cls, spec: GridSpec, value) -> "OneVarField":
        scale, nums = _to_scaled([value], "field")
        return cls(spec, scale, nums * spec.n)

    def value(self, c: int) -> DyadicRational:
        return DyadicRational(self.nums[c], self.scale)

    def values(self) -> list[DyadicRational]:
        return [DyadicRational(n, self.scale) for n in self.nums]

    def __eq__(self, other):
        if not isinstance(other, OneVarField):
            return NotImplemented
        if self.spec != other.spec:
            return False
        e = max(self.scale, other.scale)
        sa, sb = e - self.scale, e - other.scale
        return all((a << sa) == (b << sb) for a, b in zip(self.nums, other.nums))

    def __hash__(self):
        return hash((self.spec, tuple(self.values())))

    def cell_hits(self, level: int, c0: int, c1: int) -> dict[int, int]:
        """How many columns in [c0, c1) have v in each level-`level` slope cell."""
        counts: dict[int, int] = {}
        scale = self.scale
        top = 1 << level
        for c in range(c0, c1):
            j = (self.nums[c] << level) >> scale
            if j < top:
                counts[j] = counts.get(j, 0) + 1
        return counts


class RationalGrid:
    """Per-cell exact rationals (not necessarily dyadic); vertical maximal output."""

    __slots__ = ("spec", "values")

    def __init__(self, spec: GridSpec, values: Sequence[Fraction]):
        if len(values) != spec.n_cells:
            raise ValueError("grid value count mismatch")
        self.spec = spec
        self.values = list(values)

    def value(self, c: int, r: int) -> Fraction:
        return self.values[self.spec.cell_index(c, r)]

    def value_at(self, idx: int) -> Fraction:
        return self.values[idx]


# -- exact integration over staircase parallelograms ------------------------


def integrate_scaled(R: Parallelogram, f: GridFunction) -> tuple[int, int]:
    """Exact integral of f over R as (numerator, exponent).

    Each column's slab enters as its rows a..b whole, less the parts of rows a
    and b outside it (geometry.slab_rows), each row 2^(k + 2) scaled units high.
    """
    spec = R.spec
    if spec != f.spec:
        raise ValueError("incompatible grids")
    m, k = spec.m, R.k
    nums = f.nums
    total = 0
    base = R.col_lo << m
    for lo in R.slab_lows():
        a, b, below, above = slab_rows(spec, k, lo)
        a, b = base + a, base + b
        total += (sum(nums[a : b + 1]) << (k + 2)) - below * nums[a] - above * nums[b]
        base += 1 << m
    return total, R.y_scale + m + f.scale


def integrate(R: Parallelogram, f: GridFunction) -> DyadicRational:
    """Exact integral of the piecewise-constant f over the staircase R."""
    num, exp = integrate_scaled(R, f)
    return DyadicRational(num, exp)


def average(R: Parallelogram, f: GridFunction) -> DyadicRational:
    """(1/|R|) * integral of f over R, exact."""
    num, exp = integrate_scaled(R, f)
    return DyadicRational(num, exp - R.base.level - R.spec.m_w)


# -- MAXGRID v1 file format --------------------------------------------------


def _write_header(spec: GridSpec) -> list[str]:
    return ["maxgrid 1", f"m {spec.m} mw {spec.m_w} offstep {spec.offstep_code}"]


def _parse_header(lines: list[str]) -> GridSpec:
    if not lines or lines[0].split() != ["maxgrid", "1"]:
        raise ValueError("not a MAXGRID v1 file")
    parts = lines[1].split()
    if len(parts) != 6 or parts[0] != "m" or parts[2] != "mw" or parts[4] != "offstep":
        raise ValueError("bad MAXGRID header")
    return spec_from_offstep(int(parts[1]), int(parts[3]), parts[5])


def render_grid(f: GridFunction) -> str:
    g = f.reduced()
    lines = _write_header(g.spec)
    n = g.spec.n
    for c in range(n):
        base = c << g.spec.m
        lines.append(
            " ".join(
                DyadicRational(g.nums[base + r], g.scale).render() for r in range(n)
            )
        )
    return "\n".join(lines) + "\n"


def parse_grid(text: str) -> GridFunction:
    lines = text.splitlines()
    spec = _parse_header(lines)
    tokens = " ".join(lines[2:]).split()
    if len(tokens) != spec.n_cells:
        raise ValueError("MAXGRID value count mismatch")
    return GridFunction.from_values(spec, (DyadicRational.parse(t) for t in tokens))


def render_field(v: OneVarField) -> str:
    lines = _write_header(v.spec)
    lines.append(" ".join(x.render() for x in v.values()))
    return "\n".join(lines) + "\n"


def parse_field(text: str) -> OneVarField:
    lines = text.splitlines()
    spec = _parse_header(lines)
    tokens = " ".join(lines[2:]).split()
    if len(tokens) != spec.n:
        raise ValueError("MAXGRID field value count mismatch")
    return OneVarField.from_values(spec, (DyadicRational.parse(t) for t in tokens))
