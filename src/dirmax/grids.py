"""Grid functions on the unit square, one-variable fields, exact integration, file I/O.

A GridFunction stores one nonnegative dyadic rational per cell, a OneVarField
one in [0, 1] per column.  Both keep integer numerators over a single
power-of-two scale, in one shared body, so sums, maxima and integrals stay in
integer arithmetic.  Numerators are Python ints: the constructors turn numpy
integers into ints and reject floats.  The constructor's range check is the
only one: operators trust it.  The MAXGRID v1 text format round-trips
canonically.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import repeat
from operator import index, mul, or_, rshift
from typing import Iterable, Sequence

import numpy as np

from .dyadic import DyadicRational
from .geometry import GridSpec, spec_from_offstep


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


def _cell_set(cells: np.ndarray) -> np.ndarray:
    """A cell set: the distinct indices of cells, sorted, as a read-only int32
    array.  (np.unique would do, but numpy 2.4's hashes first: about 70x slower
    on the 2^18 cells of m = 9; np.diff(prepend=) adds about 10 us a call.)"""
    out = cells.astype(np.int32)
    out.sort()
    out = np.concatenate((out[:1], out[1:][out[1:] != out[:-1]]))
    out.flags.writeable = False
    return out


class _ScaledValues:
    """Exact dyadic values as integer numerators over one power-of-two scale:
    the body that grids and fields share.  A subclass gives its name in
    messages (``_what``), its value count (``_count``) and its range rule
    (``_check_range``)."""

    __slots__ = ("spec", "scale", "nums")

    def __init__(self, spec: GridSpec, scale: int, nums: Sequence[int]):
        scale, nums = index(scale), list(map(index, nums))  # numpy ints would wrap
        self._check(spec, scale, nums)
        self.spec, self.scale, self.nums = spec, scale, nums

    @classmethod
    def _check(cls, spec: GridSpec, scale: int, nums: list[int]) -> None:
        if len(nums) != cls._count(spec):
            raise ValueError(f"{cls._what} value count mismatch")
        if scale < 0:
            raise ValueError("scale must be nonnegative")
        cls._check_range(scale, nums)

    @classmethod
    def _adopt(cls, spec: GridSpec, scale: int, nums: list[int]):
        """Checked like the constructor, but keeps ``nums`` itself: only for a
        list this package has just built and no one else holds."""
        cls._check(spec, scale, nums)
        v = cls.__new__(cls)
        v.spec, v.scale, v.nums = spec, scale, nums
        return v

    @classmethod
    def from_values(cls, spec: GridSpec, values: Iterable):
        return cls._adopt(spec, *_to_scaled(values, cls._what))

    @classmethod
    def constant(cls, spec: GridSpec, value):
        scale, nums = _to_scaled([value], cls._what)
        return cls._adopt(spec, scale, nums * cls._count(spec))

    def values(self) -> list[DyadicRational]:
        return [DyadicRational(n, self.scale) for n in self.nums]

    def reduced(self):
        """Canonical representation: strip common powers of two from the scale."""
        bits = reduce(or_, self.nums, 0)
        sh = min(self.scale, (bits & -bits).bit_length() - 1) if bits else self.scale
        if not sh:
            return self
        return self._adopt(self.spec, self.scale - sh, list(map(rshift, self.nums, repeat(sh))))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.spec != other.spec:
            return False
        e = max(self.scale, other.scale)
        sa, sb = e - self.scale, e - other.scale
        return all((a << sa) == (b << sb) for a, b in zip(self.nums, other.nums))

    def __hash__(self):
        r = self.reduced()
        return hash((r.spec, r.scale, tuple(r.nums)))


class GridFunction(_ScaledValues):
    """A nonnegative function constant on grid cells, values exact dyadic."""

    __slots__ = ()
    _what = "grid"

    @staticmethod
    def _count(spec: GridSpec) -> int:
        return spec.n_cells

    @staticmethod
    def _check_range(scale: int, nums: list[int]) -> None:
        if min(nums) < 0:
            raise ValueError("grid values must be nonnegative")

    @classmethod
    def zeros(cls, spec: GridSpec) -> "GridFunction":
        return cls._adopt(spec, 0, [0] * spec.n_cells)

    @classmethod
    def indicator(cls, spec: GridSpec, cells: Iterable[int]) -> "GridFunction":
        return cls.constant(spec, 1).masked(cells)

    # -- access ------------------------------------------------------------

    def value(self, c: int, r: int) -> DyadicRational:
        return DyadicRational(self.nums[self.spec.cell_index(c, r)], self.scale)

    def value_at(self, idx: int) -> DyadicRational:
        return DyadicRational(self.nums[idx], self.scale)

    def support_cells(self) -> list[int]:
        return [i for i, n in enumerate(self.nums) if n]

    def support_measure(self) -> DyadicRational:
        return DyadicRational(sum(1 for n in self.nums if n), 2 * self.spec.m)

    def is_zero(self) -> bool:
        return not any(self.nums)

    # -- algebra -------------------------------------------------------

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


class OneVarField(_ScaledValues):
    """Slope field v with v(a, b) = v(a): one dyadic value in [0,1] per column;
    ``family.popular_table`` counts its columns per slope cell."""

    __slots__ = ()
    _what = "field"

    @staticmethod
    def _count(spec: GridSpec) -> int:
        return spec.n

    @staticmethod
    def _check_range(scale: int, nums: list[int]) -> None:
        if min(nums) < 0 or max(nums) > 1 << scale:
            raise ValueError("field values must lie in [0,1]")

    def value(self, c: int) -> DyadicRational:
        return DyadicRational(self.nums[c], self.scale)


# -- MAXGRID v1 file format --------------------------------------------------
# The header, then the values 2^m to a line: one line per column of a grid,
# the single line of a field.  Each value is a canonical DyadicRational token.


def _render(v: _ScaledValues) -> str:
    n, words = v.spec.n, [x.render() for x in v.values()]
    lines = ["maxgrid 1", f"m {v.spec.m} mw {v.spec.m_w} offstep {v.spec.offstep_code}"]
    lines += [" ".join(words[i : i + n]) for i in range(0, len(words), n)]
    return "\n".join(lines) + "\n"


def _parse(cls: type[_ScaledValues], text: str):
    lines = text.splitlines()
    if not lines or lines[0].split() != ["maxgrid", "1"]:
        raise ValueError("not a MAXGRID v1 file")
    parts = lines[1].split() if len(lines) > 1 else []
    if len(parts) != 6 or parts[0] != "m" or parts[2] != "mw" or parts[4] != "offstep":
        raise ValueError("bad MAXGRID header")
    spec = spec_from_offstep(int(parts[1]), int(parts[3]), parts[5])
    return cls.from_values(spec, map(DyadicRational.parse, " ".join(lines[2:]).split()))


def render_grid(f: GridFunction) -> str:
    return _render(f)


def parse_grid(text: str) -> GridFunction:
    return _parse(GridFunction, text)


def render_field(v: OneVarField) -> str:
    return _render(v)


def parse_field(text: str) -> OneVarField:
    return _parse(OneVarField, text)
