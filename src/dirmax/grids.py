"""Grid functions on the unit square, one-variable fields, exact integration, file I/O.

A GridFunction stores one nonnegative dyadic rational per cell as an integer
numerator over a single power-of-two scale, so sums, maxima and integrals stay
in integer arithmetic.  Numerators are Python ints: the constructors turn
numpy integers into ints and reject floats.  The MAXGRID v1 text format
round-trips canonically.
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
        scale, nums = index(scale), list(map(index, nums))  # numpy ints would wrap
        _check_grid(spec, scale, nums)
        self.spec = spec
        self.scale = scale
        self.nums = nums

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


class OneVarField:
    """Slope field v with v(a, b) = v(a): one dyadic value in [0,1] per column;
    ``family.popular_table`` counts its columns per slope cell."""

    __slots__ = ("spec", "scale", "nums")

    def __init__(self, spec: GridSpec, scale: int, nums: Sequence[int]):
        scale, nums = index(scale), list(map(index, nums))
        if len(nums) != spec.n:
            raise ValueError("field value count mismatch")
        top = 1 << scale
        if any(n < 0 or n > top for n in nums):
            raise ValueError("field values must lie in [0,1]")
        self.spec = spec
        self.scale = scale
        self.nums = nums

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


# -- MAXGRID v1 file format --------------------------------------------------


def _write_header(spec: GridSpec) -> list[str]:
    return ["maxgrid 1", f"m {spec.m} mw {spec.m_w} offstep {spec.offstep_code}"]


def _parse_header(lines: list[str]) -> GridSpec:
    if not lines or lines[0].split() != ["maxgrid", "1"]:
        raise ValueError("not a MAXGRID v1 file")
    parts = lines[1].split() if len(lines) > 1 else []
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
