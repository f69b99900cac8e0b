"""Grid functions on the unit square, one-variable fields, exact integration, file I/O.

A GridFunction stores one nonnegative dyadic rational per cell, a OneVarField
one in [0, 1] per column.  Both keep integer numerators over a single
power-of-two scale, in one shared body, so sums, maxima and integrals stay in
integer arithmetic.  The numerators are one read-only array, int64 when every
one is below 2^62 and otherwise an object array of Python ints, never a
float; its bit length (``bits``, the largest numerator's) is recorded once,
by the constructor's range check, which is the only one: operators trust it
and read ``bits`` for their own int64 bounds.  The MAXGRID v1 text format
round-trips canonically.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import Iterable

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


_INT64_BITS = 62  # numerators below 2^62 are stored, and their sums bounded, in int64


def _int_array(nums) -> np.ndarray:
    """Integers as an int64 array (an int64 or object array as it is), or an
    object array of Python ints when one does not fit int64: the dtype is
    explicit, since numpy makes [1, 2**63] float64."""
    if isinstance(nums, np.ndarray) and nums.dtype in (np.int64, object):
        return nums
    try:
        return np.array(nums, dtype=np.int64)
    except OverflowError:
        return np.array(nums, dtype=object)


class _ScaledValues:
    """Exact dyadic values as integer numerators over one power-of-two scale:
    the body that grids and fields share.  ``array`` holds the numerators
    (read-only, int64 below 2^62, else Python ints) and ``bits`` the largest
    one's bit length.  A subclass gives its name in messages (``_what``), its
    value count (``_count``) and its range rule (``_check_range``)."""

    __slots__ = ("spec", "scale", "array", "bits")

    def __init__(self, spec: GridSpec, scale: int, nums: Iterable[int]):
        self._store(spec, index(scale), _int_array(list(map(index, nums))))  # floats raise

    def _store(self, spec: GridSpec, scale: int, array: np.ndarray) -> None:
        """The one check (value count, scale >= 0, then the range rule), then
        the storage rule: int64 exactly when bits <= _INT64_BITS."""
        if array.shape != (self._count(spec),):
            raise ValueError(f"{self._what} value count mismatch")
        if scale < 0:
            raise ValueError("scale must be nonnegative")
        lo, hi = int(array.min()), int(array.max())
        self._check_range(scale, lo, hi)
        bits = hi.bit_length()
        array = array.astype(object if bits > _INT64_BITS else np.int64, copy=False)
        array.flags.writeable = False
        self.spec, self.scale, self.array, self.bits = spec, scale, array, bits

    @classmethod
    def _adopt(cls, spec: GridSpec, scale: int, nums):
        """Checked like the constructor, but keeps an int64 or object array itself,
        made read-only: only for values this package has just built."""
        v = cls.__new__(cls)
        v._store(spec, scale, _int_array(nums))
        return v

    @property
    def nums(self) -> list[int]:
        """The numerators as a fresh list of Python ints."""
        return self.array.tolist()

    @classmethod
    def from_values(cls, spec: GridSpec, values: Iterable):
        return cls._adopt(spec, *_to_scaled(values, cls._what))

    @classmethod
    def constant(cls, spec: GridSpec, value):
        scale, nums = _to_scaled([value], cls._what)
        return cls._adopt(spec, scale, np.repeat(_int_array(nums), cls._count(spec)))

    def values(self) -> list[DyadicRational]:
        return [DyadicRational(n, self.scale) for n in self.array.tolist()]

    def reduced(self):
        """Canonical representation: strip common powers of two from the scale."""
        low = int(np.bitwise_or.reduce(self.array))
        sh = min(self.scale, (low & -low).bit_length() - 1) if low else self.scale
        if not sh:
            return self
        return self._adopt(self.spec, self.scale - sh, self.array >> sh)

    def _wide(self, bits: int) -> np.ndarray:
        """The array, as Python ints unless results of ``bits`` bits fit int64."""
        return self.array if bits <= _INT64_BITS else self.array.astype(object, copy=False)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.spec != other.spec:
            return False
        a, b = self.reduced(), other.reduced()
        return a.scale == b.scale and np.array_equal(a.array, b.array)

    def __hash__(self):
        r = self.reduced()
        return hash((r.spec, r.scale, tuple(r.array.tolist())))


class GridFunction(_ScaledValues):
    """A nonnegative function constant on grid cells, values exact dyadic."""

    __slots__ = ()
    _what = "grid"

    @staticmethod
    def _count(spec: GridSpec) -> int:
        return spec.n_cells

    @staticmethod
    def _check_range(scale: int, lo: int, hi: int) -> None:
        if lo < 0:
            raise ValueError("grid values must be nonnegative")

    @classmethod
    def zeros(cls, spec: GridSpec) -> "GridFunction":
        return cls._adopt(spec, 0, np.zeros(spec.n_cells, dtype=np.int64))

    @classmethod
    def indicator(cls, spec: GridSpec, cells: Iterable[int]) -> "GridFunction":
        return cls.constant(spec, 1).masked(cells)

    # -- access ------------------------------------------------------------

    def value(self, c: int, r: int) -> DyadicRational:
        return self.value_at(self.spec.cell_index(c, r))

    def value_at(self, idx: int) -> DyadicRational:
        return DyadicRational(int(self.array[idx]), self.scale)

    def support_cells(self) -> list[int]:
        return np.flatnonzero(self.array).tolist()

    def support_measure(self) -> DyadicRational:
        return DyadicRational(np.count_nonzero(self.array), 2 * self.spec.m)

    def is_zero(self) -> bool:
        return not self.bits

    # -- algebra -------------------------------------------------------

    def rescaled(self, scale: int) -> "GridFunction":
        """Same function at a given scale; rounds down if scale is coarser."""
        if scale >= self.scale:
            sh = scale - self.scale
            return GridFunction._adopt(self.spec, scale, self._wide(self.bits + sh) << sh)
        return GridFunction._adopt(self.spec, scale, self.array >> (self.scale - scale))

    def masked(self, cells: Iterable[int]) -> "GridFunction":
        """Pointwise product with the indicator of a cell set."""
        cells = cell_array(self.spec, cells)
        out = np.zeros_like(self.array)
        out[cells] = self.array[cells]
        return GridFunction._adopt(self.spec, self.scale, out)

    # -- norms and exact sums --------------------------------------------

    def integral(self) -> DyadicRational:
        m2 = 2 * self.spec.m  # n^2 numerators below 2^bits sum below 2^(bits + 2m)
        return DyadicRational(int(self._wide(self.bits + m2).sum()), self.scale + m2)

    def l2_sq(self) -> DyadicRational:
        """Exact integral of the square over the unit square."""
        m2 = 2 * self.spec.m
        a = self._wide(2 * self.bits + m2)
        return DyadicRational(int(np.dot(a, a)), 2 * self.scale + m2)

    def lp_norm(self, p: float) -> float:
        """Reporting-only L^p norm (floats allowed outside the exact core)."""
        area = 0.25 ** self.spec.m
        sc = 2.0 ** self.scale
        return (sum((n / sc) ** p for n in self.array.tolist()) * area) ** (1.0 / p)


class OneVarField(_ScaledValues):
    """Slope field v with v(a, b) = v(a): one dyadic value in [0,1] per column;
    ``family.popular_table`` counts its columns per slope cell."""

    __slots__ = ()
    _what = "field"

    @staticmethod
    def _count(spec: GridSpec) -> int:
        return spec.n

    @staticmethod
    def _check_range(scale: int, lo: int, hi: int) -> None:
        if lo < 0 or hi > 1 << scale:
            raise ValueError("field values must lie in [0,1]")

    def value(self, c: int) -> DyadicRational:
        return DyadicRational(int(self.array[c]), self.scale)


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
