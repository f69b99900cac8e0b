"""Rectangle families: density filtering, slope popularity, and goodness.

A family is its key table: one int64 row (k, base index, slope index,
offset steps) per member, in canonical order, plus its parameters.
Enumeration, subfamilies, unions, export and every numpy kernel read the
rows, and callers name a member by its row index.  Every builder, the file
reader ``from_lines`` too, passes rows to the one constructor, which checks
them (``geometry.check_key_rows``); only ``members`` builds ``Parallelogram``s,
read-only views of those checked rows.
``is_good_collection`` names a conflicting pair by its two member indices.

A rectangle of length 2^k * w sees the field through its slope window
theta(R), the width-(w/L) interval centered at its slope -- which is exactly
the rectangle's slope cell.  The popularity sets G_{J,s} use the same cell
window; this is the reading under which chosen popularity sets are pairwise
disjoint and the Carleson packing bound holds exactly.  ``popular_table``
makes every popularity count, one table per field and delta: enumeration and
the stopping-time assignment both read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dyadic import DyadicRational
from .geometry import DyadicInterval, GridSpec, Parallelogram
from .geometry import check_key_rows, dyadic_inside, max_offset_steps, spec_from_offstep
from .grids import OneVarField

ENUM_M_CAP = 12


@dataclass(frozen=True)
class FamilyParams:
    spec: GridSpec
    delta: DyadicRational

    def __post_init__(self):
        if isinstance(self.delta, int):
            object.__setattr__(self, "delta", DyadicRational(self.delta))
        if not isinstance(self.delta, DyadicRational):
            raise TypeError("density delta must be dyadic")
        if not (0 < self.delta <= 1):
            raise ValueError("density delta must lie in (0, 1]")


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D integer array, in lexicographic order.  (np.unique
    with an axis takes about 12 ms on its first call in a process.)"""
    rows = rows[np.lexsort(rows.T[::-1])]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows if fresh.all() else rows[fresh]  # distinct rows, as in a family, need no copy


class RectangleFamily:
    """A finite list of parallelograms: a read-only int64 table ``sort_keys`` whose
    row i is member i's (k, base index, slope index, offset steps), copied from
    ``rows`` (an (N, 4) integer array or a sequence of 4-int rows) and checked.
    ``members`` builds a ``Parallelogram`` view of each row on first read.  Equal
    families have equal params and rows, however built."""

    def __init__(self, params: FamilyParams, rows):
        keys = np.array(rows if len(rows) else np.empty((0, 4), dtype=np.int64))
        if keys.dtype.kind not in "iu" or keys.shape[1:] != (4,):  # a wrapped uint64 is < 0
            raise ValueError("family key rows must be an (N, 4) integer table")
        keys = keys.astype(np.int64, copy=False)
        check_key_rows(params.spec, keys)
        if len(_unique_rows(keys)) < len(keys):
            raise ValueError("family members must be distinct")
        keys.flags.writeable = False
        self.__dict__.update(params=params, sort_keys=keys)

    def __setattr__(self, name, value):
        raise AttributeError("RectangleFamily is immutable")

    @cached_property
    def members(self) -> tuple[Parallelogram, ...]:
        return tuple(Parallelogram(self.spec, tuple(row)) for row in self.sort_keys.tolist())

    def __len__(self) -> int:
        return len(self.sort_keys)

    def __eq__(self, other):
        if not isinstance(other, RectangleFamily):
            return NotImplemented
        return self.params == other.params and np.array_equal(self.sort_keys, other.sort_keys)

    def __hash__(self):
        return hash((self.params, self.sort_keys.tobytes()))

    def __repr__(self) -> str:
        return f"RectangleFamily({self.params!r}, {len(self)} members)"

    @property
    def spec(self) -> GridSpec:
        return self.params.spec

    def subfamily(self, indices) -> "RectangleFamily":
        rows = np.array(sorted(set(indices)), dtype=np.int64)
        if len(rows) and (rows[0] < 0 or rows[-1] >= len(self)):
            raise ValueError("member index out of range")
        return RectangleFamily(self.params, self.sort_keys[rows])

    def union(self, other: "RectangleFamily") -> "RectangleFamily":
        if self.params != other.params:
            raise ValueError("family parameter mismatch")
        rows = _unique_rows(np.concatenate([self.sort_keys, other.sort_keys]))
        return RectangleFamily(self.params, rows)

    # -- text export: one canonical record per member ---------------------

    def export_lines(self) -> list[str]:
        spec = self.spec
        lines = [
            f"params m {spec.m} mw {spec.m_w} offstep {spec.offstep_code} "
            f"delta {self.params.delta.render()}"
        ]
        for k, i, j, t in self.sort_keys.tolist():
            off = DyadicRational(t, spec.offset_exp).render()
            lines.append(f"k {k} base {i} slope {j} off {off}")
        return lines

    @classmethod
    def from_lines(cls, lines) -> "RectangleFamily":
        """Read export_lines' text into rows; blank lines and lines that start with # are skipped."""
        lines = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
        if not lines or lines[0].split()[0] != "params":
            raise ValueError("missing family params header")
        m, mw, offstep, delta = _keyed(lines[0], ("m", "mw", "offstep", "delta"), 1)
        spec = spec_from_offstep(int(m), int(mw), offstep)
        params = FamilyParams(spec, DyadicRational.parse(delta))
        rows = []
        for ln in lines[1:]:
            k, i, j, off = _keyed(ln, ("k", "base", "slope", "off"))
            off = DyadicRational.parse(off)
            if off.exp > spec.offset_exp:
                raise ValueError("offset is not a multiple of the offset step")
            rows.append([int(k), int(i), int(j), off.num << (spec.offset_exp - off.exp)])
        return cls(params, rows)


def _keyed(line: str, keys: tuple[str, ...], skip: int = 0) -> list[str]:
    """The values of ``keys`` on a line that, after ``skip`` words, holds each once and nothing else."""
    parts = line.split()[skip:]
    pairs = dict(zip(parts[0::2], parts[1::2]))
    if len(parts) != 2 * len(keys) or pairs.keys() != set(keys):
        raise ValueError(f"family line {line.strip()!r} must hold {', '.join(keys)} once each")
    return [pairs[key] for key in keys]


def enumerate_family(
    params: FamilyParams,
    v: OneVarField,
    max_m: int = ENUM_M_CAP,
) -> RectangleFamily:
    """All width-w parallelograms in the unit square that are delta-dense for v.

    Deterministic order: k ascending, then base index, slope index, offset.
    A member is dense exactly when its slope cell is delta-popular on its
    base, so the popular (k, base, slope) runs are the nonzero entries of
    ``popular_table``, and each gives the offset run 0..tmax as rows at once.
    """
    spec = params.spec
    if spec != v.spec:
        raise ValueError("incompatible grids")
    if spec.m > max_m:
        raise ValueError("family too large")
    tables = popular_table(v, params.delta)
    runs = [
        (spec.m_w - level, i, j)
        for level in reversed(range(spec.m_w + 1))
        for i, j in np.argwhere(tables[level]).tolist()
    ]
    return RectangleFamily(params, _offset_rows(spec, runs))


def _offset_rows(spec: GridSpec, runs) -> np.ndarray:
    """Key rows (k, i, j, t) for t = 0..tmax of each run (k, i, j), in run order."""
    runs = np.array(runs, dtype=np.int64).reshape(-1, 3)
    size = np.maximum(max_offset_steps(spec, runs[:, 1], runs[:, 2]) + 1, 0)
    t = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    return np.column_stack([np.repeat(runs, size, axis=0), t])


# -- slope popularity: one table per field and delta --------------------------


def popular_table(v: OneVarField, delta: DyadicRational) -> list[np.ndarray]:
    """|G_{J,s}| * 2^m of every delta-popular (J, s), one table per level:
    entry (i, j) of table ``level`` is for J = [i, i+1) / 2^level and slope
    cell j at level m_w - level, and is 0 where s is not popular on J."""
    m, mw = v.spec.m, v.spec.m_w
    # each column's level-m_w cell, (v << m_w) >> scale; v = 1 lands on 2^m_w, which is no cell
    sh = v.scale - mw  # if negative, v <= 2^scale makes every v << -sh at most 2^m_w
    cells = (v.array >> sh if sh >= 0 else v.array << -sh).astype(np.int64)
    cols = np.flatnonzero(cells < 1 << mw)
    cells, tables = cells[cols], []
    for level in range(mw + 1):
        counts = np.bincount(
            (cols >> (m - level) << (mw - level)) + (cells >> level), minlength=1 << mw
        ).reshape(1 << level, -1)
        need = -(-delta.num << (m - level) >> delta.exp)  # ceil(delta 2^(m - level))
        tables.append(np.where(counts >= need, counts, 0))
    return tables


# -- goodness ----------------------------------------------------------------


@dataclass(frozen=True)
class GoodnessWitness:
    """Structural evidence for (or against) goodness of a family.

    organized means: there are disjoint dyadic intervals J and slope cells
    s_J with every member projecting into some J and slope cell containing
    s_J -- the family points in one direction per interval.
    """

    organized: bool
    pairs: tuple[tuple[DyadicInterval, DyadicInterval], ...] = ()  # (J, slope cell s_J)
    conflict: tuple[int, int] | None = None  # two member indices: one base, two slopes


def _finest_chain(cells: np.ndarray) -> tuple[int, int] | None:
    """The finest (level, index) row if the rows form a containment chain, else None."""
    uniq = _unique_rows(cells)
    if not len(uniq) or not dyadic_inside(*uniq[1:].T, *uniq[:-1].T).all():
        return None
    return tuple(uniq[-1].tolist())


def is_good_collection(fam: RectangleFamily) -> tuple[bool, GoodnessWitness]:
    """Equal horizontal projections must force equal slopes; witness organization."""
    if not len(fam):
        return True, GoodnessWitness(True, ())
    k, i, j, _ = fam.sort_keys.T
    level = fam.spec.m_w - k
    bases, first, group = np.unique(
        np.column_stack([level, i]), axis=0, return_index=True, return_inverse=True
    )
    # a conflict: the first member of the first base (in member order) with
    # two slopes, and that base's first member of another slope
    head = first[group.ravel()]
    split = np.flatnonzero(j != j[head])
    good, conflict = not len(split), None
    if not good:
        a = head[split].min()
        conflict = (int(a), int(split[head[split] == a][0]))

    # One global direction chain first, else one chain per maximal base.
    slopes = np.column_stack([k, j])
    top = _finest_chain(slopes)
    if top is not None:
        return good, GoodnessWitness(True, ((DyadicInterval(0, 0), DyadicInterval(*top)),), conflict)
    pairs = []
    for row, (lv, ix) in enumerate(bases.tolist()):
        over = dyadic_inside(lv, ix, bases[:, 0], bases[:, 1])
        over[row] = False
        if over.any():
            continue
        s = _finest_chain(slopes[dyadic_inside(level, i, lv, ix)])
        if s is None:
            return good, GoodnessWitness(False, (), conflict)
        pairs.append((DyadicInterval(lv, ix), DyadicInterval(*s)))
    return good, GoodnessWitness(True, tuple(pairs), conflict)
