"""Rectangle families: density filtering, slope popularity, and goodness.

A family is its key table: one int64 row (k, base index, slope index,
offset steps) per member, in canonical order, plus its parameters.
Enumeration, subfamilies, unions, export and every numpy kernel read the
rows; ``Parallelogram`` objects are built only when ``members`` is first
read, at the API edges.

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
from .geometry import DyadicInterval, GridSpec, Parallelogram, SlopeCell
from .geometry import dyadic_inside, max_offset_steps, spec_from_offstep
from .grids import OneVarField

ENUM_M_CAP = 12


@dataclass(frozen=True)
class FamilyParams:
    spec: GridSpec
    delta: DyadicRational

    def __post_init__(self):
        if not (0 < self.delta <= 1):
            raise ValueError("density delta must lie in (0, 1]")


def _lex_sorted(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows in canonical (lexicographic) order, and which equal their predecessor."""
    rows = keys[np.lexsort(keys.T[::-1])]
    dup = np.zeros(len(rows), dtype=bool)
    dup[1:] = (rows[1:] == rows[:-1]).all(axis=1)
    return rows, dup


class RectangleFamily:
    """A finite list of parallelograms in canonical order.

    The family is its int64 key table ``sort_keys``: row i is member i's
    ``sort_key()`` (k, base index, slope index, offset steps).  ``members``
    is the tuple the family was constructed from, else built from the rows
    on first read.  Equal families have equal params and rows, however built.
    """

    def __init__(self, params: FamilyParams, members):
        members = tuple(members)
        if any(r.spec != params.spec for r in members):
            raise ValueError("member grid spec mismatch")
        keys = np.array([r.sort_key() for r in members], dtype=np.int64).reshape(-1, 4)
        self._init(params, keys)
        self.__dict__["members"] = members

    @classmethod
    def _adopt(cls, params: FamilyParams, keys: np.ndarray) -> "RectangleFamily":
        """A family over key rows this package built from valid members."""
        fam = cls.__new__(cls)
        fam._init(params, keys)
        return fam

    def _init(self, params: FamilyParams, keys: np.ndarray) -> None:
        if _lex_sorted(keys)[1].any():
            raise ValueError("family members must be distinct")
        keys.flags.writeable = False
        self.__dict__.update(params=params, sort_keys=keys)

    def __setattr__(self, name, value):
        raise AttributeError("RectangleFamily is immutable")

    @cached_property
    def members(self) -> tuple[Parallelogram, ...]:
        spec = self.spec
        rows = self.sort_keys.tolist()
        return tuple(_member(spec, k, i, j, DyadicRational(t, spec.offset_exp)) for k, i, j, t in rows)

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

    def index(self, R: Parallelogram) -> int:
        """The index of member R, by a lookup of its key row."""
        hit = np.flatnonzero((self.sort_keys == R.sort_key()).all(axis=1))
        if R.spec != self.spec or not len(hit):
            raise ValueError("rectangle is not a family member")
        return int(hit[0])

    def subfamily(self, indices) -> "RectangleFamily":
        rows = np.array(sorted(set(indices)), dtype=np.int64)
        if len(rows) and (rows[0] < 0 or rows[-1] >= len(self)):
            raise ValueError("member index out of range")
        return RectangleFamily._adopt(self.params, self.sort_keys[rows])

    def union(self, other: "RectangleFamily") -> "RectangleFamily":
        if self.params != other.params:
            raise ValueError("family parameter mismatch")
        rows, dup = _lex_sorted(np.concatenate([self.sort_keys, other.sort_keys]))
        return RectangleFamily._adopt(self.params, rows[~dup])

    # -- text export: one canonical record per member ---------------------

    def export_lines(self) -> list[str]:
        spec = self.spec
        lines = [
            f"params m {spec.m} mw {spec.m_w} offstep {spec.offstep_code} "
            f"delta {self.params.delta.render()}"
        ]
        for k, i, j, t in _lex_sorted(self.sort_keys)[0].tolist():
            off = DyadicRational(t, spec.offset_exp).render()
            lines.append(f"k {k} base {i} slope {j} off {off}")
        return lines

    @classmethod
    def from_lines(cls, lines) -> "RectangleFamily":
        """Read export_lines' text; every record is validated as a Parallelogram."""
        lines = [ln for ln in lines if ln.strip()]
        head = lines[0].split()
        if head[0] != "params":
            raise ValueError("missing family params header")
        fields = dict(zip(head[1::2], head[2::2]))
        spec = spec_from_offstep(int(fields["m"]), int(fields["mw"]), fields["offstep"])
        params = FamilyParams(spec, DyadicRational.parse(fields["delta"]))
        members = []
        for ln in lines[1:]:
            parts = ln.split()
            rec = dict(zip(parts[0::2], parts[1::2]))
            off = DyadicRational.parse(rec["off"])
            members.append(_member(spec, int(rec["k"]), int(rec["base"]), int(rec["slope"]), off))
        return cls(params, tuple(members))


def _member(spec: GridSpec, k: int, i: int, j: int, offset: DyadicRational) -> Parallelogram:
    """The member of key row (k, i, j, offset steps), with the offset as a value."""
    return Parallelogram(spec, DyadicInterval(spec.m_w - k, i), SlopeCell(k, j), offset)


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
    return RectangleFamily._adopt(params, _offset_rows(spec, runs))


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
    # each column's level-m_w cell; v = 1 lands on 2^m_w, which is no cell
    cells = np.array([(n << mw) >> v.scale for n in v.nums], dtype=np.int64)
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
    pairs: tuple[tuple[DyadicInterval, SlopeCell], ...] = ()
    conflict: tuple[Parallelogram, Parallelogram] | None = None


def _finest_chain(cells: np.ndarray) -> tuple[int, int] | None:
    """The finest (level, index) row if the rows form a containment chain, else None."""
    uniq = np.unique(cells, axis=0)
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
        conflict = fam.subfamily([a, split[head[split] == a][0]]).members

    # One global direction chain first, else one chain per maximal base.
    slopes = np.column_stack([k, j])
    top = _finest_chain(slopes)
    if top is not None:
        return good, GoodnessWitness(True, ((DyadicInterval(0, 0), SlopeCell(*top)),), conflict)
    pairs = []
    for row, (lv, ix) in enumerate(bases.tolist()):
        over = dyadic_inside(lv, ix, bases[:, 0], bases[:, 1])
        over[row] = False
        if over.any():
            continue
        s = _finest_chain(slopes[dyadic_inside(level, i, lv, ix)])
        if s is None:
            return good, GoodnessWitness(False, (), conflict)
        pairs.append((DyadicInterval(lv, ix), SlopeCell(*s)))
    return good, GoodnessWitness(True, tuple(pairs), conflict)
