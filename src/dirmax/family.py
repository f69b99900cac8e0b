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
disjoint and the Carleson packing bound holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dyadic import DyadicRational
from .geometry import DyadicInterval, GridSpec, Parallelogram, SlopeCell, Window, spec_from_offstep
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
    """A finite list of parallelograms in canonical order with provenance.

    The family is its int64 key table ``sort_keys``: row i is member i's
    ``sort_key()`` (k, base index, slope index, offset steps).  ``members``
    is the tuple the family was constructed from, else built from the rows
    on first read.  Equal families have equal params, rows and provenance.
    """

    def __init__(self, params: FamilyParams, members, provenance: str = "constructed"):
        members = tuple(members)
        if any(r.spec != params.spec for r in members):
            raise ValueError("member grid spec mismatch")
        keys = np.array([r.sort_key() for r in members], dtype=np.int64).reshape(-1, 4)
        self._init(params, keys, provenance)
        self.__dict__["members"] = members

    @classmethod
    def _adopt(cls, params: FamilyParams, keys: np.ndarray, provenance: str) -> "RectangleFamily":
        """A family over key rows this package built from valid members."""
        fam = cls.__new__(cls)
        fam._init(params, keys, provenance)
        return fam

    def _init(self, params: FamilyParams, keys: np.ndarray, provenance: str) -> None:
        if _lex_sorted(keys)[1].any():
            raise ValueError("family members must be distinct")
        keys.flags.writeable = False
        self.__dict__.update(params=params, sort_keys=keys, provenance=provenance)

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
        return (
            self.params == other.params
            and self.provenance == other.provenance
            and np.array_equal(self.sort_keys, other.sort_keys)
        )

    def __hash__(self):
        return hash((self.params, self.provenance, self.sort_keys.tobytes()))

    def __repr__(self) -> str:
        return f"RectangleFamily({self.params!r}, {len(self)} members, {self.provenance!r})"

    @property
    def spec(self) -> GridSpec:
        return self.params.spec

    def subfamily(self, indices) -> "RectangleFamily":
        rows = np.array(sorted(set(indices)), dtype=np.int64)
        return RectangleFamily._adopt(self.params, self.sort_keys[rows], "subfamily")

    def union(self, other: "RectangleFamily") -> "RectangleFamily":
        if self.params != other.params:
            raise ValueError("family parameter mismatch")
        rows, dup = _lex_sorted(np.concatenate([self.sort_keys, other.sort_keys]))
        return RectangleFamily._adopt(self.params, rows[~dup], "constructed")

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
        return cls(params, tuple(members), "enumerated")


def _member(spec: GridSpec, k: int, i: int, j: int, offset: DyadicRational) -> Parallelogram:
    """The member of key row (k, i, j, offset steps), with the offset as a value."""
    return Parallelogram(spec, DyadicInterval(spec.m_w - k, i), SlopeCell(k, j), offset)


def theta(R: Parallelogram) -> Window:
    """Slope window of R: width w/L(R) centered at the slope = R's slope cell."""
    return R.slope.window()


def v_measure(R: Parallelogram, v: OneVarField) -> DyadicRational:
    """|V_R|: measure of the part of R whose columns see the field in theta(R)."""
    if R.spec != v.spec:
        raise ValueError("incompatible grids")
    count = _interval_hits(R.base, v).get(R.slope.index, 0)
    return DyadicRational(count, R.spec.m + R.spec.m_w)


def is_dense(R: Parallelogram, v: OneVarField, delta: DyadicRational) -> bool:
    """Exact test |V_R| >= delta * |R|."""
    if R.spec != v.spec:
        raise ValueError("incompatible grids")
    return R.slope.index in _popular_counts(R.base, v, delta)


def _max_offset_steps(spec: GridSpec, i, j):
    """Largest t with t*step + slope*sup(base) + w <= 1, negative if none, for
    base index i and slope index j of one length level (ints or arrays)."""
    # 1 - w - slope*sup(base) = room / 2^(m_w + 1), since |base| = 2^k * w
    room = (2 << spec.m_w) - 2 - (2 * j + 1) * (i + 1)
    return room >> (spec.m_w + 1 - spec.offset_exp)


def enumerate_family(
    params: FamilyParams,
    v: OneVarField,
    max_m: int = ENUM_M_CAP,
) -> RectangleFamily:
    """All width-w parallelograms in the unit square that are delta-dense for v.

    Deterministic order: k ascending, then base index, slope index, offset.
    A member is dense exactly when its slope cell is delta-popular on its
    base, so each (k, base) block takes one popularity count, and each
    popular (k, base, slope) gives the offset run 0..tmax as rows at once.
    """
    spec = params.spec
    if spec != v.spec:
        raise ValueError("incompatible grids")
    if spec.m > max_m:
        raise ValueError("family too large")
    runs = [
        (k, i, j)
        for k in range(spec.m_w + 1)
        for i in range(1 << (spec.m_w - k))
        for j in _popular_counts(DyadicInterval(spec.m_w - k, i), v, params.delta)
    ]
    return RectangleFamily._adopt(params, _offset_rows(spec, runs), "enumerated")


def _offset_rows(spec: GridSpec, runs) -> np.ndarray:
    """Key rows (k, i, j, t) for t = 0..tmax of each run (k, i, j), in run order."""
    runs = np.array(runs, dtype=np.int64).reshape(-1, 3)
    size = np.maximum(_max_offset_steps(spec, runs[:, 1], runs[:, 2]) + 1, 0)
    t = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    return np.column_stack([np.repeat(runs, size, axis=0), t])


# -- slope popularity on intervals (stopping-time inputs) ---------------------


def _slope_level_for(J: DyadicInterval, spec: GridSpec) -> int:
    k = spec.m_w - J.level
    if k < 0:
        raise ValueError("interval/width mismatch")
    return k


def _interval_hits(J: DyadicInterval, v: OneVarField) -> dict[int, int]:
    """|G_{J,s}| * 2^m by s.index: J's columns per slope cell at J's level."""
    cols = J.columns(v.spec.m)
    return v.cell_hits(_slope_level_for(J, v.spec), cols.start, cols.stop)


def _popular_counts(
    J: DyadicInterval, v: OneVarField, delta: DyadicRational
) -> dict[int, int]:
    """The delta-popular slope cells of J, ascending, with their column counts."""
    hits = _interval_hits(J, v)
    shift = v.spec.m - J.level
    # count / 2^(m - level) >= dn / 2^de
    return {
        j: hits[j] for j in sorted(hits) if (hits[j] << delta.exp) >= (delta.num << shift)
    }


def g_measure(
    J: DyadicInterval, s: SlopeCell, v: OneVarField, w: DyadicRational
) -> DyadicRational:
    """|G_{J,s}|: measure of columns of J whose field value lies in s's cell."""
    spec = v.spec
    if w != spec.w:
        raise ValueError("interval/width mismatch")
    if s.level != _slope_level_for(J, spec):
        raise ValueError("slope level mismatch")
    return DyadicRational(_interval_hits(J, v).get(s.index, 0), spec.m)


def allowable_slopes(
    J: DyadicInterval, v: OneVarField, w: DyadicRational, delta: DyadicRational
) -> tuple[SlopeCell, ...]:
    """S(J): slope cells at J's level that are delta-popular on J."""
    spec = v.spec
    if w != spec.w:
        raise ValueError("interval/width mismatch")
    k = _slope_level_for(J, spec)
    return tuple(SlopeCell(k, j) for j in _popular_counts(J, v, delta))


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


def _finest_chain(cells: list[SlopeCell]) -> SlopeCell | None:
    """The finest cell if the cells form a containment chain, else None."""
    uniq = sorted(set(cells), key=lambda s: (s.level, s.index))
    for a, b in zip(uniq, uniq[1:]):
        if not a.contains(b):
            return None
    return uniq[-1] if uniq else None


def is_good_collection(fam: RectangleFamily) -> tuple[bool, GoodnessWitness]:
    """Equal horizontal projections must force equal slopes; witness organization."""
    by_base: dict[DyadicInterval, list[Parallelogram]] = {}
    for r in fam.members:
        by_base.setdefault(r.base, []).append(r)
    good = True
    conflict = None
    for members in by_base.values():
        slopes = {r.slope for r in members}
        if len(slopes) > 1:
            good = False
            a = members[0]
            b = next(r for r in members if r.slope != a.slope)
            conflict = (a, b)
            break

    if not fam.members:
        return good, GoodnessWitness(True, ())

    # One global direction chain first, else one chain per maximal base.
    all_cells = [r.slope for r in fam.members]
    top = _finest_chain(all_cells)
    if top is not None:
        return good, GoodnessWitness(True, ((DyadicInterval(0, 0), top),), conflict)

    bases = sorted(by_base, key=lambda J: (J.level, J.index))
    maximal = [J for J in bases if not any(K.strictly_contains(J) for K in bases)]
    pairs = []
    for J in maximal:
        cells = [r.slope for r in fam.members if J.contains(r.base)]
        s = _finest_chain(cells)
        if s is None:
            return good, GoodnessWitness(False, (), conflict)
        pairs.append((J, s))
    return good, GoodnessWitness(True, tuple(pairs), conflict)
