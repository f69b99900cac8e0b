"""Rectangle families: density filtering, slope popularity, and goodness.

A rectangle of length 2^k * w sees the field through its slope window
theta(R), the width-(w/L) interval centered at its slope -- which is exactly
the rectangle's slope cell.  The popularity sets G_{J,s} use the same cell
window; this is the reading under which chosen popularity sets are pairwise
disjoint and the Carleson packing bound holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicRational
from .geometry import DyadicInterval, GridSpec, Parallelogram, SlopeCell, Window
from .grids import OneVarField

ENUM_M_CAP = 12


@dataclass(frozen=True)
class FamilyParams:
    spec: GridSpec
    delta: DyadicRational

    def __post_init__(self):
        if not (0 < self.delta <= 1):
            raise ValueError("density delta must lie in (0, 1]")


@dataclass(frozen=True)
class RectangleFamily:
    """A finite list of parallelograms in canonical order with provenance.

    ``sort_keys`` holds each member's ``sort_key()`` (k, base index, slope
    index, offset steps) as one int64 row, in member order: the geometry the
    numpy kernels of ``maximal`` read instead of the Parallelogram objects.
    """

    params: FamilyParams
    members: tuple[Parallelogram, ...]
    provenance: str = "constructed"
    sort_keys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        keys = [r.sort_key() for r in self.members]
        if len(set(keys)) != len(keys):
            raise ValueError("family members must be distinct")
        for r in self.members:
            if r.spec != self.params.spec:
                raise ValueError("member grid spec mismatch")
        keys = np.array(keys, dtype=np.int64).reshape(-1, 4)
        object.__setattr__(self, "sort_keys", keys)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def spec(self) -> GridSpec:
        return self.params.spec

    def subfamily(self, indices) -> "RectangleFamily":
        members = tuple(self.members[i] for i in sorted(set(indices)))
        return RectangleFamily(self.params, members, "subfamily")

    def union(self, other: "RectangleFamily") -> "RectangleFamily":
        if self.params != other.params:
            raise ValueError("family parameter mismatch")
        seen = {r.sort_key(): r for r in self.members}
        for r in other.members:
            seen.setdefault(r.sort_key(), r)
        members = tuple(seen[k] for k in sorted(seen))
        return RectangleFamily(self.params, members, "constructed")

    # -- text export: one canonical record per member ---------------------

    def export_lines(self) -> list[str]:
        spec = self.spec
        lines = [
            f"params m {spec.m} mw {spec.m_w} offstep {spec.offstep_code} "
            f"delta {self.delta_render()}"
        ]
        for r in sorted(self.members, key=Parallelogram.sort_key):
            lines.append(
                f"k {r.k} base {r.base.index} slope {r.slope.index} "
                f"off {r.offset.render()}"
            )
        return lines

    def delta_render(self) -> str:
        return self.params.delta.render()

    @classmethod
    def from_lines(cls, lines) -> "RectangleFamily":
        from .geometry import spec_from_offstep

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
            k = int(rec["k"])
            members.append(
                Parallelogram(
                    spec,
                    DyadicInterval(spec.m_w - k, int(rec["base"])),
                    SlopeCell(k, int(rec["slope"])),
                    DyadicRational.parse(rec["off"]),
                )
            )
        return cls(params, tuple(members), "enumerated")


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


def _max_offset_steps(spec: GridSpec, base: DyadicInterval, s: SlopeCell) -> int:
    """Largest t with t*step + slope*sup(base) + w <= 1, or -1 if none."""
    bmax = DyadicRational(1) - spec.w - s.center * base.hi
    if bmax < 0:
        return -1
    q = spec.offset_exp
    if q >= bmax.exp:
        return bmax.num << (q - bmax.exp)
    return bmax.num >> (bmax.exp - q)


def enumerate_family(
    params: FamilyParams,
    v: OneVarField,
    max_m: int = ENUM_M_CAP,
) -> RectangleFamily:
    """All width-w parallelograms in the unit square that are delta-dense for v.

    Deterministic order: k ascending, then base index, slope index, offset.
    A member is dense exactly when its slope cell is delta-popular on its
    base, so each (k, base) block takes one popularity count.
    """
    spec = params.spec
    if spec != v.spec:
        raise ValueError("incompatible grids")
    if spec.m > max_m:
        raise ValueError("family too large")
    step = spec.offset_step
    members = []
    for k in range(spec.m_w + 1):
        for i in range(1 << (spec.m_w - k)):
            base = DyadicInterval(spec.m_w - k, i)
            for j in _popular_counts(base, v, params.delta):
                s = SlopeCell(k, j)
                tmax = _max_offset_steps(spec, base, s)
                for t in range(tmax + 1):
                    members.append(Parallelogram(spec, base, s, t * step))
    return RectangleFamily(params, tuple(members), "enumerated")


# -- slope popularity on intervals (stopping-time inputs) ---------------------


def _slope_level_for(J: DyadicInterval, spec: GridSpec) -> int:
    k = spec.m_w - J.level
    if k < 0:
        raise ValueError("interval/width mismatch")
    return k


def _interval_hits(J: DyadicInterval, v: OneVarField) -> dict[int, int]:
    """|G_{J,s}| * 2^m by s.index: J's columns per slope cell at J's level."""
    spec = v.spec
    shift = spec.m - J.level
    return v.cell_hits(_slope_level_for(J, spec), J.index << shift, (J.index + 1) << shift)


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
