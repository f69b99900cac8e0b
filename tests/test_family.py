"""Family enumeration, density predicates, popularity sets, goodness.

The paper's density definitions -- |G_{J,s}|, |V_R|, density and S(J) --
are read here from the oracle's Fraction count ``oracle.g_count``; the
production counts are refereed through enumerate_family (membership is
density) and, in test_stopping, through the slope assignment.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import dirmax.badness
from dirmax import oracle
from dirmax.dyadic import DyadicRational as D
from dirmax.family import (
    FamilyParams,
    RectangleFamily,
    enumerate_family,
    is_good_collection,
)
from dirmax.geometry import DyadicInterval, GridSpec, Parallelogram, SlopeCell
from dirmax.grids import OneVarField
from dirmax.instances import cascade_field, constant_field, identity_field, random_field, random_grid
from dirmax.badness import badness_table, reformulate_check, shrink_iterate
from dirmax.maximal import apply_T_adjoint, linearize
from dirmax.stopping_time import decomposition_to_json, domination_check, run_generations


def g_count(J: DyadicInterval, j: int, v: OneVarField) -> int:
    """|G_{J,s}| * 2^m for the slope cell s = (level m_w - J.level, j): the
    columns of J whose field value lies in s, counted by the oracle."""
    spec = v.spec
    return oracle.g_count(spec.m, spec.m_w, [x.as_fraction() for x in v.values()], J.level, J.index, j)


def g_measure(J: DyadicInterval, j: int, v: OneVarField) -> Fraction:
    """|G_{J,s}| = g_count / 2^m."""
    return Fraction(g_count(J, j, v), 1 << v.spec.m)


def v_measure(R: Parallelogram, v: OneVarField) -> Fraction:
    """|V_R| = g_count / 2^(m + m_w) over R's base and slope cell."""
    return Fraction(g_count(R.base, R.slope.index, v), 1 << (v.spec.m + v.spec.m_w))


def dense(J: DyadicInterval, j: int, v: OneVarField, delta: D) -> bool:
    """Slope cell j is delta-popular on J: g_count / 2^(m - level) >= delta."""
    return Fraction(g_count(J, j, v), 1 << (v.spec.m - J.level)) >= delta.as_fraction()


def allowable_slopes(J: DyadicInterval, v: OneVarField, delta: D) -> list[SlopeCell]:
    """S(J): the slope cells at J's level that are delta-popular on J."""
    k = v.spec.m_w - J.level
    return [SlopeCell(k, j) for j in range(1 << k) if dense(J, j, v, delta)]


def is_dense(R: Parallelogram, v: OneVarField, delta: D) -> bool:
    """|V_R| >= delta |R|, that is R's slope cell is popular on its base."""
    return dense(R.base, R.slope.index, v, delta)


def enumerated(R: Parallelogram, v: OneVarField, delta: D) -> bool:
    """R is a member of enumerate_family's family: the production density test."""
    fam = enumerate_family(FamilyParams(R.spec, delta), v)
    return list(R.sort_key()) in fam.sort_keys.tolist()


def test_theta_is_the_slope_cell():
    spec = GridSpec(4, 2, False)
    # k=0, s=1/2: window of width w/L = 1 centered at 1/2 is [0, 1)
    R = Parallelogram(spec, DyadicInterval(2, 0), SlopeCell(0, 0), D(0))
    win = R.slope.window()
    assert win.lo == D(0) and win.hi == D(1)
    # k=2, j=0, s=1/8: width 1/4 centered at 1/8 is [0, 1/4)
    R2 = Parallelogram(spec, DyadicInterval(0, 0), SlopeCell(2, 0), D(0))
    win2 = R2.slope.window()
    assert win2.lo == D(0) and win2.hi == D(1, 2)
    # window width always equals w / L(R)
    assert win2.length == spec.w / R2.length


def test_v_measure_degenerate_fields():
    spec = GridSpec(5, 3, False)
    R = Parallelogram(spec, DyadicInterval(2, 1), SlopeCell(1, 0), D(0))
    v_hit = constant_field(spec, R.slope.center)
    assert v_measure(R, v_hit) == R.measure.as_fraction()
    v_miss = constant_field(spec, R.slope.center + D(1, 1))
    assert v_measure(R, v_miss) == 0


def test_v_measure_identity_field():
    # m=5, w=1/8, base [0,1/2), slope window [1/4,1/2): |V_R| = w/4
    spec = GridSpec(5, 3, False)
    R = Parallelogram(spec, DyadicInterval(1, 0), SlopeCell(2, 1), D(0))
    assert R.slope.window().lo == D(1, 2) and R.slope.window().hi == D(1, 1)
    assert v_measure(R, identity_field(spec)) == (spec.w * D(1, 2)).as_fraction()


def test_is_dense():
    spec = GridSpec(5, 3, False)
    R = Parallelogram(spec, DyadicInterval(1, 0), SlopeCell(2, 1), D(0))
    v = identity_field(spec)  # exactly 1/4 of the base's columns qualify
    cases = [
        (constant_field(spec, R.slope.center), D(1), True),
        (constant_field(spec, D(7, 3)), D(1), False),
        (v, D(1, 2), True),
        (v, D(3, 2), False),
    ]
    for field, delta, want in cases:
        assert is_dense(R, field, delta) is want
        assert enumerated(R, field, delta) is want


def test_is_dense_monotone_toward_center():
    # moving column values into the slope window never loses density
    spec = GridSpec(5, 3, False)
    rng = random.Random(77)
    R = Parallelogram(spec, DyadicInterval(1, 0), SlopeCell(2, 1), D(0))
    for _ in range(10):
        v = random_field(spec, rng)
        center = R.slope.center
        moved = [
            center if rng.random() < 0.5 else D(n, v.scale)
            for n in v.nums
        ]
        v2 = OneVarField.from_values(spec, moved)
        assert v_measure(R, v2) >= v_measure(R, v)
        for delta in (D(1, 2), D(1, 1)):
            assert enumerated(R, v, delta) is is_dense(R, v, delta)
            if is_dense(R, v, delta):
                assert is_dense(R, v2, delta) and enumerated(R, v2, delta)


def test_enumerate_matches_bruteforce():
    rng = random.Random(11)
    for seed in range(4):
        spec = GridSpec(4, 2, seed % 2 == 1)
        v = random_field(spec, random.Random(seed))
        for delta in ([D(1), D(1, 1), D(1, 3)][seed % 3], D(1, 70)):
            fam = enumerate_family(FamilyParams(spec, delta), v)
            got = [(r.k, r.base.index, r.slope.index, r.offset.as_fraction()) for r in fam.members]
            want = oracle.enumerate_family(
                spec.m, spec.m_w, spec.offset_exp, delta.as_fraction(),
                [x.as_fraction() for x in v.values()],
            )
            assert got == want
            assert fam.sort_keys.tolist() == [
                [k, i, j, int(b * (1 << spec.offset_exp))] for k, i, j, b in want
            ]
    del rng


def test_enumerate_constant_field_by_hand():
    # v == 0, m=3, w=1/2: dense <=> slope cell index 0.  Containment leaves
    # exactly three members: two of length 1/2 (both halves, offset 0) and
    # one of length 1 (slope 1/4, offset 0).
    spec = GridSpec(3, 1, False)
    v = constant_field(spec, D(0))
    fam = enumerate_family(FamilyParams(spec, D(1, 3)), v)
    keys = [(r.k, r.base.index, r.slope.index, r.offset.render()) for r in fam.members]
    assert keys == [(0, 0, 0, "0"), (0, 1, 0, "0"), (1, 0, 0, "0")]


def test_enumerate_identity_m4_frozen_breakdown():
    # hand-derived census for v(x)=x, m=4, w=1/4, delta=1/8:
    # k=0: 10 members, k=1: 4, k=2: 6
    spec = GridSpec(4, 2, False)
    fam = enumerate_family(FamilyParams(spec, D(1, 3)), identity_field(spec))
    by_k = {}
    for r in fam.members:
        by_k[r.k] = by_k.get(r.k, 0) + 1
    assert by_k == {0: 10, 1: 4, 2: 6}
    assert len(fam) == 20


def test_enumerate_monotone_in_delta():
    spec = GridSpec(4, 2, False)
    v = random_field(spec, random.Random(12))
    keys = {}
    for delta in (D(1, 3), D(1, 1), D(1)):
        fam = enumerate_family(FamilyParams(spec, delta), v)
        keys[delta.exp] = {r.sort_key() for r in fam.members}
    assert keys[0] <= keys[1] <= keys[3]


def test_enumerate_contains_all_full_length_for_identity():
    # identity field, small delta: every admissible full-length rectangle is
    # a member (its slope window always holds a delta-share of columns)
    spec = GridSpec(5, 3, False)
    v = identity_field(spec)
    fam = enumerate_family(FamilyParams(spec, D(1, 3)), v)
    have = {(r.slope.index, r.offset) for r in fam.members if r.k == spec.m_w}
    for j in range(1 << spec.m_w):
        s = SlopeCell(spec.m_w, j)
        top = D(1) - spec.w - s.center
        if top < 0:
            continue
        tmax = top.num << (spec.m_w - top.exp) if spec.m_w >= top.exp else top.num >> (top.exp - spec.m_w)
        for t in range(tmax + 1):
            assert (j, D(t, spec.m_w)) in have


def test_enumerate_guard_and_workers():
    spec = GridSpec(4, 2, False)
    v = identity_field(spec)
    with pytest.raises(ValueError, match="family too large"):
        enumerate_family(FamilyParams(spec, D(1)), v, max_m=3)
    a = enumerate_family(FamilyParams(spec, D(1, 2)), v)
    b = enumerate_family(FamilyParams(spec, D(1, 2)), v)
    assert a.members == b.members


def test_family_export_import_round_trip():
    spec = GridSpec(4, 2, True)
    v = random_field(spec, random.Random(13))
    fam = enumerate_family(FamilyParams(spec, D(1, 1)), v)
    back = RectangleFamily.from_lines(fam.export_lines())
    assert back.members == fam.members
    assert back.params == fam.params


def test_g_measure_and_errors():
    spec = GridSpec(5, 3, False)
    v = identity_field(spec)
    J = DyadicInterval(1, 0)
    s = SlopeCell(2, 1)  # cell [1/4, 1/2)
    assert g_measure(J, s.index, v) == Fraction(1, 4)
    v_c = constant_field(spec, s.center)
    assert g_measure(J, s.index, v_c) == J.length.as_fraction()
    v_out = constant_field(spec, s.center + D(1, 1))
    assert g_measure(J, s.index, v_out) == 0


def test_allowable_slopes_bounds():
    spec = GridSpec(5, 3, False)
    # constant field: at most 2 cells qualify at any level (here exactly 1)
    v = constant_field(spec, D(3, 3))
    for level in range(4):
        J = DyadicInterval(level, 0)
        cells = allowable_slopes(J, v, D(1, 2))
        assert len(cells) <= 2
        for s in cells:
            window = s.window()
            assert window.lo <= D(3, 3) < window.hi
    # |S(J)| <= 2/delta + 2 over random fields
    for seed in range(10):
        vr = random_field(spec, random.Random(100 + seed))
        for delta in (D(1, 1), D(1, 3)):
            for level in range(4):
                for index in range(1 << level):
                    J = DyadicInterval(level, index)
                    got = allowable_slopes(J, vr, delta)
                    assert len(got) <= 2 / float(delta.as_fraction()) + 2


def test_good_collection_witness():
    spec = GridSpec(4, 2, False)
    params = FamilyParams(spec, D(1, 1))
    base = DyadicInterval(0, 0)
    one_slope = RectangleFamily(
        params,
        tuple(
            Parallelogram(spec, base, SlopeCell(2, 0), D(t, 2)) for t in range(3)
        ),
    )
    good, w = is_good_collection(one_slope)
    assert good and w.organized
    assert w.pairs[0][0] == DyadicInterval(0, 0)

    two_slopes_same_base = RectangleFamily(
        params,
        (
            Parallelogram(spec, base, SlopeCell(2, 0), D(0)),
            Parallelogram(spec, base, SlopeCell(2, 1), D(0)),
        ),
    )
    good, w = is_good_collection(two_slopes_same_base)
    assert not good
    assert w.conflict is not None

    # mixed lengths pointing the same way: organized via the nested chain
    nested = RectangleFamily(
        params,
        (
            Parallelogram(spec, base, SlopeCell(2, 0), D(0)),
            Parallelogram(spec, DyadicInterval(1, 0), SlopeCell(1, 0), D(0)),
        ),
    )
    good, w = is_good_collection(nested)
    assert good and w.organized
    assert w.pairs == ((DyadicInterval(0, 0), SlopeCell(2, 0)),)

    # disjoint directions on disjoint halves: organized with two pairs
    split = RectangleFamily(
        params,
        (
            Parallelogram(spec, DyadicInterval(1, 0), SlopeCell(1, 0), D(0)),
            Parallelogram(spec, DyadicInterval(1, 1), SlopeCell(1, 0), D(0)),
        ),
    )
    good, w = is_good_collection(split)
    assert good
    assert w.organized and len(w.pairs) in (1, 2)

    # reordering members does not change the verdict
    good2, w2 = is_good_collection(
        RectangleFamily(params, tuple(reversed(split.members)))
    )
    assert good2 == good and w2.organized == w.organized


def test_family_union_dedup():
    spec = GridSpec(4, 2, False)
    params = FamilyParams(spec, D(1, 1))
    base = DyadicInterval(0, 0)
    a = RectangleFamily(params, (Parallelogram(spec, base, SlopeCell(2, 0), D(0)),))
    u = a.union(a)
    assert len(u) == 1
    b = RectangleFamily(params, (Parallelogram(spec, base, SlopeCell(2, 1), D(0)),))
    assert len(a.union(b)) == 2


def test_family_equality_ignores_how_it_was_built():
    spec = GridSpec(4, 2, False)
    fam = enumerate_family(FamilyParams(spec, D(1, 3)), identity_field(spec))
    same = (fam.subfamily(range(len(fam))), fam.union(fam), RectangleFamily(fam.params, fam.members))
    assert all(other == fam and hash(other) == hash(fam) for other in same)
    assert fam.subfamily(range(1, len(fam))) != fam


def test_family_validation():
    spec = GridSpec(4, 2, False)
    params = FamilyParams(spec, D(1, 1))
    R = Parallelogram(spec, DyadicInterval(0, 0), SlopeCell(2, 0), D(0))
    with pytest.raises(ValueError, match="must be distinct"):
        RectangleFamily(params, (R, R))
    other = Parallelogram(GridSpec(4, 2, True), DyadicInterval(0, 0), SlopeCell(2, 1), D(0))
    with pytest.raises(ValueError, match="grid spec mismatch"):
        RectangleFamily(params, (R, other))
    lines = RectangleFamily(params, (R,)).export_lines()
    assert RectangleFamily.from_lines(lines) == RectangleFamily(params, (R,))
    with pytest.raises(ValueError, match="missing family params header"):
        RectangleFamily.from_lines(lines[1:])
    # slope 7/8 over [0, 1) plus the width 1/4 reaches above 1
    with pytest.raises(ValueError, match="leaves the unit square"):
        RectangleFamily.from_lines([lines[0], "k 2 base 0 slope 3 off 0"])
    with pytest.raises(ValueError, match="must be distinct"):
        RectangleFamily.from_lines(lines + lines[1:])


def test_family_rows_build_no_parallelograms(monkeypatch):
    """Enumeration, linearization, the generations and their JSON read rows only."""
    built = []
    post_init = Parallelogram.__post_init__

    def spy(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Parallelogram, "__post_init__", spy)
    spec = GridSpec(7, 5, False)
    v = cascade_field(spec)
    fam = enumerate_family(FamilyParams(spec, D(1, 1)), v)
    f = random_grid(spec, random.Random(0))
    rho = linearize(f, fam)
    res = run_generations(v, spec.w, D(1, 1), rho)
    decomposition_to_json(res)
    apply_T_adjoint(rho, f)
    domination_check(res, rho, f, max_pieces=1)
    cols = [col for g in res.generations for rec in g.records for col in rec.classify.collections]
    assert cols and all(is_good_collection(col)[0] for col in cols)
    # the badness layer on a smaller grid; no instance here reaches B_R >= 20 * lambda0,
    # so a factor of 1 makes the audit and the bands (union measures) run
    small = GridSpec(5, 3, False)
    sfam = enumerate_family(FamilyParams(small, D(1, 1)), cascade_field(small))
    srho = linearize(random_grid(small, random.Random(1)), sfam)
    E = frozenset(srho.covered_cells())
    monkeypatch.setattr(dirmax.badness, "UNIVERSAL_BADNESS_FACTOR", 1)
    badness_table(E, srho)
    reformulate_check(E, srho)
    trace = shrink_iterate(E, srho, D(5, 2))
    assert trace.bands and trace.diagnostics[0].dichotomy_failures
    assert built == []
    want = oracle.enumerate_family(
        spec.m, spec.m_w, spec.offset_exp, D(1, 1).as_fraction(),
        [x.as_fraction() for x in v.values()],
    )
    got = [(r.k, r.base.index, r.slope.index, r.offset.as_fraction()) for r in fam.members]
    assert got == want
    assert len(built) == len(fam)


def test_subfamily_rejects_out_of_range_indices_and_index_reads_rows():
    spec = GridSpec(4, 2, False)
    fam = enumerate_family(FamilyParams(spec, D(1, 1)), identity_field(spec))
    for bad in ([-1], [len(fam)], [0, len(fam) + 3]):
        with pytest.raises(ValueError, match="member index out of range"):
            fam.subfamily(bad)
    assert fam.subfamily([len(fam) - 1, 0]).members == (fam.members[0], fam.members[-1])
    assert [fam.index(R) for R in fam.members] == list(range(len(fam)))
    other = Parallelogram(GridSpec(4, 2, True), DyadicInterval(2, 0), SlopeCell(0, 0), D(0))
    for R in (other, fam.members[0]):
        with pytest.raises(ValueError, match="not a family member"):
            fam.subfamily(range(1, len(fam))).index(R)
