"""Family enumeration, density predicates, popularity sets, goodness."""

from __future__ import annotations

import random

import pytest

from dirmax import oracle
from dirmax.dyadic import DyadicRational as D
from dirmax.family import (
    FamilyParams,
    RectangleFamily,
    allowable_slopes,
    enumerate_family,
    g_measure,
    is_dense,
    is_good_collection,
    theta,
    v_measure,
)
from dirmax.geometry import DyadicInterval, GridSpec, Parallelogram, SlopeCell
from dirmax.instances import cascade_field, constant_field, identity_field, random_field, random_grid
from dirmax.maximal import linearize
from dirmax.stopping_time import decomposition_to_json, run_generations


def test_theta_is_the_slope_cell():
    spec = GridSpec(4, 2, False)
    # k=0, s=1/2: window of width w/L = 1 centered at 1/2 is [0, 1)
    R = Parallelogram(spec, DyadicInterval(2, 0), SlopeCell(0, 0), D(0))
    win = theta(R)
    assert win.lo == D(0) and win.hi == D(1)
    # k=2, j=0, s=1/8: width 1/4 centered at 1/8 is [0, 1/4)
    R2 = Parallelogram(spec, DyadicInterval(0, 0), SlopeCell(2, 0), D(0))
    win2 = theta(R2)
    assert win2.lo == D(0) and win2.hi == D(1, 2)
    # window width always equals w / L(R)
    assert win2.length == spec.w / R2.length


def test_v_measure_degenerate_fields():
    spec = GridSpec(5, 3, False)
    R = Parallelogram(spec, DyadicInterval(2, 1), SlopeCell(1, 0), D(0))
    v_hit = constant_field(spec, R.slope.center)
    assert v_measure(R, v_hit) == R.measure
    v_miss = constant_field(spec, R.slope.center + D(1, 1))
    assert v_measure(R, v_miss) == D(0)


def test_v_measure_identity_field():
    # m=5, w=1/8, base [0,1/2), slope window [1/4,1/2): |V_R| = w/4
    spec = GridSpec(5, 3, False)
    R = Parallelogram(spec, DyadicInterval(1, 0), SlopeCell(2, 1), D(0))
    assert theta(R).lo == D(1, 2) and theta(R).hi == D(1, 1)
    assert v_measure(R, identity_field(spec)) == spec.w * D(1, 2)


def test_is_dense():
    spec = GridSpec(5, 3, False)
    R = Parallelogram(spec, DyadicInterval(1, 0), SlopeCell(2, 1), D(0))
    assert is_dense(R, constant_field(spec, R.slope.center), D(1))
    assert not is_dense(R, constant_field(spec, D(7, 3)), D(1))
    # identity field: exactly 1/4 of columns qualify
    v = identity_field(spec)
    assert is_dense(R, v, D(1, 2))
    assert not is_dense(R, v, D(3, 2))


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
        from dirmax.grids import OneVarField

        v2 = OneVarField.from_values(spec, moved)
        assert v_measure(R, v2) >= v_measure(R, v)
        for delta in (D(1, 2), D(1, 1)):
            if is_dense(R, v, delta):
                assert is_dense(R, v2, delta)


def test_enumerate_matches_bruteforce():
    rng = random.Random(11)
    for seed in range(4):
        spec = GridSpec(4, 2, seed % 2 == 1)
        v = random_field(spec, random.Random(seed))
        delta = [D(1), D(1, 1), D(1, 3)][seed % 3]
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
    assert g_measure(J, s, v, spec.w) == D(1, 2)
    v_c = constant_field(spec, s.center)
    assert g_measure(J, s, v_c, spec.w) == J.length
    v_out = constant_field(spec, s.center + D(1, 1))
    assert g_measure(J, s, v_out, spec.w) == D(0)
    with pytest.raises(ValueError, match="slope level mismatch"):
        g_measure(J, SlopeCell(1, 0), v, spec.w)
    with pytest.raises(ValueError, match="interval/width mismatch"):
        g_measure(J, s, v, D(1, 2))
    with pytest.raises(ValueError, match="interval/width mismatch"):
        g_measure(DyadicInterval(4, 0), SlopeCell(0, 0), v, spec.w)


def test_allowable_slopes_bounds():
    spec = GridSpec(5, 3, False)
    # constant field: at most 2 cells qualify at any level (here exactly 1)
    v = constant_field(spec, D(3, 3))
    for level in range(4):
        J = DyadicInterval(level, 0)
        cells = allowable_slopes(J, v, spec.w, D(1, 2))
        assert len(cells) <= 2
        for s in cells:
            assert s.window().contains_value(D(3, 3))
    # |S(J)| <= 2/delta + 2 over random fields
    for seed in range(10):
        vr = random_field(spec, random.Random(100 + seed))
        for delta in (D(1, 1), D(1, 3)):
            for level in range(4):
                for index in range(1 << level):
                    J = DyadicInterval(level, index)
                    got = allowable_slopes(J, vr, spec.w, delta)
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


def test_family_validation():
    spec = GridSpec(4, 2, False)
    params = FamilyParams(spec, D(1, 1))
    R = Parallelogram(spec, DyadicInterval(0, 0), SlopeCell(2, 0), D(0))
    with pytest.raises(ValueError, match="must be distinct"):
        RectangleFamily(params, (R, R))
    other = Parallelogram(GridSpec(4, 2, True), DyadicInterval(0, 0), SlopeCell(2, 1), D(0))
    with pytest.raises(ValueError, match="grid spec mismatch"):
        RectangleFamily(params, (R, other))
    lines = RectangleFamily(params, (R,), "enumerated").export_lines()
    assert RectangleFamily.from_lines(lines) == RectangleFamily(params, (R,), "enumerated")
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
    rho = linearize(random_grid(spec, random.Random(0)), fam)
    decomposition_to_json(run_generations(v, spec.w, D(1, 1), rho))
    assert built == []
    want = oracle.enumerate_family(
        spec.m, spec.m_w, spec.offset_exp, D(1, 1).as_fraction(),
        [x.as_fraction() for x in v.values()],
    )
    got = [(r.k, r.base.index, r.slope.index, r.offset.as_fraction()) for r in fam.members]
    assert got == want
    assert len(built) == len(fam)
