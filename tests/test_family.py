"""Family enumeration, density predicates, popularity sets, goodness.

The paper's density definitions -- |G_{J,s}|, |V_R|, density and S(J) --
are read here from the oracle's Fraction count ``oracle.g_count``; the
production counts are refereed through enumerate_family (membership is
density) and, in test_stopping, through the slope assignment.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
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
from dirmax.geometry import DyadicInterval, GridSpec, Parallelogram, max_offset_steps
from dirmax.grids import OneVarField
from dirmax.instances import (
    cascade_field,
    constant_field,
    identity_field,
    make_kakeya_bundle,
    organized_collections,
    random_field,
    random_grid,
)
from dirmax.badness import badness_table, reformulate_check, shrink_iterate
from dirmax.maximal import apply_T_adjoint, linearize
from dirmax.stopping_time import decomposition_to_json, domination_check, run_generations
from dirmax.verify import raw_members


def g_count(J: DyadicInterval, j: int, v: OneVarField) -> int:
    """|G_{J,s}| * 2^m for the slope cell s = (level m_w - J.level, j): the
    columns of J whose field value lies in s, counted by the oracle."""
    spec = v.spec
    return oracle.g_count(spec.m, spec.m_w, [x.as_fraction() for x in v.values()], J.level, J.index, j)


def g_measure(J: DyadicInterval, j: int, v: OneVarField) -> Fraction:
    """|G_{J,s}| = g_count / 2^m."""
    return Fraction(g_count(J, j, v), 1 << v.spec.m)


def base_and_slope(spec: GridSpec, row) -> tuple[DyadicInterval, DyadicInterval]:
    """The base interval and slope cell of a key row (k, i, j, t)."""
    k, i, j, _ = row
    return DyadicInterval(spec.m_w - k, i), DyadicInterval(k, j)


def v_measure(row, v: OneVarField) -> Fraction:
    """|V_R| = g_count / 2^(m + m_w) over R's base and slope cell."""
    return Fraction(g_count(base_and_slope(v.spec, row)[0], row[2], v), 1 << (v.spec.m + v.spec.m_w))


def dense(J: DyadicInterval, j: int, v: OneVarField, delta: D) -> bool:
    """Slope cell j is delta-popular on J: g_count / 2^(m - level) >= delta."""
    return Fraction(g_count(J, j, v), 1 << (v.spec.m - J.level)) >= delta.as_fraction()


def allowable_slopes(J: DyadicInterval, v: OneVarField, delta: D) -> list[DyadicInterval]:
    """S(J): the slope cells at J's level that are delta-popular on J."""
    k = v.spec.m_w - J.level
    return [DyadicInterval(k, j) for j in range(1 << k) if dense(J, j, v, delta)]


def is_dense(row, v: OneVarField, delta: D) -> bool:
    """|V_R| >= delta |R|, that is R's slope cell is popular on its base."""
    return dense(base_and_slope(v.spec, row)[0], row[2], v, delta)


def enumerated(row, v: OneVarField, delta: D) -> bool:
    """R is a member of enumerate_family's family: the production density test."""
    fam = enumerate_family(FamilyParams(v.spec, delta), v)
    return list(row) in fam.sort_keys.tolist()


def test_theta_is_the_slope_cell():
    spec = GridSpec(4, 2, False)
    RectangleFamily(FamilyParams(spec, D(1)), [(0, 0, 0, 0), (2, 0, 0, 0)])  # both rows are members
    # k=0, s=1/2: window of width w/L = 1 centered at 1/2 is [0, 1)
    _, slope = base_and_slope(spec, (0, 0, 0, 0))
    assert slope.lo == D(0) and slope.hi == D(1)
    # k=2, j=0, s=1/8: width 1/4 centered at 1/8 is [0, 1/4)
    base2, slope2 = base_and_slope(spec, (2, 0, 0, 0))
    assert slope2.lo == D(0) and slope2.hi == D(1, 2)
    # window width always equals w / L(R)
    assert slope2.length == spec.w / base2.length


def test_v_measure_degenerate_fields():
    spec = GridSpec(5, 3, False)
    row = (1, 1, 0, 0)  # base [1/4, 1/2), slope cell [0, 1/2)
    [member] = raw_members(RectangleFamily(FamilyParams(spec, D(1)), [row]))
    center = base_and_slope(spec, row)[1].center
    assert v_measure(row, constant_field(spec, center)) == oracle.member_measure(spec.m_w, member)
    assert v_measure(row, constant_field(spec, center + D(1, 1))) == 0


def test_v_measure_identity_field():
    # m=5, w=1/8, base [0,1/2), slope window [1/4,1/2): |V_R| = w/4
    spec = GridSpec(5, 3, False)
    row = (2, 0, 1, 0)
    _, slope = base_and_slope(spec, row)
    assert slope.lo == D(1, 2) and slope.hi == D(1, 1)
    assert v_measure(row, identity_field(spec)) == (spec.w * D(1, 2)).as_fraction()


def test_is_dense():
    spec = GridSpec(5, 3, False)
    row = (2, 0, 1, 0)  # base [0, 1/2), slope cell [1/4, 1/2)
    v = identity_field(spec)  # exactly 1/4 of the base's columns qualify
    cases = [
        (constant_field(spec, base_and_slope(spec, row)[1].center), D(1), True),
        (constant_field(spec, D(7, 3)), D(1), False),
        (v, D(1, 2), True),
        (v, D(3, 2), False),
    ]
    for field, delta, want in cases:
        assert is_dense(row, field, delta) is want
        assert enumerated(row, field, delta) is want


def test_is_dense_monotone_toward_center():
    # moving column values into the slope window never loses density
    spec = GridSpec(5, 3, False)
    rng = random.Random(77)
    row = (2, 0, 1, 0)
    for _ in range(10):
        v = random_field(spec, rng)
        center = base_and_slope(spec, row)[1].center
        moved = [
            center if rng.random() < 0.5 else D(n, v.scale)
            for n in v.nums
        ]
        v2 = OneVarField.from_values(spec, moved)
        assert v_measure(row, v2) >= v_measure(row, v)
        for delta in (D(1, 2), D(1, 1)):
            assert enumerated(row, v, delta) is is_dense(row, v, delta)
            if is_dense(row, v, delta):
                assert is_dense(row, v2, delta) and enumerated(row, v2, delta)


def test_enumerate_matches_bruteforce():
    rng = random.Random(11)
    for seed in range(4):
        spec = GridSpec(4, 2, seed % 2 == 1)
        v = random_field(spec, random.Random(seed))
        for delta in ([D(1), D(1, 1), D(1, 3)][seed % 3], D(1, 70)):
            fam = enumerate_family(FamilyParams(spec, delta), v)
            got = raw_members(fam)
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
    assert fam.sort_keys.tolist() == [[0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]]


def test_enumerate_identity_m4_frozen_breakdown():
    # hand-derived census for v(x)=x, m=4, w=1/4, delta=1/8:
    # k=0: 10 members, k=1: 4, k=2: 6
    spec = GridSpec(4, 2, False)
    fam = enumerate_family(FamilyParams(spec, D(1, 3)), identity_field(spec))
    assert np.bincount(fam.sort_keys[:, 0]).tolist() == [10, 4, 6]  # members per k
    assert len(fam) == 20


def test_enumerate_monotone_in_delta():
    spec = GridSpec(4, 2, False)
    v = random_field(spec, random.Random(12))
    keys = {}
    for delta in (D(1, 3), D(1, 1), D(1)):
        fam = enumerate_family(FamilyParams(spec, delta), v)
        keys[delta.exp] = {tuple(row) for row in fam.sort_keys.tolist()}
    assert keys[0] <= keys[1] <= keys[3]


def test_enumerate_contains_all_full_length_for_identity():
    # identity field, small delta: every admissible full-length rectangle is
    # a member (its slope window always holds a delta-share of columns)
    spec = GridSpec(5, 3, False)
    v = identity_field(spec)
    fam = enumerate_family(FamilyParams(spec, D(1, 3)), v)
    have = {(j, D(t, spec.offset_exp)) for k, _, j, t in fam.sort_keys.tolist() if k == spec.m_w}
    for j in range(1 << spec.m_w):
        s = DyadicInterval(spec.m_w, j)
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
    assert a == b


def test_family_export_import_round_trip():
    spec = GridSpec(4, 2, True)
    v = random_field(spec, random.Random(13))
    fam = enumerate_family(FamilyParams(spec, D(1, 1)), v)
    back = RectangleFamily.from_lines(fam.export_lines())
    assert back == fam and back.params == fam.params
    # rows out of canonical order are written, and read back, in table order
    params = FamilyParams(GridSpec(4, 2, False), D(1, 1))
    unsorted = RectangleFamily(params, [(0, 1, 0, 0), (0, 0, 0, 0)])
    assert RectangleFamily.from_lines(unsorted.export_lines()) == unsorted


def test_g_measure_and_errors():
    spec = GridSpec(5, 3, False)
    v = identity_field(spec)
    J = DyadicInterval(1, 0)
    s = DyadicInterval(2, 1)  # cell [1/4, 1/2)
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
            assert s.lo <= D(3, 3) < s.hi
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
    # length 1 over [0, 1), slope 1/8, offsets 0, 1/4 and 1/2
    one_slope = RectangleFamily(params, [(2, 0, 0, t) for t in range(3)])
    good, w = is_good_collection(one_slope)
    assert good and w.organized
    assert w.pairs[0][0] == DyadicInterval(0, 0)

    two_slopes_same_base = RectangleFamily(params, [(2, 0, 0, 0), (2, 0, 1, 0)])
    good, w = is_good_collection(two_slopes_same_base)
    assert not good
    (k1, i1, j1, _), (k2, i2, j2, _) = two_slopes_same_base.sort_keys[list(w.conflict)].tolist()
    assert (k1, i1) == (k2, i2) and j1 != j2

    # mixed lengths pointing the same way: organized via the nested chain
    nested = RectangleFamily(params, [(2, 0, 0, 0), (1, 0, 0, 0)])
    good, w = is_good_collection(nested)
    assert good and w.organized
    assert w.pairs == ((DyadicInterval(0, 0), DyadicInterval(2, 0)),)

    # disjoint directions on disjoint halves: organized with two pairs
    split = RectangleFamily(params, [(1, 0, 0, 0), (1, 1, 0, 0)])
    good, w = is_good_collection(split)
    assert good
    assert w.organized and len(w.pairs) in (1, 2)

    # reordering members does not change the verdict
    good2, w2 = is_good_collection(
        RectangleFamily(params, split.sort_keys[::-1])
    )
    assert good2 == good and w2.organized == w.organized


def goodness_referee(fam: RectangleFamily, good: bool, w) -> None:
    """is_good_collection's verdict against the definitions, row by row: good
    means no two members share a base with different slopes, a conflict names
    such a pair, and an organized witness has pairwise disjoint intervals J,
    each member's base inside exactly one J with a slope cell containing s_J."""
    mw, rows = fam.spec.m_w, fam.sort_keys.tolist()
    slopes: dict[tuple[int, int], set[int]] = {}
    for k, i, j, _ in rows:
        slopes.setdefault((k, i), set()).add(j)
    assert good == all(len(js) == 1 for js in slopes.values())
    if good:
        assert w.conflict is None
    else:
        a, b = (rows[x] for x in w.conflict)
        assert a[:2] == b[:2] and a[2] != b[2]
    if w.organized:
        Js = [J for J, _ in w.pairs]
        assert not any(A.contains(B) or B.contains(A) for n, A in enumerate(Js) for B in Js[n + 1:])
        for k, i, j, _ in rows:
            hits = [s for J, s in w.pairs if J.contains(DyadicInterval(mw - k, i))]
            assert len(hits) == 1 and DyadicInterval(k, j).contains(hits[0])


def test_is_good_collection_against_the_definitions():
    """Seeded random subfamilies of enumerated families (m 4-5; identity,
    random and cascade fields) and unions of organized collections."""
    rng = random.Random(27)
    seen = set()
    for m in (4, 5):
        for half in (False, True):
            spec = GridSpec(m, m - 2, half)
            fams = [
                enumerate_family(FamilyParams(spec, delta), v)
                for v in (identity_field(spec), random_field(spec, rng), cascade_field(spec))
                for delta in (D(1), D(1, 1), D(1, 3))
            ]
            cols = organized_collections(spec, 11)
            for _ in range(40):
                fam = rng.choice(fams)
                fam = fam.subfamily(rng.sample(range(len(fam)), rng.randint(1, min(len(fam), 12))))
                union = cols[0].subfamily([])
                for col in rng.sample(cols, rng.randint(1, 4)):
                    union = union.union(col)
                for sub in (fam, union):
                    good, w = is_good_collection(sub)
                    goodness_referee(sub, good, w)
                    seen.add((good, w.organized))
    # two slopes on one base are disjoint cells at one level, so an organized family is good
    assert seen == {(True, True), (True, False), (False, False)}


def test_family_union_dedup():
    spec = GridSpec(4, 2, False)
    params = FamilyParams(spec, D(1, 1))
    a = RectangleFamily(params, [(2, 0, 0, 0)])
    u = a.union(a)
    assert len(u) == 1
    b = RectangleFamily(params, [(2, 0, 1, 0)])
    assert len(a.union(b)) == 2


def test_family_equality_ignores_how_it_was_built():
    spec = GridSpec(4, 2, False)
    fam = enumerate_family(FamilyParams(spec, D(1, 3)), identity_field(spec))
    rows = [tuple(row) for row in fam.sort_keys.tolist()]
    same = (fam.subfamily(range(len(fam))), fam.union(fam), RectangleFamily(fam.params, rows))
    assert all(other == fam and hash(other) == hash(fam) for other in same)
    assert fam.subfamily(range(1, len(fam))) != fam


def test_family_validation():
    spec = GridSpec(4, 2, False)
    params = FamilyParams(spec, D(1, 1))
    row = (2, 0, 0, 0)
    with pytest.raises(ValueError, match="must be distinct"):
        RectangleFamily(params, [row, row])
    lines = RectangleFamily(params, [row]).export_lines()
    assert RectangleFamily.from_lines(lines) == RectangleFamily(params, [row])
    with pytest.raises(ValueError, match="missing family params header"):
        RectangleFamily.from_lines(lines[1:])
    # slope 7/8 over [0, 1) plus the width 1/4 reaches above 1
    with pytest.raises(ValueError, match="leaves the unit square"):
        RectangleFamily.from_lines([lines[0], "k 2 base 0 slope 3 off 0"])
    with pytest.raises(ValueError, match="must be distinct"):
        RectangleFamily.from_lines(lines + lines[1:])


def _record(spec: GridSpec, k: int, i: int, j: int, t: int) -> str:
    return f"k {k} base {i} slope {j} off {D(t, spec.offset_exp).render()}"


# one row per rule, on GridSpec(4, 2, False): k in [0, 2], i < 2^(2 - k), j < 2^k,
# 0 <= t <= max_offset_steps (2 for k 0, i 0, j 0; slope 7/8 over [0, 1) has none)
RULE_ROWS = [
    ((-1, 0, 0, 0), "length exponent must lie in"),
    ((3, 0, 0, 0), "length exponent must lie in"),
    ((1, -1, 0, 0), "base index out of range"),
    ((1, 2, 0, 0), "base index out of range"),
    ((1, 0, -1, 0), "slope index out of range"),
    ((1, 0, 2, 0), "slope index out of range"),
    ((0, 0, 0, -1), "offset must be nonnegative"),
    ((0, 0, 0, 3), "leaves the unit square"),
    ((2, 0, 3, 0), "leaves the unit square"),
]


@pytest.mark.parametrize("row, message", RULE_ROWS)
def test_each_key_row_rule_through_the_constructor_and_from_lines(row, message):
    spec = GridSpec(4, 2, False)
    params = FamilyParams(spec, D(1, 1))
    ok = (0, 0, 0, 2)
    assert max_offset_steps(spec, 0, 0) == 2 and len(RectangleFamily(params, [ok])) == 1
    with pytest.raises(ValueError, match=message):
        RectangleFamily(params, [ok, row])
    head = RectangleFamily(params, []).export_lines()
    with pytest.raises(ValueError, match=message):
        RectangleFamily.from_lines(head + [_record(spec, *ok), _record(spec, *row)])


def test_key_row_rules_accept_exactly_the_definition():
    """Over a box of rows around the valid ranges, a one-row family is built
    exactly when the row names a parallelogram by the definition, in Fractions:
    0 <= k <= m_w, 0 <= i < 2^(m_w - k), 0 <= j < 2^k, offset >= 0, and
    slope center * sup(base) + offset + w <= 1."""
    for spec in (GridSpec(4, 2, False), GridSpec(4, 2, True)):
        params = FamilyParams(spec, D(1, 1))
        w = Fraction(1, 1 << spec.m_w)
        for k in range(-1, 4):
            for i in range(-1, 6):
                for j in range(-1, 6):
                    for t in range(-1, 8):
                        valid = 0 <= k <= spec.m_w and 0 <= i < 1 << (spec.m_w - k) and 0 <= j < 1 << k and t >= 0
                        if valid:
                            slope, sup_base = Fraction(2 * j + 1, 2 << k), (i + 1) * w * (1 << k)
                            valid = slope * sup_base + Fraction(t, 1 << spec.offset_exp) + w <= 1
                        try:
                            RectangleFamily(params, [(k, i, j, t)])
                            built = True
                        except ValueError:
                            built = False
                        assert built == valid, (spec, k, i, j, t)


def test_family_rows_must_be_an_integer_table_of_width_four():
    spec = GridSpec(4, 2, False)
    params = FamilyParams(spec, D(1, 1))
    for rows in (
        [[0.0, 0, 0, 0]], np.array([[1.5, 0, 0, 0]]), [[2 ** 70, 0, 0, 0]], [[True, False, False, False]],
        [[0, 0, 0]], [0, 0, 0, 0], np.zeros((2, 5), dtype=np.int64), np.zeros((1, 4, 1), dtype=np.int64),
    ):
        with pytest.raises(ValueError, match=r"\(N, 4\) integer table"):
            RectangleFamily(params, rows)
    # a uint64 past int64 wraps negative, which a rule refuses
    with pytest.raises(ValueError, match="length exponent"):
        RectangleFamily(params, np.array([[2 ** 64 - 1, 0, 0, 0]], dtype=np.uint64))
    # the rows are copied into a read-only int64 table
    rows = np.array([[0, 0, 0, 0], [0, 0, 0, 1]], dtype=np.int32)
    fam = RectangleFamily(params, rows)
    rows[0, 3] = 2
    assert fam.sort_keys.dtype == np.int64 and not fam.sort_keys.flags.writeable
    assert fam.sort_keys.tolist() == [[0, 0, 0, 0], [0, 0, 0, 1]]
    assert len(RectangleFamily(params, [])) == len(RectangleFamily(params, ())) == 0
    with pytest.raises(ValueError, match="must be distinct"):
        RectangleFamily(params, [(0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 0, 1)])


def test_from_lines_reads_each_key_once_and_nothing_else():
    spec = GridSpec(4, 2, False)
    params = FamilyParams(spec, D(1, 1))
    head, rec = RectangleFamily(params, [(1, 0, 1, 0)]).export_lines()
    want = RectangleFamily.from_lines([head, rec])
    assert RectangleFamily.from_lines(["# a comment", "", head, "  # another", rec, ""]) == want
    assert RectangleFamily.from_lines([head.replace("m 4 mw 2", "mw 2 m 4")]) == RectangleFamily(params, [])
    for lines in ([], [""], ["# members 0"], [rec]):
        with pytest.raises(ValueError, match="missing family params header"):
            RectangleFamily.from_lines(lines)
    bad = [
        [head, "k 1 base 0 slope 1"],
        [head, "k 1 base 0 slope 1 off"],
        [head, "k 0 base 1 slope 0 off 0 junk 3"],
        [head, "k 0 base 0 slope 0 off 0 off 1/2^2"],
        [head, "k 0 base 0 slope 0 base 0 off 0"],
        [head + " delta 1"],
        [head.replace("delta 1/2^1", "delta 1/2^1 delta 1")],
        [head.replace("mw 2 ", "")],
        ["params m 4 mw 2 offstep w delta 1/2^1 extra", rec],
    ]
    for lines in bad:
        with pytest.raises(ValueError, match="family line '.*' must hold .* once each"):
            RectangleFamily.from_lines(lines)
    with pytest.raises(ValueError, match="not a multiple of the offset step"):
        RectangleFamily.from_lines([head, "k 0 base 0 slope 0 off 1/2^3"])


def test_family_params_take_a_dyadic_delta():
    """An int becomes a DyadicRational; a Fraction or a float is refused at
    construction rather than when enumeration reads delta.num."""
    spec = GridSpec(4, 2, False)
    params = FamilyParams(spec, 1)
    assert params == FamilyParams(spec, D(1)) and isinstance(params.delta, D)
    assert len(enumerate_family(params, identity_field(spec))) > 0
    for delta in (Fraction(1, 2), 0.5):
        with pytest.raises(TypeError, match="density delta must be dyadic"):
            FamilyParams(spec, delta)


def test_family_rows_build_no_parallelograms(monkeypatch):
    """Every family builder (enumeration, the constructor, subfamilies, unions,
    the file reader, the Kakeya tails and the organized collections),
    linearization, the generations and their JSON read rows only: none builds
    the ``members`` view."""
    built = []
    init = Parallelogram.__init__

    def spy(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Parallelogram, "__init__", spy)
    spec = GridSpec(7, 5, False)
    v = cascade_field(spec)
    fam = enumerate_family(FamilyParams(spec, D(1, 1)), v)
    f = random_grid(spec, random.Random(0))
    rho = linearize(f, fam)
    res = run_generations(v, spec.w, D(1, 1), rho)
    decomposition_to_json(res)
    apply_T_adjoint(rho, f)
    domination_check(res, rho, f, max_pieces=1)
    cols = [
        fam.subfamily(rho.entries[fs].tolist())
        for g in res.generations for rec in g.records for fs in rec.classify.f_sets
    ]
    assert cols and all(is_good_collection(col)[0] for col in cols)
    assert RectangleFamily.from_lines(fam.export_lines()) == RectangleFamily(fam.params, fam.sort_keys) == fam
    assert cols[0].union(cols[-1]) == cols[-1].union(cols[0])
    assert len(make_kakeya_bundle(7, D(1, 4)).tails) > 0
    assert len(organized_collections(spec, 9)) == 9
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
    assert raw_members(fam) == want
    assert len(fam.members) == len(built) == len(fam)  # the spy sees the view's one builder


def test_subfamily_rejects_out_of_range_indices():
    spec = GridSpec(4, 2, False)
    fam = enumerate_family(FamilyParams(spec, D(1, 1)), identity_field(spec))
    for bad in ([-1], [len(fam)], [0, len(fam) + 3]):
        with pytest.raises(ValueError, match="member index out of range"):
            fam.subfamily(bad)
    assert fam.subfamily([len(fam) - 1, 0]).sort_keys.tolist() == fam.sort_keys[[0, -1]].tolist()
