"""Dyadic intervals, slope cells, and staircase parallelogram geometry."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from dirmax import oracle
from dirmax.badness import BadnessEngine
from dirmax.dyadic import DyadicRational as D
from dirmax.family import FamilyParams, RectangleFamily, enumerate_family
from dirmax.geometry import (
    DyadicInterval,
    GridSpec,
    slab_cover,
    slab_overlap,
    slab_rows,
    slab_run,
    slab_union,
    window_triple,
)
from dirmax.instances import random_field
from dirmax.verify import raw_members


def test_interval_containment_partial_order():
    rng = random.Random(1)
    ivs = [DyadicInterval(l, rng.randrange(1 << l)) for l in range(5) for _ in range(3)]
    for a in ivs:
        assert a.contains(a)
        for b in ivs:
            # antisymmetry
            if a.contains(b) and b.contains(a):
                assert a == b
            for c in ivs:
                if a.contains(b) and b.contains(c):
                    assert a.contains(c)


def test_interval_parent_children_triple():
    J = DyadicInterval(3, 5)
    assert DyadicInterval(2, 2).contains(J) and not DyadicInterval(2, 3).contains(J)
    lo, hi = DyadicInterval(4, 10), DyadicInterval(4, 11)  # J's halves
    assert J.contains(lo) and J.contains(hi) and lo.hi == hi.lo and lo.lo == J.lo and hi.hi == J.hi
    # J's triple as grid points over 2^3: [4/8, 7/8)
    assert window_triple(5, 6, 8) == (4, 7)
    # clipping at the boundary: [0, 1/4) and [3/4, 1) over 2^2
    assert window_triple(0, 1, 4)[0] == 0
    assert window_triple(3, 4, 4)[1] == 4
    with pytest.raises(ValueError):
        DyadicInterval(2, 4)


def test_window_triple_matches_the_oracle_triple():
    """window_triple on grid points over 2^m is oracle._triple on Fractions,
    for every dyadic window at level <= m and for the triple of its triple;
    both clips, at 0 and at 1, occur."""
    clips = set()
    for m in range(7):
        n = 1 << m
        for level in range(m + 1):
            sh = m - level
            for index in range(1 << level):
                a, b = index << sh, (index + 1) << sh
                lo, hi = Fraction(a, n), Fraction(b, n)
                for _ in range(2):
                    clips |= {"0"} if 2 * a < b else set()
                    clips |= {"1"} if 2 * b - a > n else set()
                    a, b = window_triple(a, b, n)
                    lo, hi = oracle._triple(lo, hi)
                    assert (Fraction(a, n), Fraction(b, n)) == (lo, hi)
    assert clips == {"0", "1"}


def test_slope_cell():
    """A slope cell is a DyadicInterval; its center is the slope it stands for."""
    s = DyadicInterval(2, 1)
    assert s.center == D(3, 3) and DyadicInterval(0, 0).center == D(1, 1)
    assert s.lo == D(1, 2) and s.hi == D(1, 1)
    assert DyadicInterval(1, 0).contains(DyadicInterval(3, 3))
    assert not DyadicInterval(1, 1).contains(DyadicInterval(3, 3))
    assert not DyadicInterval(3, 3).contains(DyadicInterval(1, 0))


def test_grid_spec_validation():
    spec = GridSpec(4, 2, False)
    assert spec.w == D(1, 2) and D(1, spec.offset_exp) == spec.w
    assert D(1, GridSpec(4, 2, True).offset_exp) == D(1, 3)
    with pytest.raises(ValueError):
        GridSpec(4, 3)  # width must span >= 4 columns
    with pytest.raises(ValueError):
        GridSpec(4, -1)


def _member(spec: GridSpec, row):
    """The key row, checked by a one-member family, as the oracle's raw member
    (k, base index, slope index, offset)."""
    return raw_members(RectangleFamily(FamilyParams(spec, D(1)), [row]))[0]


def _slab(spec: GridSpec, row, c: int) -> tuple[D, D]:
    """The key row's slab over column c, from slab_run over 2^S."""
    c0, lo, step = slab_run(spec, *row)
    lo += (c - c0) * step
    return D(lo, spec.slab_scale), D(lo + (1 << (spec.slab_scale - spec.m_w)), spec.slab_scale)


def test_column_segment_known_value():
    # base [0,1/2), slope cell (k=1, j=1) so s=3/4, b=1/8, column 3 on the
    # m=4 grid: slab is [3/4 * 7/32 + 1/8, ... + 1/4) = [37/128, 69/128)
    spec = GridSpec(4, 2, True)
    row = (1, 0, 1, 1)
    member = _member(spec, row)
    assert member == (1, 0, 1, Fraction(1, 8))
    lo, hi = _slab(spec, row, 3)
    assert lo == D(37, 7) and hi == D(69, 7)
    assert (lo, hi) == oracle.slab(spec.m, spec.m_w, member, 3)
    # float cross-check
    assert abs(float(lo) - (0.75 * 7 / 32 + 0.125)) < 1e-12
    assert hi - lo == spec.w  # slab height is exactly w
    # column 8 is outside the base: the member holds no cell there
    assert slab_run(spec, *row)[0] == 0 and oracle.columns(spec.m, spec.m_w, member) == range(8)
    assert not any(oracle.contains_cell(spec.m, spec.m_w, member, 8, r) for r in range(spec.n))


def test_column_segment_formula():
    # s = 1/2 (k=0, j=0), b = 0, w = 1/4: slab at each column is
    # [x_c/2, x_c/2 + 1/4), direct substitution
    spec = GridSpec(4, 2, False)
    row = (0, 0, 0, 0)
    member = _member(spec, row)
    for c in oracle.columns(spec.m, spec.m_w, member):
        lo, hi = _slab(spec, row, c)
        x_c = D(2 * c + 1, spec.m + 1)
        assert lo == D(1, 1) * x_c
        assert hi == lo + spec.w
        assert (lo, hi) == oracle.slab(spec.m, spec.m_w, member, c)


def test_measure_and_slab_partition():
    spec = GridSpec(5, 3, False)
    short, full = (0, 1, 0, 1), (3, 0, 0, 1)  # base [1/8, 1/4), slope 1/2; base [0, 1), slope 1/16
    assert oracle.member_measure(spec.m_w, _member(spec, short)) == Fraction(1, 64)  # length w, width w
    assert oracle.member_measure(spec.m_w, _member(spec, full)) == Fraction(1, 8)  # base length 1 -> measure w
    for row in (short, full):
        member = _member(spec, row)
        total = D(0)
        for c in oracle.columns(spec.m, spec.m_w, member):
            lo, hi = _slab(spec, row, c)
            total = total + (hi - lo) * D(1, spec.m)
        assert total == oracle.member_measure(spec.m_w, member)


def test_containment_enforced():
    spec = GridSpec(4, 2, False)
    params = FamilyParams(spec, D(1, 1))
    with pytest.raises(ValueError, match="leaves the unit square"):
        # slope 7/8 length 1: 7/8 + w > 1 at any offset
        RectangleFamily(params, [(2, 0, 3, 0)])
    with pytest.raises(ValueError, match="offset must be nonnegative"):
        RectangleFamily(params, [(0, 0, 0, -1)])
    head = RectangleFamily(params, []).export_lines()
    with pytest.raises(ValueError, match="not a multiple of the offset step"):
        # offset not on the step grid
        RectangleFamily.from_lines(head + ["k 0 base 0 slope 0 off 1/2^3"])


def test_center_rows_count():
    # per column, 2^(m - m_w) consecutive rows have their centers in R: the
    # slab is half-open of height w, and those centers lie in R's own slab
    spec = GridSpec(5, 3, False)
    row = (2, 0, 1, 1)  # base [0, 1/2), slope 3/8, offset 1/8
    member = _member(spec, row)
    for c in oracle.columns(spec.m, spec.m_w, member):
        rows = [r for r in range(spec.n) if oracle.contains_cell(spec.m, spec.m_w, member, c, r)]
        assert rows == list(range(rows[0], rows[0] + (1 << (spec.m - spec.m_w))))
        lo, hi = _slab(spec, row, c)
        for r in rows:
            y = D(2 * r + 1, spec.m + 1)  # row r's center
            assert lo <= y < hi


def test_pi2_extent():
    """BadnessEngine.ends, each member's pi_2 extent over 2^S, against the
    oracle: from the bottom of its first slab to the top of its last."""
    for m, m_w, half in ((4, 2, False), (5, 3, True)):
        spec = GridSpec(m, m_w, half)
        fam = enumerate_family(FamilyParams(spec, D(1, 2)), random_field(spec, random.Random(m)))
        eng = BadnessEngine(fam)
        assert len(eng.ends) == len(fam) > 0
        for (lo, hi), row, member in zip(eng.ends, fam.sort_keys.tolist(), raw_members(fam)):
            ends = D(lo, eng.scale), D(hi, eng.scale)
            assert ends == oracle.pi2_extent(m, m_w, member)
            cols = oracle.columns(m, m_w, member)
            assert ends == (_slab(spec, row, cols[0])[0], _slab(spec, row, cols[-1])[1])


def _measures(spec: GridSpec, rows):
    """|A cap B| and |union| from the badness engine's slab runs: lengths over
    2^S summed over columns 2^-m wide."""
    eng = BadnessEngine(RectangleFamily(FamilyParams(spec, D(1)), rows))
    unit = Fraction(1, 1 << (eng.scale + spec.m))

    def overlap(a, b):
        return slab_overlap(eng.runs[a], eng.runs[b]) * unit

    def union(picked):
        return slab_union(eng.runs[i] for i in picked) * unit

    return overlap, union


def test_overlap_and_union_measures():
    spec = GridSpec(4, 2, False)
    # a, b: length 1, slopes 1/8 and 3/8; c, d: length 1/4 over [0, 1/4) and [3/4, 1)
    rows = [(2, 0, 0, 0), (2, 0, 1, 0), (0, 0, 0, 0), (0, 3, 0, 0)]
    overlap, union = _measures(spec, rows)
    measure = oracle.member_measure(spec.m_w, _member(spec, rows[0]))
    assert overlap(0, 0) == measure == oracle.member_measure(spec.m_w, _member(spec, rows[1]))
    assert overlap(0, 1) == overlap(1, 0)
    inter = overlap(0, 1)
    assert union([0, 1]) == 2 * measure - inter
    assert union([]) == 0
    # disjoint columns -> zero overlap
    assert overlap(2, 3) == 0


def test_containment_boundary_top_exactly_one():
    # slope 1/2 over [3/4, 1): top = 1/2 + offset + w
    for half in (False, True):
        spec = GridSpec(4, 2, half)
        params = FamilyParams(spec, D(1, 1))
        t = 1 << (spec.offset_exp - 2)  # offset 1/4
        k, i, j, offset = _member(spec, (0, 3, 0, t))  # top exactly 1
        slope, sup_base = Fraction(2 * j + 1, 2 << k), Fraction(i + 1, 1 << (spec.m_w - k))
        assert slope * sup_base + offset + Fraction(1, 1 << spec.m_w) == 1
        with pytest.raises(ValueError, match="leaves the unit square"):
            RectangleFamily(params, [(0, 3, 0, t + 1)])
    spec = GridSpec(4, 2, False)
    params = FamilyParams(spec, D(1, 1))
    with pytest.raises(ValueError, match="offset must be nonnegative"):
        RectangleFamily(params, [(0, 0, 0, -1)])
    head = RectangleFamily(params, []).export_lines()
    with pytest.raises(ValueError, match="not a multiple of the offset step"):
        RectangleFamily.from_lines(head + ["k 0 base 0 slope 0 off 1/2^3"])


def test_slab_cover_against_column_sum():
    rng = random.Random(5)
    for _ in range(3000):
        n, step, h = rng.randrange(1, 9), rng.randrange(-12, 13), rng.randrange(1, 20)
        start, y = rng.randrange(-40, 40), rng.randrange(-80, 160)
        want = sum(min(max(y - (start + c * step), 0), h) for c in range(n))
        assert slab_cover(start, step, n, h, y) == want


def test_overlap_and_union_against_oracle():
    for m, m_w, half in ((4, 2, False), (5, 3, True), (5, 1, False)):
        spec = GridSpec(m, m_w, half)
        fam = enumerate_family(FamilyParams(spec, D(1, 3)), random_field(spec, random.Random(m + m_w)))
        raw = raw_members(fam)
        eng = BadnessEngine(fam)
        unit = Fraction(1, 1 << (eng.scale + m))
        rng = random.Random(m * m_w)
        for _ in range(150):
            i, j = rng.randrange(len(raw)), rng.randrange(len(raw))
            got = slab_overlap(eng.runs[i], eng.runs[j]) * unit
            assert got == oracle.pair_overlap(m, m_w, raw[i], raw[j])
        pick = sorted(rng.sample(range(len(raw)), min(12, len(raw))))
        want = Fraction(0)
        for c in range(spec.n):
            segs = sorted(
                oracle.slab(m, m_w, raw[i], c) for i in pick if c in oracle.columns(m, m_w, raw[i])
            )
            cur = None
            for lo, hi in segs:
                if cur is None or lo > cur[1]:
                    want += cur[1] - cur[0] if cur else 0
                    cur = [lo, hi]
                else:
                    cur[1] = max(cur[1], hi)
            want += cur[1] - cur[0] if cur else 0
        got = slab_union(eng.runs[i] for i in pick) * unit
        assert got == want * Fraction(1, 1 << m)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_slab_rows_against_oracle_slab(m):
    """Every slab touches 2^(m - m_w) + 1 rows, its bottom sits on no row line,
    and the parts of its end rows outside it sum to one row; slab_rows names
    those rows and parts, read off oracle.slab."""
    n, slabs = 1 << m, 0
    for m_w in range(m - 1):
        for half in (False, True):
            spec = GridSpec(m, m_w, half)
            v = random_field(spec, random.Random(m * 16 + m_w))
            fam = enumerate_family(FamilyParams(spec, D(1, 1)), v)
            step = 1 << spec.offset_exp
            for k, i, j, t in fam.sort_keys.tolist():
                member = (k, i, j, Fraction(t, step))
                c0, lo, dlo = slab_run(spec, k, i, j, t)
                row = 1 << (m_w + 2)  # a row, scaled as lo is
                for c in oracle.columns(m, m_w, member):
                    bottom, top = (y * n for y in oracle.slab(m, m_w, member, c))  # in rows
                    first, last = math.floor(bottom), math.ceil(top) - 1
                    assert last - first == 1 << (m - m_w)
                    assert bottom != first
                    below, above = (bottom - first) * row, (last + 1 - top) * row
                    assert below + above == row
                    assert slab_rows(spec, lo + dlo * (c - c0)) == (first, last, below, above)
                    slabs += 1
    assert slabs


@pytest.mark.parametrize("m", [3, 4, 5])
def test_oracle_row_ranges_match_the_definitions(m):
    """oracle.integrate and oracle.maximal_apply read only the rows a slab
    meets; the definitions below read every row of every column: the integral
    sums each row's overlap with the slab, and M takes, per cell, the largest
    average over the members that contain its center (contains_cell)."""
    n = 1 << m
    cell = Fraction(1, n)
    rng = random.Random(100 + m)
    for m_w in range(1, m - 1):
        for offset_exp in (m_w, m_w + 1):  # both offset steps
            every = oracle.enumerate_family(m, m_w, offset_exp, Fraction(0), [Fraction(0)] * n)
            lowest = [r for r in every if oracle.pi2_extent(m, m_w, r)[0] < cell]  # meet row 0
            highest = [r for r in every if oracle.pi2_extent(m, m_w, r)[1] > 1 - cell]  # the top row
            assert lowest and highest
            members = rng.sample(every, min(6, len(every))) + lowest[:2] + highest[-2:]
            f = [Fraction(rng.randrange(-5, 40), 1 << rng.randrange(4)) for _ in range(n * n)]

            avgs = []
            for r in members:
                want = Fraction(0)
                for c in oracle.columns(m, m_w, r):
                    lo, hi = oracle.slab(m, m_w, r, c)
                    for row in range(n):
                        seg = min(hi, (row + 1) * cell) - max(lo, row * cell)
                        want += max(seg, Fraction(0)) * cell * f[(c << m) + row]
                assert oracle.integrate(m, m_w, r, f) == want
                avgs.append(want / oracle.member_measure(m_w, r))

            want_max = [
                max([Fraction(0)] + [
                    a for r, a in zip(members, avgs) if oracle.contains_cell(m, m_w, r, c, row)
                ])
                for c in range(n)
                for row in range(n)
            ]
            assert oracle.maximal_apply(m, m_w, members, f)[0] == want_max
