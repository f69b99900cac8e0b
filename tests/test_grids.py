"""Grid functions, exact integration over members, and the MAXGRID text format.

Integrals over staircase members come from the member kernel
(maximal._scaled_averages: the average times |R|), refereed by the oracle.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from dirmax import maximal, oracle
from dirmax.dyadic import DyadicRational as D
from dirmax.family import FamilyParams, RectangleFamily, enumerate_family
from dirmax.geometry import DyadicInterval, GridSpec, Parallelogram, SlopeCell
from dirmax.grids import (
    GridFunction,
    OneVarField,
    parse_field,
    parse_grid,
    render_field,
    render_grid,
)


def _random_R(spec: GridSpec, rng: random.Random) -> Parallelogram:
    while True:
        k = rng.randrange(spec.m_w + 1)
        level = spec.m_w - k
        base = DyadicInterval(level, rng.randrange(1 << level))
        s = SlopeCell(k, rng.randrange(1 << k))
        top = D(1) - spec.w - s.center * base.hi
        if top < 0:
            continue
        q = spec.offset_exp
        tmax = (top.num << (q - top.exp)) if q >= top.exp else (top.num >> (top.exp - q))
        return Parallelogram(spec, base, s, D(rng.randrange(tmax + 1), q))


def _random_family(spec: GridSpec, rng: random.Random, count: int) -> RectangleFamily:
    """count distinct random members, in the order drawn."""
    members: list[Parallelogram] = []
    while len(members) < count:
        R = _random_R(spec, rng)
        if R not in members:
            members.append(R)
    return RectangleFamily(FamilyParams(spec, D(1)), members)


def _averages(fam: RectangleFamily, f: GridFunction) -> list[D]:
    """Per member the exact average of f over it, from the member kernel."""
    avgs, scale = maximal._scaled_averages(fam, f)
    return [D(a, scale) for a in avgs]


def _integrals(fam: RectangleFamily, f: GridFunction) -> list[D]:
    return [a * R.measure for a, R in zip(_averages(fam, f), fam.members)]


def _raw(R: Parallelogram):
    return R.k, R.base.index, R.slope.index, R.offset.as_fraction()


def test_grid_construction_and_validation():
    spec = GridSpec(3, 1, False)
    with pytest.raises(ValueError):
        GridFunction(spec, 0, [0] * 10)
    with pytest.raises(ValueError):
        GridFunction(spec, 0, [-1] + [0] * 63)
    f = GridFunction.constant(spec, D(3, 2))
    assert f.value(0, 0) == D(3, 2)
    assert f.integral() == D(3, 2)
    assert f.l2_sq() == D(9, 4)


def test_adopt_checks_without_copying():
    spec = GridSpec(3, 1, False)
    nums = [1] * 64
    public = GridFunction(spec, 0, nums)
    nums[0] = 5
    assert public.nums[0] == 1  # the caller's list was copied
    assert GridFunction._adopt(spec, 0, nums).nums is nums
    for scale, bad, match in ((0, [0] * 10, "count"), (-1, nums, "scale"), (0, [-1] * 64, "nonnegative")):
        with pytest.raises(ValueError, match=match):
            GridFunction._adopt(spec, scale, bad)
    odd = GridFunction(spec, 3, [1] + [2] * 63)
    assert odd.reduced() is odd  # nothing to strip


def test_reduced_l2_and_sign_passes():
    spec = GridSpec(2, 0, False)
    pad = [0] * 13

    def canon(scale, nums):
        r = GridFunction(spec, scale, nums).reduced()
        return r.scale, r.nums

    assert canon(7, [0] * 16) == (0, [0] * 16)
    assert canon(5, [3, 4, 8] + pad) == (5, [3, 4, 8] + pad)  # one odd numerator
    assert canon(5, [12, 8, 1 << 90] + pad) == (3, [3, 2, 1 << 88] + pad)
    assert canon(2, [16, 48, 0] + pad) == (0, [4, 12, 0] + pad)  # capped at scale 0
    assert canon(0, [6, 2, 0] + pad) == (0, [6, 2, 0] + pad)
    big = 1 << 80
    f = GridFunction(spec, 1, [1, 2, big] + pad)
    assert f.l2_sq() == D(5 + big * big, 2 + 4)
    with pytest.raises(ValueError, match="nonnegative"):
        GridFunction(spec, 0, [big] * 15 + [-1])


def test_grid_equality_across_scales():
    spec = GridSpec(3, 1, False)
    a = GridFunction(spec, 2, [4] * 64)
    b = GridFunction(spec, 0, [1] * 64)
    assert a == b
    assert a.reduced().scale == 0
    assert hash(a) == hash(b)


def test_integrate_constants():
    spec = GridSpec(4, 2, False)
    fam = _random_family(spec, random.Random(2), 10)
    ones = [Fraction(1)] * spec.n_cells
    assert _integrals(fam, GridFunction.constant(spec, 1)) == [R.measure for R in fam.members]
    assert [oracle.integrate(spec.m, spec.m_w, _raw(R), ones) for R in fam.members] == [
        R.measure for R in fam.members
    ]
    assert _integrals(fam, GridFunction.zeros(spec)) == [D(0)] * len(fam)
    assert _averages(fam, GridFunction.constant(spec, D(5, 1))) == [D(5, 1)] * len(fam)


def test_integrate_linear_and_monotone():
    spec = GridSpec(4, 2, False)
    rng = random.Random(3)
    f = GridFunction(spec, 0, [rng.randrange(8) for _ in range(spec.n_cells)])
    g = GridFunction(spec, 1, [rng.randrange(16) for _ in range(spec.n_cells)])
    fg = GridFunction(spec, 1, [2 * a + b for a, b in zip(f.nums, g.nums)])
    fam = _random_family(spec, rng, 8)
    bigger = GridFunction(spec, f.scale, [n + 1 for n in f.nums])
    sums = zip(*(_integrals(fam, h) for h in (f, g, fg, bigger)))
    for a, b, ab, up in sums:
        assert ab == a + b
        assert a < up


def test_integrate_subsampling_oracle():
    """Exact integral agrees with a 2^12-point subsampling within 2^-10 |R|."""
    spec = GridSpec(4, 2, False)
    rng = random.Random(4)
    f = GridFunction(spec, 0, [rng.randrange(8) for _ in range(spec.n_cells)])
    R = Parallelogram(spec, DyadicInterval(1, 0), SlopeCell(1, 0), D(1, 2))
    ncols = R.col_hi - R.col_lo
    per_col = (1 << 12) // ncols
    total = Fraction(0)
    for c in range(R.col_lo, R.col_hi):
        lo_f, hi_f = oracle.slab(spec.m, spec.m_w, _raw(R), c)
        w_f = hi_f - lo_f
        for i in range(per_col):
            y = lo_f + w_f * Fraction(2 * i + 1, 2 * per_col)
            r = min(int(y * spec.n), spec.n - 1)
            total += f.value(c, r).as_fraction()
    approx = total / (ncols * per_col) * R.measure.as_fraction()
    [exact] = _integrals(RectangleFamily(FamilyParams(spec, D(1)), [R]), f)
    assert exact == oracle.integrate(spec.m, spec.m_w, _raw(R), [x.as_fraction() for x in f.values()])
    assert abs(exact.as_fraction() - approx) <= Fraction(1, 1 << 10) * R.measure.as_fraction()


def test_integrate_spec_mismatch():
    spec = GridSpec(4, 2, False)
    other = GridSpec(5, 3, False)
    R = Parallelogram(spec, DyadicInterval(2, 0), SlopeCell(0, 0), D(0))
    fam = RectangleFamily(FamilyParams(spec, D(1)), [R])
    rho = maximal.linearize(GridFunction.zeros(spec), fam)
    foreign = GridFunction.zeros(other)
    for op in (maximal.maximal_apply, maximal.linearize):
        with pytest.raises(ValueError, match="incompatible grids"):
            op(foreign, fam)
    for op in (maximal.apply_T, maximal.apply_T_adjoint):
        with pytest.raises(ValueError, match="incompatible grids"):
            op(rho, foreign)


def test_maxgrid_round_trip():
    spec = GridSpec(3, 1, True)
    rng = random.Random(6)
    f = GridFunction(spec, 3, [rng.randrange(32) for _ in range(64)])
    assert parse_grid(render_grid(f)) == f
    v = OneVarField(spec, 4, [rng.randrange(17) for _ in range(8)])
    assert parse_field(render_field(v)) == v
    text = render_grid(f)
    assert text.splitlines()[0] == "maxgrid 1"
    assert text.splitlines()[1] == "m 3 mw 1 offstep w2"


def test_maxgrid_rejects_garbage():
    with pytest.raises(ValueError):
        parse_grid("not a grid\n")
    with pytest.raises(ValueError):
        parse_grid("maxgrid 1\nm 3 mw 1 offstep w\n1 2 3\n")


@pytest.mark.parametrize("text", ["maxgrid 1", "maxgrid 1\n", "maxgrid 1\n\n"])
def test_maxgrid_header_only_is_a_bad_header(text):
    for parse in (parse_grid, parse_field):
        with pytest.raises(ValueError, match="bad MAXGRID header"):
            parse(text)


def test_field_range_validation():
    spec = GridSpec(3, 1, False)
    with pytest.raises(ValueError):
        OneVarField(spec, 0, [2] * 8)  # value above 1
    v = OneVarField(spec, 0, [1] * 8)  # value exactly 1 allowed
    assert v.value(0) == D(1)


def test_constructors_store_python_ints():
    # numpy numerators would wrap: the 64 cells of 2^40 square to 2^80 in all
    spec = GridSpec(3, 1, False)
    f = GridFunction(spec, np.int64(0), np.full(64, 2**40))
    assert {type(n) for n in f.nums} == {int} and type(f.scale) is int
    assert f.l2_sq() == D(1 << 80)
    fam = enumerate_family(FamilyParams(spec, D(1, 3)), OneVarField.constant(spec, 0))
    mf = maximal.maximal_apply(f, fam)
    assert mf == maximal.maximal_apply(GridFunction.constant(spec, 2**40), fam)
    assert max(mf.values()) == D(2**40)
    v = OneVarField(spec, np.int64(3), np.arange(8))
    assert {type(n) for n in v.nums} == {int} and type(v.scale) is int
    assert v.value(7) == D(7, 3)
    with pytest.raises(TypeError):
        GridFunction(spec, 0, [1.0] * 64)
    with pytest.raises(TypeError):
        OneVarField(spec, 1, [0.5] * 8)


def test_masked_and_support():
    spec = GridSpec(3, 1, False)
    f = GridFunction.constant(spec, 2)
    g = f.masked([0, 1, 2])
    assert g.support_cells() == [0, 1, 2]
    assert g.support_measure() == D(3, 6)


def test_indicator_and_masked_take_only_cells_of_the_grid():
    spec = GridSpec(3, 1, False)
    f = GridFunction.from_values(spec, range(1, spec.n_cells + 1))
    for cells in ([-1], [spec.n_cells], [10**6], [0, -1], np.array([-1])):
        with pytest.raises(ValueError, match="cell index out of range"):
            GridFunction.indicator(spec, cells)
        with pytest.raises(ValueError, match="cell index out of range"):
            f.masked(cells)
    with pytest.raises(TypeError):
        f.masked(np.array([0.0]))
    # any iterable or integer array of cells, in any order, repeats allowed
    for cells in ([5, 0, 5], frozenset({0, 5}), range(0, 6, 5), np.array([5, 0], dtype=np.int32)):
        assert GridFunction.indicator(spec, cells).support_cells() == [0, 5]
        g = f.masked(cells)
        assert g.support_cells() == [0, 5] and (g.value_at(0), g.value_at(5)) == (D(1), D(6))
    assert f.masked([]).is_zero() and GridFunction.indicator(spec, []).is_zero()


def test_from_values_accepts_dyadic_fractions_only():
    spec = GridSpec(3, 1, False)
    f = GridFunction.from_values(spec, [Fraction(1, 4)] * 64)
    assert f.value(0, 0) == D(1, 2)
    with pytest.raises(ValueError):
        GridFunction.from_values(spec, [Fraction(1, 3)] * 64)
    with pytest.raises(TypeError):
        GridFunction.from_values(spec, [0.5] * 64)
