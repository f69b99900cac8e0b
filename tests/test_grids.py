"""Grid functions, exact integration over members, and the MAXGRID text format.

Integrals over staircase members come from the member kernel
(maximal._scaled_averages: the average times |R|), refereed by the oracle.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dirmax import maximal, oracle
from dirmax.dyadic import DyadicRational as D
from dirmax.family import FamilyParams, RectangleFamily, enumerate_family
from dirmax.geometry import GridSpec
from dirmax.grids import (
    GridFunction,
    OneVarField,
    parse_field,
    parse_grid,
    render_field,
    render_grid,
)
from dirmax.verify import raw_members


def _random_row(spec: GridSpec, rng: random.Random) -> tuple[int, int, int, int]:
    """A random key row (k, i, j, t) whose parallelogram lies in the unit square."""
    while True:
        k = rng.randrange(spec.m_w + 1)
        i, j = rng.randrange(1 << (spec.m_w - k)), rng.randrange(1 << k)
        w = Fraction(1, 1 << spec.m_w)
        top = 1 - w - Fraction(2 * j + 1, 2 << k) * (i + 1) * w * (1 << k)  # 1 - w - slope * sup(base)
        if top >= 0:
            return k, i, j, rng.randrange(math.floor(top * (1 << spec.offset_exp)) + 1)


def _random_family(spec: GridSpec, rng: random.Random, count: int) -> RectangleFamily:
    """count distinct random members, in the order drawn."""
    rows: list[tuple[int, int, int, int]] = []
    while len(rows) < count:
        row = _random_row(spec, rng)
        if row not in rows:
            rows.append(row)
    return RectangleFamily(FamilyParams(spec, D(1)), rows)


def _averages(fam: RectangleFamily, f: GridFunction) -> list[D]:
    """Per member the exact average of f over it, from the member kernel."""
    avgs, scale = maximal._scaled_averages(fam, f)
    return [D(a, scale) for a in avgs]


def _integrals(fam: RectangleFamily, f: GridFunction) -> list[Fraction]:
    """Per member the average times |R| (oracle.member_measure)."""
    m_w = fam.spec.m_w
    return [a.as_fraction() * oracle.member_measure(m_w, r) for a, r in zip(_averages(fam, f), raw_members(fam))]


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
    arr = np.ones(64, dtype=np.int64)
    assert GridFunction._adopt(spec, 0, arr).array is arr  # kept, and made read-only
    assert not arr.flags.writeable
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


def test_field_equality_hash_and_reduced_across_scales():
    spec = GridSpec(3, 1, False)
    nums = [0, 1, 2, 3, 4, 5, 6, 8]
    a = OneVarField(spec, 3, nums)
    b = OneVarField(spec, 5, [n << 2 for n in nums])
    assert a == b and b == a
    assert hash(a) == hash(b)
    r = OneVarField(spec, 4, [n << 1 for n in nums]).reduced()
    assert (r.scale, r.nums) == (3, nums)
    assert a.reduced() is a  # one odd numerator: nothing to strip
    one = OneVarField(spec, 3, [8] * 8).reduced()
    assert (one.scale, one.nums) == (0, [1] * 8)


def test_a_grid_never_equals_a_field():
    spec = GridSpec(2, 0, False)
    grid, field = GridFunction.constant(spec, 1), OneVarField.constant(spec, 1)
    assert grid != field and field != grid
    assert not grid == field and not field == grid
    assert grid.__eq__(field) is NotImplemented and field.__eq__(grid) is NotImplemented


@pytest.mark.parametrize("cls", [GridFunction, OneVarField])
def test_negative_scale_is_rejected(cls):
    spec = GridSpec(3, 1, False)
    zeros = [0] * cls._count(spec)
    with pytest.raises(ValueError, match="scale must be nonnegative"):
        cls(spec, -1, zeros)
    with pytest.raises(ValueError, match="scale must be nonnegative"):
        cls._adopt(spec, -1, zeros)


def test_integrate_constants():
    spec = GridSpec(4, 2, False)
    fam = _random_family(spec, random.Random(2), 10)
    ones = [Fraction(1)] * spec.n_cells
    measures = [oracle.member_measure(spec.m_w, r) for r in raw_members(fam)]
    assert _integrals(fam, GridFunction.constant(spec, 1)) == measures
    assert [oracle.integrate(spec.m, spec.m_w, r, ones) for r in raw_members(fam)] == measures
    assert _integrals(fam, GridFunction.zeros(spec)) == [0] * len(fam)
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
    fam = RectangleFamily(FamilyParams(spec, D(1)), [(1, 0, 0, 1)])  # base [0, 1/2), slope 1/4, offset 1/4
    [R] = raw_members(fam)
    cols = oracle.columns(spec.m, spec.m_w, R)
    ncols = len(cols)
    per_col = (1 << 12) // ncols
    total = Fraction(0)
    for c in cols:
        lo_f, hi_f = oracle.slab(spec.m, spec.m_w, R, c)
        w_f = hi_f - lo_f
        for i in range(per_col):
            y = lo_f + w_f * Fraction(2 * i + 1, 2 * per_col)
            r = min(int(y * spec.n), spec.n - 1)
            total += f.value(c, r).as_fraction()
    measure = oracle.member_measure(spec.m_w, R)
    approx = total / (ncols * per_col) * measure
    [exact] = _integrals(fam, f)
    assert exact == oracle.integrate(spec.m, spec.m_w, R, [x.as_fraction() for x in f.values()])
    assert abs(exact - approx) <= Fraction(1, 1 << 10) * measure


def test_integrate_spec_mismatch():
    spec = GridSpec(4, 2, False)
    other = GridSpec(5, 3, False)
    fam = RectangleFamily(FamilyParams(spec, D(1)), [(0, 0, 0, 0)])
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


def test_maxgrid_writes_canonical_values():
    spec = GridSpec(3, 1, False)
    rng = random.Random(7)
    f = GridFunction(spec, 6, [rng.randrange(32) << 3 for _ in range(64)])
    assert f.reduced().scale < f.scale
    assert render_grid(f) == render_grid(f.reduced())
    assert len(render_grid(f).splitlines()) == 2 + spec.n  # one line per column
    v = OneVarField(spec, 5, [rng.randrange(17) << 1 for _ in range(8)])
    lines = render_field(v).splitlines()
    assert len(lines) == 3 and lines[2] == " ".join(x.render() for x in v.values())


def test_maxgrid_rejects_garbage():
    with pytest.raises(ValueError):
        parse_grid("not a grid\n")
    head = "maxgrid 1\nm 3 mw 1 offstep w\n"
    for parse, count in ((parse_grid, 64), (parse_field, 8)):
        parse(head + " 1" * count)
        for wrong in (3, count - 1, count + 1):
            with pytest.raises(ValueError, match="value count mismatch"):
                parse(head + " 1" * wrong)


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


# -- the storage rule: int64 below 2^62, Python ints in an object array above --

_EDGES = (0, 2**62 - 1, 2**62, 2**63, 2**64 + 1)


def _stored_as(v, nums, dtype) -> None:
    """v holds nums exactly, read-only, in dtype, with their bit length recorded."""
    assert v.array.dtype == np.dtype(dtype) and v.array.dtype.kind != "f"
    assert not v.array.flags.writeable
    assert v.nums == nums and {type(n) for n in v.nums} == {int}
    assert v.bits == max(nums).bit_length()


@pytest.mark.parametrize("top", _EDGES)
def test_every_way_in_stores_by_the_int64_rule(top):
    # numpy alone would make [1, 2**63] float64; the explicit dtype never does
    assert np.array([1, 2**63]).dtype == np.float64
    spec = GridSpec(2, 0, False)
    dtype = np.int64 if top < 1 << 62 else object
    nums = [top] + [0, 1, 2] * 5  # the 1 keeps scale 3 canonical through the text format
    built = [
        GridFunction(spec, 3, nums),
        GridFunction(spec, 3, np.array(nums, dtype=object)),
        GridFunction._adopt(spec, 3, list(nums)),
        GridFunction._adopt(spec, 3, np.array(nums, dtype=object)),
        GridFunction.from_values(spec, [D(n, 3) for n in nums]),
        parse_grid(render_grid(GridFunction(spec, 3, nums))),
    ]
    if top < 1 << 63:  # an int64 array at or above 2^62 is kept as Python ints
        built.append(GridFunction._adopt(spec, 3, np.array(nums, dtype=np.int64)))
    for g in built:
        assert g.scale == 3
        _stored_as(g, nums, dtype)
    assert len({hash(g) for g in built}) == 1 and all(g == built[0] for g in built)
    field = [top, 1] + [0] * 6  # values up to 2^65 over 2^66 lie in [0, 1]
    spec = GridSpec(3, 1, False)
    for v in (
        OneVarField(spec, 66, field),
        OneVarField._adopt(spec, 66, np.array(field, dtype=object)),
        OneVarField.from_values(spec, [D(n, 66) for n in field]),
        parse_field(render_field(OneVarField(spec, 66, field))),
    ):
        assert v.scale == 66
        _stored_as(v, field, dtype)


def test_shifts_and_sums_promote_past_int64():
    spec = GridSpec(2, 0, False)
    nums = [(1 << 62) - 1] * 8 + [1, 3] * 4
    f = GridFunction(spec, 2, nums)
    _stored_as(f, nums, np.int64)
    up = f.rescaled(3)  # the top numerators reach 2^63 - 2
    _stored_as(up, [n << 1 for n in nums], object)
    assert up == f and hash(up) == hash(f)
    _stored_as(up.rescaled(2), nums, np.int64)
    _stored_as(up.reduced(), nums, np.int64)
    _stored_as(f.rescaled(100), [n << 98 for n in nums], object)
    _stored_as(f.rescaled(100).rescaled(0), [n >> 2 for n in nums], np.int64)
    # 16 numerators near 2^62 sum past 2^63; their squares pass 2^123
    assert f.integral() == D(sum(nums), 2 + 4)
    assert f.l2_sq() == D(sum(n * n for n in nums), 4 + 4)
    # reduced strips 2^3 and moves to int64 when the numerators fall below 2^62
    wide = GridFunction(spec, 5, [n << 3 for n in nums])
    _stored_as(wide, [n << 3 for n in nums], object)
    assert wide.reduced().scale == 2
    _stored_as(wide.reduced(), nums, np.int64)
    big = [(1 << 63) + 1] * 16
    _stored_as(GridFunction(spec, 5, [n << 3 for n in big]).reduced(), big, object)


def test_equal_grids_at_other_scales_and_dtypes():
    spec = GridSpec(2, 0, False)
    a = GridFunction(spec, 0, [(1 << 61) + k for k in range(16)])
    b = GridFunction(spec, 3, [n << 3 for n in a.nums])
    assert (a.array.dtype, b.array.dtype) == (np.int64, object)
    assert a == b and b == a and hash(a) == hash(b)
    assert a != GridFunction(spec, 3, [(n << 3) + (k == 15) for k, n in enumerate(a.nums)])
    assert GridFunction.zeros(spec) == GridFunction(spec, 90, [0] * 16)
    assert hash(GridFunction.zeros(spec)) == hash(GridFunction(spec, 90, [0] * 16))


def test_bad_values_raise_the_same_messages_every_way_in():
    spec = GridSpec(2, 0, False)
    cases = (
        ([-1] + [0] * 15, "grid values must be nonnegative"),
        ([-(1 << 70)] + [1 << 70] * 15, "grid values must be nonnegative"),
        ([0] * 15, "grid value count mismatch"),
        ([1 << 70] * 17, "grid value count mismatch"),
    )
    for nums, match in cases:
        for build in (
            lambda: GridFunction(spec, 0, nums),
            lambda: GridFunction._adopt(spec, 0, nums),
            lambda: GridFunction._adopt(spec, 0, np.array(nums, dtype=object)),
        ):
            with pytest.raises(ValueError, match=match):
                build()
    with pytest.raises(ValueError, match="grid value count mismatch"):
        GridFunction._adopt(spec, 0, np.zeros((4, 4), dtype=np.int64))
    spec = GridSpec(2, 0, False)
    for nums in ([-1, 0, 0, 0], [5, 0, 0, 0], [1 << 70, 0, 0, 0]):
        with pytest.raises(ValueError, match=r"field values must lie in \[0,1\]"):
            OneVarField(spec, 2, nums)
        with pytest.raises(ValueError, match=r"field values must lie in \[0,1\]"):
            OneVarField._adopt(spec, 2, np.array(nums, dtype=object))
