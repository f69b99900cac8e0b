"""Maximal operator, linearization, adjoint, vertical maximal, norm ascent."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirmax import maximal, oracle
from dirmax.dyadic import DyadicRational as D
from dirmax.family import FamilyParams, enumerate_family
from dirmax.geometry import GridSpec
from dirmax.grids import GridFunction, average
from dirmax.instances import random_field, random_grid
from dirmax.maximal import (
    ChoiceMap,
    NormReport,
    apply_T,
    apply_T_adjoint,
    estimate_norm,
    linearize,
    m2_vertical,
    maximal_apply,
    nu,
    nu_all,
    rayleigh_ratio,
)


def _setup(seed=7, delta=D(1, 3), m=4, half=False):
    spec = GridSpec(m, m - 2, half)
    v = random_field(spec, random.Random(seed))
    fam = enumerate_family(FamilyParams(spec, delta), v)
    f = random_grid(spec, random.Random(seed + 50))
    return spec, fam, f


def test_maximal_constant_one():
    spec, fam, _ = _setup()
    mf = maximal_apply(GridFunction.constant(spec, 1), fam)
    covered = set()
    for r in fam.members:
        covered.update(r.cell_indices())
    for idx in range(spec.n_cells):
        assert mf.value_at(idx) == (D(1) if idx in covered else D(0))


def test_maximal_single_member():
    spec, fam, f = _setup()
    sub = fam.subfamily([0])
    R = sub.members[0]
    mf = maximal_apply(f, sub)
    avg = average(R, f)
    cells = set(R.cell_indices())
    for idx in range(spec.n_cells):
        assert mf.value_at(idx) == (avg if idx in cells else D(0))


def test_maximal_hand_computed_value():
    # v == 0, m=3, w=1/2, f = indicator of the bottom-left cell.  The three
    # family members give averages 3/64, 3/64 and 7/256 at cell (0,0); the
    # hand-computed maximum is 3/64.
    spec = GridSpec(3, 1, False)
    from dirmax.instances import constant_field

    v = constant_field(spec, D(0))
    fam = enumerate_family(FamilyParams(spec, D(1, 3)), v)
    assert len(fam) == 3
    f = GridFunction.indicator(spec, [0])
    mf = maximal_apply(f, fam)
    assert mf.value(0, 0) == D(3, 6)


def test_maximal_against_oracle_and_workers():
    spec, fam, f = _setup(seed=8)
    mf = maximal_apply(f, fam)
    raw = [(r.k, r.base.index, r.slope.index, r.offset.as_fraction()) for r in fam.members]
    want = oracle.maximal_apply(spec.m, spec.m_w, raw, [x.as_fraction() for x in f.values()])
    assert [x.as_fraction() for x in mf.values()] == want
    assert maximal_apply(f, fam) == mf


def test_maximal_against_oracle_above_62_bits():
    spec, fam, f = _setup(seed=15, half=True)
    rng = random.Random(115)
    big = GridFunction(spec, f.scale + 70, [(n << 70) | rng.getrandbits(70) for n in f.nums])
    assert max(big.nums).bit_length() > 62
    raw = [(r.k, r.base.index, r.slope.index, r.offset.as_fraction()) for r in fam.members]
    want = oracle.maximal_apply(spec.m, spec.m_w, raw, [x.as_fraction() for x in big.values()])
    assert [x.as_fraction() for x in maximal_apply(big, fam).values()] == want


def test_painter_equal_and_zero_averages():
    # f = 1 on the left half: members there tie at average 1, members on the
    # right half average 0, so both tie-break paths of the painter run
    spec = GridSpec(4, 2, True)
    fam = enumerate_family(FamilyParams(spec, D(1, 2)), random_field(spec, random.Random(0)))
    f = GridFunction.indicator(spec, [i for i in range(spec.n_cells) if i < spec.n_cells // 2])
    avgs = [average(r, f) for r in fam.members]
    rho, mf = linearize(f, fam), maximal_apply(f, fam)
    tied = zero = 0
    for idx in range(spec.n_cells):
        c, row = spec.cell_coords(idx)
        cands = [i for i, r in enumerate(fam.members) if r.contains_cell(c, row)]
        want = max(cands, key=lambda i: (avgs[i], -i)) if cands else -1
        assert rho.entries[idx] == want
        assert mf.value_at(idx) == (avgs[want] if cands else 0)
        if cands and avgs[want] == 0:
            zero += 1
        elif sum(1 for i in cands if avgs[i] == avgs[want]) > 1:
            tied += 1
    assert tied and zero


def _oracle_max(spec, fam, f):
    raw = [(r.k, r.base.index, r.slope.index, r.offset.as_fraction()) for r in fam.members]
    return oracle.maximal_apply(spec.m, spec.m_w, raw, [x.as_fraction() for x in f.values()])


def _exact_path():
    """Run the Python-int side of the averaging kernel, rows gathered from f's
    own ints, whatever f is."""
    return mock.patch.object(maximal, "_int64_exact", lambda f: False)


_SPECS = st.integers(3, 5).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(1, m - 2), st.booleans())
)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    spec_args=_SPECS,
    seed=st.integers(0, 1 << 16),
    delta=st.sampled_from([D(1, 3), D(1, 2), D(1, 1)]),
    bits=st.integers(1, 49),  # 49 is the guard's bound at m = 5
    block=st.sampled_from([1, 8, 1 << 15]),
)
def test_int64_kernel_matches_oracle_and_exact_path(spec_args, seed, delta, bits, block):
    spec = GridSpec(*spec_args)
    fam = enumerate_family(FamilyParams(spec, delta), random_field(spec, random.Random(seed)))
    rng = random.Random(seed + 1)
    f = GridFunction(spec, rng.randrange(70), [rng.getrandbits(bits) for _ in range(spec.n_cells)])
    assert maximal._int64_exact(f)
    with mock.patch.object(maximal, "_BLOCK", block):
        mf, rho = maximal_apply(f, fam), linearize(f, fam)
        tf = apply_T(rho, f)
    assert [x.as_fraction() for x in mf.values()] == _oracle_max(spec, fam, f)
    rho.check()
    with mock.patch.object(maximal, "_BLOCK", block), _exact_path():
        assert np.array_equal(linearize(f, fam).entries, rho.entries)
        want = maximal_apply(f, fam)
        assert (mf.scale, mf.nums) == (want.scale, want.nums)
        want = apply_T(rho, f)
        assert (tf.scale, tf.nums) == (want.scale, want.nums)
        avgs, scale = maximal._scaled_averages(fam, f)
    # the gathered side against the per-member Python-int integral of grids
    assert [D(x, scale) for x in avgs] == [average(r, f) for r in fam.members]


@pytest.mark.parametrize("half", [False, True])
def test_int64_guard_bound_both_sides(monkeypatch, half):
    spec, fam, _ = _setup(seed=21, m=4, half=half)
    bound = 62 - 2 * spec.m - 3  # numerator bits the int64 kernel accepts at m = 4
    rng = random.Random(22)
    at = [(1 << bound) - 1 - rng.getrandbits(12) for _ in range(spec.n_cells)]
    at[5] = (1 << bound) - 1
    above = at[:5] + [1 << bound] + at[6:]
    picked = []  # the side each kernel call runs: True for int64
    inner = maximal._int64_exact

    def spy(f):
        picked.append(inner(f))
        return picked[-1]

    for nums, fits in ((at, True), (above, False)):
        f = GridFunction(spec, 7, nums)
        assert maximal._int64_exact(f) is fits
        picked.clear()
        with monkeypatch.context() as patch:
            patch.setattr(maximal, "_int64_exact", spy)
            mf, rho = maximal_apply(f, fam), linearize(f, fam)
        assert picked == [fits, fits]
        assert [x.as_fraction() for x in mf.values()] == _oracle_max(spec, fam, f)
        assert apply_T(rho, f) == mf
        with _exact_path():
            assert np.array_equal(linearize(f, fam).entries, rho.entries)
        if fits:  # the kernel near its largest inputs: averages of 61 bits
            assert max(maximal._scaled_averages(fam, f)[0]).bit_length() == 61


def test_painter_many_ties():
    # f constant along each column: all members over one base have the same
    # average whatever their slope and offset, so most cells see a tie
    spec = GridSpec(6, 3, True)
    fam = enumerate_family(FamilyParams(spec, D(1, 3)), random_field(spec, random.Random(3)))
    rng = random.Random(4)
    col = [rng.randrange(3) for _ in range(spec.n)]
    f = GridFunction(spec, 0, [col[i >> spec.m] for i in range(spec.n_cells)])
    avgs = [average(r, f) for r in fam.members]
    assert len(set(avgs)) * 10 < len(avgs)
    cands = [[] for _ in range(spec.n_cells)]
    for i, r in enumerate(fam.members):
        for idx in r.cell_indices():
            cands[idx].append(i)
    want = [max(cs, key=lambda i: (avgs[i], -i)) if cs else -1 for cs in cands]
    assert sum(1 for cs, w in zip(cands, want) if sum(avgs[i] == avgs[w] for i in cs) > 1) > 1000
    rho = linearize(f, fam)
    assert list(rho.entries) == want
    mf = maximal_apply(f, fam)
    assert mf.values() == [avgs[w] if w >= 0 else D(0) for w in want]
    with _exact_path():
        assert np.array_equal(linearize(f, fam).entries, rho.entries)


def _composed_ascent(fam, seeds, iters):
    """estimate_norm spelled out: rayleigh_ratio, linearize, T, T*, rescale,
    reduce.  Returns the report, every T* output and the times the cap fired."""
    rows, best, outs, capped = [], 0.0, [], 0
    for sid, f in enumerate(seeds):
        for it in range(iters + 1):
            ratio = rayleigh_ratio(f, fam)
            rows.append((sid, it, ratio))
            best = max(best, ratio)
            if it == iters:
                break
            rho = linearize(f, fam)
            nxt = apply_T_adjoint(rho, apply_T(rho, f))
            outs.append(nxt)
            assert not nxt.is_zero()
            if nxt.scale > 96:
                capped += 1
                nxt = nxt.rescaled(96)
            f = nxt.reduced()
    return NormReport(len(fam.members), tuple(rows), best), outs, capped


@pytest.mark.parametrize("m, half, delta", [(4, True, D(1, 2)), (5, False, D(1, 3)), (6, False, D(1, 2))])
def test_fused_ascent_matches_composition(monkeypatch, m, half, delta):
    spec, fam, f = _setup(seed=30 + m, delta=delta, m=m, half=half)
    seeds = [f, random_grid(spec, random.Random(90 + m))]
    want, want_outs, capped = _composed_ascent(fam, seeds, 6)
    assert capped and max(max(g.nums).bit_length() for g in want_outs) > 62
    outs = []
    inner = maximal.apply_T_adjoint

    def spy(rho, g):
        outs.append(inner(rho, g))
        return outs[-1]

    monkeypatch.setattr(maximal, "apply_T_adjoint", spy)
    assert estimate_norm(fam, seeds, 6) == want
    assert [(g.scale, g.nums) for g in outs] == [(g.scale, g.nums) for g in want_outs]


def test_maximal_sublinear_and_homogeneous():
    spec, fam, f = _setup(seed=9)
    g = random_grid(spec, random.Random(99))
    fg = GridFunction(spec, 0, [a + b for a, b in zip(f.nums, g.nums)])
    m_sum = maximal_apply(fg, fam)
    m_f, m_g = maximal_apply(f, fam), maximal_apply(g, fam)
    e = max(m_sum.scale, m_f.scale + 0)
    for idx in range(spec.n_cells):
        assert m_sum.value_at(idx) <= m_f.value_at(idx) + m_g.value_at(idx)
    scaled = maximal_apply(GridFunction(spec, 1, [3 * n for n in f.nums]), fam)
    for idx in range(spec.n_cells):
        assert scaled.value_at(idx) == D(3, 1) * m_f.value_at(idx)
    del e


def test_linearize_achieves_maximal_and_ties():
    spec, fam, f = _setup(seed=10)
    rho = linearize(f, fam)
    rho.check()
    assert apply_T(rho, f) == maximal_apply(f, fam)
    # all-ones: every covered cell picks the canonically first containing member
    ones = GridFunction.constant(spec, 1)
    rho1 = linearize(ones, fam)
    for idx, e in enumerate(rho1.entries):
        if e < 0:
            continue
        c, r = spec.cell_coords(idx)
        firsts = [i for i, R in enumerate(fam.members) if R.contains_cell(c, r)]
        assert e == firsts[0]


def test_apply_T_bounded_by_maximal():
    spec, fam, f = _setup(seed=11)
    g = random_grid(spec, random.Random(101))
    rho_g = linearize(g, fam)  # a mismatched linearization
    tf = apply_T(rho_g, f)
    mf = maximal_apply(f, fam)
    for idx in range(spec.n_cells):
        assert tf.value_at(idx) <= mf.value_at(idx)


def test_corrupt_choice_map():
    spec, fam, f = _setup(seed=12)
    entries = [len(fam.members)] + [-1] * (spec.n_cells - 1)
    with pytest.raises(ValueError, match="corrupt choice map"):
        apply_T(ChoiceMap(fam, entries), f)
    with pytest.raises(ValueError, match="corrupt choice map"):
        apply_T_adjoint(ChoiceMap(fam, entries), f)


def test_choice_map_entries_below_minus_one_are_corrupt():
    spec, fam, f = _setup(seed=12)
    rho = linearize(f, fam)
    entries = rho.entries.tolist()
    x = entries.index(-1)  # an uncovered cell
    entries[x] = -7
    bad = lambda: ChoiceMap(fam, entries)
    for call in (lambda: bad().check(), lambda: apply_T(bad(), f), lambda: apply_T_adjoint(bad(), f)):
        with pytest.raises(ValueError, match="corrupt choice map"):
            call()


def _raw_members(fam):
    step = 1 << fam.spec.offset_exp
    return [(k, i, j, Fraction(t, step)) for k, i, j, t in fam.sort_keys.tolist()]


def _oracle_adjoint(rho, g) -> list[Fraction]:
    """oracle.weighted_count with each member's mass: g summed over its choosers."""
    mass = [Fraction(0)] * len(rho.fam)
    for e, x in zip(rho.entries, g.values()):
        if e >= 0:
            mass[e] += x.as_fraction()
    spec = rho.spec
    return oracle.weighted_count(spec.m, spec.m_w, _raw_members(rho.fam), mass)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    spec_args=_SPECS,
    seed=st.integers(0, 1 << 16),
    bits=st.integers(1, 200),
    block=st.sampled_from([1, 8, 1 << 15]),
    empty=st.booleans(),
)
def test_adjoint_matches_oracle_weighted_count(spec_args, seed, bits, block, empty):
    spec = GridSpec(*spec_args)
    fam = enumerate_family(FamilyParams(spec, D(1, 3)), random_field(spec, random.Random(seed)))
    if empty:
        fam = fam.subfamily([])
    rng = random.Random(seed + 1)
    rho = linearize(random_grid(spec, rng), fam)
    # numerators of up to `bits` bits, one of exactly `bits`; member 0 gets no mass
    nums = [0 if e == 0 else rng.getrandbits(bits) for e in rho.entries]
    nums[next((i for i, e in enumerate(rho.entries) if e), 0)] |= 1 << (bits - 1)
    g = GridFunction(spec, rng.randrange(70), nums)
    with mock.patch.object(maximal, "_BLOCK", block):
        tg = apply_T_adjoint(rho, g)
    assert [x.as_fraction() for x in tg.values()] == _oracle_adjoint(rho, g)


def test_adjoint_dtype_bound_both_sides(monkeypatch):
    spec, fam, _ = _setup(seed=21, m=4)
    rho = linearize(random_grid(spec, random.Random(23)), fam)
    a = next(i for i, e in enumerate(rho.entries) if e >= 0)
    b = next(i for i, e in enumerate(rho.entries) if e >= 0 and e != rho.entries[a])
    bound = 62 - 3 - 2 * spec.m_w - len(fam).bit_length()  # mass bits the int64 splat takes
    picked = []
    inner = maximal._splat_dtype

    def spy(mass, fam):
        picked.append(inner(mass, fam))
        return picked[-1]

    monkeypatch.setattr(maximal, "_splat_dtype", spy)
    for top, dtype in (((1 << bound) - 1, np.int64), (1 << bound, object)):
        nums = [0] * spec.n_cells
        nums[a], nums[b] = top, 5
        g = GridFunction(spec, 3, nums)
        tg = apply_T_adjoint(rho, g)
        assert picked[-1] is dtype
        assert [x.as_fraction() for x in tg.values()] == _oracle_adjoint(rho, g)


def test_adjointness_exact():
    spec, fam, f = _setup(seed=13)
    rho = linearize(f, fam)
    for seed in range(3):
        g = random_grid(spec, random.Random(200 + seed))
        tf, tg = apply_T(rho, f), apply_T_adjoint(rho, g)
        lhs = sum(a * b for a, b in zip(tf.nums, g.nums)), tf.scale + g.scale
        rhs = sum(a * b for a, b in zip(f.nums, tg.nums)), f.scale + tg.scale
        e = max(lhs[1], rhs[1])
        assert lhs[0] << (e - lhs[1]) == rhs[0] << (e - rhs[1])
        assert apply_T_adjoint(rho, g) == tg


def test_nu_and_mass_bound():
    spec, fam, f = _setup(seed=14)
    rho = linearize(f, fam)
    assert nu(rho, [], 0) == D(0)
    cells = [i for i in range(spec.n_cells) if i % 3 == 0]
    counts = nu_all(rho, cells)
    assert sum(counts) <= len(cells)
    covered = [i for i in cells if rho.entries[i] >= 0]
    assert sum(counts) == len(covered)
    # equality iff F avoids the exceptional set
    inside = [i for i in cells if rho.entries[i] >= 0]
    assert sum(nu_all(rho, inside)) == len(inside)


def test_nu_takes_numpy_integer_indices():
    spec, fam, f = _setup(seed=14)
    rho = linearize(f, fam)
    cells = range(spec.n_cells)
    for e in np.unique([e for e in rho.entries if e >= 0]):
        assert nu(rho, cells, e) == nu(rho, cells, int(e)) == nu(rho, cells, fam.members[e])
        assert nu(rho, cells, e).num > 0


def test_nu_rejects_member_outside_range():
    # unchecked, member -1 measured the exceptional cells (5/2^5 here) and
    # member N measured nothing
    spec = GridSpec(4, 2, False)
    fam = enumerate_family(FamilyParams(spec, D(1, 3)), random_field(spec, random.Random(1)))
    rho = linearize(random_grid(spec, random.Random(2)), fam)
    cells = range(spec.n_cells)
    assert len(rho.exceptional_cells()) == 40
    for member in (-1, len(fam), np.int32(-1), np.int64(len(fam))):
        with pytest.raises(ValueError, match="member index out of range"):
            nu(rho, cells, member)
    last = len(fam) - 1
    assert nu(rho, cells, last) == D(nu_all(rho, cells)[last], 2 * spec.m)


def test_cell_indices_outside_the_grid_are_rejected():
    spec, fam, f = _setup(seed=14)
    rho = linearize(f, fam)
    for cells in ([-1], [spec.n_cells], [0, 10**6], np.array([3, -1])):
        with pytest.raises(ValueError, match="cell index out of range"):
            nu_all(rho, cells)
        with pytest.raises(ValueError, match="cell index out of range"):
            nu(rho, cells, 0)


def test_choice_map_entries_are_a_read_only_int32_copy():
    spec, fam, f = _setup(seed=12)
    rho = linearize(f, fam)
    assert rho.entries.dtype == np.int32 and rho.entries.shape == (spec.n_cells,)
    with pytest.raises(ValueError, match="read-only"):
        rho.entries[0] = 0
    mine = rho.entries.astype(np.int64)
    copies = [ChoiceMap(fam, x) for x in (mine, rho.entries.tolist(), tuple(rho.entries.tolist()))]
    mine[:] = -1  # each map keeps its own copy
    for copy in copies:
        assert copy.entries.dtype == np.int32 and not copy.entries.flags.writeable
        assert np.array_equal(copy.entries, rho.entries)
        assert copy.covered_cells() == rho.covered_cells()
    assert all(type(i) is int for i in rho.covered_cells() + rho.exceptional_cells())


def test_choice_map_rejects_non_integer_or_misshapen_entries():
    spec, fam, f = _setup(seed=12)
    good = linearize(f, fam).entries
    for bad in (
        good.astype(float),
        [float(e) for e in good],
        good >= 0,
        [True] * spec.n_cells,
        good.reshape(spec.n, spec.n),
        good[:-1],
        np.append(good, -1),
        [],
    ):
        with pytest.raises(ValueError, match="corrupt choice map"):
            ChoiceMap(fam, bad)


def test_m2_constant_and_indicator():
    spec = GridSpec(4, 2, False)
    c = GridFunction.constant(spec, D(3, 1))
    m2 = m2_vertical(c)
    assert all(x == Fraction(3, 2) for x in m2.values)
    point = GridFunction.indicator(spec, [spec.cell_index(5, 9)])
    m2p = m2_vertical(point)
    assert m2p.value(5, 9) == 1
    for r in range(spec.n):
        d = abs(r - 9)
        assert m2p.value(5, r) >= Fraction(1, d + 1)
        assert m2p.value(4, r) == 0


def test_m2_against_all_segments():
    spec = GridSpec(3, 1, False)
    g = random_grid(spec, random.Random(15))
    m2 = m2_vertical(g)
    n = spec.n
    for c in range(n):
        col = [g.value(c, r).as_fraction() for r in range(n)]
        for r in range(n):
            best = Fraction(0)
            for r0 in range(r + 1):
                for r1 in range(r + 1, n + 1):
                    avg = sum(col[r0:r1], Fraction(0)) / (r1 - r0)
                    best = max(best, avg)
            assert m2.value(c, r) == best


def test_m2_translation_invariance():
    spec = GridSpec(3, 1, False)
    g = random_grid(spec, random.Random(16))
    shifted = GridFunction(
        spec, g.scale,
        [g.nums[((c - 2) % spec.n) << spec.m | r] for c in range(spec.n) for r in range(spec.n)],
    )
    a, b = m2_vertical(g), m2_vertical(shifted)
    for c in range(spec.n):
        for r in range(spec.n):
            assert b.value(c, r) == a.value((c - 2) % spec.n, r)


def _oracle_m2(g):
    return oracle.m2_vertical(g.spec.m, [x.as_fraction() for x in g.values()])


@settings(max_examples=14, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(3, 6),
    bits=st.sampled_from([0, 3, 40, 70, 130]),
    seed=st.integers(0, 1 << 16),
    scale=st.integers(0, 70),
)
def test_m2_vertical_matches_oracle(m, bits, seed, scale):
    spec = GridSpec(m, m - 2, False)
    n = spec.n
    rng = random.Random(seed)
    nums = [rng.getrandbits(bits) for _ in range(spec.n_cells)]
    top = (1 << bits) - 1
    nums[:n] = [0] * n  # a zero column
    nums[n : 2 * n] = [top] * n  # a constant column at the largest numerator
    nums[2 * n : 3 * n] = [(top, top >> 1)[r & 1] for r in range(n)]  # ties
    nums[3 * n : 4 * n] = [rng.choice((0, top)) for _ in range(n)]
    g = GridFunction(spec, scale, nums)
    assert m2_vertical(g).values == _oracle_m2(g)


def test_m2_vertical_dtype_bound_both_sides(monkeypatch):
    spec = GridSpec(4, 2, False)
    bound = 62 - 2 * spec.m  # numerator bits the int64 recurrence takes
    picked = []
    inner = maximal._vertical_dtype

    def spy(g):
        picked.append(inner(g))
        return picked[-1]

    monkeypatch.setattr(maximal, "_vertical_dtype", spy)
    rng = random.Random(24)
    for top, dtype in (((1 << bound) - 1, np.int64), (1 << bound, object)):
        nums = [rng.getrandbits(bound) for _ in range(spec.n_cells)]
        nums[: spec.n] = [top] * spec.n  # a column whose sums reach n * top
        g = GridFunction(spec, 5, nums)
        got = m2_vertical(g).values
        assert picked[-1] is dtype
        assert got == _oracle_m2(g)


def test_estimate_norm_single_member_optimum():
    spec, fam, f = _setup(seed=17)
    sub = fam.subfamily([1])
    R = sub.members[0]
    # the exact discrete optimum: f proportional to the coverage profile
    cellarea = spec.cell_area.as_fraction()
    cover_sq = Fraction(0)
    count = len(list(R.cell_indices()))
    u = 1 << (R.y_scale - spec.m)
    for c in range(R.col_lo, R.col_hi):
        lo, hi = R.slab_scaled(c)
        r0, r1 = lo // u, (hi - 1) // u
        for r in range(r0, r1 + 1):
            ov = min(hi, (r + 1) * u) - max(lo, r * u)
            cover_sq += Fraction(ov, u) ** 2
    opt_sq = cover_sq * cellarea * count * cellarea / R.measure.as_fraction() ** 2
    opt = math.sqrt(float(opt_sq))
    seed = GridFunction.indicator(spec, R.cell_indices())
    report = estimate_norm(sub, [seed], 2)
    assert report.best_ratio <= opt + 1e-9
    assert report.best_ratio >= opt - 1e-9  # the ascent reaches the optimum
    assert 0.9 <= report.best_ratio <= 1.0


def test_estimate_norm_errors_and_zero_support():
    spec, fam, f = _setup(seed=18)
    with pytest.raises(ValueError, match="degenerate seed"):
        estimate_norm(fam, [GridFunction.zeros(spec)], 0)
    # cells with zero overlap against every member (a strict subset of the
    # exceptional set X: center-uncovered cells can still graze slab edges)
    touched = set()
    for R in fam.members:
        m = spec.m
        for c in range(R.col_lo, R.col_hi):
            r0, r1 = R.touched_rows(c)
            touched.update(range((c << m) + r0, (c << m) + r1))
    untouched = [i for i in range(spec.n_cells) if i not in touched]
    assert untouched, "fixture should leave some cells untouched"
    rho = linearize(f, fam)
    assert set(untouched) <= set(rho.exceptional_cells())
    seed = GridFunction.indicator(spec, untouched)
    assert rayleigh_ratio(seed, fam) == 0.0


def test_norm_report_serialization():
    spec, fam, f = _setup(seed=19)
    rep = estimate_norm(fam, [f], 1)
    assert rep.best_ratio == max(r for _, _, r in rep.rows)
    text, csv = rep.to_text(), rep.to_csv()
    assert f"family_size {len(fam)}" in text
    assert csv.splitlines()[0] == "seed_id,iteration,ratio"
    assert len(csv.splitlines()) == len(rep.rows) + 1
