"""Badness tables, window splits, the shrinking iteration, log N growth."""

from __future__ import annotations

import inspect
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dirmax.badness
from dirmax import oracle
from dirmax.badness import (
    BadnessEngine,
    ShrinkHalvingError,
    _cover_rows,
    _select_bad_windows,
    badness_components,
    badness_table,
    reformulate_check,
    shrink_iterate,
    shrink_once,
)
from dirmax.calibration import DEFAULT_LAMBDA0, REFORMULATE_FACTOR
from dirmax.dyadic import DyadicRational as D
from dirmax.family import FamilyParams, RectangleFamily, enumerate_family
from dirmax.geometry import (
    DyadicInterval,
    GridSpec,
    spec_from_offstep,
    window_triple,
)
from dirmax.grids import GridFunction
from dirmax.instances import (
    CorpusInstance,
    build_corpus,
    cascade_field,
    organized_collections,
    random_field,
    random_grid,
)
from dirmax.maximal import apply_T_adjoint, linearize, nu_all
from dirmax.sweeps import multi_collection_experiment
from dirmax.verify import raw_members


def _setup(seed=21, m=4, delta=D(1, 3)):
    spec = GridSpec(m, m - 2, False)
    v = random_field(spec, random.Random(seed))
    fam = enumerate_family(FamilyParams(spec, delta), v)
    f = random_grid(spec, random.Random(seed + 1))
    rho = linearize(f, fam)
    return spec, fam, rho, frozenset(rho.covered_cells())


def test_badness_empty_and_single():
    spec, fam, rho, E = _setup()
    assert badness_table([], rho).badness[0] == D(0)
    sub = fam.subfamily([0])
    f = random_grid(spec, random.Random(33))
    rho1 = linearize(f, sub)
    E1 = frozenset(rho1.covered_cells())
    nu_val = Fraction(nu_all(rho1, E1)[0], 1 << (2 * spec.m))
    want = nu_val / oracle.member_measure(spec.m_w, raw_members(sub)[0])
    assert badness_table(E1, rho1).badness[0].as_fraction() == want


def test_badness_against_direct_integral():
    spec, fam, rho, E = _setup(seed=22)
    raw = raw_members(fam)
    tab = badness_table(E, rho)
    mis = range(0, len(fam), 3)
    want = oracle.badness(spec.m, spec.m_w, raw, rho.entries, E, mis)
    assert [tab.badness[mi].as_fraction() for mi in mis] == want


def test_badness_monotone_in_set():
    spec, fam, rho, E = _setup(seed=23)
    small = frozenset(sorted(E)[: len(E) // 2])
    ts, tb = badness_table(small, rho), badness_table(E, rho)
    assert all(a <= b for a, b in zip(ts.badness, tb.badness))


def test_badness_components_rejects_out_of_range_index():
    spec, fam, rho, E = _setup(seed=24)
    for mi in (-1, len(fam), len(fam) + 5):
        with pytest.raises(ValueError, match="member index out of range"):
            badness_components(mi, DyadicInterval(1, 0), E, rho)


def test_badness_components_rejects_a_window_finer_than_the_rows():
    # K at a level above m has no pair of grid points for its ends
    spec, fam, rho, E = _setup(seed=24)
    for level in (spec.m + 1, spec.m + 3):
        with pytest.raises(ValueError, match="finer than the grid's rows"):
            badness_components(0, DyadicInterval(level, 1), E, rho)
    b_in, b_out = badness_components(0, DyadicInterval(spec.m, 1), E, rho)  # level m is a row
    assert b_in + b_out == badness_table(E, rho).badness[0]


def test_badness_components_builds_only_its_two_values(corpus, monkeypatch):
    """The split reads the window's triple as grid points: over three windows
    the only DyadicRationals built are the six (B_in, B_out) values."""
    inst = next(i for i in corpus if i.name == "m5_const38_d3")
    rho, E = inst.rho, inst.covered
    built = []
    init = D.__init__

    def spy(self, *args):
        built.append(args)
        init(self, *args)

    windows = [DyadicInterval(0, 0), DyadicInterval(2, 1), DyadicInterval(inst.spec.m, 31)]
    monkeypatch.setattr(D, "__init__", spy)
    parts = [badness_components(0, K, E, rho) for K in windows]
    monkeypatch.undo()
    assert len(built) == 2 * len(windows)
    assert all(b_in + b_out == parts[0][0] + parts[0][1] for b_in, b_out in parts)


def test_reformulate_identities():
    spec, fam, rho, E = _setup(seed=25)
    lhs, rhs = reformulate_check([], rho)
    assert lhs == D(0) and rhs == D(0)
    # single member: exact equality
    sub = fam.subfamily([2])
    f = random_grid(spec, random.Random(55))
    rho1 = linearize(f, sub)
    E1 = frozenset(rho1.covered_cells())
    l1, r1 = reformulate_check(E1, rho1)
    assert l1 == r1
    # factor-2 bound over random chooser sets
    rng = random.Random(56)
    for _ in range(20):
        cells = frozenset(i for i in E if rng.random() < 0.6)
        lhs, rhs = reformulate_check(cells, rho)
        assert lhs <= D(REFORMULATE_FACTOR) * rhs


def test_reformulate_and_components_match_oracle():
    # lhs sums c_a c_b |R_a cap R_b| over every ordered pair (disjoint bases
    # give no overlap), rhs sums nu_a B_a, and the in/out parts of B_R keep
    # the choosers under R's base whose pi_2 fits the clipped triple of K;
    # all from the oracle's Fractions, on a random chooser subset
    cases = ((4, 2, False, 41, D(1, 3)), (4, 2, True, 42, D(1, 2)), (5, 3, False, 44, D(1, 2)))
    for m, m_w, half, seed, delta in cases:
        spec = GridSpec(m, m_w, half)
        fam = enumerate_family(FamilyParams(spec, delta), random_field(spec, random.Random(seed)))
        rho = linearize(random_grid(spec, random.Random(seed + 1)), fam)
        rng = random.Random(seed + 2)
        E = frozenset(i for i in rho.covered_cells() if rng.random() < 0.7)
        raw = raw_members(fam)
        size = [oracle.member_measure(m_w, r) for r in raw]
        nu = [Fraction(c, 1 << (2 * m)) for c in oracle.nu_counts(raw, rho.entries, E)]
        active = [a for a, n in enumerate(nu) if n]
        overlaps = {}

        def ov(a, b):
            key = (min(a, b), max(a, b))
            if key not in overlaps:
                overlaps[key] = oracle.pair_overlap(m, m_w, raw[a], raw[b])
            return overlaps[key]

        lhs = sum(nu[a] / size[a] * nu[b] / size[b] * ov(a, b) for a in active for b in active)
        bad = dict(zip(active, oracle.badness(m, m_w, raw, rho.entries, E, active)))
        rhs = sum(nu[a] * bad[a] for a in active)
        got = reformulate_check(E, rho)
        assert (got[0].as_fraction(), got[1].as_fraction()) == (lhs, rhs)
        assert rhs < lhs < 2 * rhs  # the pairs of distinct members matter
        pi2 = [oracle.pi2_extent(m, m_w, r) for r in raw]
        for mi in sorted({active[0], active[-1], max(active, key=bad.get)}):
            base = (m_w - raw[mi][0], raw[mi][1])
            under = [q for q in active if oracle.base_contains(m_w, base, raw[q])]
            for level in range(m + 1):
                for index in sorted({0, (1 << level) // 3, (1 << level) - 1}):
                    tlo, thi = oracle._triple(Fraction(index, 1 << level), Fraction(index + 1, 1 << level))
                    parts = [Fraction(0), Fraction(0)]
                    for q in under:
                        fits = tlo <= pi2[q][0] and pi2[q][1] <= thi
                        parts[not fits] += nu[q] / size[q] * ov(mi, q) / size[mi]
                    b_in, b_out = badness_components(mi, DyadicInterval(level, index), E, rho)
                    assert (b_in.as_fraction(), b_out.as_fraction()) == tuple(parts)
                    assert sum(parts) == bad[mi]


def _engine_masses(rho, cells, I, a, b):
    """(in-mass, out-mass) over I x [a, b) (grid points over 2^m) of T* of the
    choosers under I, split by whether the chosen rectangle's pi_2 lies
    inside the window's triple: differences of the scan's cover rows, split
    by BadnessEngine.fits."""
    eng = BadnessEngine(rho.fam)
    covers = _cover_rows(eng, eng.weights(nu_all(rho, cells)).tolist())
    inside = eng.fits(*window_triple(a, b, rho.spec.n))
    masses = [0, 0]
    for qi in eng.inside_base((I.level, I.index)):
        if qi in covers:
            cover = covers[qi][2]
            masses[not inside[qi]] += cover[b] - cover[a]
    # slab masses over 2^S, times the cell width 2^-m, over 4^m / 2^m_w
    exp = 3 * eng.spec.m + eng.scale - eng.spec.m_w
    return D(masses[0], exp), D(masses[1], exp)


def _engine_split(rho, cells, I, a, b):
    """(B_in, B_out): the masses averaged over I x [a, b).  Averages over
    tripled (length 3/2^l) windows are exact but not dyadic, hence Fractions."""
    area = I.length.as_fraction() * Fraction(b - a, rho.spec.n)
    return tuple(mass.as_fraction() / area for mass in _engine_masses(rho, cells, I, a, b))


def test_in_out_split_identity_and_averages():
    spec, fam, rho, E = _setup(seed=26)
    tab = badness_table(E, rho)
    mi = max(range(len(fam)), key=lambda i: tab.badness[i].as_fraction())
    for level in range(spec.m + 1):
        for index in (0, (1 << level) - 1):
            K = DyadicInterval(level, index)
            b_in, b_out = badness_components(mi, K, E, rho)
            assert b_in + b_out == tab.badness[mi]
    # empty set gives zero averages
    assert _engine_split(rho, [], DyadicInterval(0, 0), 0, spec.n // 2) == (
        Fraction(0),
        Fraction(0),
    )
    # all choosers inside I x 3K -> out-average is 0
    I = DyadicInterval(0, 0)
    _, b_out = _engine_split(rho, E, I, 0, spec.n)  # K = [0, 1): 3K covers [0, 1]
    assert b_out == 0


def test_in_out_split_zero_length_window():
    # a zero-length window holds no mass on either side: its split is (0, 0)
    rho = build_corpus()[5].rho
    I, mid = DyadicInterval(0, 0), rho.spec.n // 2
    masses = _engine_masses(rho, rho.covered_cells(), I, mid, mid)
    assert masses == (D(0), D(0))


def test_mass_bound_for_window_sets():
    # integral of T*(indicator of E cap (I x 3K)) is at most |I| * |3K|
    spec, fam, rho, E = _setup(seed=27)
    m = spec.m
    for level, index in ((1, 0), (2, 1), (3, 5)):
        sh = m - level
        c0, c1 = 0, spec.n
        r0, r1 = window_triple(index << sh, (index + 1) << sh, spec.n)
        cells = [
            i for i in E if r0 <= (i & (spec.n - 1)) < r1 and c0 <= (i >> m) < c1
        ]
        g = apply_T_adjoint(rho, GridFunction.indicator(spec, cells))
        assert g.integral() <= D(1) * D(r1 - r0, m)


def _bad_windows(I, cells, rho, lam0):
    """The bad-window scan over one base I, as a shrinking step runs it."""
    eng = BadnessEngine(rho.fam)
    weights = eng.weights(nu_all(rho, cells)).tolist()
    return _select_bad_windows(eng, I, _cover_rows(eng, weights), lam0)


def test_select_bad_windows_degenerate():
    spec, fam, rho, E = _setup(seed=28)
    I = DyadicInterval(0, 0)
    assert _bad_windows(I, E, rho, D(1 << 12)) == ()
    assert _bad_windows(I, [], rho, D(1)) == ()
    for step in (shrink_once, shrink_iterate):
        with pytest.raises(ValueError, match="lambda0 must be at least 1"):
            step(E, rho, D(1, 1))


def _oracle_split(spec, raw, rho, E, I, lo, hi):
    """(B_in, B_out) over I x [lo, hi) from the oracle's Fraction definitions:
    each chooser Q under I adds count * area / |Q| * cell * (Q's slab length
    inside the window) to B_in when pi2(Q) lies inside the window's triple,
    else to B_out."""
    m, m_w = spec.m, spec.m_w
    tlo, thi = oracle._triple(lo, hi)
    parts = [Fraction(0), Fraction(0)]
    for q, cnt in zip(raw, oracle.nu_counts(raw, rho.entries, E)):
        if cnt and oracle.base_contains(m_w, (I.level, I.index), q):
            a, b = oracle.pi2_extent(m, m_w, q)
            slabs = (oracle.slab(m, m_w, q, c) for c in oracle.columns(m, m_w, q))
            length = sum((max(min(top, hi) - max(bottom, lo), Fraction(0)) for bottom, top in slabs), Fraction(0))
            parts[not (tlo <= a and b <= thi)] += cnt * Fraction(1, 1 << (3 * m)) / oracle.member_measure(m_w, q) * length
    box = Fraction(1, 1 << I.level) * (hi - lo)
    return tuple(part / box if box else Fraction(0) for part in parts)


def test_select_bad_windows_definition_replay():
    spec, fam, rho, E = _setup(seed=31)
    raw = raw_members(fam)
    selected = 0
    for lam in (Fraction(1), Fraction(3, 2)):
        for I in (DyadicInterval(0, 0), DyadicInterval(1, 0), DyadicInterval(2, 1)):
            got = _bad_windows(I, E, rho, D.from_fraction(lam))
            want = []
            for level in range(spec.m + 1):
                for index in range(1 << level):
                    lo, hi = Fraction(index, 1 << level), Fraction(index + 1, 1 << level)
                    if _oracle_split(spec, raw, rho, E, I, lo, hi)[1] < lam:
                        continue
                    tlo, thi = oracle._triple(lo, hi)
                    if _oracle_split(spec, raw, rho, E, I, tlo, thi)[1] < lam:
                        want.append(DyadicInterval(level, index))
            assert list(got) == want
            selected += len(got)
    assert selected  # the replay is not vacuous


# m_w = 0 is left out: no width-1 member fits in the unit square
def _dyadics_around(b: Fraction) -> list[D]:
    """The positive dyadics at resolution 2^-40 just below and just above b."""
    nums = {math.floor(b * (1 << 40)), math.ceil(b * (1 << 40))}
    return [D(num, 40) for num in sorted(nums) if num > 0]


def test_select_bad_windows_at_threshold():
    # lambda0 pinned next to every positive B_out value the oracle gives, so
    # any inexact mass, in/out flag or comparison in the scan flips a
    # decision; the scan itself takes lambda0 below 1 as well
    probes = 0
    cases = ((4, 2, True, 2, D(1, 3)), (4, 2, False, 31, D(1, 3)), (5, 2, False, 3, D(1, 2)))
    for m, m_w, half, seed, delta in cases:
        spec = GridSpec(m, m_w, half)
        fam = enumerate_family(FamilyParams(spec, delta), random_field(spec, random.Random(seed)))
        rho = linearize(random_grid(spec, random.Random(seed + 1)), fam)
        E = frozenset(rho.covered_cells())
        eng = BadnessEngine(fam)
        covers = _cover_rows(eng, eng.weights(nu_all(rho, E)).tolist())
        raw = raw_members(fam)
        for i_level in range(m_w + 1):
            for I in (DyadicInterval(i_level, 0), DyadicInterval(i_level, (1 << i_level) - 1)):
                for level in range(m + 1):
                    for index in range(1 << level):
                        lo, hi = Fraction(index, 1 << level), Fraction(index + 1, 1 << level)
                        b1 = _oracle_split(spec, raw, rho, E, I, lo, hi)[1]
                        b3 = _oracle_split(spec, raw, rho, E, I, *oracle._triple(lo, hi))[1]
                        K = DyadicInterval(level, index)
                        for lam in _dyadics_around(b1) + _dyadics_around(b3):
                            got = K in _select_bad_windows(eng, I, covers, lam)
                            assert got == (b1 >= lam > b3), (spec, I, K, lam)
                            probes += 1
    assert probes > 1000


_SPECS = st.integers(3, 5).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(1, m - 2), st.booleans())
)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    spec_args=_SPECS,
    seed=st.integers(0, 1 << 16),
    delta=st.sampled_from([D(1, 3), D(1, 2), D(1, 1)]),
    lam=st.sampled_from([D(1), D(3, 1), D(2), D(5, 1), D(3)]),
    pick=st.integers(0, 1 << 12),
)
@example(spec_args=(5, 3, True), seed=2, delta=D(1, 1), lam=D(1), pick=0)
@example(spec_args=(4, 2, True), seed=2, delta=D(1, 3), lam=D(3, 1), pick=77)
def test_shrink_and_split_match_oracle(spec_args, seed, delta, lam, pick):
    spec = GridSpec(*spec_args)
    m = spec.m
    fam = enumerate_family(FamilyParams(spec, delta), random_field(spec, random.Random(seed)))
    rho = linearize(random_grid(spec, random.Random(seed + 1)), fam)
    E = frozenset(rho.covered_cells())
    raw = raw_members(fam)
    got, diag = shrink_once(E, rho, lam, audit=False)
    assert set(got) == oracle.shrink_once(m, spec.m_w, raw, rho.entries, E, lam.as_fraction())
    windows = sorted(((I.level, I.index), (K.level, K.index)) for I, cal in diag.windows for K in cal)
    assert windows == oracle._bad_windows(m, spec.m_w, raw, rho.entries, E, lam.as_fraction())
    # windows whose triples clip at 0 and at 1, the triples themselves, and a
    # zero-length window
    i_level = pick % (spec.m_w + 1)
    I = DyadicInterval(i_level, (pick >> 3) % (1 << i_level))
    level = (pick >> 6) % (m + 1)
    sh = m - level
    for index in (0, (1 << level) - 1):
        K = index << sh, (index + 1) << sh
        for a, b in (K, window_triple(*K, spec.n)):
            want = _oracle_split(spec, raw, rho, E, I, Fraction(a, spec.n), Fraction(b, spec.n))
            assert _engine_split(rho, E, I, a, b) == want
    mid = spec.n // 2
    assert _engine_masses(rho, E, I, mid, mid) == (D(0), D(0))
    assert _oracle_split(spec, raw, rho, E, I, Fraction(1, 2), Fraction(1, 2)) == (0, 0)


def test_shrink_once_empty_and_oracle():
    spec, fam, rho, E = _setup(seed=29)
    ep, diag = shrink_once([], rho, DEFAULT_LAMBDA0)
    assert len(ep) == 0 and diag.halved
    raw = raw_members(fam)
    for lam in (1, 2):
        ep, _ = shrink_once(E, rho, lam, audit=False)
        want = oracle.shrink_once(spec.m, spec.m_w, raw, rho.entries, E, Fraction(lam))
        assert set(ep) == want


_LAMBDAS = (Fraction(1), Fraction(3, 2), Fraction(2))


def _twin_instance(m, m_w, half, field):
    """(raw members, chooser entries, covered cells) at delta 1/2."""
    spec = GridSpec(m, m_w, half)
    rng = random.Random(m + 2 * half)
    v = cascade_field(spec) if field == "cascade" else random_field(spec, rng)
    fam = enumerate_family(FamilyParams(spec, D(1, 1)), v)
    rho = linearize(random_grid(spec, rng), fam)
    return raw_members(fam), rho.entries.tolist(), rho.covered_cells()


def _replay_shrink(m, m_w, raw, counts, lams):
    """Per lambda0, the selected pairs (I, K) and E', with no per-window
    table: (I, K) is selected when the out-average over I x K reaches lambda0
    and the out3-average over I x triple(K) stays below it, each read from
    every chooser under I, every column and every slab clipped to the window."""
    cell, area = Fraction(1, 1 << m), Fraction(1, 1 << (2 * m))
    chosen = []  # (Q, count * area / |Q| * cell, Q's slabs)
    for q, cnt in zip(raw, counts):
        if cnt:
            coef = cnt * area / oracle.member_measure(m_w, q) * cell
            chosen.append((q, coef, [oracle.slab(m, m_w, q, c) for c in oracle.columns(m, m_w, q)]))

    def b_out(I, wlo, whi, fit_lo, fit_hi):
        total = Fraction(0)
        for q, coef, slabs in chosen:
            if not oracle.base_contains(m_w, I, q):
                continue
            if fit_lo <= min(lo for lo, _ in slabs) and max(hi for _, hi in slabs) <= fit_hi:
                continue
            for lo, hi in slabs:
                total += coef * max(min(hi, whi) - max(lo, wlo), Fraction(0))
        return total / (Fraction(1, 1 << I[0]) * (whi - wlo))

    pairs = {lam: [] for lam in lams}
    cells = {lam: set() for lam in lams}
    for i_level in range(m_w + 1):
        for i_index in range(1 << i_level):
            I = (i_level, i_index)
            cols = range(i_index << (m - i_level), (i_index + 1) << (m - i_level))
            for level in range(m + 1):
                for index in range(1 << level):
                    klo, khi = Fraction(index, 1 << level), Fraction(index + 1, 1 << level)
                    tlo, thi = oracle._triple(klo, khi)
                    b1 = b_out(I, klo, khi, tlo, thi)
                    if b1 < min(lams):
                        continue
                    b3 = b_out(I, tlo, thi, *oracle._triple(tlo, thi))
                    rows = range(int(tlo * (1 << m)), int(thi * (1 << m)))
                    for lam in lams:
                        if b1 >= lam > b3:
                            pairs[lam].append((I, (level, index)))
                            cells[lam] |= {(c << m) + r for c in cols for r in rows}
    return pairs, cells


@pytest.mark.parametrize(
    "m, m_w, half, field",
    [(3, 1, False, "random"), (3, 1, True, "cascade"), (4, 2, False, "cascade"),
     (4, 2, True, "random"), (5, 2, False, "random"), (5, 2, True, "cascade"), (5, 3, False, "cascade")],
)
def test_oracle_shrink_and_badness_match_the_definitions(m, m_w, half, field):
    """oracle.shrink_once builds per-window mass tables over the choosers
    outside each triple, and oracle.badness per-base chooser weights; the
    replays here build neither.  The selected pairs pin the out and out3
    sets, which E' (a union of boxes) can hide.  B_R sums, over the choosers
    Q under R's base, count * area / |Q| * |R cap Q| / |R| (pair_overlap)."""
    raw, entries, E = _twin_instance(m, m_w, half, field)
    counts = oracle.nu_counts(raw, entries, E)
    pairs, cells = _replay_shrink(m, m_w, raw, counts, _LAMBDAS)
    for lam in _LAMBDAS:
        assert oracle._bad_windows(m, m_w, raw, entries, E, lam) == pairs[lam]
        assert oracle.shrink_once(m, m_w, raw, entries, E, lam) == cells[lam]
    assert pairs[_LAMBDAS[0]]  # the replay is not vacuous

    area = Fraction(1, 1 << (2 * m))

    def b_def(mi):
        k, i, _j, _b = raw[mi]
        total = sum(
            cnt * area / oracle.member_measure(m_w, q) * oracle.pair_overlap(m, m_w, raw[mi], q)
            for q, cnt in zip(raw, counts)
            if cnt and oracle.base_contains(m_w, (m_w - k, i), q)
        )
        return total / oracle.member_measure(m_w, raw[mi])

    every = [b_def(mi) for mi in range(len(raw))]
    n = len(raw)
    for mis in ([], [n - 1, 0, n // 2], [1, 1, 0, 1], range(n)):
        assert oracle.badness(m, m_w, raw, entries, E, mis) == [every[mi] for mi in mis]
    assert any(every)


@pytest.mark.parametrize("end", [0, 1])
def test_oracle_triple_test_is_closed(end):
    """pi2(Q) inside a triple is tlo <= bottom and top <= thi.  A family
    member's extent never ends on a row edge (its ends are odd over
    2^(k + m + 2)), so one chooser is moved down until its extent's bottom
    (end 0), or up until its top (end 1), sits on a row edge, where some
    triple ends."""
    m, m_w = 3, 1
    raw, entries, E = _twin_instance(m, m_w, False, "random")
    counts = oracle.nu_counts(raw, entries, E)
    qi = next(q for q, cnt in enumerate(counts) if cnt)
    k, i, j, b = raw[qi]
    y = oracle.pi2_extent(m, m_w, raw[qi])[end]
    edge = (math.ceil if end else math.floor)(y * (1 << m))
    raw[qi] = (k, i, j, b + Fraction(edge, 1 << m) - y)
    lo, hi = oracle.pi2_extent(m, m_w, raw[qi])
    assert (lo, hi)[end] * (1 << m) == edge and 0 <= lo < hi <= 1
    pairs, cells = _replay_shrink(m, m_w, raw, counts, _LAMBDAS[:1])
    assert oracle._bad_windows(m, m_w, raw, entries, E, _LAMBDAS[0]) == pairs[_LAMBDAS[0]]


def test_oracle_badness_rejects_out_of_range_index():
    spec, fam, rho, E = _setup(seed=24)
    raw = raw_members(fam)
    for mi in (-1, len(fam), len(fam) + 5):
        with pytest.raises(IndexError, match="member index"):
            oracle.badness(spec.m, spec.m_w, raw, rho.entries, E, [0, mi])


def test_oracle_badness_weighs_the_choosers_once_per_base(monkeypatch):
    """oracle.badness finds the choosers under a base once, however many of
    the asked members share it: one base_contains call per chooser and
    distinct base."""
    spec, fam, rho, E = _setup(seed=24)
    raw = raw_members(fam)
    chosen = sum(1 for cnt in oracle.nu_counts(raw, rho.entries, E) if cnt)
    bases = {(spec.m_w - k, i) for k, i, _j, _b in raw}
    assert len(bases) < len(raw)
    calls = []
    contains = oracle.base_contains

    def counted(*args):
        calls.append(args)
        return contains(*args)

    monkeypatch.setattr(oracle, "base_contains", counted)
    for mis, n_bases in (([0, 0, 0], 1), (range(len(raw)), len(bases))):
        calls.clear()
        oracle.badness(spec.m, spec.m_w, raw, rho.entries, E, mis)
        assert len(calls) == chosen * n_bases


def test_shrink_iterate_trace():
    spec, fam, rho, E = _setup(seed=30)
    trace = shrink_iterate(E, rho, DEFAULT_LAMBDA0)
    assert trace.steps[0].tolist() == sorted(E)
    assert not trace.truncated
    e0 = len(E)
    for j, step in enumerate(trace.steps):
        assert len(step) << j <= e0
    for a, b in zip(trace.steps, trace.steps[1:]):
        assert set(b.tolist()) <= set(a.tolist())  # nested chain (shrunken sets re-filter)
    for diag in trace.diagnostics:
        assert diag.halved and not diag.dichotomy_failures
    for band in trace.bands:
        if band.k >= 2:
            assert band.contained
    csv = trace.to_csv()
    assert csv.splitlines()[0] == "step,measure"
    assert len(csv.splitlines()) == len(trace.steps) + 1
    # empty input: trivial trace
    t2 = shrink_iterate([], rho, DEFAULT_LAMBDA0)
    assert len(t2.steps) == 1 and t2.measures[0] == D(0)


def test_shrink_cell_sets_are_sorted_read_only_int32_arrays():
    spec, fam, rho, E = _setup(seed=29)
    ep, diag = shrink_once(E, rho, D(1))
    trace = shrink_iterate(E, rho, DEFAULT_LAMBDA0)
    assert len(ep) and len(trace.steps) > 1
    for a in (ep, *trace.steps):
        assert a.dtype == np.int32 and a.ndim == 1 and not a.flags.writeable
        assert (np.diff(a) > 0).all()
    # the cells in any order, repeats allowed
    cells = sorted(E)
    for given in (cells[::-1], cells * 2, np.array(cells[::-1])):
        again, d = shrink_once(given, rho, D(1))
        assert np.array_equal(again, ep)
        assert d.windows == diag.windows and d.halved == diag.halved


def test_shrink_halving_error_carries_trace():
    # lambda0 = 1 fails halving on this instance (and at every seed 0..39)
    spec, fam, rho, E = _setup(seed=7, m=4)
    with pytest.raises(ShrinkHalvingError) as info:
        shrink_iterate(E, rho, 1)
    trace = info.value.trace
    assert not trace.diagnostics[-1].halved
    assert len(trace.diagnostics) == len(trace.steps) - 1
    assert trace.bands == ()
    assert 2 * len(trace.steps[-1]) > len(trace.steps[-2])


def test_shrink_iterate_computes_badness_once_per_member_and_step(monkeypatch):
    """Each step's audit computes B_R once per member, and the bands read the
    first step's table (B_R against E_0) instead of computing it again.  On
    the m 5 cascade no member passes the cap 20 * lambda0, so the audit makes
    no B_R^{E'} calls either."""
    spec = spec_from_offstep(5, 3, "w")
    inst = CorpusInstance("cascade_m5", spec, D(1, 1), cascade_field(spec), 0)
    calls = []
    badness_of = BadnessEngine.badness_of

    def counted(eng, mi, weights):
        calls.append(mi)
        return badness_of(eng, mi, weights)

    monkeypatch.setattr(BadnessEngine, "badness_of", counted)
    trace = shrink_iterate(inst.covered, inst.rho, D(5, 2))
    assert len(trace.diagnostics) == 2 and trace.bands == ()
    assert len(calls) == len(inst.family) * len(trace.diagnostics)
    exp = BadnessEngine(inst.family).exp
    assert tuple(D(b, exp) for b in trace.diagnostics[0].badness) == badness_table(inst.covered, inst.rho).badness
    assert list(inspect.signature(shrink_iterate).parameters) == ["cells", "rho", "lam0"]
    assert list(inspect.signature(BadnessEngine).parameters) == ["fam"]


def _oracle_union(m, tables) -> Fraction:
    """Measure of a union of slab tables: per column, a Fraction interval union."""
    by_column: dict[int, list[tuple[Fraction, Fraction]]] = {}
    for table in tables:
        for c, lo, hi in table:
            by_column.setdefault(c, []).append((lo, hi))
    total = Fraction(0)
    for spans in by_column.values():
        top = Fraction(0)
        for lo, hi in sorted(spans):
            if hi > top:
                total += hi - max(lo, top)
                top = hi
    return total / (1 << m)


def _touched(m: int, m_w: int, raw) -> list[set[int]]:
    """Per member, the cells its staircase overlaps: from its slab table and row rule."""
    tables = [oracle._slab_table(m, m_w, q) for q in raw]
    return [{(c << m) + r for c, lo, hi in table for r in oracle._rows(m, lo, hi)} for table in tables]


def _records(diag) -> list[tuple]:
    return [(r.member, r.badness, r.inside_shrunk, r.badness_after) for r in diag.dichotomy_failures]


def _oracle_records(m, m_w, raw, entries, touched, E, E_next, cap: Fraction) -> list[tuple]:
    """The dichotomy audit of one shrinking step E -> E_next from oracle.badness:
    a record for every R with B_R > cap that is not inside E_next with
    B_R <= cap + B_R^{E_next}."""
    want = []
    every = range(len(raw))
    before = oracle.badness(m, m_w, raw, entries, E, every)
    after = oracle.badness(m, m_w, raw, entries, E_next, every)
    for mi, (b, b_after) in enumerate(zip(before, after)):
        if b <= cap:
            continue
        inside = touched[mi] <= set(E_next)
        if inside and b <= cap + b_after:
            continue
        want.append((mi, D.from_fraction(b).render(), inside, D.from_fraction(b_after).render()))
    return want


@pytest.mark.parametrize(
    "m, half, seed, lam",
    [(4, False, 3, D(5, 2)), (4, True, 2, D(5, 2)), (5, False, 0, D(5, 2)),
     (5, True, 2, D(5, 2)), (5, True, 2, D(3, 1))],
)
def test_dichotomy_audit_and_bands_match_the_oracle(monkeypatch, m, half, seed, lam):
    """With the dichotomy factor at 1 (no corpus instance reaches B_R >= 20
    lambda0) every audit record and band row is replayed from the oracle:
    B_R from oracle.badness, the cells R touches from its slab table and
    row rule, and the band unions as per-column interval unions."""
    monkeypatch.setattr(dirmax.badness, "UNIVERSAL_BADNESS_FACTOR", 1)
    spec = GridSpec(m, m - 2, half)
    fam = enumerate_family(FamilyParams(spec, D(1, 1)), random_field(spec, random.Random(m)))
    rho = linearize(random_grid(spec, random.Random(seed)), fam)
    trace = shrink_iterate(frozenset(rho.covered_cells()), rho, lam)
    raw, entries, m_w = raw_members(fam), rho.entries.tolist(), spec.m_w
    tables = [oracle._slab_table(m, m_w, q) for q in raw]
    touched = _touched(m, m_w, raw)
    eng = BadnessEngine(fam)
    for mi, R in enumerate(fam.members):
        want = [(c << m) + r for c in range(R.col_lo, R.col_hi) for r in range(*R.touched_rows(c))]
        assert sorted(map(int, eng.touched_cells(mi))) == sorted(want) == sorted(touched[mi])
    cap = lam.as_fraction()
    steps = [[int(i) for i in step] for step in trace.steps]
    records = 0
    for E, E_next, diag in zip(steps, steps[1:], trace.diagnostics):
        got = _records(diag)
        assert got == _oracle_records(m, m_w, raw, entries, touched, E, E_next, cap)
        records += len(got)
    b0 = oracle.badness(m, m_w, raw, entries, steps[0], range(len(raw)))
    want_bands = []
    for k in range(1, len(raw) + 2):
        members = tuple(mi for mi, b in enumerate(b0) if b >= cap * k)
        if not members:
            break
        target = set(steps[k - 1]) if k - 1 < len(steps) else set()
        contained = k < 2 or all(touched[mi] <= target for mi in members)
        union = _oracle_union(m, (tables[mi] for mi in members))
        reference = Fraction(len(steps[0]), 1 << (2 * m + k))
        want_bands.append((k, members, union, reference, contained))
    got_bands = [
        (b.k, b.members, b.union_measure.as_fraction(), b.reference.as_fraction(), b.contained)
        for b in trace.bands
    ]
    assert got_bands == want_bands
    assert records and got_bands  # the replay is not vacuous


def test_dichotomy_audit_inside_shrunk_matches_the_oracle(monkeypatch):
    """The audit's "R inside E'" branch: at dichotomy factor 0 and lambda0 1,
    one shrinking step of the m 4 cascade (m_w 2, delta 1/2, random_grid seed
    0) audits every member of positive badness.  It gives 12 records, 2 of
    them for members inside E' whose badness after the step is too small,
    and each record is replayed from the oracle.  (shrink_iterate is not run
    at factor 0: its band loop would not end.)"""
    monkeypatch.setattr(dirmax.badness, "UNIVERSAL_BADNESS_FACTOR", 0)
    spec = spec_from_offstep(4, 2, "w")
    inst = CorpusInstance("cascade_m4", spec, D(1, 1), cascade_field(spec), 0)
    rho = inst.rho
    E = rho.covered_cells()
    shrunk, diag = shrink_once(E, rho, D(1))
    raw = raw_members(inst.family)
    touched = _touched(spec.m, spec.m_w, raw)
    got = _records(diag)
    entries = rho.entries.tolist()
    assert got == _oracle_records(spec.m, spec.m_w, raw, entries, touched, E, shrunk.tolist(), Fraction(0))
    assert len(got) == 12 and sum(inside for _, _, inside, _ in got) == 2


@pytest.mark.parametrize("m, half, seed", [(4, False, 3), (4, True, 2), (5, False, 0)])
def test_audit_and_bands_at_threshold(monkeypatch, m, half, seed):
    """lambda0 pinned at every member's B_R >= 1 and 2^-40 below and above
    it, with the dichotomy factor at 1: the audit's B_R > lambda0 and the
    bands' B_R >= lambda0 k flip exactly there, so an inexact value or a
    wrong comparison changes a record or a band.  A step that does not halve
    leaves its first audit to check.  (B_R - B_R^{E'} stays below lambda0 / 4
    here; the factor-0 test above meets that comparison at equality.)"""
    monkeypatch.setattr(dirmax.badness, "UNIVERSAL_BADNESS_FACTOR", 1)
    spec = GridSpec(m, m - 2, half)
    fam = enumerate_family(FamilyParams(spec, D(1, 1)), random_field(spec, random.Random(m)))
    rho = linearize(random_grid(spec, random.Random(seed)), fam)
    E = rho.covered_cells()
    raw, entries, m_w = raw_members(fam), rho.entries.tolist(), spec.m_w
    touched = _touched(m, m_w, raw)
    b0 = oracle.badness(m, m_w, raw, entries, E, range(len(raw)))
    records = bands = 0
    for b in sorted({b for b in b0 if b >= 1}):
        for lam in (D.from_fraction(b) + D(d, 40) for d in (-1, 0, 1)):
            if lam < 1:
                continue
            try:
                trace = shrink_iterate(E, rho, lam)
            except ShrinkHalvingError as err:
                trace = err.trace
            got = _records(trace.diagnostics[0])
            cap = lam.as_fraction()
            assert got == _oracle_records(m, m_w, raw, entries, touched, E, trace.steps[1].tolist(), cap)
            want = []
            for k in range(1, len(raw) + 2):
                members = tuple(mi for mi, x in enumerate(b0) if x >= cap * k)
                if not members:
                    break
                want.append((k, members))
            if trace.diagnostics[-1].halved:
                assert [(row.k, row.members) for row in trace.bands] == want
                bands += len(want)
            records += len(got)
    assert records and bands  # the replay is not vacuous


def test_multi_collection_experiment():
    spec = GridSpec(5, 3, False)

    def builder(n):
        return organized_collections(spec, n)

    def seeds(union):
        side = 1 << (spec.m - spec.m_w)
        cells = [(c << spec.m) + r for c in range(side) for r in range(side)]
        return [GridFunction.indicator(spec, cells)]

    rep = multi_collection_experiment([1, 2, 4], builder, seeds, ascent_iters=1)
    assert [row[0] for row in rep.rows] == [1, 2, 4]
    assert all(ratio > 0 for _, ratio, _ in rep.rows)
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "n,best_ratio,fit_residual"

    # identical copies don't change the union ratio (dedup)
    cols = organized_collections(spec, 2)
    u1 = cols[0].union(cols[1])
    u2 = u1.union(cols[0])
    assert u1 == u2

    # a non-good builder is rejected with its witness
    params = FamilyParams(spec, D(1, 3))
    bad = RectangleFamily(params, [(3, 0, 0, 0), (3, 0, 1, 0)])  # one base [0, 1), two slopes
    with pytest.raises(ValueError, match="non-good"):
        multi_collection_experiment([1], lambda n: [bad], seeds)
    with pytest.raises(ValueError, match="duplicate"):
        multi_collection_experiment([2], lambda n: [cols[0], cols[0]], seeds)
