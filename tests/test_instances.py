"""Instance generators: compression trees, squares, fields, the corpus."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from dirmax import oracle
from dirmax.dyadic import DyadicRational as D
from dirmax.geometry import GridSpec
from dirmax.instances import (
    _randbelow_pow2,
    build_corpus,
    cascade_field,
    identity_field,
    make_kakeya_bundle,
    make_square_instance,
    organized_collections,
    random_field,
    random_grid,
)
from dirmax.family import is_good_collection


def test_kakeya_requires_dyadic_delta():
    with pytest.raises(ValueError, match="dyadic delta"):
        make_kakeya_bundle(6, D(3, 3))
    with pytest.raises(ValueError, match="dyadic delta"):
        make_kakeya_bundle(6, D(1))


def test_kakeya_minimal_depth_one():
    # delta = 1/2: two directions, support is the union of the two pieces,
    # recomputed here independently with Fractions from the digit scheme
    bundle = make_kakeya_bundle(4, D(1, 1))
    assert len(set(bundle.tails.sort_keys[:, 2].tolist())) == 1  # one slope index: top slope has no tail
    f = bundle.indicator
    spec = bundle.spec
    m, n = spec.m, 1
    # t_0 = 1/2, m0 = 1/4; quantizing 1/4 to the w = 1/2 grid rounds up to
    # 1/2, which the containment clamp for the slope-0 tail folds back to 0;
    # the all-bits slope starts at 0 anyway: no compression at depth 1
    offs = [Fraction(0), Fraction(0)]
    want = set()
    for j in (0, 1):
        s = Fraction(2 * j + 1, 4)
        for c in range(1 << (m - 1)):
            x = Fraction(2 * c + 1, 1 << (m + 1))
            lo = s * x + offs[j]
            for r in range(1 << m):
                if lo <= Fraction(2 * r + 1, 1 << (m + 1)) < lo + Fraction(1, 2):
                    want.add((c << m) + r)
    assert set(f.support_cells()) == want
    assert f.support_measure() == D(len(want), 2 * m)
    del n


def test_kakeya_field_is_identity():
    bundle = make_kakeya_bundle(7, D(1, 4))
    v, f = bundle.field, bundle.indicator
    assert v == identity_field(v.spec)
    assert set(f.nums) <= {0, 1}


def test_kakeya_support_monotone_in_depth():
    delta = D(1, 4)
    sups = [
        make_kakeya_bundle(7, delta, depth).support_measure.as_fraction()
        for depth in range(5)
    ]
    assert all(a >= b for a, b in zip(sups, sups[1:]))
    with pytest.raises(ValueError, match="depth"):
        make_kakeya_bundle(7, delta, 5)


def _kakeya_by_fractions(m: int, n: int, depth: int):
    """Tails key rows and indicator support from the digit scheme in Fractions:
    merge points t_i, m0 and each slope's offset b_j rounded half up to the
    offset grid (step w) and clamped so that the tail stays in the square."""
    w = Fraction(1, 1 << n)
    t = [Fraction(1, 1 << (n - i)) if i >= n - depth else Fraction(0) for i in range(n)]
    m0 = sum((2**i * w * t[i] for i in range(n)), Fraction(0))
    rows, support = [], set()
    for j in range(1 << n):
        b = m0 - sum((2**i * w * t[i] for i in range(n) if j >> i & 1), Fraction(0))
        tn = math.floor(b / w + Fraction(1, 2))
        slope = Fraction(2 * j + 1, 1 << (n + 1))
        t_max = math.floor((1 - w - slope) / w)  # tn * w + slope * 1 + w <= 1
        if t_max >= 0:
            tn = min(max(tn, 0), t_max)
            rows.append([n, 0, j, tn])
        for c in range(1 << (m - 1)):
            lo = slope * Fraction(2 * c + 1, 1 << (m + 1)) + tn * w
            # the rows whose centers (2r + 1) / 2^(m + 1) lie in [lo, lo + w)
            first, stop = (math.ceil(y * (1 << m) - Fraction(1, 2)) for y in (lo, lo + w))
            support.update((c << m) + r for r in range(first, min(stop, 1 << m)))
    return rows, support


def test_kakeya_bundle_matches_the_digit_scheme():
    for n in range(1, 6):
        for m in (n + 2, n + 3):
            for depth in range(n + 1):
                bundle = make_kakeya_bundle(m, D(1, n), depth)
                rows, support = _kakeya_by_fractions(m, n, depth)
                assert bundle.tails.sort_keys.tolist() == rows, (m, n, depth)
                assert set(bundle.indicator.support_cells()) == support, (m, n, depth)
                assert set(bundle.indicator.nums) <= {0, 1}


def test_kakeya_tails_are_dense_members():
    # dense: |G_{J,s}| >= delta |J| over each tail's base J and slope cell s,
    # from the oracle's count
    bundle = make_kakeya_bundle(7, D(1, 4))
    spec = bundle.spec
    vf = [x.as_fraction() for x in bundle.field.values()]
    delta = bundle.tails.params.delta.as_fraction()
    for k, i, j, _ in bundle.tails.sort_keys.tolist():
        assert k == spec.m_w  # full length, so the base is level 0
        count = oracle.g_count(spec.m, spec.m_w, vf, 0, i, j)
        assert Fraction(count, 1 << spec.m) >= delta


def test_square_instance():
    delta = D(1, 3)
    v, f = make_square_instance(7, delta)
    spec = f.spec
    assert spec.m_w == 3
    # ||f||_p = delta^(2/p) exactly
    for p in (1.0, 1.5, 2.0):
        assert f.lp_norm(p) == pytest.approx(float(delta.as_fraction()) ** (2 / p))
    assert f.support_measure() == delta * delta
    side = 1 << (7 - 3)
    assert set(f.support_cells()) == {
        (c << 7) + r for c in range(side) for r in range(side)
    }
    with pytest.raises(ValueError):
        make_square_instance(7, D(3, 3))


def test_random_field_on_level_m_grid():
    spec = GridSpec(5, 3, False)
    v = random_field(spec, random.Random(0))
    for x in v.values():
        assert x == D(x.num, x.exp)
        assert (x.as_fraction() * (1 << spec.m)).denominator == 1


_REPLAY_SIZES = (0, 1, 2, 623, 624, 625, 65535, 65536, 65537, 70001)


def _state_after(rng: random.Random) -> tuple[tuple, float]:
    """rng's state and its next random(), leaving rng itself untouched."""
    state = rng.getstate()
    probe = random.Random()
    probe.setstate(state)
    return state, probe.random()


def test_seeded_draws_match_the_randrange_loop():
    """The numpy replay gives the values of CPython's randrange(2^bits) loop and
    leaves the generator where the loop leaves it: the MT19937 state (around
    the 624-word refill and the replay's 2^16-word rounds) and the next
    random().  Bits 2-12 are random_field's m range and include random_grid's 3."""
    for seed in (0, 1, 7, 12345):
        for bits in range(2, 13):
            loop = random.Random(seed)
            values, after = [], {}
            for n in range(max(_REPLAY_SIZES) + 1):
                if n in _REPLAY_SIZES:
                    after[n] = _state_after(loop)
                values.append(loop.randrange(1 << bits))
            for n in _REPLAY_SIZES:
                rng = random.Random(seed)
                assert _randbelow_pow2(rng, bits, n).tolist() == values[:n], (seed, bits, n)
                assert (rng.getstate(), rng.random()) == after[n], (seed, bits, n)

    # a stream that has already drawn, then random_field and random_grid on
    # one generator, as the sweeps and the corpus draw them
    spec = GridSpec(6, 4, False)
    loop, rng = random.Random(12345), random.Random(12345)
    for r in (loop, rng):
        r.random(), r.randrange(5), r.getrandbits(7)
    want_field = [loop.randrange(spec.n) for _ in range(spec.n)]
    want_grid = [loop.randrange(8) for _ in range(spec.n_cells)]
    assert random_field(spec, rng).nums == want_field
    assert random_grid(spec, rng).nums == want_grid
    assert (rng.getstate(), rng.random()) == (loop.getstate(), loop.random())


class _OwnWords(random.Random):
    def getrandbits(self, k):
        return super().getrandbits(k) ^ 1


@pytest.mark.parametrize("rng", [random.SystemRandom(0), _OwnWords(0)], ids=["SystemRandom", "subclass"])
def test_seeded_draws_reject_other_generators(rng):
    """The replay decodes random.Random's own words; a generator that draws
    otherwise would get different values, so it is refused, not followed."""
    spec = GridSpec(4, 2, False)
    name = type(rng).__name__
    with pytest.raises(TypeError, match=name):
        random_grid(spec, rng)
    with pytest.raises(TypeError, match=name):
        random_field(spec, rng)


def test_cascade_field_values_dyadic_in_range():
    spec = GridSpec(6, 4, False)
    v = cascade_field(spec)
    assert all(D(0) <= x <= D(1) for x in v.values())


def test_organized_collections_distinct_and_good():
    spec = GridSpec(7, 5, False)
    cols = organized_collections(spec, 64)
    assert len(cols) == 64
    keys = {col.sort_keys.tobytes() for col in cols}
    assert len(keys) == 64
    for col in cols[:8] + cols[-8:]:
        good, w = is_good_collection(col)
        assert good and w.organized
    with pytest.raises(ValueError, match="too small"):
        organized_collections(GridSpec(4, 2, False), 100)


def test_corpus_composition():
    corpus = build_corpus()
    assert len(corpus) == 60
    assert sum(1 for i in corpus if i.spec.m <= 4) == 50
    assert sum(1 for i in corpus if i.spec.m == 5) == 10
    deltas = {i.delta.render() for i in corpus}
    assert {"1", "1/2^1", "1/2^3"} <= deltas
    offsteps = {i.spec.offstep_code for i in corpus}
    assert offsteps == {"w", "w2"}
    kinds = {i.name.split("_")[2] if i.spec.m <= 4 else i.name.split("_")[1] for i in corpus}
    assert {"const0", "ident", "rand", "cascade"} <= kinds
    # names unique and instances deterministic
    names = [i.name for i in corpus]
    assert len(set(names)) == len(names)
    again = build_corpus()
    assert [i.field == j.field for i, j in zip(corpus, again)]
    assert corpus[7].f == again[7].f
