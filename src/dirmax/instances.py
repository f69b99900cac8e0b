"""Test-instance generators: Kakeya compression trees, squares, random fields.

The Kakeya instance pairs the identity slope field with the indicator of a
compressed union of width-w, length-1/2 parallelograms covering all discrete
directions.  Offsets follow a binary digit scheme: slopes differing in digit
i share a merge point t_i, so the union folds scale by scale (depth controls
how many digit scales are staggered; depth 0 is the plain bush at x = 0).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dyadic import DyadicRational
from .family import FamilyParams, RectangleFamily, _offset_rows, enumerate_family
from .geometry import GridSpec, first_center_row, max_offset_steps, slab_run
from .grids import GridFunction, OneVarField
from .maximal import ChoiceMap, linearize


def identity_field(spec: GridSpec) -> OneVarField:
    """v(x) = x sampled at column centers."""
    return OneVarField(spec, spec.m + 1, [2 * c + 1 for c in range(spec.n)])


def constant_field(spec: GridSpec, value) -> OneVarField:
    return OneVarField.constant(spec, value)


def random_field(spec: GridSpec, rng: random.Random) -> OneVarField:
    """Per-column values drawn uniformly from the level-m dyadic grid."""
    n = spec.n
    return OneVarField(spec, spec.m, [rng.randrange(n) for _ in range(n)])


def random_grid(spec: GridSpec, rng: random.Random) -> GridFunction:
    """Random nonnegative test function with integer numerators in [0, 8)."""
    return GridFunction._adopt(spec, 0, [rng.randrange(8) for _ in range(spec.n_cells)])


def cascade_field(spec: GridSpec) -> OneVarField:
    """A multi-scale field that drives the density-2 stopping threshold.

    Columns of [2^-t-1, 2^-t) spread their values uniformly over the slope
    cell [2^(t-m_w), 2^(t+1-m_w)), so each scale t contributes density 1/2
    on the chain [0, 2^-t) at delta = 1/2 without blocking coarser scales;
    the innermost block doubles the last scale to density 1.  Needs m_w >= 3
    to accumulate a running sum of 2.
    """
    m, mw = spec.m, spec.m_w
    scale = 2 * m + 2
    nums = [0] * spec.n
    half = 1 << (m - 1)
    for c in range(half, spec.n):  # scale 0: spread inside [0, 2^-mw)
        nums[c] = (c - half) << (scale - mw - (m - 1))
    for t in range(1, mw):
        c_lo = 1 << (m - t - 1)
        width_exp = mw - t  # region [2^-width_exp, 2^(1-width_exp))
        for c in range(c_lo, c_lo << 1):
            nums[c] = (1 << (scale - width_exp)) + (
                (c - c_lo) << (scale - width_exp - (m - t - 1))
            )
    n_in = 1 << (m - mw)
    for c in range(n_in):  # interleave into the t = mw-1 region
        nums[c] = (1 << (scale - 1)) + ((2 * c + 1) << (scale - 2 - (m - mw)))
    return OneVarField(spec, scale, nums)


# -- Kakeya compression instances ---------------------------------------------


@dataclass(frozen=True)
class KakeyaBundle:
    spec: GridSpec
    field: OneVarField
    indicator: GridFunction
    tails: RectangleFamily
    depth: int
    support_measure: DyadicRational


def _log2_delta(delta: DyadicRational) -> int:
    if delta.num != 1 or delta.exp < 1:
        raise ValueError("dyadic delta required")
    return delta.exp


def make_kakeya_bundle(m: int, delta: DyadicRational, depth: int | None = None) -> KakeyaBundle:
    """Compression-tree instance: width w = delta, all 2^n discrete directions.

    Support parallelograms have length 1/2 over base [0, 1/2), with offsets
    quantized to the family grid so that the full-length tail rectangle of
    each direction covers its support piece exactly.  Tails are the members
    that carry the large averages; their spread beyond the tree is what makes
    the ratio grow while the compressed support shrinks.
    """
    n = _log2_delta(delta)
    spec = GridSpec(m, n, False)
    if depth is None:
        depth = n
    if not 0 <= depth <= n:
        raise ValueError("depth out of range")

    # merge point per digit: fixed schedule t_i = 2^-(n-i) for the top `depth`
    # digits (finer slope gaps fold earlier), 0 below -- so deeper compression
    # strictly refines and the support measure is nonincreasing in depth.
    # Slope j's offset, m0 = sum_i 2^i delta t_i less the terms of its set
    # digits, is B_j / 4^n with B_j the sum of 4^i over the staggered digits i
    # clear in j; rounded half up to the step w it is (2 B_j + 2^n) >> (n + 1)
    j = np.arange(1 << n, dtype=np.int64)
    B = sum(((1 - (j >> i & 1)) << (2 * i) for i in range(n - depth, n)), np.zeros_like(j))
    tn = (2 * B + (1 << n)) >> (n + 1)
    # one full-length tail rectangle per direction that has one (every slope
    # but the topmost), its offset clamped to the family grid (tn >= 0); the
    # support piece is the cell centers in (n, 0, j, tn)'s slabs on [0, 1/2)
    t_max = max_offset_steps(spec, 0, j)
    has_tail = t_max >= 0
    tn = np.where(has_tail, np.minimum(tn, t_max), tn)
    keys = np.stack([np.full_like(j, n), np.zeros_like(j), j, tn], axis=1)[has_tail]
    nums = np.zeros(spec.n_cells, dtype=np.int64)
    cols = np.arange(1 << (m - 1))
    _, lo, step = slab_run(spec, n, 0, j, tn)
    for lo_j, step_j in zip(lo.tolist(), step.tolist()):
        r = first_center_row(n, lo_j + step_j * cols)[:, None] + np.arange(1 << (m - n))
        nums[((cols[:, None] << m) + r)[r < spec.n]] = 1
    indicator = GridFunction._adopt(spec, 0, nums.tolist())

    tails = RectangleFamily._adopt(FamilyParams(spec, delta), keys)

    return KakeyaBundle(
        spec, identity_field(spec), indicator, tails, depth,
        indicator.support_measure(),
    )


def make_square_instance(
    m: int, delta: DyadicRational
) -> tuple[OneVarField, GridFunction]:
    """Identity field with the indicator of the [0, delta)^2 corner square."""
    if delta.num != 1:
        raise ValueError("dyadic delta required")
    spec = GridSpec(m, delta.exp, False)
    side = 1 << (m - delta.exp)
    cells = [(c << m) + r for c in range(side) for r in range(side)]
    return identity_field(spec), GridFunction.indicator(spec, cells)


# -- organized single-direction collections (log N growth inputs) -------------


def organized_collections(spec: GridSpec, count: int) -> list[RectangleFamily]:
    """`count` distinct organized good collections: one (interval, slope) each.

    Pairs are taken from full-length slopes first, then per-half collections
    at the next level down, and so on; each collection holds every admissible
    offset for its (base, slope) pair.
    """
    params = FamilyParams(spec, DyadicRational(1, spec.m_w))
    runs = [  # (k, base index, slope index) with at least one offset
        (k, i, j)
        for k in range(spec.m_w, -1, -1)
        for i in range(1 << (spec.m_w - k))
        for j in range(1 << k)
        if max_offset_steps(spec, i, j) >= 0
    ][:count]
    if len(runs) < count:
        raise ValueError("grid too small for that many collections")
    return [RectangleFamily._adopt(params, _offset_rows(spec, [r])) for r in runs[:count]]


# -- the verification corpus ---------------------------------------------------


class CorpusInstance:
    """One verification scenario: field + density + a seeded test function."""

    def __init__(self, name: str, spec: GridSpec, delta: DyadicRational, field: OneVarField, seed: int):
        self.name = name
        self.spec = spec
        self.delta = delta
        self.field = field
        self.seed = seed

    @property
    def params(self) -> FamilyParams:
        return FamilyParams(self.spec, self.delta)

    @cached_property
    def f(self) -> GridFunction:
        return random_grid(self.spec, random.Random(self.seed))

    @cached_property
    def family(self) -> RectangleFamily:
        return enumerate_family(self.params, self.field)

    @cached_property
    def rho(self) -> ChoiceMap:
        return linearize(self.f, self.family)

    @cached_property
    def covered(self) -> frozenset[int]:
        return frozenset(self.rho.covered_cells())

    def __repr__(self):
        return f"CorpusInstance({self.name})"


_DELTAS = [DyadicRational(1), DyadicRational(1, 1), DyadicRational(1, 3)]


def _fields_for(spec: GridSpec, seed: int) -> list[tuple[str, OneVarField]]:
    rng = random.Random(seed)
    return [
        ("const0", constant_field(spec, DyadicRational(0))),
        ("const58", constant_field(spec, DyadicRational(5, 3))),
        ("ident", identity_field(spec)),
        ("rand", random_field(spec, rng)),
    ]


def build_corpus() -> list[CorpusInstance]:
    """50 instances at m <= 4 plus 10 at m = 5, deterministic.

    Covers constant fields, the identity field, random fields, densities
    {1, 1/2, 1/8} and both offset steps.
    """
    out: list[CorpusInstance] = []
    seed = 1000
    for m in (3, 4):
        for half in (False, True):
            spec = GridSpec(m, m - 2, half)
            for fname, field in _fields_for(spec, seed):
                for delta in _DELTAS:
                    out.append(
                        CorpusInstance(
                            f"m{m}_{spec.offstep_code}_{fname}_d{delta.exp}",
                            spec, delta, field, seed,
                        )
                    )
                    seed += 1
    spec = GridSpec(4, 2, False)
    for extra in range(2):
        rng = random.Random(9000 + extra)
        out.append(
            CorpusInstance(
                f"m4_extra_rand{extra}", spec, DyadicRational(1, 3),
                random_field(spec, rng), 9000 + extra,
            )
        )
        seed += 1
    assert len(out) == 50
    big = GridSpec(5, 3, False)
    names = [
        ("const38", constant_field(big, DyadicRational(3, 3))),
        ("ident", identity_field(big)),
        ("rand0", random_field(big, random.Random(7000))),
        ("rand1", random_field(big, random.Random(7001))),
        ("cascade", cascade_field(big)),
    ]
    for delta in (DyadicRational(1, 1), DyadicRational(1, 3)):
        for fname, field in names:
            out.append(
                CorpusInstance(f"m5_{fname}_d{delta.exp}", big, delta, field, 7100 + delta.exp)
            )
    assert len(out) == 60
    return out
