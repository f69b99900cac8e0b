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
from .family import FamilyParams, RectangleFamily, _max_offset_steps, _offset_rows, enumerate_family
from .geometry import GridSpec
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


def random_grid(spec: GridSpec, rng: random.Random, top: int = 8) -> GridFunction:
    """Random nonnegative test function with small integer numerators."""
    return GridFunction(spec, 0, [rng.randrange(top) for _ in range(spec.n_cells)])


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
    nslopes = 1 << n
    if depth is None:
        depth = n
    if not 0 <= depth <= n:
        raise ValueError("depth out of range")

    # merge point per digit: fixed schedule t_i = 2^-(n-i) for the top `depth`
    # digits (finer slope gaps fold earlier), 0 below -- so deeper compression
    # strictly refines and the support measure is nonincreasing in depth
    t: list[DyadicRational] = []
    for i in range(n):
        if i >= n - depth:
            t.append(DyadicRational(1, n - i))
        else:
            t.append(DyadicRational(0))

    m0 = DyadicRational(0)
    for i in range(n):
        m0 = m0 + DyadicRational(1 << i, n) * t[i]  # 2^i * delta * t_i
    # one full-length tail rectangle per direction that has one (every slope
    # but the topmost), its offset quantized to the family grid and clamped
    offsets: list[DyadicRational] = []
    rows: list[tuple[int, int, int, int]] = []  # key rows over the base [0, 1)
    for j in range(nslopes):
        b = m0
        for i in range(n):
            if (j >> i) & 1:
                b = b - DyadicRational(1 << i, n) * t[i]
        tn = ((b.num << (n + 1)) + (1 << b.exp)) >> (b.exp + 1)
        t_max = _max_offset_steps(spec, 0, j)
        if t_max >= 0:
            tn = min(max(tn, 0), t_max)
            rows.append((n, 0, j, tn))
        offsets.append(DyadicRational(tn, n))

    # rasterize the support by cell-center membership
    ncols_tree = 1 << (m - 1)
    nums = [0] * spec.n_cells
    row_top = spec.n
    cnt = 1 << (m - n)
    for j in range(nslopes):
        s_num = 2 * j + 1  # slope center = s_num / 2^(n+1)
        b = offsets[j]
        for c in range(ncols_tree):
            # lo = s * x_c + b at scale n + m + 2
            sc = n + m + 2
            lo = s_num * (2 * c + 1) + (b.num << (sc - b.exp))
            d = 1 << (sc - m - 1)
            r0 = (lo + d - 1) // (2 * d)
            for r in range(r0, min(r0 + cnt, row_top)):
                nums[(c << m) + r] = 1
    indicator = GridFunction(spec, 0, nums)

    keys = np.array(rows, dtype=np.int64).reshape(-1, 4)
    tails = RectangleFamily._adopt(FamilyParams(spec, delta), keys, "constructed")

    return KakeyaBundle(
        spec, identity_field(spec), indicator, tails, depth,
        indicator.support_measure(),
    )


def make_kakeya_instance(
    m: int, delta: DyadicRational, depth: int | None = None
) -> tuple[OneVarField, GridFunction]:
    bundle = make_kakeya_bundle(m, delta, depth)
    return bundle.field, bundle.indicator


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
    runs: list[tuple[int, int, int]] = []  # (k, base index, slope index)
    level = 0
    while len(runs) < count and level <= spec.m_w:
        k = spec.m_w - level
        for index in range(1 << level):
            for j in range(1 << k):
                if _max_offset_steps(spec, index, j) >= 0:
                    runs.append((k, index, j))
        level += 1
    if len(runs) < count:
        raise ValueError("grid too small for that many collections")
    return [RectangleFamily._adopt(params, _offset_rows(spec, [r]), "constructed") for r in runs[:count]]


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
