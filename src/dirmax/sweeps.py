"""Parameter sweeps: density scaling, L^p sharpness, and log N growth.

Floats are confined to fits and reporting; every measured ratio comes from
exact squared norms.  Sweeps are deterministic for a fixed config and seed,
and each CSV row is reproducible by a single-point run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dyadic import DyadicRational
from .family import FamilyParams, RectangleFamily, enumerate_family, is_good_collection
from .geometry import GridSpec
from .grids import GridFunction
from .instances import (
    make_kakeya_bundle,
    make_square_instance,
    organized_collections,
    random_field,
    random_grid,
)
from .maximal import estimate_norm, maximal_apply


def _fmt(x: float) -> str:
    return format(x, ".12g")


P_VALUES = (1.0, 1.5, 2.0)  # the L^p exponents of sweep_lp
RANDOM_M = 6  # grid exponent of sweep_delta's random-field spot checks
LOGN_M, LOGN_MW = 7, 5  # the grid of sweep_logn
LOGN_VALUES = (2, 4, 8, 16, 32, 64)  # the collection counts N of sweep_logn


@dataclass
class ExperimentConfig:
    """Knobs for the sweep harness; every run is a pure function of these."""

    deltas: tuple[DyadicRational, ...] = tuple(DyadicRational(1, e) for e in range(3, 7))
    seed: int = 0
    ascent_iters: int = 1
    m_override: int | None = None
    random_count: int = 2


def kakeya_grid_m(delta: DyadicRational) -> int:
    """Default grid exponent for a density point: log2(1/delta) + 3."""
    return delta.exp + 3


@dataclass(frozen=True)
class DeltaRow:
    delta: DyadicRational
    kind: str
    ratio: float


@dataclass(frozen=True)
class DeltaSweep:
    rows: tuple[DeltaRow, ...]
    best: tuple[tuple[DyadicRational, float], ...]  # per delta
    fit_a: float
    fit_b: float

    def to_csv(self) -> str:
        """The fitted series, then a delta,kind,ratio block of the random-field
        spot checks when any ran."""
        lines = ["delta,best_ratio,ref_log32"]
        for delta, ratio in self.best:
            ref = math.log2(1 << delta.exp) ** 1.5
            lines.append(f"{delta.render()},{_fmt(ratio)},{_fmt(ref)}")
        spots = [row for row in self.rows if row.kind != "kakeya"]
        if spots:
            lines.append("delta,kind,ratio")
            lines += [f"{row.delta.render()},{row.kind},{_fmt(row.ratio)}" for row in spots]
        return "\n".join(lines) + "\n"


def kakeya_point(delta: DyadicRational, m: int | None = None, ascent_iters: int = 0) -> float:
    """Best measured Rayleigh ratio of the compression instance at one density."""
    bundle = make_kakeya_bundle(m if m is not None else kakeya_grid_m(delta), delta)
    report = estimate_norm(bundle.tails, [bundle.indicator], ascent_iters)
    return report.best_ratio


def random_point(delta: DyadicRational, seed: int, ascent_iters: int) -> float | None:
    """Best ratio over the full density family of a random field, if it fits."""
    if delta.exp > RANDOM_M - 2:
        return None
    spec = GridSpec(RANDOM_M, delta.exp, False)
    rng = random.Random(seed)
    v = random_field(spec, rng)
    fam = enumerate_family(FamilyParams(spec, delta), v)
    if not fam:
        return None
    report = estimate_norm(fam, [random_grid(spec, rng)], ascent_iters)
    return report.best_ratio


def sweep_delta(cfg: ExperimentConfig) -> DeltaSweep:
    """Per-density ratios for the compression series plus random-field spot
    checks, with the power-law fit ratio ~ a * (log2(1/delta))^b.  Both run
    cfg.ascent_iters T*T steps.

    The fit (and the best_ratio column) uses the compression series only:
    its points share the canonical grid law m = log2(1/delta) + 3, whereas
    the random-field families are desk-scale spot checks at a fixed small
    grid and would corrupt the scaling fit.
    """
    rows: list[DeltaRow] = []
    best: list[tuple[DyadicRational, float]] = []
    for delta in cfg.deltas:
        ratio = kakeya_point(delta, cfg.m_override, ascent_iters=cfg.ascent_iters)
        rows.append(DeltaRow(delta, "kakeya", ratio))
        best.append((delta, ratio))
        for i in range(cfg.random_count):
            r = random_point(delta, cfg.seed + 31 * i + delta.exp, cfg.ascent_iters)
            if r is not None:
                rows.append(DeltaRow(delta, f"random{i}", r))
    if len(best) >= 2:
        xs = np.array([math.log(math.log2(1 << d.exp)) for d, _ in best])
        ys = np.array([math.log(r) for _, r in best])
        b, log_a = np.polyfit(xs, ys, 1)
        fit_a, fit_b = float(math.exp(log_a)), float(b)
    else:
        fit_a, fit_b = (best[0][1] if best else 0.0), 0.0
    return DeltaSweep(tuple(rows), tuple(best), fit_a, fit_b)


@dataclass(frozen=True)
class LpRow:
    delta: DyadicRational
    p: float
    ratio: float
    reference: float


@dataclass(frozen=True)
class LpSweep:
    rows: tuple[LpRow, ...]

    def to_csv(self) -> str:
        lines = ["delta,p,ratio,reference"]
        for row in self.rows:
            lines.append(
                f"{row.delta.render()},{_fmt(row.p)},{_fmt(row.ratio)},{_fmt(row.reference)}"
            )
        return "\n".join(lines) + "\n"


def square_ratios(delta: DyadicRational, m: int | None = None) -> list[LpRow]:
    """||Mf||_p / ||f||_p for the corner-square indicator, vs delta^(1 - 2/p)."""
    m = m if m is not None else delta.exp + 4
    v, f = make_square_instance(m, delta)
    spec = f.spec
    fam = enumerate_family(FamilyParams(spec, delta), v, max_m=max(12, m))
    mf = maximal_apply(f, fam)
    out = []
    for p in P_VALUES:
        ratio = mf.lp_norm(p) / f.lp_norm(p)
        ref = float(delta.as_fraction()) ** (1.0 - 2.0 / p)
        out.append(LpRow(delta, p, ratio, ref))
    return out


def sweep_lp(cfg: ExperimentConfig) -> LpSweep:
    rows: list[LpRow] = []
    for delta in cfg.deltas:
        rows.extend(square_ratios(delta, cfg.m_override))
    return LpSweep(tuple(rows))


@dataclass(frozen=True)
class GrowthReport:
    rows: tuple[tuple[int, float, float], ...]  # (N, best_ratio, fit_residual)
    slope: float
    intercept: float

    def to_csv(self) -> str:
        lines = ["n,best_ratio,fit_residual"]
        for n, ratio, resid in self.rows:
            lines.append(f"{n},{ratio:.12g},{resid:.12g}")
        return "\n".join(lines) + "\n"


def multi_collection_experiment(
    n_values,
    builder: Callable[[int], Sequence[RectangleFamily]],
    seeds: Callable[[RectangleFamily], list[GridFunction]],
    ascent_iters: int = 1,
) -> GrowthReport:
    """Best Rayleigh ratio of M over unions of N good collections, N sweeping.

    builder(N) must produce N pairwise-distinct organized good collections;
    anything else is rejected with its witness.  seeds(union) supplies the
    test functions.  The report fits ratio against 1 + log2 N.
    """
    measured = []
    for n in n_values:
        collections = list(builder(n))
        if len(collections) != n:
            raise ValueError(f"builder produced {len(collections)} collections, wanted {n}")
        keys = set()
        union = None
        for col in collections:
            good, witness = is_good_collection(col)
            if not (good and witness.organized):
                raise ValueError(f"builder yielded a non-good collection: {witness}")
            key = col.sort_keys.tobytes()
            if key in keys:
                raise ValueError("builder yielded duplicate collections")
            keys.add(key)
            union = col if union is None else union.union(col)
        report = estimate_norm(union, seeds(union), ascent_iters)
        measured.append((n, report.best_ratio))
    xs = np.array([1.0 + math.log2(n) for n, _ in measured])
    ys = np.array([r for _, r in measured])
    if len(measured) >= 2:
        coef = np.polyfit(xs, ys, 1)
        slope, intercept = float(coef[0]), float(coef[1])
    else:
        slope, intercept = 0.0, float(ys[0]) if len(ys) else 0.0
    rows = tuple(
        (n, ratio, float(ratio - (slope * (1.0 + math.log2(n)) + intercept)))
        for n, ratio in measured
    )
    return GrowthReport(rows, slope, intercept)


def sweep_logn(cfg: ExperimentConfig) -> GrowthReport:
    """Growth of the best ratio for unions of N organized collections."""
    spec = GridSpec(LOGN_M, LOGN_MW, False)

    def builder(n: int):
        return organized_collections(spec, n)

    def seeds(union) -> list[GridFunction]:
        rng = random.Random(cfg.seed)
        corner = 1 << (spec.m - spec.m_w)
        block = GridFunction.indicator(
            spec,
            [(c << spec.m) + r for c in range(corner) for r in range(corner)],
        )
        return [block, random_grid(spec, rng)]

    return multi_collection_experiment(list(LOGN_VALUES), builder, seeds, cfg.ascent_iters)
