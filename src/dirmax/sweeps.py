"""Parameter sweeps: density scaling, L^p sharpness, and log N growth.

Floats are confined to fits and reporting; every measured ratio comes from
exact squared norms.  Sweeps are deterministic for a fixed config and seed,
and each CSV row is reproducible by a single-point run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .badness import GrowthReport, multi_collection_experiment
from .dyadic import DyadicRational
from .family import FamilyParams, enumerate_family
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


@dataclass
class ExperimentConfig:
    """Knobs for the sweep harness; every run is a pure function of these."""

    deltas: tuple[DyadicRational, ...] = tuple(
        DyadicRational(1, e) for e in range(3, 7)
    )
    p_values: tuple[float, ...] = (1.0, 1.5, 2.0)
    seed: int = 0
    ascent_iters: int = 1
    m_override: int | None = None
    random_m: int = 6
    random_count: int = 2
    logn_m: int = 7
    logn_mw: int = 5
    logn_values: tuple[int, ...] = (2, 4, 8, 16, 32, 64)


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
        lines = ["delta,best_ratio,ref_log32"]
        for delta, ratio in self.best:
            ref = math.log2(1 << delta.exp) ** 1.5
            lines.append(f"{delta.render()},{_fmt(ratio)},{_fmt(ref)}")
        return "\n".join(lines) + "\n"


def kakeya_point(
    delta: DyadicRational,
    m: int | None = None,
    depth: int | None = None,
    ascent_iters: int = 0,
) -> float:
    """Best measured Rayleigh ratio of the compression instance at one density."""
    bundle = make_kakeya_bundle(m or kakeya_grid_m(delta), delta, depth)
    report = estimate_norm(bundle.tails, [bundle.indicator], ascent_iters)
    return report.best_ratio


def random_point(
    delta: DyadicRational, m: int, seed: int, ascent_iters: int
) -> float | None:
    """Best ratio over the full density family of a random field, if it fits."""
    if delta.exp > m - 2:
        return None
    spec = GridSpec(m, delta.exp, False)
    rng = random.Random(seed)
    v = random_field(spec, rng)
    fam = enumerate_family(FamilyParams(spec, delta), v)
    if not fam:
        return None
    report = estimate_norm(fam, [random_grid(spec, rng)], ascent_iters)
    return report.best_ratio


def sweep_delta(cfg: ExperimentConfig) -> DeltaSweep:
    """Per-density ratios for the compression series plus random-field spot
    checks, with the power-law fit ratio ~ a * (log2(1/delta))^b.

    The fit (and the best_ratio column) uses the compression series only:
    its points share the canonical grid law m = log2(1/delta) + 3, whereas
    the random-field families are desk-scale spot checks at a fixed small
    grid and would corrupt the scaling fit.
    """
    rows: list[DeltaRow] = []
    best: list[tuple[DyadicRational, float]] = []
    for delta in cfg.deltas:
        ratio = kakeya_point(delta, cfg.m_override)
        rows.append(DeltaRow(delta, "kakeya", ratio))
        best.append((delta, ratio))
        for i in range(cfg.random_count):
            r = random_point(delta, cfg.random_m, cfg.seed + 31 * i + delta.exp, cfg.ascent_iters)
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


def square_ratios(delta: DyadicRational, p_values, m: int | None = None) -> list[LpRow]:
    """||Mf||_p / ||f||_p for the corner-square indicator, vs delta^(1 - 2/p)."""
    m = m if m is not None else delta.exp + 4
    v, f = make_square_instance(m, delta)
    spec = f.spec
    fam = enumerate_family(FamilyParams(spec, delta), v, max_m=max(12, m))
    mf = maximal_apply(f, fam)
    out = []
    for p in p_values:
        ratio = mf.lp_norm(p) / f.lp_norm(p)
        ref = float(delta.as_fraction()) ** (1.0 - 2.0 / p)
        out.append(LpRow(delta, p, ratio, ref))
    return out


def sweep_lp(cfg: ExperimentConfig) -> LpSweep:
    rows: list[LpRow] = []
    for delta in cfg.deltas:
        rows.extend(square_ratios(delta, cfg.p_values, cfg.m_override))
    return LpSweep(tuple(rows))


def sweep_logn(cfg: ExperimentConfig) -> GrowthReport:
    """Growth of the best ratio for unions of N organized collections."""
    spec = GridSpec(cfg.logn_m, cfg.logn_mw, False)

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

    return multi_collection_experiment(
        list(cfg.logn_values), builder, seeds, cfg.ascent_iters
    )
