"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS/FAIL lines.  Criterion 9 asserts the exact constant-1 form of the
vertical-maximal domination; the staircase grid model violates it by a
bounded factor (see notes/decisions.md in the repository root and the
calibrated surrogate in the verify suite), so that single test is expected
to stay red until the model question is resolved.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

from dirmax.badness import shrink_iterate
from dirmax.calibration import (
    DEFAULT_LAMBDA0,
    GROWTH_FIT_RANGE,
    KAKEYA_MONOTONE_SLACK,
    KAKEYA_RATIO_COEFF,
    LOGN_COEFF,
    LOGN_RATIO_64_OVER_2_MAX,
    LP_SHARPNESS_FACTOR,
    SQUARE_LEVELSET_MIN,
)
from dirmax.dyadic import DyadicRational as D
from dirmax.family import FamilyParams, enumerate_family
from dirmax.instances import make_square_instance
from dirmax.maximal import maximal_apply
from dirmax.stopping_time import domination_check, run_generations
from dirmax.sweeps import ExperimentConfig, kakeya_point, sweep_delta, sweep_logn
from dirmax.verify import (
    VerifyReport,
    check_exact_identities,
    check_oracle_equivalence,
    check_shrinking,
    check_stopping_theorems,
    run_verify,
)

_KAKEYA_EXPS = (3, 4, 5, 6, 7, 8)
_ratio_cache: dict[int, float] = {}


def _kakeya_ratios() -> list[float]:
    for e in _KAKEYA_EXPS:
        if e not in _ratio_cache:
            _ratio_cache[e] = kakeya_point(D(1, e))
    return [_ratio_cache[e] for e in _KAKEYA_EXPS]


def _report_ok(report: VerifyReport, label: str) -> None:
    bad = [r for r in report.results if not r.ok and not r.note]
    status = "PASS" if not bad else "FAIL"
    print(f"ACCEPTANCE {label}: {status}")
    assert not bad, "\n".join(r.line() for r in bad)


def test_criterion_1_oracle_equivalence(corpus):
    """Optimized core operations equal the brute-force oracle exactly."""
    t0 = time.time()
    report = VerifyReport()
    check_oracle_equivalence(report, corpus)
    elapsed = time.time() - t0
    assert elapsed < 300, f"oracle run took {elapsed:.0f}s, budget is 5 minutes"
    _report_ok(report, f"1 oracle-equivalence ({elapsed:.0f}s)")


def test_criterion_2_exact_identities(corpus):
    """Adjointness, weighted count, mass bound, badness split: exact."""
    report = VerifyReport()
    check_exact_identities(report, corpus)
    _report_ok(report, "2 exact-identities")


def test_criterion_3_stopping_theorems(corpus):
    """Carleson, halving, level emptiness, disjointness, decay, goodness."""
    report = VerifyReport()
    check_stopping_theorems(report, corpus)
    _report_ok(report, "3 stopping-theorems")


def test_criterion_4_key_dichotomy(corpus):
    """Halving + 20*lambda0 dichotomy + trace decay at the frozen lambda0."""
    report = VerifyReport()
    check_shrinking(report, corpus)
    # spot-check the trace halving chain again on the largest instances
    for inst in corpus[-4:]:
        trace = shrink_iterate(inst.covered, inst.rho, DEFAULT_LAMBDA0)
        e0 = len(trace.steps[0])
        for j, step in enumerate(trace.steps):
            assert len(step) << j <= e0
    _report_ok(report, "4 key-dichotomy")


def test_criterion_5_lower_bound_scaling():
    """Compression-instance ratio grows like sqrt(log(1/delta))."""
    t0 = time.time()
    ratios = _kakeya_ratios()
    elapsed = time.time() - t0
    ok = True
    for e, ratio in zip(_KAKEYA_EXPS, ratios):
        if ratio < KAKEYA_RATIO_COEFF * math.sqrt(e):
            ok = False
    for prev, cur in zip(ratios, ratios[1:]):
        if cur < KAKEYA_MONOTONE_SLACK * prev:
            ok = False
    assert elapsed < 600, f"largest point exceeded budget ({elapsed:.0f}s)"
    print(
        f"ACCEPTANCE 5 lower-bound-scaling: {'PASS' if ok else 'FAIL'} "
        f"(ratios {' '.join(f'{r:.3f}' for r in ratios)}, {elapsed:.0f}s)"
    )
    assert ok


def test_criterion_6_growth_fit():
    """Fitted exponent of ratio ~ a * log2(1/delta)^b lies in [0.4, 1.6]."""
    ratios = _kakeya_ratios()
    xs = np.log(np.array(_KAKEYA_EXPS, dtype=float))
    ys = np.log(np.array(ratios))
    b, log_a = np.polyfit(xs, ys, 1)
    a = math.exp(log_a)
    resid = ys - (b * xs + log_a)
    lo, hi = GROWTH_FIT_RANGE
    ok = lo <= b <= hi
    print(
        f"ACCEPTANCE 6 growth-fit: {'PASS' if ok else 'FAIL'} "
        f"(a={a:.4f} b={b:.4f} max|resid|={float(np.max(np.abs(resid))):.4f})"
    )
    # random-field spot rows are recorded alongside the fitted series
    sweep = sweep_delta(ExperimentConfig(deltas=(D(1, 3),), random_count=1))
    assert any(row.kind.startswith("random") for row in sweep.rows)
    assert ok


def test_criterion_7_lp_sharpness():
    """Square instances at p=1.5 sit within factor 4 of delta^(1-2/p)."""
    ok = True
    details = []
    for e in (3, 4, 5, 6):
        delta = D(1, e)
        v, f = make_square_instance(e + 4, delta)
        fam = enumerate_family(FamilyParams(f.spec, delta), v)
        mf = maximal_apply(f, fam)
        ratio = mf.lp_norm(1.5) / f.lp_norm(1.5)
        ref = float(delta.as_fraction()) ** (1.0 - 2.0 / 1.5)
        if not (ref / LP_SHARPNESS_FACTOR <= ratio <= ref * LP_SHARPNESS_FACTOR):
            ok = False
        details.append(f"{ratio / ref:.3f}")
        # large-level-set witness: |{Mf >= delta/4}| is bounded below
        thr = D(1, e + 2)
        frac = sum(1 for n in mf.nums if D(n, mf.scale) >= thr) / f.spec.n_cells
        if frac < SQUARE_LEVELSET_MIN:
            ok = False
    print(
        f"ACCEPTANCE 7 lp-sharpness: {'PASS' if ok else 'FAIL'} "
        f"(ratio/ref at p=1.5: {' '.join(details)})"
    )
    assert ok


def test_criterion_8_logn_growth():
    """Best ratio over N organized collections grows at most like log N."""
    t0 = time.time()
    rep = sweep_logn(ExperimentConfig())
    elapsed = time.time() - t0
    by_n = {n: ratio for n, ratio, _ in rep.rows}
    ok = all(
        ratio <= LOGN_COEFF * (1.0 + math.log2(n)) for n, ratio in by_n.items()
    )
    ok = ok and by_n[64] / by_n[2] <= LOGN_RATIO_64_OVER_2_MAX
    assert elapsed < 600
    print(
        f"ACCEPTANCE 8 logN-growth: {'PASS' if ok else 'FAIL'} "
        f"(ratio64/ratio2={by_n[64] / by_n[2]:.3f}, {elapsed:.0f}s)"
    )
    assert ok


def test_criterion_9_vertical_domination_exact(corpus):
    """Exact constant-1 vertical-maximal domination on decomposed instances.

    The staircase model violates the idealized constant-1 comparison by a
    bounded factor (worst measured 2.28x; the verify suite asserts the
    calibrated surrogate).  This test states the criterion as written and
    is expected to fail; the analysis lives in the decisions ledger.
    """
    total_viol = total_checked = 0
    worst = Fraction(0)
    for inst in corpus:
        res = run_generations(inst.field, inst.spec.w, inst.delta, inst.rho)
        violations, checked, worst_i = domination_check(res, inst.rho, inst.f)
        total_viol += len(violations)
        total_checked += checked
        worst = max(worst, worst_i)
    ok = total_viol == 0
    print(
        f"ACCEPTANCE 9 vertical-domination-exact: {'PASS' if ok else 'FAIL'} "
        f"({total_viol}/{total_checked} tuples exceed, worst x{float(worst):.3f}; "
        "see notes/decisions.md: exact transport fails under cell resampling)"
    )
    assert ok, (
        f"{total_viol} of {total_checked} off-diagonal tuples exceed the "
        f"vertical maximal (worst factor {float(worst):.3f}); the calibrated "
        "surrogate bound passes -- see notes/decisions.md"
    )


def test_criterion_10_determinism(corpus):
    """verify, the sweeps and family enumeration are byte-identical across runs."""
    text1 = run_verify(corpus=corpus).to_text()
    text2 = run_verify(corpus=corpus).to_text()
    ok = text1 == text2

    cfg = ExperimentConfig(deltas=(D(1, 3), D(1, 4)), random_count=1)
    csv1 = sweep_delta(cfg).to_csv()
    csv2 = sweep_delta(cfg).to_csv()
    ok = ok and csv1 == csv2

    from dirmax.geometry import GridSpec
    from dirmax.instances import random_field, random_grid
    import random as _random

    spec = GridSpec(5, 3, False)
    v = random_field(spec, _random.Random(77))
    params = FamilyParams(spec, D(1, 3))
    fam1 = enumerate_family(params, v)
    fam2 = enumerate_family(params, v)
    ok = ok and fam1 == fam2
    f = random_grid(spec, _random.Random(78))
    ok = ok and maximal_apply(f, fam1) == maximal_apply(f, fam2)
    print(f"ACCEPTANCE 10 determinism: {'PASS' if ok else 'FAIL'}")
    assert ok
