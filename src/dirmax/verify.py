"""Full verification harness: oracle equivalence and invariant battery.

Runs every check the package promises on the shipped corpus: brute-force
oracle equality for the core operations, the exact operator identities, the
stopping-time theorems, the shrinking dichotomy at the calibrated threshold,
and the vertical-maximal domination test.  Any oracle mismatch dumps a
minimal reproducer file and fails the run; a check that raises fails its own
line, with the exception as the detail, and the other checks still run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import oracle
from .badness import (
    badness_components,
    badness_table,
    reformulate_check,
    shrink_iterate,
    shrink_once,
)
from .calibration import DEFAULT_LAMBDA0, REFORMULATE_FACTOR
from .dyadic import DyadicRational
from .family import RectangleFamily, is_good_collection
from .geometry import DyadicInterval, dyadic_inside
from .grids import GridFunction
from .instances import CorpusInstance, build_corpus, random_grid
from .maximal import apply_T, apply_T_adjoint, maximal_apply
from .stopping_time import (
    carleson_sum,
    compute_assignments,
    domination_check,
    omega_levels,
    partition_theta,
    run_generations,
    shadow_measure,
    stopping_intervals,
)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    note: bool = False  # informational: printed but not counted in .ok

    def line(self) -> str:
        if self.note:
            status = "NOTE" if not self.ok else "PASS"
        else:
            status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name}" + (f" ({self.detail})" if self.detail else "")


@dataclass
class VerifyReport:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results if not r.note)

    def add(self, name: str, ok: bool, detail: str = "", note: bool = False) -> None:
        self.results.append(CheckResult(name, ok, detail, note))

    def to_text(self) -> str:
        return "\n".join(r.line() for r in self.results) + "\n"


def _fractions(g) -> list[Fraction]:
    """A grid function's or field's values as the oracle reads them."""
    return [Fraction(n, 1 << g.scale) for n in g.array.tolist()]


def raw_members(fam: RectangleFamily) -> list[tuple[int, int, int, Fraction]]:
    """The family's key rows as the oracle's members (k, i, j, offset)."""
    step = 1 << fam.spec.offset_exp
    return [(k, i, j, Fraction(t, step)) for k, i, j, t in fam.sort_keys.tolist()]


def _dump_reproducer(out_dir: Path | None, inst: CorpusInstance, op: str, detail: str) -> str:
    if out_dir is None:
        return detail
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"mismatch_{op}_{inst.name}.txt"
    from .grids import render_field

    lines = [
        f"op {op}",
        f"instance {inst.name}",
        f"delta {inst.delta.render()}",
        f"seed {inst.seed}",
        detail,
        "field:",
        render_field(inst.field),
        "family:",
    ]
    lines.extend(inst.family.export_lines())
    path.write_text("\n".join(lines) + "\n")
    return f"reproducer: {path}"


ORACLE_BADNESS_SAMPLE = 48  # members per instance whose B_R the oracle replays

# The oracle shrink_once line runs below DEFAULT_LAMBDA0: at 2 the fast scan
# selects no window on any corpus instance it checks, so both sides would
# return the empty set, while at 1 every one of them selects a window.
ORACLE_SHRINK_LAMBDA0 = DyadicRational(1)

_ORACLE_LINES = {  # reproducer op -> the operation its report line names
    "enumerate": "enumerate_family", "maximal": "maximal_apply", "stops": "stopping_intervals",
    "omegas": "omega_levels", "badness": "badness", "shrink": "shrink_once",
}


def _raised(exc: Exception) -> str:
    """An exception as a check detail: its type, text and innermost frame."""
    tb = exc.__traceback__
    while tb.tb_next:
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    where = f"{Path(code.co_filename).name}:{tb.tb_lineno} in {code.co_name}"
    return f"raised {type(exc).__name__}: {exc} ({where})"


def _oracle_checks(inst: CorpusInstance, members, vvals):
    """(op, check) per operation the oracle referees on inst, in _ORACLE_LINES
    order; a check returns None when the fast side equals the oracle, else why not."""
    spec = inst.spec
    m, m_w, delta = spec.m, spec.m_w, inst.delta.as_fraction()
    root = DyadicInterval(0, 0)

    def enumerate_():
        o_members = oracle.enumerate_family(m, m_w, spec.offset_exp, delta, vvals)
        if members != o_members:
            return f"{len(members)} vs {len(o_members)} members"

    def maximal():
        mf = maximal_apply(inst.f, inst.family)
        o_mf, o_rho = oracle.maximal_apply(m, m_w, members, _fractions(inst.f))
        if _fractions(mf) != o_mf:
            return "value mismatch"
        if inst.rho.entries.tolist() != o_rho:
            return "chooser mismatch"

    def stops():
        stops = stopping_intervals(compute_assignments(root, inst.field, spec.w, inst.delta))
        o_stops = oracle.stopping_intervals(m, m_w, delta, vvals, (0, 0))
        if sorted((J.level, J.index) for J in stops) != o_stops:
            return f"{stops} vs {o_stops}"

    def omegas():
        assign = compute_assignments(root, inst.field, spec.w, inst.delta)
        theta = assign.rows[:, :3]
        th_good = partition_theta(assign, stopping_intervals(assign))
        om = omega_levels(th_good, theta)
        to_pairs = lambda rows: sorted(((lv, ix), (m_w - lv, j)) for lv, ix, j in rows.tolist())
        o_om = oracle.omega_levels(to_pairs(th_good), to_pairs(theta))
        if [to_pairs(layer) for layer in om] != [sorted(l) for l in o_om]:
            return "layer mismatch"

    def badness():
        tab = badness_table(inst.covered, inst.rho)
        idxs = range(len(members))
        if len(members) > ORACLE_BADNESS_SAMPLE:
            rng = random.Random(inst.seed)
            idxs = sorted(rng.sample(range(len(members)), ORACLE_BADNESS_SAMPLE))
        entries = inst.rho.entries.tolist()  # the oracle reads Python ints only
        obs = oracle.badness(m, m_w, members, entries, inst.covered, idxs)
        for mi, ob in zip(idxs, obs):
            if tab.badness[mi].as_fraction() != ob:
                return f"member {mi}"

    def shrink():
        if m > 4 and not inst.name.startswith("m5_cascade"):
            return None
        ep, _ = shrink_once(inst.covered, inst.rho, ORACLE_SHRINK_LAMBDA0, audit=False)
        o_ep = oracle.shrink_once(
            m, m_w, members, inst.rho.entries.tolist(), inst.covered,
            ORACLE_SHRINK_LAMBDA0.as_fraction(),
        )
        if set(ep) != o_ep:
            return f"{len(ep)} vs {len(o_ep)} cells"

    return zip(_ORACLE_LINES, (enumerate_, maximal, stops, omegas, badness, shrink))


def check_oracle_equivalence(
    report: VerifyReport,
    corpus: list[CorpusInstance],
    out_dir: Path | None = None,
) -> None:
    """Criterion-style oracle equality for the six core operations.

    A check that raises fails its operation's line, with the exception as
    the reproducer's detail; the other operations and instances still run.
    """
    detail: dict[str, str] = {}
    for inst in corpus:
        members, vvals = raw_members(inst.family), _fractions(inst.field)
        for op, check in _oracle_checks(inst, members, vvals):
            try:
                text = check()
            except Exception as exc:  # a fault is a FAIL line, not a stopped run
                text = _raised(exc)
            if text is not None:
                detail[op] = _dump_reproducer(out_dir, inst, op, text)
                if op == "enumerate":
                    break  # every other check reads the member list
    for op, name in _ORACLE_LINES.items():
        report.add(f"oracle {name}", op not in detail, detail.get(op, ""))


def _inner(a: GridFunction, b: GridFunction) -> tuple[int, int]:
    return sum(x * y for x, y in zip(a.array.tolist(), b.array.tolist())), a.scale + b.scale


def check_exact_identities(report: VerifyReport, corpus: list[CorpusInstance]) -> None:
    """Adjointness, weighted count, mass bound, and the badness split."""
    ok_adj = ok_count = ok_mass = ok_split = True
    for inst in corpus:
        members = raw_members(inst.family)
        spec = inst.spec
        rho = inst.rho
        rng = random.Random(inst.seed + 1)
        g = random_grid(spec, rng)
        f = inst.f
        tf, tg = apply_T(rho, f), apply_T_adjoint(rho, g)
        n1, e1 = _inner(tf, g)
        n2, e2 = _inner(f, tg)
        e = max(e1, e2)
        if (n1 << (e - e1)) != (n2 << (e - e2)):
            ok_adj = False

        cells = [i for i in range(spec.n_cells) if rng.random() < 0.5]
        ind = GridFunction.indicator(spec, cells)
        ta = apply_T_adjoint(rho, ind)
        counts = oracle.nu_counts(members, rho.entries.tolist(), cells)
        want = oracle.weighted_count(spec.m, spec.m_w, members, counts)
        if _fractions(ta) != want:
            ok_count = False
        total = sum(counts)
        if ta.integral() != DyadicRational(total, 2 * spec.m) or total > len(cells):
            ok_mass = False

        E = inst.covered
        if members and E:
            tab = badness_table(E, rho)
            mi = max(range(len(members)), key=lambda i: tab.badness[i].as_fraction())
            for K in (DyadicInterval(1, 0), DyadicInterval(2, 3), DyadicInterval(spec.m, 1)):
                b_in, b_out = badness_components(mi, K, E, rho)
                if b_in + b_out != tab.badness[mi]:
                    ok_split = False
    report.add("identity adjointness", ok_adj)
    report.add("identity weighted-count", ok_count)
    report.add("identity mass bound", ok_mass)
    report.add("identity badness split", ok_split)


def _inside(rows: np.ndarray) -> np.ndarray:
    """[a, b]: the interval of row a lies inside (or is) the interval of row b."""
    return dyadic_inside(rows[:, :1], rows[:, 1:2], rows[:, 0], rows[:, 1])


def check_stopping_theorems(report: VerifyReport, corpus: list[CorpusInstance]) -> None:
    """Carleson, halving, level emptiness, disjointness, decay, goodness."""
    root = DyadicInterval(0, 0)
    ok_carleson = ok_halving = ok_empty = ok_anti = ok_decay = ok_good = ok_chain = True
    for inst in corpus:
        spec = inst.spec
        assign = compute_assignments(root, inst.field, spec.w, inst.delta)
        if carleson_sum(assign) > root.length:
            ok_carleson = False
        stops = stopping_intervals(assign)
        sh = shadow_measure(stops)
        if sh + sh > root.length:
            ok_halving = False
        th_good = partition_theta(assign, stops)
        theta = assign.rows[:, :3]
        om = omega_levels(th_good, theta)
        cap = math.ceil(3 / float(inst.delta.as_fraction()))
        if len(om) > cap:
            ok_empty = False
        for layer in om:
            inside = _inside(layer)
            if np.triu(inside | inside.T, 1).any():
                ok_anti = False
        # (J, s) <= (J', s'): J = J' and s <= s', or J strictly inside J'
        inside = _inside(theta)
        same = inside & inside.T
        leq = (same & (theta[:, 2:] <= theta[:, 2])) | (inside & ~same)
        if np.triu((inside | inside.T) & ~(leq | leq.T), 1).any():
            ok_chain = False

        res = run_generations(inst.field, spec.w, inst.delta, inst.rho)
        # |later generation k inside I| <= 2^(j - k) |I|, lengths over 2^m_w
        gens = res.generations
        rows = [
            np.array([(J.level, J.index) for J in g.intervals], dtype=np.int64).reshape(-1, 2)
            for g in gens
        ]
        for j, I in enumerate(rows):
            size = 1 << (spec.m_w - I[:, 0])
            for k, J in enumerate(rows[j:], j):
                j_in_i = dyadic_inside(J[:, 0], J[:, 1], I[:, :1], I[:, 1:])
                i_in_j = dyadic_inside(I[:, :1], I[:, 1:], J[:, 0], J[:, 1])
                inter = np.where(j_in_i, 1 << (spec.m_w - J[:, 0]), np.where(i_in_j, size[:, None], 0))
                inter = inter.sum(axis=1)
                if ((inter << (k - j)) > size).any():
                    ok_decay = False
        for g in gens:
            for rec in g.records:
                cols = (inst.rho.fam.subfamily(inst.rho.entries[fs].tolist()) for fs in rec.classify.f_sets)
                for good, witness in map(is_good_collection, cols):
                    if not (good and witness.organized):
                        ok_good = False
    report.add("stopping carleson packing", ok_carleson)
    report.add("stopping shadow halving", ok_halving)
    report.add("stopping level emptiness", ok_empty)
    report.add("stopping antichain disjointness", ok_anti)
    report.add("stopping chain comparability", ok_chain)
    report.add("stopping generation decay", ok_decay)
    report.add("stopping good collections", ok_good)


def check_shrinking(report: VerifyReport, corpus: list[CorpusInstance]) -> None:
    """Halving, dichotomy, trace decay and band containment at frozen lambda0."""
    ok_halved = ok_dich = ok_trace = ok_bands = True
    for inst in corpus:
        E = inst.covered
        if not E:
            continue
        trace = shrink_iterate(E, inst.rho, DEFAULT_LAMBDA0)
        for diag in trace.diagnostics:
            if not diag.halved:
                ok_halved = False
            if diag.dichotomy_failures:
                ok_dich = False
        e0 = len(trace.steps[0])
        for j, step in enumerate(trace.steps):
            if len(step) << j > e0:
                ok_trace = False
        for band in trace.bands:
            if band.k >= 2 and not band.contained:
                ok_bands = False
    report.add("shrink halving chain", ok_halved)
    report.add("shrink dichotomy", ok_dich)
    report.add("shrink trace decay", ok_trace)
    report.add("shrink band containment", ok_bands)


def check_reformulation(report: VerifyReport, corpus: list[CorpusInstance]) -> None:
    ok = True
    for inst in corpus:
        E = inst.covered
        lhs, rhs = reformulate_check(E, inst.rho)
        if lhs > DyadicRational(REFORMULATE_FACTOR) * rhs:
            ok = False
    report.add("quadratic reformulation bound", ok)


def check_domination(report: VerifyReport, corpus: list[CorpusInstance]) -> None:
    """Vertical-maximal domination over every decomposed instance.

    The exact (constant-1) comparison is reported as stated; the staircase
    resampling makes it fail by a bounded factor, so the calibrated check
    asserts the measured worst excess stays under DOMINATION_FACTOR.
    """
    from .calibration import DOMINATION_FACTOR

    n_viol = n_checked = n_zero = 0
    worst = Fraction(0)
    for inst in corpus:
        res = run_generations(inst.field, inst.spec.w, inst.delta, inst.rho)
        violations, checked, worst_i = domination_check(res, inst.rho, inst.f)
        n_viol += len(violations)
        n_checked += checked
        n_zero += sum(1 for v in violations if v.vertical_max == "0")
        worst = max(worst, worst_i)
    detail = f"{n_viol}/{n_checked} tuples exceed, worst x{float(worst):.3f}"
    # The constant-1 comparison is informational: the staircase cell
    # resampling costs a bounded factor (see the calibrated line below).
    report.add("vertical maximal domination (exact)", n_viol == 0, detail, note=True)
    # no factor covers an excess over a vertical maximum of 0
    report.add(
        "vertical maximal domination (within calibrated factor)",
        n_zero == 0 and float(worst) <= DOMINATION_FACTOR,
        detail + (f", {n_zero} over a vertical maximum of 0" if n_zero else ""),
    )


def run_verify(
    corpus: list[CorpusInstance] | None = None,
    out_dir: Path | None = None,
    quick: bool = False,
) -> VerifyReport:
    if corpus is None:
        corpus = build_corpus()
    if quick:
        corpus = [inst for inst in corpus if inst.spec.m <= 4][:12]
    if not corpus:
        raise ValueError("no corpus instance to verify")
    report = VerifyReport()
    check_oracle_equivalence(report, corpus, out_dir)
    for check in (
        check_exact_identities, check_stopping_theorems, check_shrinking,
        check_reformulation, check_domination,
    ):
        try:
            check(report, corpus)
        except Exception as exc:  # a check that raises fails, and the rest still run
            report.add(check.__name__, False, _raised(exc))
    return report
