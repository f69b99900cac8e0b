"""The four pinned workloads of the benchmark.

Each workload builds its inputs from a seed through ``dirmax.instances``,
then runs its job as an explicit sequence of calls into dirmax's public
functions, in one thread with default arguments (so ``workers=1``).  A job
appends one entry per checked top-level call to ``ops``; ``render`` turns
an entry into the exact text whose digest the output gate pins.

Calls go through the module objects in ``sys.modules`` at call time, so the
wrappers that ``tracer.py`` installs there are seen.

Inputs: the seed selects one of ``VARIANTS`` input variants, and every
variant's outputs are pinned in ``digests.json`` from the seed program, so
every run is checked against known-good outputs.  The seed drives the
``random_grid`` test functions and, in ``corpus``, the random fields.  The
Kakeya bundle and the cascade fields take no seed.  Variant 0 reproduces
the pinned inputs: the CLI's default seed 0 for ``shrink`` and
``decompose``, and ``build_corpus()`` exactly for ``corpus``.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

VARIANTS = 16


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _m(name: str):
    return sys.modules["dirmax." + name]


def _dyadic(num: int, exp: int = 0):
    return _m("dyadic").DyadicRational(num, exp)


def _cascade_inputs(m: int, mw: int, variant: int) -> SimpleNamespace:
    """The cascade field at delta = 1/2 with a seeded test function."""
    spec = _m("geometry").spec_from_offstep(m, mw, "w")
    instances = _m("instances")
    return SimpleNamespace(
        spec=spec,
        params=_m("family").FamilyParams(spec, _dyadic(1, 1)),
        field=instances.cascade_field(spec),
        f=instances.random_grid(spec, random.Random(variant)),
    )


def _runs(cells) -> str:
    return " ".join(map(str, sorted(cells)))


def _failed(raw) -> tuple[bool, str] | None:
    if isinstance(raw, BaseException):
        return False, f"{type(raw).__name__}: {raw}"
    return None


# -- ascent: the Kakeya compression instance and its T*T ascent ---------------

ASCENT_M, ASCENT_DELTA_EXP, ASCENT_STEPS = 9, 6, 3


def ascent_inputs(variant: int):
    return _m("instances").make_kakeya_bundle(ASCENT_M, _dyadic(1, ASCENT_DELTA_EXP))


def ascent_job(bundle, ops: list) -> None:
    # The final T*T iterate is the last output of apply_T_adjoint as
    # estimate_norm sees it; keep a reference to it on the way through.
    maximal = _m("maximal")
    inner = maximal.apply_T_adjoint
    last = []

    def keep_last(*args, **kwargs):
        last[:] = [inner(*args, **kwargs)]
        return last[0]

    maximal.apply_T_adjoint = keep_last
    try:
        report = maximal.estimate_norm(bundle.tails, [bundle.indicator], ASCENT_STEPS)
    finally:
        maximal.apply_T_adjoint = inner
    ops.append(("estimate_norm", (report, last[0] if last else None)))


def ascent_render(name: str, raw) -> tuple[bool, str]:
    report, final = raw
    if final is None:
        return False, "no T*T iterate"
    return True, report.to_csv() + _m("grids").render_grid(final)


# -- shrink: the `dirmax badness` pipeline, then a selecting shrink step -------

SHRINK_M, SHRINK_MW = 6, 3


def shrink_inputs(variant: int):
    return _cascade_inputs(SHRINK_M, SHRINK_MW, variant)


def shrink_job(x, ops: list) -> None:
    badness = _m("badness")
    fam = _m("family").enumerate_family(x.params, x.field)
    rho = _m("maximal").linearize(x.f, fam)
    cells = frozenset(rho.covered_cells())
    ops.append(("badness_table", badness.badness_table(cells, rho)))
    # lambda0 = 2 is the CLI default: on this instance no window is selected
    ops.append(("shrink_iterate", badness.shrink_iterate(cells, rho, _dyadic(2))))
    # lambda0 = 1 selects windows and builds a non-empty E'
    ops.append(("shrink_once", badness.shrink_once(cells, rho, _dyadic(1))))


def _dichotomy(diag) -> str:
    return "".join(
        f"dichotomy {r.member} {r.badness} {r.inside_shrunk} {r.badness_after}\n"
        for r in diag.dichotomy_failures
    )


def shrink_render(name: str, raw) -> tuple[bool, str]:
    if name == "badness_table":
        return True, raw.to_csv()
    if name == "shrink_iterate":
        return True, raw.to_csv() + "".join(_dichotomy(d) for d in raw.diagnostics)
    cells, diag = raw
    windows = " ".join(f"{I}:{K}" for I, ks in diag.windows for K in ks)
    return True, f"E' {_runs(cells)}\nwindows {windows}\n{_dichotomy(diag)}"


# -- decompose: the `dirmax decompose` pipeline, then the criterion-9 path ----

DECOMPOSE_PARTS = ((9, False), (7, True))  # (m, run domination_check)


def decompose_inputs(variant: int):
    return [_cascade_inputs(m, m - 2, variant) for m, _ in DECOMPOSE_PARTS]


def decompose_job(parts, ops: list) -> None:
    stopping_time = _m("stopping_time")
    for x, (m, dominate) in zip(parts, DECOMPOSE_PARTS):
        fam = _m("family").enumerate_family(x.params, x.field)
        rho = _m("maximal").linearize(x.f, fam)
        res = stopping_time.run_generations(x.field, x.spec.w, x.params.delta, rho)
        ops.append((f"run_generations.m{m}", res))
        if dominate:
            ops.append((f"domination_check.m{m}", stopping_time.domination_check(res, rho, x.f, max_pieces=1)))


def decompose_render(name: str, raw) -> tuple[bool, str]:
    if name.startswith("run_generations"):
        return True, _m("stopping_time").decomposition_to_json(raw)
    violations, checked, worst = raw
    return True, f"violations {len(violations)} checked {checked} worst {worst}"


# -- corpus: the `dirmax verify --m 4` battery, one instance at a time -------

CORPUS_MAX_M = 4
STAGES = (
    "check_oracle_equivalence", "check_exact_identities", "check_stopping_theorems",
    "check_shrinking", "check_reformulation", "check_domination",
)


def corpus_inputs(variant: int):
    instances = _m("instances")
    corpus = [inst for inst in instances.build_corpus() if inst.spec.m <= CORPUS_MAX_M]
    if not variant:
        return corpus
    out = []
    for inst in corpus:
        seed = inst.seed + 100_003 * variant
        field = inst.field
        if "rand" in inst.name:
            field = instances.random_field(inst.spec, random.Random(f"field-{seed}"))
        out.append(instances.CorpusInstance(inst.name, inst.spec, inst.delta, field, seed))
    return out


def corpus_job(corpus, ops: list) -> None:
    verify = _m("verify")
    for inst in corpus:
        for stage in STAGES:
            report = verify.VerifyReport()
            try:
                getattr(verify, stage)(report, [inst])
            except Exception as exc:  # one failed operation; the battery goes on
                ops.append((f"{inst.name}.{stage}", exc))
            else:
                ops.append((f"{inst.name}.{stage}", report))


def corpus_render(name: str, report) -> tuple[bool, str]:
    # NOTE lines (the exact constant-1 domination) are recorded, not failures
    return report.ok, report.to_text()


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: str  # what the seed drives
    inputs: Callable
    job: Callable
    render: Callable

    def outputs(self, ops: list) -> list[tuple[str, bool, str]]:
        out = []
        for name, raw in ops:
            ok, text = _failed(raw) or self.render(name, raw)
            out.append((name, ok, text))
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ascent", "nothing: the Kakeya bundle takes no seed", ascent_inputs, ascent_job, ascent_render),
        Workload(
            "shrink", "the random_grid test function; the cascade field takes no seed",
            shrink_inputs, shrink_job, shrink_render,
        ),
        Workload(
            "decompose", "the random_grid test functions; the cascade fields take no seed",
            decompose_inputs, decompose_job, decompose_render,
        ),
        Workload(
            "corpus", "the random fields and every instance's random_grid test functions",
            corpus_inputs, corpus_job, corpus_render,
        ),
    )
}
