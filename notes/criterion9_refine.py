"""Criterion 9 under grid refinement: the excess does not shrink with the grid.

Holds the field and the test function f of the corpus instance m5_cascade_d1
(m 5, m_w 3, delta 1/2) fixed as step functions, refines the grid to m, and
runs the same domination check as tests/test_acceptance.py's criterion 9.  For
each m it prints the family size, the off-diagonal tuples that exceed the
vertical maximal function out of those checked, the worst ratio and the
seconds taken.

    PYTHONPATH=src python notes/criterion9_refine.py [max_m]   # default 9
"""

from __future__ import annotations

import sys
import time

from dirmax.family import FamilyParams, enumerate_family
from dirmax.geometry import GridSpec
from dirmax.grids import GridFunction, OneVarField
from dirmax.instances import build_corpus
from dirmax.maximal import linearize
from dirmax.stopping_time import domination_check, run_generations


def refine(inst, m: int):
    """(spec, field, f) of inst on the 2^m grid, each coarse cell or column
    split into 2^(m - inst.spec.m) per axis with its value kept."""
    s = m - inst.spec.m
    spec = GridSpec(m, inst.spec.m_w, inst.spec.offset_half)
    v, f = inst.field.nums, inst.f.nums
    field = OneVarField(spec, inst.field.scale, [v[c >> s] for c in range(spec.n)])
    nums = [f[((c >> s) << inst.spec.m) | (r >> s)] for c in range(spec.n) for r in range(spec.n)]
    return spec, field, GridFunction(spec, inst.f.scale, nums)


def main(max_m: int) -> None:
    inst = next(i for i in build_corpus() if i.name == "m5_cascade_d1")
    for m in range(inst.spec.m, max_m + 1):
        t0 = time.perf_counter()
        spec, field, f = refine(inst, m)
        fam = enumerate_family(FamilyParams(spec, inst.delta), field)
        rho = linearize(f, fam)
        res = run_generations(field, spec.w, inst.delta, rho)
        violations, checked, worst = domination_check(res, rho, f)
        print(
            f"m {m}: {len(fam)} members, {len(violations)}/{checked} tuples exceed, "
            f"worst x{float(worst):.3f}, {time.perf_counter() - t0:.1f} s",
            flush=True,
        )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 9)
