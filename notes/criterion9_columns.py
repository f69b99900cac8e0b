"""Criterion 9 column by column: where the excess of avg_R(g) over M2 g(x) comes from.

Runs the criterion-9 domination loop of stopping_time.domination_check on the
corpus instance m5_cascade_d1 (m 5, m_w 3, delta 1/2): for every piece g =
T*(f on the piece) and every cell x of a later generation under the piece's
interval, R is rho's member at x.  For each such tuple it prints

- own: whether the average of g over R's slab in x's own column exceeds
  M2 g(x), the vertical maximal function at x;
- spread: avg_R(g) / the largest M2 g over the cells whose centers R holds,

then how many tuples have avg_R(g) > M2 g(x), how many have own set, and the
largest spread.  All values are exact Fractions from the brute-force oracle:
R's slabs from oracle.slab and avg_R(g) from oracle.integrate.

    PYTHONPATH=src python notes/criterion9_columns.py
"""

from __future__ import annotations

from fractions import Fraction

from dirmax import oracle
from dirmax.instances import build_corpus
from dirmax.maximal import apply_T_adjoint, m2_vertical
from dirmax.stopping_time import piece_cells, run_generations


def own_column_average(m: int, m_w: int, R, g: list[Fraction], c: int) -> Fraction:
    """The average of g over R's slab [lo, hi) in column c."""
    lo, hi = oracle.slab(m, m_w, R, c)
    cell = Fraction(1, 1 << m)
    total = Fraction(0)
    for r in range(1 << m):
        seg = min(hi, (r + 1) * cell) - max(lo, r * cell)
        if seg > 0:
            total += seg * g[(c << m) + r]
    return total / (hi - lo)


def center_cells(m: int, m_w: int, R) -> list[int]:
    """The cells whose centers R holds."""
    return [
        (c << m) + r
        for c in oracle.columns(m, m_w, R)
        for r in range(1 << m)
        if oracle.contains_cell(m, m_w, R, c, r)
    ]


def m2_fractions(g) -> list[Fraction]:
    """M2 g per cell, from m2_vertical's (num, den) arrays on every column."""
    num, den = m2_vertical(g, range(g.spec.n))
    return [Fraction(x, d << g.scale) for x, d in zip(num.tolist(), den.tolist())]


def main() -> None:
    inst = next(i for i in build_corpus() if i.name == "m5_cascade_d1")
    rho, f, m, m_w = inst.rho, inst.f, inst.spec.m, inst.spec.m_w
    step = 1 << inst.spec.offset_exp
    members = [(k, i, j, Fraction(t, step)) for k, i, j, t in rho.fam.sort_keys.tolist()]
    res = run_generations(inst.field, inst.spec.w, inst.delta, rho)
    a_sets = res.a_sets()
    tuples = exceed = own_exceed = 0
    worst_spread = Fraction(0)
    for j in range(len(res.generations) - 1):
        for J, n, cells in piece_cells(res, j):
            g = apply_T_adjoint(rho, f.masked(cells))
            vert = m2_fractions(g)
            values = [x.as_fraction() for x in g.values()]
            cols = J.columns(m)
            for k in range(j + 1, len(res.generations)):
                for idx in a_sets[k].tolist():
                    if not cols.start <= idx >> m < cols.stop:
                        continue
                    R = members[rho.entries[idx]]
                    m2x = vert[idx]
                    avg = oracle.integrate(m, m_w, R, values) / oracle.member_measure(m_w, R)
                    own = own_column_average(m, m_w, R, values, idx >> m) > m2x
                    spread = avg / max(vert[i] for i in center_cells(m, m_w, R))
                    tuples += 1
                    exceed += avg > m2x
                    own_exceed += own
                    worst_spread = max(worst_spread, spread)
                    print(
                        f"j {j} J {J} n {n} cell {idx} member {rho.entries[idx]}: "
                        f"avg>M2 {avg > m2x} own>M2 {own} spread {float(spread):.4f}"
                    )
    print(
        f"{tuples} tuples: {exceed} have avg_R(g) > M2 g(x), {own_exceed} have an "
        f"own-column average above M2 g(x); largest spread {float(worst_spread):.4f}"
    )


if __name__ == "__main__":
    main()
