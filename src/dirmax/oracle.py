"""Independent brute-force reference implementations, built on Fractions.

Everything here recomputes geometry from raw integers and Fractions, straight
from the definitions, sharing no staircase code with the optimized modules.
The verify harness compares the two sides for exact equality on a corpus.

Raw conventions: a member is (k, base_index, slope_index, offset) with the
offset a Fraction; grids and fields are flat lists of Fractions; cell index
is (column << m) + row.

Each call builds what it reuses as local tables: every member's slabs
(column, bottom, top) once, and in ``shrink_once`` each member's weight
area / |Q| * cell once, before the window loops.  A slab [lo, hi) meets
only rows floor(lo * 2^m) .. ceil(hi * 2^m) - 1; every other row has no
overlap with it and no center in it, so integrals, maximal values and T*
read only those rows.  Nothing is cached across calls: each call answers
from its own arguments alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

Member = tuple[int, int, int, Fraction]
SlabTable = list[tuple[int, Fraction, Fraction]]  # (column, bottom, top), left to right


def slab(m: int, m_w: int, member: Member, c: int) -> tuple[Fraction, Fraction]:
    """[slope center * column center + offset, + 1 / 2^m_w): the slope center
    is (2j + 1) / 2^(k + 1) and the column center (2c + 1) / 2^(m + 1)."""
    k, _i, j, b = member
    lo = Fraction((2 * j + 1) * (2 * c + 1), 1 << (k + m + 2)) + b
    return lo, lo + Fraction(1, 1 << m_w)


def columns(m: int, m_w: int, member: Member) -> range:
    k, i, _j, _b = member
    level = m_w - k
    return range(i << (m - level), (i + 1) << (m - level))


def member_measure(m_w: int, member: Member) -> Fraction:
    k = member[0]
    return Fraction(1, 1 << (2 * m_w - k))


def contains_cell(m: int, m_w: int, member: Member, c: int, r: int) -> bool:
    if c not in columns(m, m_w, member):
        return False
    lo, hi = slab(m, m_w, member, c)
    return lo <= Fraction(2 * r + 1, 1 << (m + 1)) < hi


def _slab_table(m: int, m_w: int, member: Member) -> SlabTable:
    """(column, bottom, top) of the member's slab in each column it spans, left to right."""
    return [(c, *slab(m, m_w, member, c)) for c in columns(m, m_w, member)]


def _rows(m: int, lo: Fraction, hi: Fraction) -> range:
    """The rows that [lo, hi) meets: row r does iff r / 2^m < hi and lo < (r + 1) / 2^m."""
    n = 1 << m
    return range(max(0, math.floor(lo * n)), min(n, math.ceil(hi * n)))


def _integrate(m: int, table: SlabTable, f: Sequence[Fraction]) -> Fraction:
    cell = Fraction(1, 1 << m)
    total = Fraction(0)
    for c, lo, hi in table:
        for r in _rows(m, lo, hi):
            seg = min(hi, (r + 1) * cell) - max(lo, r * cell)
            total += seg * f[(c << m) + r]
    return total * cell


def integrate(m: int, m_w: int, member: Member, f: Sequence[Fraction]) -> Fraction:
    return _integrate(m, _slab_table(m, m_w, member), f)


def weighted_count(
    m: int, m_w: int, members: Sequence[Member], counts: Sequence[int]
) -> list[Fraction]:
    """T* of an indicator whose cells chose each member counts times: per cell,
    the sum of counts * cell area / |R| * (share of the cell R's slab covers)."""
    n = 1 << m
    cell = Fraction(1, n)
    out = [Fraction(0)] * (n * n)
    for r, cnt in zip(members, counts):
        if not cnt:
            continue
        coef = cnt * cell / member_measure(m_w, r)  # cell area / (|R| * cell height)
        for c, lo, hi in _slab_table(m, m_w, r):
            for row in _rows(m, lo, hi):
                seg = min(hi, (row + 1) * cell) - max(lo, row * cell)
                out[(c << m) + row] += coef * seg
    return out


def _overlap(m: int, m_w: int, spans: dict[int, tuple[Fraction, Fraction]], b: Member) -> Fraction:
    """|A cap B|, with A given as its column -> (bottom, top) table."""
    total = Fraction(0)
    for c in columns(m, m_w, b):
        if c in spans:
            alo, ahi = spans[c]
            blo, bhi = slab(m, m_w, b, c)
            lo, hi = max(alo, blo), min(ahi, bhi)
            if hi > lo:
                total += hi - lo
    return total * Fraction(1, 1 << m)


def pair_overlap(m: int, m_w: int, a: Member, b: Member) -> Fraction:
    spans = {c: (lo, hi) for c, lo, hi in _slab_table(m, m_w, a)}
    return _overlap(m, m_w, spans, b)


def pi2_extent(m: int, m_w: int, member: Member) -> tuple[Fraction, Fraction]:
    cols = columns(m, m_w, member)
    lo, _ = slab(m, m_w, member, cols[0])
    _, hi = slab(m, m_w, member, cols[-1])
    return lo, hi


def enumerate_family(
    m: int, m_w: int, offset_exp: int, delta: Fraction, v: Sequence[Fraction]
) -> list[Member]:
    """Quadruple-loop density filter straight from the definitions."""
    out: list[Member] = []
    w = Fraction(1, 1 << m_w)
    step = Fraction(1, 1 << offset_exp)
    for k in range(m_w + 1):
        level = m_w - k
        half_window = Fraction(1, 1 << (k + 1))
        for i in range(1 << level):
            cols = range(i << (m - level), (i + 1) << (m - level))
            sup = Fraction(i + 1, 1 << level)
            for j in range(1 << k):
                s = Fraction(2 * j + 1, 1 << (k + 1))
                count = sum(1 for c in cols if s - half_window <= v[c] < s + half_window)
                if Fraction(count, 1 << (m - level)) < delta:
                    continue
                t = 0
                while s * sup + t * step + w <= 1:
                    out.append((k, i, j, t * step))
                    t += 1
    return out


def maximal_apply(
    m: int, m_w: int, members: Sequence[Member], f: Sequence[Fraction]
) -> tuple[list[Fraction], list[int]]:
    """Cell-by-member double loop: each member's exact average raises the
    cells whose centers its slabs hold.  Returns (Mf, choosers): a cell's
    chooser is the lowest-index member holding its center among those of
    largest average, and -1 where no member holds it."""
    n = 1 << m
    centers = [Fraction(2 * row + 1, 2 * n) for row in range(n)]
    out = [Fraction(0)] * (n * n)
    chooser = [-1] * (n * n)
    for i, r in enumerate(members):
        table = _slab_table(m, m_w, r)
        avg = _integrate(m, table, f) / member_measure(m_w, r)
        for c, lo, hi in table:
            for row in _rows(m, lo, hi):
                if lo <= centers[row] < hi:
                    idx = (c << m) + row
                    if chooser[idx] < 0 or avg > out[idx]:
                        out[idx] = avg
                        chooser[idx] = i
    return out, chooser


def m2_vertical(m: int, values: Sequence[Fraction]) -> list[Fraction]:
    """Per cell (c, r), the largest average of column c over the row segments
    [r0, r1) with r0 <= r < r1.  For each r0, walking r1 down from the top
    with a running maximum gives, at r = r1 - 1, the best segment from r0
    containing r."""
    n = 1 << m
    out = []
    for c in range(n):
        pre = list(accumulate(values[c << m : (c + 1) << m], initial=Fraction(0)))
        best = [None] * n
        for r0 in range(n):
            run = None
            for r1 in range(n, r0, -1):
                avg = (pre[r1] - pre[r0]) / (r1 - r0)
                run = avg if run is None else max(run, avg)
                best[r1 - 1] = run if best[r1 - 1] is None else max(best[r1 - 1], run)
        out.extend(best)
    return out


# -- stopping-time replay ------------------------------------------------------


def slope_sets(
    m: int,
    m_w: int,
    delta: Fraction,
    v: Sequence[Fraction],
    root: tuple[int, int],
) -> dict[tuple[int, int], list[int]]:
    """T(J) for all dyadic J under the root, by literal ancestor exclusion."""
    chosen: dict[tuple[int, int], list[int]] = {}
    root_level, root_index = root
    for level in range(root_level, m_w + 1):
        k = m_w - level
        for index in range(root_index << (level - root_level), (root_index + 1) << (level - root_level)):
            cols = range(index << (m - level), (index + 1) << (m - level))
            popular = []
            for j in range(1 << k):
                lo = Fraction(j, 1 << k)
                hi = Fraction(j + 1, 1 << k)
                count = sum(1 for c in cols if lo <= v[c] < hi)
                if Fraction(count, 1 << (m - level)) >= delta:
                    popular.append(j)
            keep = []
            for j in popular:
                lo = Fraction(j, 1 << k)
                hi = Fraction(j + 1, 1 << k)
                blocked = False
                lvl, idx = level, index
                while lvl > root_level:
                    lvl, idx = lvl - 1, idx >> 1
                    ka = m_w - lvl
                    for ja in chosen.get((lvl, idx), []):
                        alo = Fraction(ja, 1 << ka)
                        ahi = Fraction(ja + 1, 1 << ka)
                        if lo <= alo and ahi <= hi:
                            blocked = True
                            break
                    if blocked:
                        break
                if not blocked:
                    keep.append(j)
            chosen[(level, index)] = keep
    return chosen


def g_count(m: int, m_w: int, v: Sequence[Fraction], level: int, index: int, j: int) -> int:
    k = m_w - level
    lo = Fraction(j, 1 << k)
    hi = Fraction(j + 1, 1 << k)
    cols = range(index << (m - level), (index + 1) << (m - level))
    return sum(1 for c in cols if lo <= v[c] < hi)


def stopping_intervals(
    m: int,
    m_w: int,
    delta: Fraction,
    v: Sequence[Fraction],
    root: tuple[int, int],
) -> list[tuple[int, int]]:
    """All maximal dyadic subintervals whose accumulated density reaches 2."""
    chosen = slope_sets(m, m_w, delta, v, root)
    mu: dict[tuple[int, int], Fraction] = {}
    for (level, index), js in chosen.items():
        mu[(level, index)] = sum(
            (Fraction(g_count(m, m_w, v, level, index, j), 1 << m) for j in js),
            Fraction(0),
        )
    root_level = root[0]

    def sigma(level: int, index: int) -> Fraction:
        total = Fraction(0)
        lvl, idx = level, index
        while True:
            total += mu[(lvl, idx)] * (1 << lvl)
            if lvl == root_level:
                return total
            lvl, idx = lvl - 1, idx >> 1

    hits = [key for key in chosen if sigma(*key) >= 2]
    out = []
    for level, index in hits:
        maximal = True
        for level2, index2 in hits:
            if (level2, index2) != (level, index) and level2 <= level:
                if (index >> (level - level2)) == index2:
                    maximal = False
                    break
        if maximal:
            out.append((level, index))
    return sorted(out)


Pair = tuple[tuple[int, int], tuple[int, int]]  # ((level, index), (k, j))


def _pair_lt(a: Pair, b: Pair) -> bool:
    (al, ai), (ak, aj) = a
    (bl, bi), (bk, bj) = b
    if a == b:
        return False
    if (al, ai) == (bl, bi):
        return Fraction(2 * aj + 1, 1 << (ak + 1)) <= Fraction(2 * bj + 1, 1 << (bk + 1))
    if al > bl and (ai >> (al - bl)) == bi:
        return True
    return False


def omega_levels(good: Sequence[Pair], full: Sequence[Pair]) -> list[list[Pair]]:
    good_set = set(good)
    full = list(set(full))

    def maximal(pairs):
        return [p for p in pairs if not any(_pair_lt(p, q) for q in pairs)]

    levels = []
    current = sorted(maximal(list(good_set)))
    while current:
        levels.append(current)
        nxt = set()
        for p in current:
            below = [q for q in full if _pair_lt(q, p)]
            for q in maximal(below):
                if q in good_set:
                    nxt.add(q)
        current = sorted(nxt)
    return levels


# -- badness and shrinking replay ----------------------------------------------


def base_contains(m_w: int, outer: tuple[int, int], member: Member) -> bool:
    k, i, _j, _b = member
    level = m_w - k
    o_level, o_index = outer
    if level < o_level:
        return False
    return (i >> (level - o_level)) == o_index


def nu_counts(members: Sequence[Member], rho: Sequence[int], cells) -> list[int]:
    counts = [0] * len(members)
    for idx in cells:
        e = rho[idx]
        if e >= 0:
            counts[e] += 1
    return counts


def badness(
    m: int,
    m_w: int,
    members: Sequence[Member],
    rho: Sequence[int],
    cells,
    mi: int,
) -> Fraction:
    """(1/|R|) * sum over rectangles chosen from inside pi_1(R)."""
    k, i, _j, _b = members[mi]
    base = (m_w - k, i)
    keep = [idx for idx in cells if rho[idx] >= 0 and base_contains(m_w, base, members[rho[idx]])]
    counts = nu_counts(members, rho, keep)
    spans = {c: (lo, hi) for c, lo, hi in _slab_table(m, m_w, members[mi])}
    area = Fraction(1, 1 << (2 * m))
    total = Fraction(0)
    for qi, cnt in enumerate(counts):
        if cnt:
            q = members[qi]
            total += cnt * area / member_measure(m_w, q) * _overlap(m, m_w, spans, q)
    return total / member_measure(m_w, members[mi])


def _triple(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    ln = hi - lo
    return max(Fraction(0), lo - ln), min(Fraction(1), hi + ln)


def _box_average(
    tables: Sequence[SlabTable],
    weights: Sequence[Fraction],
    counts: Sequence[int],
    keep: Sequence[int],
    i_level: int,
    wlo: Fraction,
    whi: Fraction,
) -> Fraction:
    """B over I x [wlo, whi) from the members in keep: the sum of count * area
    / |Q| * cell * (Q's slab length inside the window), over |I| (whi - wlo)."""
    total = Fraction(0)
    for qi in keep:
        table = tables[qi]
        if not counts[qi] or table[0][1] >= whi or table[-1][2] <= wlo:
            continue  # no chooser, or Q's pi2 extent misses the window
        acc = Fraction(0)
        for _c, lo, hi in table:
            seg = min(hi, whi) - max(lo, wlo)
            if seg > 0:
                acc += seg
        total += counts[qi] * weights[qi] * acc
    denom = Fraction(1, 1 << i_level) * (whi - wlo)
    return total / denom if denom else Fraction(0)


def _box_weights(m: int, m_w: int, members: Sequence[Member]) -> list[Fraction]:
    """area / |Q| * cell for each member Q: one chooser's mass per unit slab length."""
    area = Fraction(1, 1 << (2 * m))
    cell = Fraction(1, 1 << m)
    return [area / member_measure(m_w, q) * cell for q in members]


def shrink_once(
    m: int,
    m_w: int,
    members: Sequence[Member],
    rho: Sequence[int],
    cells,
    lam0: Fraction,
) -> set[int]:
    """Definition replay of the shrunken set E' as a set of cell indices."""
    counts = nu_counts(members, rho, cells)
    tables = [_slab_table(m, m_w, r) for r in members]
    weights = _box_weights(m, m_w, members)
    pi2 = [pi2_extent(m, m_w, r) for r in members]
    shrunk: set[int] = set()
    for i_level in range(m_w + 1):
        for i_index in range(1 << i_level):
            active = [
                qi for qi, r in enumerate(members)
                if counts[qi] and base_contains(m_w, (i_level, i_index), r)
            ]
            if not active:
                continue
            for k_level in range(m + 1):
                for k_index in range(1 << k_level):
                    klo = Fraction(k_index, 1 << k_level)
                    khi = Fraction(k_index + 1, 1 << k_level)
                    tlo, thi = _triple(klo, khi)
                    out = [qi for qi in active if not (tlo <= pi2[qi][0] and pi2[qi][1] <= thi)]
                    b_out = _box_average(tables, weights, counts, out, i_level, klo, khi)
                    if b_out < lam0:
                        continue
                    t2lo, t2hi = _triple(tlo, thi)
                    out3 = [qi for qi in active if not (t2lo <= pi2[qi][0] and pi2[qi][1] <= t2hi)]
                    b_out3 = _box_average(tables, weights, counts, out3, i_level, tlo, thi)
                    if b_out3 >= lam0:
                        continue
                    c0 = i_index << (m - i_level)
                    c1 = (i_index + 1) << (m - i_level)
                    r0 = int(tlo * (1 << m))
                    r1 = int(thi * (1 << m))
                    for c in range(c0, c1):
                        for r in range(r0, r1):
                            shrunk.add((c << m) + r)
    return shrunk
