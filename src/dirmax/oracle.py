"""Independent brute-force reference implementations, built on Fractions.

Everything here recomputes geometry from raw integers and Fractions, straight
from the definitions, sharing no staircase code with the optimized modules.
The verify harness compares the two sides for exact equality on a corpus.

Raw conventions: a member is (k, base_index, slope_index, offset) with the
offset a Fraction; grids and fields are flat lists of Fractions; cell index
is (column << m) + row.

Each call builds what it reuses as local tables, in the same Fraction
arithmetic: every member's slabs (column, bottom, top) once, and the row
edges r / 2^m once.  A slab [lo, hi) meets only rows floor(lo * 2^m) ..
ceil(hi * 2^m) - 1; every other row has no overlap with it and no center in
it, so integrals, maximal values and T* read only those rows.  ``badness``
takes a sequence of member indices and answers for all of them from one
set of tables: the column -> slab table of each member it reads, and the
chooser weights once per distinct base.  ``shrink_once`` builds, per window
K, the masses of the choosers whose pi2 extent lies outside triple(K) and
meets K (and, once some base passes that test, those outside the double
triple over triple(K)); each base I then sums the masses of its own
choosers.  Nothing is cached across calls: each call answers from its own
arguments alone.
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


def _edges(m: int) -> list[Fraction]:
    """The row edges r / 2^m for r = 0 .. 2^m: row r is [edges[r], edges[r + 1])."""
    n = 1 << m
    return [Fraction(r, n) for r in range(n + 1)]


def _integrate(m: int, edges: Sequence[Fraction], table: SlabTable, f: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for c, lo, hi in table:
        for r in _rows(m, lo, hi):
            seg = min(hi, edges[r + 1]) - max(lo, edges[r])
            total += seg * f[(c << m) + r]
    return total * edges[1]


def integrate(m: int, m_w: int, member: Member, f: Sequence[Fraction]) -> Fraction:
    return _integrate(m, _edges(m), _slab_table(m, m_w, member), f)


def weighted_count(
    m: int, m_w: int, members: Sequence[Member], counts: Sequence[int]
) -> list[Fraction]:
    """T* of an indicator whose cells chose each member counts times: per cell,
    the sum of counts * cell area / |R| * (share of the cell R's slab covers)."""
    n = 1 << m
    edges = _edges(m)
    out = [Fraction(0)] * (n * n)
    for r, cnt in zip(members, counts):
        if not cnt:
            continue
        coef = cnt * edges[1] / member_measure(m_w, r)  # cell area / (|R| * cell height)
        for c, lo, hi in _slab_table(m, m_w, r):
            for row in _rows(m, lo, hi):
                seg = min(hi, edges[row + 1]) - max(lo, edges[row])
                out[(c << m) + row] += coef * seg
    return out


def _spans(m: int, m_w: int, member: Member) -> dict:
    """column -> (bottom, top) of the member's slab."""
    return {c: (lo, hi) for c, lo, hi in _slab_table(m, m_w, member)}


def _overlap(m: int, a: dict, b: dict) -> Fraction:
    """|A cap B|, with A and B given as their column -> (bottom, top) tables."""
    total = Fraction(0)
    for c, (blo, bhi) in b.items():
        if c in a:
            alo, ahi = a[c]
            lo, hi = max(alo, blo), min(ahi, bhi)
            if hi > lo:
                total += hi - lo
    return total * Fraction(1, 1 << m)


def pair_overlap(m: int, m_w: int, a: Member, b: Member) -> Fraction:
    return _overlap(m, _spans(m, m_w, a), _spans(m, m_w, b))


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
    edges = _edges(m)
    centers = [Fraction(2 * row + 1, 2 * n) for row in range(n)]
    out = [Fraction(0)] * (n * n)
    chooser = [-1] * (n * n)
    for i, r in enumerate(members):
        table = _slab_table(m, m_w, r)
        avg = _integrate(m, edges, table, f) / member_measure(m_w, r)
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
    mis: Sequence[int],
) -> list[Fraction]:
    """B_R for R = members[mi], for each mi in mis in that order: (1/|R|) *
    the sum, over the rectangles Q chosen from inside pi_1(R), of Q's
    choosers * cell area / |Q| * |R cap Q|.  An index outside [0, N) raises
    IndexError."""
    for mi in mis:
        if not 0 <= mi < len(members):
            raise IndexError(f"member index {mi} out of range for {len(members)} members")
    counts = nu_counts(members, rho, cells)
    area = Fraction(1, 1 << (2 * m))
    bases = [(m_w - members[mi][0], members[mi][1]) for mi in mis]
    under = {  # base -> (Q, its choosers' weight) for each chooser Q under the base
        base: [
            (qi, cnt * area / member_measure(m_w, q))
            for qi, (q, cnt) in enumerate(zip(members, counts))
            if cnt and base_contains(m_w, base, q)
        ]
        for base in set(bases)
    }
    needed = set(mis).union(*([qi for qi, _w in pairs] for pairs in under.values()))
    spans = {qi: _spans(m, m_w, members[qi]) for qi in needed}  # R's and its choosers' slabs
    return [
        sum((w * _overlap(m, spans[mi], spans[qi]) for qi, w in under[base]), Fraction(0))
        / member_measure(m_w, members[mi])
        for mi, base in zip(mis, bases)
    ]


def _triple(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    ln = hi - lo
    return max(Fraction(0), lo - ln), min(Fraction(1), hi + ln)


def _out_masses(
    tables: Sequence[SlabTable], coefs: Sequence[Fraction], chosen, window, fit
) -> dict[int, Fraction]:
    """qi -> coefs[qi] * (Q's slab length inside the window), for each member
    in chosen whose pi2 extent is not inside fit and meets the window."""
    (wlo, whi), (flo, fhi) = window, fit
    masses = {}
    for qi in chosen:
        table = tables[qi]
        lo, hi = table[0][1], table[-1][2]  # Q's pi2 extent
        if (flo <= lo and hi <= fhi) or lo >= whi or hi <= wlo:
            continue
        acc = Fraction(0)
        for _c, bottom, top in table:
            seg = min(top, whi) - max(bottom, wlo)
            if seg > 0:
                acc += seg
        masses[qi] = coefs[qi] * acc
    return masses


def _bad_windows(
    m: int, m_w: int, members: Sequence[Member], rho: Sequence[int], cells, lam0: Fraction
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The selected pairs ((I's level, index), (K's level, index)), sorted.

    (I, K) is selected when the average over I x K of the mass of the
    choosers under I whose pi2 extent is not inside triple(K) reaches lam0,
    and the average over I x triple(K) of those whose extent is not inside
    triple(triple(K)) stays below it.  A chooser's mass over a window is its
    count * area / |Q| * cell * (Q's slab length inside the window)."""
    counts = nu_counts(members, rho, cells)
    tables = [_slab_table(m, m_w, r) for r in members]
    cube = Fraction(1, 1 << (3 * m))  # cell area * cell height
    coefs = [cnt * cube / member_measure(m_w, q) for q, cnt in zip(members, counts)]
    chosen = [qi for qi, cnt in enumerate(counts) if cnt]
    bases = [  # (I, the choosers under I)
        ((level, index), [qi for qi in chosen if base_contains(m_w, (level, index), members[qi])])
        for level in range(m_w + 1)
        for index in range(1 << level)
    ]

    def average(masses, I, active, window):
        total = sum((masses[qi] for qi in active if qi in masses), Fraction(0))
        return total / (Fraction(1, 1 << I[0]) * (window[1] - window[0]))

    selected = []
    for k_level in range(m + 1):
        for k_index in range(1 << k_level):
            K = Fraction(k_index, 1 << k_level), Fraction(k_index + 1, 1 << k_level)
            triple = _triple(*K)
            mass = _out_masses(tables, coefs, chosen, K, triple)
            mass3 = None  # built when a base first passes the K test
            for I, active in bases:
                if average(mass, I, active, K) < lam0:
                    continue
                if mass3 is None:
                    mass3 = _out_masses(tables, coefs, chosen, triple, _triple(*triple))
                if average(mass3, I, active, triple) < lam0:
                    selected.append((I, (k_level, k_index)))
    return sorted(selected)


def shrink_once(
    m: int,
    m_w: int,
    members: Sequence[Member],
    rho: Sequence[int],
    cells,
    lam0: Fraction,
) -> set[int]:
    """Definition replay of the shrunken set E' as a set of cell indices: the
    union of I x triple(K) over the selected pairs (I, K)."""
    shrunk: set[int] = set()
    for (i_level, i_index), (k_level, k_index) in _bad_windows(m, m_w, members, rho, cells, lam0):
        tlo, thi = _triple(Fraction(k_index, 1 << k_level), Fraction(k_index + 1, 1 << k_level))
        for c in range(i_index << (m - i_level), (i_index + 1) << (m - i_level)):
            shrunk.update(range((c << m) + int(tlo * (1 << m)), (c << m) + int(thi * (1 << m))))
    return shrunk
