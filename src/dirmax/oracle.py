"""Independent brute-force reference implementations, built on Fractions.

Everything here recomputes geometry from raw integers and Fractions, straight
from the definitions, sharing no staircase code with the optimized modules.
The verify harness compares the two sides for exact equality on a corpus.

Raw conventions: a member is (k, base_index, slope_index, offset) with the
offset a Fraction; grids and fields are flat lists of Fractions; cell index
is (column << m) + row.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Member = tuple[int, int, int, Fraction]


def slab(m: int, m_w: int, member: Member, c: int) -> tuple[Fraction, Fraction]:
    k, _i, j, b = member
    s = Fraction(2 * j + 1, 1 << (k + 1))
    x = Fraction(2 * c + 1, 1 << (m + 1))
    lo = s * x + b
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


def integrate(m: int, m_w: int, member: Member, f: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    cell = Fraction(1, 1 << m)
    for c in columns(m, m_w, member):
        lo, hi = slab(m, m_w, member, c)
        for r in range(1 << m):
            o_lo = max(lo, Fraction(r, 1 << m))
            o_hi = min(hi, Fraction(r + 1, 1 << m))
            if o_hi > o_lo:
                total += (o_hi - o_lo) * cell * f[(c << m) + r]
    return total


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
        for c in columns(m, m_w, r):
            lo, hi = slab(m, m_w, r, c)
            for row in range(math.floor(lo * n), math.ceil(hi * n)):
                seg = min(hi, (row + 1) * cell) - max(lo, row * cell)
                out[(c << m) + row] += coef * seg
    return out


def pair_overlap(m: int, m_w: int, a: Member, b: Member) -> Fraction:
    total = Fraction(0)
    cols = set(columns(m, m_w, a)) & set(columns(m, m_w, b))
    for c in cols:
        alo, ahi = slab(m, m_w, a, c)
        blo, bhi = slab(m, m_w, b, c)
        lo, hi = max(alo, blo), min(ahi, bhi)
        if hi > lo:
            total += hi - lo
    return total * Fraction(1, 1 << m)


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
) -> list[Fraction]:
    """Cell-by-member double loop over precomputed exact averages."""
    avgs = [integrate(m, m_w, r, f) / member_measure(m_w, r) for r in members]
    out = [Fraction(0)] * (1 << (2 * m))
    for mi, r in enumerate(members):
        for c in columns(m, m_w, r):
            lo, hi = slab(m, m_w, r, c)
            for row in range(1 << m):
                if lo <= Fraction(2 * row + 1, 1 << (m + 1)) < hi:
                    idx = (c << m) + row
                    if avgs[mi] > out[idx]:
                        out[idx] = avgs[mi]
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
    area = Fraction(1, 1 << (2 * m))
    total = Fraction(0)
    for qi, cnt in enumerate(counts):
        if cnt:
            total += (
                cnt
                * area
                / member_measure(m_w, members[qi])
                * pair_overlap(m, m_w, members[mi], members[qi])
            )
    return total / member_measure(m_w, members[mi])


def _triple(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    ln = hi - lo
    return max(Fraction(0), lo - ln), min(Fraction(1), hi + ln)


def _box_average(
    m: int,
    m_w: int,
    members: Sequence[Member],
    counts: Sequence[int],
    keep: Sequence[bool],
    i_level: int,
    i_index: int,
    wlo: Fraction,
    whi: Fraction,
) -> Fraction:
    area = Fraction(1, 1 << (2 * m))
    cell = Fraction(1, 1 << m)
    total = Fraction(0)
    for qi, cnt in enumerate(counts):
        if not cnt or not keep[qi]:
            continue
        q = members[qi]
        acc = Fraction(0)
        for c in columns(m, m_w, q):
            lo, hi = slab(m, m_w, q, c)
            seg = min(hi, whi) - max(lo, wlo)
            if seg > 0:
                acc += seg
        total += cnt * area / member_measure(m_w, q) * acc * cell
    denom = Fraction(1, 1 << i_level) * (whi - wlo)
    return total / denom if denom else Fraction(0)


def shrink_once(
    m: int,
    m_w: int,
    members: Sequence[Member],
    rho: Sequence[int],
    cells,
    lam0: Fraction,
) -> set[int]:
    """Definition replay of the shrunken set E' as a set of cell indices."""
    counts_all = nu_counts(members, rho, cells)
    pi2 = [pi2_extent(m, m_w, r) for r in members]
    shrunk: set[int] = set()
    for i_level in range(m_w + 1):
        for i_index in range(1 << i_level):
            inside = [base_contains(m_w, (i_level, i_index), r) for r in members]
            if not any(c and ins for c, ins in zip(counts_all, inside)):
                continue
            counts = [c if ins else 0 for c, ins in zip(counts_all, inside)]
            for k_level in range(m + 1):
                for k_index in range(1 << k_level):
                    klo = Fraction(k_index, 1 << k_level)
                    khi = Fraction(k_index + 1, 1 << k_level)
                    tlo, thi = _triple(klo, khi)
                    out_flags = [
                        not (tlo <= lo and hi <= thi) for lo, hi in pi2
                    ]
                    b_out = _box_average(
                        m, m_w, members, counts, out_flags, i_level, i_index, klo, khi
                    )
                    if b_out < lam0:
                        continue
                    t2lo, t2hi = _triple(tlo, thi)
                    out_flags3 = [
                        not (t2lo <= lo and hi <= t2hi) for lo, hi in pi2
                    ]
                    b_out3 = _box_average(
                        m, m_w, members, counts, out_flags3, i_level, i_index, tlo, thi
                    )
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
