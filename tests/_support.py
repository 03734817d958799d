"""Deterministic corpus builders and brute-force oracles shared by tests."""

from __future__ import annotations

from itertools import combinations

from latsimplex import ResidueVector, close, is_lattice_pyramid
from latsimplex._kernels import STATUS_OK, STATUS_TOO_LARGE
from latsimplex.errors import GroupTooLarge
from latsimplex.groups import LambdaGroup, degree


def random_integral_vector(rng, e, den):
    nums = [rng.randrange(den) for _ in range(e)]
    nums[-1] = (-sum(nums[:-1])) % den
    return ResidueVector(den, nums)


def random_integer_sum_group(rng, e_max=6, den_max=6, max_order=96,
                             gens_max=3, e_min=2) -> LambdaGroup:
    while True:
        e = rng.randint(e_min, e_max)
        den = rng.randint(2, den_max)
        k = rng.randint(1, gens_max)
        gens = [random_integral_vector(rng, e, den) for _ in range(k)]
        try:
            return close(gens, max_order=max_order)
        except GroupTooLarge:
            continue


def random_non_pyramid_group(rng, e_max=8, den_max=6, max_order=512,
                             gens_max=3, e_min=3) -> LambdaGroup:
    while True:
        G = random_integer_sum_group(rng, e_max=e_max, den_max=den_max,
                                     max_order=max_order, gens_max=gens_max,
                                     e_min=e_min)
        if is_lattice_pyramid(G):
            continue
        if degree(G) < 1:
            continue
        return G


def brute_max_blocks(G: LambdaGroup) -> int:
    """Maximize the block count over all partitions into null blocks.

    Straight recursive enumeration of set partitions, pruned only by block
    nullity; fully independent of the production solver.
    """
    gens = [g.nums for g in G.generators]
    den = G.den

    def null_ok(block):
        return all(sum(g[i] for i in block) % den == 0 for g in gens)

    best = 0

    def rec(remaining, count):
        nonlocal best
        if not remaining:
            best = max(best, count)
            return
        first, rest = remaining[0], remaining[1:]
        for size in range(len(rest) + 1):
            for extra in combinations(rest, size):
                block = (first,) + extra
                if null_ok(block):
                    left = [i for i in rest if i not in extra]
                    rec(left, count + 1)

    rec(list(range(G.e)), 0)
    return best


def all_greedy_cover_size_sequences(G: LambdaGroup) -> set[tuple[int, ...]]:
    """Size sequences over every possible weight-greedy cover run."""
    masks = list(G.masks)
    union = 0
    for m in masks:
        union |= m
    seqs: set[tuple[int, ...]] = set()

    def rec(covered, seq):
        if covered == union:
            seqs.add(tuple(seq))
            return
        best = max((m & ~covered).bit_count() for m in masks)
        tried = set()
        for m in masks:
            gain = m & ~covered
            if gain.bit_count() == best and gain not in tried:
                tried.add(gain)
                rec(covered | gain, seq + [best])

    rec(0, [])
    return seqs


def is_null_all_elements(G: LambdaGroup, block) -> bool:
    """Nullity tested against every group element, not just generators."""
    den = G.den
    return all(sum(el[i - 1] for i in block) % den == 0 for el in G.elements)


def bfs_closure(gens, e, den, cap):
    """Slow oracle for ``_kernels.closure_table``: breadth-first search.

    Same arguments and result.  Sums of a reached element and a generator
    are added level by level until nothing new appears; more than ``cap``
    elements give ``(STATUS_TOO_LARGE, None)``.
    """
    zero = (0,) * e
    seen = {zero}
    frontier = [zero]
    gens = [tuple(g) for g in gens]
    for g in gens:
        if len(g) != e:
            raise ValueError("generator length does not match e")
    while frontier:
        nxt = []
        for base in frontier:
            for g in gens:
                s = tuple((a + b) % den for a, b in zip(base, g))
                if s in seen:
                    continue
                seen.add(s)
                if len(seen) > cap:
                    return STATUS_TOO_LARGE, None
                nxt.append(s)
        frontier = nxt
    return STATUS_OK, sorted(seen)


def box_scan_count(adj, det_sign, lows, highs, n, strict=False):
    """Slow oracle for ``_kernels.count_box_points``: visit every box point.

    Same arguments and result; each point of the box is tested on its own,
    with no pruning, by the sign of ``det_sign * (p, n) @ adj``.
    """
    d = len(lows)
    m = d + 1
    rows = [tuple(det_sign * x for x in row) for row in adj]
    if d == 0:
        return 1
    for j in range(d):
        if lows[j] > highs[j]:
            return 0
    # t holds det_sign * (p, n) @ adj for the current point p.
    t = [n * rows[d][i] for i in range(m)]
    for j in range(d):
        lj = lows[j]
        for i in range(m):
            t[i] += lj * rows[j][i]
    pos = list(lows)
    count = 0
    while True:
        if strict:
            ok = all(x > 0 for x in t)
        else:
            ok = all(x >= 0 for x in t)
        if ok:
            count += 1
        k = 0
        while k < d:
            if pos[k] < highs[k]:
                pos[k] += 1
                rk = rows[k]
                for i in range(m):
                    t[i] += rk[i]
                break
            span = highs[k] - lows[k]
            pos[k] = lows[k]
            rk = rows[k]
            for i in range(m):
                t[i] -= span * rk[i]
            k += 1
        else:
            return count
