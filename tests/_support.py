"""Deterministic corpus builders and brute-force oracles shared by tests."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import lcm

from latsimplex import ResidueVector, close, is_lattice_pyramid
from latsimplex import groups as groups_module
from latsimplex._kernels import STATUS_OK, STATUS_TOO_LARGE, count_box_points
from latsimplex.classify import (
    DEFAULT_NODE_BUDGET,
    ClassificationReport,
    SearchBudget,
)
from latsimplex.errors import (
    BudgetExceeded,
    CanonicalizationBudgetExceeded,
    DegenerateSimplex,
    GroupTooLarge,
    RankDeficient,
)
from latsimplex.geometry import LatticeSimplex, smith_normal_form
from latsimplex.groups import (
    CanonicalForm,
    LambdaGroup,
    _build,
    _coordinate_components,
    canonical_form,
    degree,
    trivial_group,
)

_STATUS_WEIGHT = 2
_STATUS_HEIGHT = 3


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


class _MemoizedBlocks:
    """The memoized subset search over minimal null blocks anchored at the
    lowest uncovered coordinate, without any budget."""

    def __init__(self, G: LambdaGroup):
        self.e = G.e
        self.den = G.den
        self.rows = [g.nums for g in G.generators]
        self.g = len(self.rows)
        self.contrib = [tuple(row[i] % self.den for row in self.rows)
                        for i in range(self.e)]
        self.smin = self._smallest_null_size()

    def _smallest_null_size(self) -> int:
        e, den, contrib = self.e, self.den, self.contrib
        zero = (0,) * self.g

        def dfs(start, remaining, sums):
            if remaining == 0:
                return all(x == 0 for x in sums)
            for i in range(start, e - remaining + 1):
                ns = tuple((a + b) % den for a, b in zip(sums, contrib[i]))
                if dfs(i + 1, remaining - 1, ns):
                    return True
            return False

        for size in range(1, e + 1):
            if dfs(0, size, zero):
                return size
        return e

    def _is_minimal(self, mask: int, size: int) -> bool:
        if size < 2 * self.smin:
            return True
        if size > 12:
            return True
        bits = []
        m = mask
        while m:
            low = m & -m
            bits.append(low.bit_length() - 1)
            m ^= low
        den, contrib, g = self.den, self.contrib, self.g
        for sub in range(1, (1 << size) - 1):
            sums = [0] * g
            t = sub
            while t:
                low = t & -t
                i = bits[low.bit_length() - 1]
                for k in range(g):
                    sums[k] += contrib[i][k]
                t ^= low
            if all(x % den == 0 for x in sums):
                return False
        return True

    def _anchored_blocks(self, avail: int, anchor: int, size: int) -> list[int]:
        den, contrib = self.den, self.contrib
        base = contrib[anchor]
        amask = 1 << anchor
        if size == 1:
            if all(x == 0 for x in base):
                return [amask]
            return []
        idxs = [i for i in range(anchor + 1, self.e) if (avail >> i) & 1]
        out: list[int] = []

        def dfs(start, remaining, sums, mask):
            if remaining == 0:
                if all(x == 0 for x in sums):
                    full = mask | amask
                    if self._is_minimal(full, size):
                        out.append(full)
                return
            for pos in range(start, len(idxs) - remaining + 1):
                i = idxs[pos]
                ns = tuple((a + b) % den for a, b in zip(sums, contrib[i]))
                dfs(pos + 1, remaining - 1, ns, mask | (1 << i))

        dfs(0, size - 1, base, 0)
        return out

    def solve(self):
        full = (1 << self.e) - 1
        smin = self.smin
        memo: dict[int, tuple[int, int]] = {}

        def rec(avail: int) -> tuple[int, int]:
            if avail == 0:
                return 0, 0
            hit = memo.get(avail)
            if hit is not None:
                return hit
            m = avail.bit_count()
            anchor = (avail & -avail).bit_length() - 1
            best = 0
            best_block = avail
            for size in range(smin, m + 1):
                if best and 1 + (m - size) // smin <= best:
                    break
                for block in self._anchored_blocks(avail, anchor, size):
                    sub, _ = rec(avail & ~block)
                    if 1 + sub > best:
                        best = 1 + sub
                        best_block = block
            if best == 0:
                best = 1  # the whole available set is the only block left
            memo[avail] = (best, best_block)
            return best, best_block

        count, _ = rec(full)
        blocks = []
        avail = full
        while avail:
            _, blk = memo[avail]
            blocks.append(blk)
            avail &= ~blk
        return count, blocks


def reference_max_blocks(G: LambdaGroup) -> tuple[int, list[list[int]]]:
    """Slow oracle for ``cayley.max_cayley_blocks``: the memoized search.

    Returns C and the witness as ``CayleyPartition.block_lists()`` would
    print it.  For each set of uncovered coordinates it keeps the first
    best block in size-then-index order, so its witness is the first
    maximum partition in that order, the one the branch-and-bound must find.
    """
    count, masks = _MemoizedBlocks(G).solve()
    blocks = [[i + 1 for i in range(G.e) if m >> i & 1] for m in masks]
    return count, sorted(blocks, key=min)


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


def walk_count(simplex: LatticeSimplex, n: int, strict: bool = False) -> int:
    """Points of n * simplex (interior points when ``strict``) by the pruned
    box walk ``_kernels.count_box_points``, over the dilation's bounding
    box: an oracle for the closed forms of ``geometry``, which read h*."""
    if n == 0:
        return 0 if strict else 1
    if simplex.d == 0:
        return 1
    lows = [n * min(v[j] for v in simplex.vertices) for j in range(simplex.d)]
    highs = [n * max(v[j] for v in simplex.vertices) for j in range(simplex.d)]
    det_sign = 1 if simplex._det > 0 else -1
    return count_box_points(simplex._adj, det_sign, lows, highs, n, strict)


def box_scan_counts(adj, det_sign, lows, highs, n):
    """Slow oracle for ``_kernels.count_box_points``: visit every box point.

    Same arguments but ``strict``; returns the closed and the strict count
    from one scan.  Each point of the box is tested on its own, with no
    pruning, by the least entry of ``det_sign * (p, n) @ adj``.
    """
    d = len(lows)
    if d == 0:
        return 1, 1
    if any(lo > hi for lo, hi in zip(lows, highs)):
        return 0, 0
    rows = [[det_sign * x for x in row] for row in adj]
    # t holds det_sign * (p, n) @ adj for the current point p.
    t = [n * x for x in rows[d]]
    for lj, row in zip(lows, rows):
        t = [a + lj * b for a, b in zip(t, row)]
    pos = list(lows)
    closed = strict = 0
    while True:
        least = min(t)
        if least >= 0:
            closed += 1
            if least > 0:
                strict += 1
        k = 0
        while k < d:
            if pos[k] < highs[k]:
                pos[k] += 1
                t = [a + b for a, b in zip(t, rows[k])]
                break
            span = highs[k] - lows[k]
            pos[k] = lows[k]
            t = [a - span * b for a, b in zip(t, rows[k])]
            k += 1
        else:
            return closed, strict


def _limited_extend_closure(prev, row, e, den, cap, max_weight=-1,
                            max_height_num=-1, require_integral=False):
    """``_kernels.extend_closure`` as it was with its limit arguments.

    ``max_weight`` caps every support size, ``max_height_num`` every
    numerator sum, and ``require_integral`` rejects sums not divisible by
    ``den``.  A coset that would pass ``cap`` is still scanned for those
    violations, which take precedence, but never stored.
    """
    base = set(prev)
    row = tuple(row)
    if len(row) != e:
        raise ValueError("row length does not match e")
    limited = require_integral or max_height_num >= 0 or max_weight >= 0
    out = list(prev)
    cur = row
    while cur not in base:
        fits = len(out) + len(prev) <= cap
        if not (fits or limited):
            return STATUS_TOO_LARGE, None
        for h in prev:
            s = tuple((a + b) % den for a, b in zip(h, cur))
            if limited:
                total = sum(s)
                if require_integral and total % den != 0:
                    return _STATUS_HEIGHT, None
                if max_height_num >= 0 and total > max_height_num:
                    return _STATUS_HEIGHT, None
                if max_weight >= 0 and e - s.count(0) > max_weight:
                    return _STATUS_WEIGHT, None
            if fits:
                out.append(s)
        if not fits:
            return STATUS_TOO_LARGE, None
        cur = tuple((a + b) % den for a, b in zip(cur, row))
    out.sort()
    return STATUS_OK, out


def reference_enumerate(budget: SearchBudget, s: int,
                        require_non_pyramid: bool = True,
                        prune: bool = True,
                        node_budget: int = DEFAULT_NODE_BUDGET
                        ) -> ClassificationReport:
    """Slow oracle for ``classify.enumerate_groups``: the walk before the
    admissible-row generator.

    Same arguments (plus ``prune``) and report.  Rows are screened only
    against the generators; the limited ``_limited_extend_closure`` then
    rejects rows whose closure breaks the weight, height or integrality
    caps, counting them as ``prunedByWeight`` and ``prunedByDegree``.
    ``prune=False`` drops every cap and closes each nonzero row.
    """
    e, D = budget.e, budget.max_denominator
    max_w = 2 * s if prune else -1
    max_h = s * D if prune else -1
    counters = {"closuresExamined": 0, "prunedByWeight": 0,
                "prunedByDegree": 0, "prunedByOrder": 0,
                "prunedBySupport": 0, "dedupedStates": 0}
    found: dict[tuple, tuple[CanonicalForm, LambdaGroup]] = {}
    seen: dict[tuple, int] = {}
    zero_row = (0,) * e
    full_mask = (1 << e) - 1
    need_full = require_non_pyramid and e > 1
    nodes = 0

    def make_report(complete: bool) -> ClassificationReport:
        forms = sorted(found.values(), key=lambda fg: (fg[0].den, fg[0].table))
        return ClassificationReport(
            budget=budget, target_degree=s,
            require_non_pyramid=require_non_pyramid,
            found=[cf for cf, _ in forms],
            groups=[g for _, g in forms],
            counters=counters, complete=complete)

    def column_classes(rows_sel):
        if not rows_sel:
            return [(0, e)]
        classes = []
        start = 0
        prev = tuple(r[0] for r in rows_sel)
        for j in range(1, e):
            cur = tuple(r[j] for r in rows_sel)
            if cur != prev:
                classes.append((start, j - start))
                start = j
                prev = cur
        classes.append((start, e - start))
        return classes

    def candidate_rows(rows_sel, classes, forced_mask):
        """Nonzero rows nondecreasing within the prefix column classes.

        ``forced_mask`` marks coordinates the row must cover (the untouched
        class, once this is the only generator that can still reach them).
        Partial sums of the row and of row + earlier generator are pruned
        against the weight and height caps while the classes are filled; the
        per-class increments are tabulated up front so the walk over combos
        costs O(generators) per step.
        """
        k = len(rows_sel)
        per_class = []
        for start, length in classes:
            lo = 1 if (forced_mask >> start) & 1 else 0
            segs = [g[start:start + length] for g in rows_sel]
            combos = []
            for combo in combinations_with_replacement(range(lo, D), length):
                w = length - combo.count(0)
                tot = sum(combo)
                if prune and (w > max_w or tot > max_h):
                    continue
                deltas = []
                ok = True
                for seg in segs:
                    dw = 0
                    dh = 0
                    for a, v in zip(seg, combo):
                        sv = (a + v) % D
                        if sv:
                            dw += 1
                            dh += sv
                    if prune and (dw > max_w or dh > max_h):
                        ok = False
                        break
                    deltas.append((dw, dh))
                if ok:
                    combos.append((combo, w, tot, deltas))
            per_class.append((start, combos))

        out = []
        row = [0] * e
        pair_w = [0] * k
        pair_h = [0] * k
        gen_range = range(k)
        last = len(per_class)

        def rec(ci, weight, total):
            if ci == last:
                if weight and (not prune or total % D == 0):
                    out.append(tuple(row))
                return
            start, combos = per_class[ci]
            saved_w = pair_w[:]
            saved_h = pair_h[:]
            for combo, w, tot, deltas in combos:
                nw = weight + w
                nt = total + tot
                if prune and (nw > max_w or nt > max_h):
                    continue
                if prune and k:
                    ok = True
                    for j in gen_range:
                        a = saved_w[j] + deltas[j][0]
                        b = saved_h[j] + deltas[j][1]
                        if a > max_w or b > max_h:
                            ok = False
                            break
                        pair_w[j] = a
                        pair_h[j] = b
                    if not ok:
                        continue
                row[start:start + len(combo)] = combo
                rec(ci + 1, nw, nt)
            pair_w[:] = saved_w
            pair_h[:] = saved_h
        rec(0, 0, 0)
        return out

    def consider(rows_sel, elements):
        if any(sum(el) % D != 0 for el in elements):
            return
        if max(sum(el) for el in elements) != s * D:
            return
        gen_rows = list(rows_sel) if rows_sel else [zero_row]
        G = _build(e, D, gen_rows, list(elements))
        if require_non_pyramid and is_lattice_pyramid(G):
            return
        cf = canonical_form(G)
        key = (cf.den, cf.table)
        if key not in found:
            found[key] = (cf, G)

    def walk(rows_sel, elements, union_mask):
        nonlocal nodes
        gens_used = len(rows_sel)
        gens_left = budget.max_generators - gens_used
        if gens_left <= 0:
            return
        if prune and need_full:
            missing = e - union_mask.bit_count()
            if missing > gens_left * max_w:
                counters["prunedBySupport"] += 1
                return
        forced = 0
        if prune and need_full and gens_left == 1:
            forced = full_mask & ~union_mask
        classes = column_classes(rows_sel)
        known = set(elements)
        for row in candidate_rows(rows_sel, classes, forced):
            if row in known:
                continue
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded("enumeration exceeded the node budget",
                                     partial_report=make_report(False))
            status, els = _limited_extend_closure(
                elements, row, e, D, budget.max_order,
                max_weight=max_w, max_height_num=max_h,
                require_integral=prune)
            if status == _STATUS_WEIGHT:
                counters["prunedByWeight"] += 1
                continue
            if status == _STATUS_HEIGHT:
                counters["prunedByDegree"] += 1
                continue
            if status == STATUS_TOO_LARGE:
                counters["prunedByOrder"] += 1
                continue
            # states are deduplicated by their exact element table; a repeat
            # only matters if it now arrives with more generator slots left
            key = tuple(els)
            prior = seen.get(key)
            if prior is not None and prior <= gens_used + 1:
                counters["dedupedStates"] += 1
                continue
            seen[key] = gens_used + 1
            counters["closuresExamined"] += 1
            mask = union_mask
            for i, a in enumerate(row):
                if a:
                    mask |= 1 << i
            consider(rows_sel + [row], els)
            walk(rows_sel + [row], els, mask)

    consider([], [zero_row])
    walk([], [zero_row], 0)
    return make_report(True)


# The determinant and adjugate as ``geometry`` computed them before its one
# fraction-free elimination: a Bareiss determinant and a Fraction
# Gauss-Jordan inverse scaled by it, kept verbatim as the oracle.

def _det(mat) -> int:
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def _fraction_inverse(mat):
    n = len(mat)
    a = [[Fraction(x) for x in row] +
         [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise RankDeficient("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                fct = a[r][col]
                a[r] = [x - fct * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _adjugate(mat, det: int):
    inv = _fraction_inverse(mat)
    adj = []
    for row in inv:
        out = []
        for x in row:
            v = x * det
            if v.denominator != 1:
                raise RankDeficient("adjugate is not integral")
            out.append(int(v))
        adj.append(tuple(out))
    return tuple(adj)


def oracle_det_adjugate(mat):
    """``geometry._det_adjugate``'s answer, from the old arithmetic."""
    det = _det(mat)
    if det == 0:
        return 0, None
    return det, _adjugate(mat, det)


def smith_lambda_from_vertices(simplex: LatticeSimplex) -> LambdaGroup:
    """Slow oracle for ``geometry.lambda_from_vertices``: the residue group
    read from the Smith normal form of the bordered vertex matrix, as
    ``geometry`` computed it before it kept the bordered inverse."""
    n = simplex.d + 1
    S, U, _ = smith_normal_form(simplex.bordered())
    diag = [S[i][i] for i in range(n)]
    if any(x == 0 for x in diag):
        raise DegenerateSimplex("vertices are affinely dependent")
    L = 1
    for x in diag:
        L = lcm(L, x)
    gens = []
    for i in range(n):
        s = diag[i]
        if s == 1:
            continue
        k = L // s
        gens.append(ResidueVector(L, tuple((U[i][j] * k) % L
                                           for j in range(n))))
    if not gens:
        return trivial_group(n)
    return close(gens)


def brute_canonical_key(G: LambdaGroup):
    """Slow oracle for ``canonical_form``: the denominator and the least
    sorted element table over every coordinate permutation.

    Two groups on the same coordinates differ by a permutation exactly when
    their keys are equal.  The cost is e! sorts, so keep e small.
    """
    return G.den, min(tuple(sorted(tuple(el[c] for c in perm)
                                   for el in G.elements))
                      for perm in permutations(range(G.e)))


def reference_components(G: LambdaGroup) -> list[list[int]]:
    """Slow oracle for ``groups._components``: the coordinate components of
    indecomposable-element supports, each element compared with every
    other, as ``canonical_form`` found them before it tried support masks.
    """
    elements = G.elements

    def decomposable(x):
        for y in elements:
            if y == x or not any(y):
                continue
            if all(a == 0 or a == b for a, b in zip(y, x)) and y != x:
                return True
        return False

    supports = []
    for el in elements:
        supp = [i for i, a in enumerate(el) if a]
        if len(supp) > 1 and not decomposable(el):
            supports.append(supp)
    return _coordinate_components(G.e, supports)


def reference_canonical_form(G: LambdaGroup) -> CanonicalForm:
    """Slow oracle for ``groups.canonical_form``, as it was before it had one
    path: canonical element table under coordinate permutations.

    The group is exactly the product of its restrictions to the connected
    components of indecomposable-element supports (see ``_components``), so
    each component is canonicalized on its own and the results merge in a
    fixed order.  Two groups get equal canonical forms iff they differ by a
    coordinate permutation.  Each component's search visits at most
    ``DEFAULT_CANONICAL_BUDGET`` nodes.
    """
    e = G.e
    den = G.den
    comps = groups_module._components(G)
    if len(comps) == 1:
        return CanonicalForm(e=e, den=den,
                             table=reference_canonical_table(G.elements, e))

    keyed = []
    for coords in comps:
        sub = sorted({tuple(el[c] for c in coords) for el in G.elements})
        keyed.append((len(coords),
                      reference_canonical_table(tuple(sub), len(coords))))
    keyed.sort()
    rows = [()]
    for _, sub_table in keyed:
        rows = [r + piece for r in rows for piece in sub_table]
    return CanonicalForm(e=e, den=den, table=tuple(sorted(rows)))


def reference_canonical_table(elements, e: int):
    """Slow oracle for ``groups._canonical_table``, as it was before it kept
    one color per row: greedy column-choice canonicalization of one
    connected table.

    Columns are chosen step by step; every candidate is scored by the sorted
    value multisets it induces on the current row classes, and only globally
    minimal choices survive to the next step.
    """
    n = len(elements)
    col_vals = [tuple(elements[i][c] for i in range(n)) for c in range(e)]
    states = [((), (tuple(range(n)),))]
    node_budget = groups_module.DEFAULT_CANONICAL_BUDGET
    nodes = 0
    sorted_cache: dict[tuple, tuple] = {}

    def class_values(grp, c):
        hit = sorted_cache.get((grp, c))
        if hit is None:
            col = col_vals[c]
            hit = tuple(sorted(col[i] for i in grp))
            sorted_cache[(grp, c)] = hit
        return hit

    for _ in range(e):
        if all(len(grp) == 1 for grp in states[0][1]):
            # every row class is a singleton: each state's completion is
            # forced, so compare the finished tables directly
            break
        best_key = None
        winners = []
        for si, (cols, groups) in enumerate(states):
            used = set(cols)
            tried = set()
            for c in range(e):
                if c in used:
                    continue
                col = col_vals[c]
                if col in tried:
                    # identical columns refine identically; keep the first
                    continue
                tried.add(col)
                nodes += 1
                if nodes > node_budget:
                    raise CanonicalizationBudgetExceeded(
                        f"canonicalization exceeded {node_budget} nodes")
                if best_key is None:
                    best_key = tuple(class_values(grp, c) for grp in groups)
                    winners = [(si, c)]
                    continue
                # compare class by class, bailing out on the first loss
                verdict = 0
                for gi, grp in enumerate(groups):
                    part = class_values(grp, c)
                    ref = best_key[gi]
                    if part < ref:
                        verdict = -1
                        break
                    if part > ref:
                        verdict = 1
                        break
                if verdict < 0:
                    best_key = tuple(class_values(grp, c) for grp in groups)
                    winners = [(si, c)]
                elif verdict == 0:
                    winners.append((si, c))
        new_states = []
        seen = set()
        for si, c in winners:
            cols, groups = states[si]
            ngroups = []
            for grp in groups:
                by_value: dict[int, list[int]] = {}
                for i in grp:
                    by_value.setdefault(elements[i][c], []).append(i)
                for v in sorted(by_value):
                    ngroups.append(tuple(by_value[v]))
            ngroups = tuple(ngroups)
            sig = (frozenset(cols + (c,)), ngroups)
            if sig in seen:
                continue
            seen.add(sig)
            new_states.append((cols + (c,), ngroups))
        states = new_states
    best_table = None
    for cols, groups in states:
        order = [i for grp in groups for i in grp]
        remaining = sorted((c for c in range(e) if c not in cols),
                           key=lambda c: tuple(elements[i][c] for i in order))
        col_order = list(cols) + remaining
        table = tuple(tuple(elements[i][c] for c in col_order) for i in order)
        if best_table is None or table < best_table:
            best_table = table
    return best_table
