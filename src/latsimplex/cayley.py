"""Cayley decomposition numbers via integral coordinate-block partitions.

A block of coordinates is *null* for a group when every element sums to an
integer over it; checking the generators suffices because block sums add.
The decomposition number of the associated simplex is the maximum size of a
partition of all coordinates into null blocks.  The exact solver is a
memoized subset search over minimal null blocks anchored at the lowest
uncovered coordinate; past the bitmask cap a branch-and-bound variant with a
block-size bound takes over.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import half_matrix, projective_matrix
from .errors import HypothesesNotMet, NonIntegralHeights, SolverCapExceeded
from .groups import (LambdaGroup, _coordinate_components, _mask_to_set,
                     degree)

DEFAULT_SOLVER_CAP = 24
DEFAULT_NODE_BUDGET = 2_000_000


def is_null(G: LambdaGroup, S) -> bool:
    """True iff the coordinate sums over S are integral on the whole group."""
    S = [int(i) for i in S]
    if any(i < 1 or i > G.e for i in S):
        raise ValueError("coordinate indices out of range")
    den = G.den
    return all(sum(g.nums[i - 1] for i in S) % den == 0 for g in G.generators)


@dataclass(frozen=True)
class CayleyPartition:
    """Disjoint null blocks covering every coordinate index."""

    blocks: tuple[frozenset[int], ...]

    def block_lists(self) -> list[list[int]]:
        return [sorted(b) for b in sorted(self.blocks, key=min)]

    def to_json(self) -> list[list[int]]:
        return self.block_lists()

    def __len__(self) -> int:
        return len(self.blocks)


def validate_partition(G: LambdaGroup, partition) -> bool:
    blocks = list(partition.blocks) if isinstance(partition, CayleyPartition) \
        else [frozenset(b) for b in partition]
    covered: set[int] = set()
    for blk in blocks:
        if not blk or not is_null(G, blk):
            return False
        if covered & set(blk):
            return False
        covered |= set(blk)
    return covered == set(range(1, G.e + 1))


class _Solver:
    """Max-blocks search over null subsets of the coordinate set."""

    def __init__(self, G: LambdaGroup, node_budget: int):
        self.e = G.e
        self.den = G.den
        self.rows = [g.nums for g in G.generators]
        self.g = len(self.rows)
        self.contrib = [tuple(row[i] % self.den for row in self.rows)
                       for i in range(self.e)]
        self.node_budget = node_budget
        self.nodes = 0
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
        # A null block smaller than twice the minimum null size cannot
        # contain a proper null subset (its complement would be null too).
        if size < 2 * self.smin:
            return True
        if size > 12:
            return True  # skipping the check only costs time, never exactness
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
        """Minimal null subsets of ``avail`` containing ``anchor``, by index order."""
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

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise SolverCapExceeded(
                f"solver exceeded the node budget of {self.node_budget}")

    def solve_exact(self):
        full = (1 << self.e) - 1
        smin = self.smin
        memo: dict[int, tuple[int, int]] = {}

        def rec(avail: int) -> tuple[int, int]:
            if avail == 0:
                return 0, 0
            hit = memo.get(avail)
            if hit is not None:
                return hit
            self._tick()
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

    def solve_branch_bound(self):
        full = (1 << self.e) - 1
        smin = self.smin
        best_count = 0
        best_blocks: list[int] = []
        path: list[int] = []

        def rec(avail: int, cur: int) -> None:
            nonlocal best_count, best_blocks
            self._tick()
            if avail == 0:
                if cur > best_count:
                    best_count = cur
                    best_blocks = list(path)
                return
            m = avail.bit_count()
            if cur + m // smin <= best_count:
                return
            anchor = (avail & -avail).bit_length() - 1
            for size in range(smin, m + 1):
                if cur + 1 + (m - size) // smin <= best_count:
                    break
                for block in self._anchored_blocks(avail, anchor, size):
                    path.append(block)
                    rec(avail & ~block, cur + 1)
                    path.pop()

        rec(full, 0)
        return best_count, best_blocks


def max_cayley_blocks(G: LambdaGroup, solver_cap: int = DEFAULT_SOLVER_CAP,
                      allow_branch_and_bound: bool = False,
                      node_budget: int = DEFAULT_NODE_BUDGET):
    """Exact maximum number of null blocks partitioning [e], with a witness.

    Uses the memoized subset search up to ``solver_cap`` coordinates and
    raises SolverCapExceeded beyond it unless ``allow_branch_and_bound`` is
    set.  Ties between witnesses go to the smaller block first, then to index
    order, so results are deterministic.
    """
    if not G.integer_sum:
        raise NonIntegralHeights("Cayley partitions need an integer-sum group")
    solver = _Solver(G, node_budget)
    if G.e <= solver_cap:
        count, masks = solver.solve_exact()
    else:
        if not allow_branch_and_bound:
            raise SolverCapExceeded(
                f"e={G.e} exceeds the exact solver cap {solver_cap}; "
                "enable the branch-and-bound fallback")
        count, masks = solver.solve_branch_bound()
    blocks = tuple(sorted((_mask_to_set(m) for m in masks), key=min))
    return count, CayleyPartition(blocks)


def cayley_upper_bound_distinct_halves(G: LambdaGroup) -> int:
    """floor(e/3) per coordinate block, for half-integral distinct columns.

    Hypotheses (checked): every element entry lies in {0, 1/2}, every
    coordinate is in some support, and the generator columns are pairwise
    distinct.  Null blocks then have size at least 3, so each connected
    block of coordinates contributes at most floor(size/3) summands.
    """
    if G.den > 2:
        raise HypothesesNotMet("group entries must lie in {0, 1/2}")
    if not G.full_support:
        raise HypothesesNotMet("every coordinate must carry some support")
    cols = [tuple(g.nums[i] for g in G.generators) for i in range(G.e)]
    if len(set(cols)) != len(cols):
        raise HypothesesNotMet("generator columns must be pairwise distinct")

    supports = [[i for i, a in enumerate(g.nums) if a] for g in G.generators]
    return sum(len(comp) // 3
               for comp in _coordinate_components(G.e, supports))


def _decomposition_blocks(m: int) -> list[list[int]]:
    """Null blocks for the dimension-m half matrix, as column-vector labels."""
    if m == 2:
        return [[0b01, 0b10, 0b11]]
    if m == 3:
        return [[0b110, 0b101, 0b011], [0b111, 0b100, 0b010, 0b001]]
    inner = _decomposition_blocks(m - 2)
    shift = m - 2

    def lab(t: int, v: int) -> int:
        return (t << shift) | v

    out: list[list[int]] = []
    for blk in inner:
        if len(blk) == 3:
            a, b, c = blk
            # one vector from each of the three marked copies keeps the top
            # two rows even while the lower rows sum as in the inner block
            out.append([lab(3, a), lab(2, b), lab(1, c)])
            out.append([lab(3, b), lab(2, c), lab(1, a)])
            out.append([lab(3, c), lab(2, a), lab(1, b)])
            out.append([lab(0, a), lab(0, b), lab(0, c)])
        else:
            for t in (3, 2, 1, 0):
                out.append([lab(t, v) for v in blk])
    out.append([lab(3, 0), lab(2, 0), lab(1, 0)])
    return out


def recursive_decomposition(r: int) -> CayleyPartition:
    """Explicit null partition for the dimension-(r+2) code group.

    Even r gives (2^(r+2)-1)/3 blocks of size 3; odd r gives c_r blocks of
    size 3 and d_r of size 4 with c_1 = d_1 = 1, c_r = 4c_{r-2}+1 and
    d_r = 4d_{r-2}.  Every block is validated against the generator rows.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    m = r + 2
    vec_blocks = _decomposition_blocks(m)
    A = projective_matrix(m)
    col_of: dict[int, int] = {}
    for j in range(1, A.cols + 1):
        v = 0
        for bit in A.column(j):
            v = (v << 1) | bit
        col_of[v] = j
    blocks = tuple(sorted((frozenset(col_of[v] for v in blk)
                           for blk in vec_blocks), key=min))
    rows = half_matrix(m)
    for blk in blocks:
        for row in rows:
            if sum(row.nums[i - 1] for i in blk) % row.den != 0:
                raise RuntimeError("constructed block is not null")
    sizes = sorted(len(b) for b in blocks)
    if r % 2 == 0:
        expected = ((1 << m) - 1) // 3
        if len(blocks) != expected or sizes[-1] != 3:
            raise RuntimeError("block census does not match the recursion")
    else:
        c, d = 1, 1
        for _ in range((r - 1) // 2):
            c, d = 4 * c + 1, 4 * d
        if sizes.count(3) != c or sizes.count(4) != d:
            raise RuntimeError("block census does not match the recursion")
    return CayleyPartition(blocks)


@dataclass(frozen=True)
class ConjectureReport:
    """Decomposition number of a group against both Cayley-type bounds."""

    d: int
    s: int
    cayley_number: int
    original_gap: int
    modified_bound: int
    modified_gap: int
    original_verdict: str
    modified_verdict: str

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "s": self.s,
            "C": self.cayley_number,
            "originalGap": self.original_gap,
            "modifiedBound": self.modified_bound,
            "modifiedGap": self.modified_gap,
            "verdicts": {"original": self.original_verdict,
                         "modified": self.modified_verdict},
        }


def conjecture_report(G: LambdaGroup, solver_cap: int = DEFAULT_SOLVER_CAP,
                      allow_branch_and_bound: bool = False,
                      node_budget: int = DEFAULT_NODE_BUDGET) -> ConjectureReport:
    d = G.e - 1
    s = degree(G)
    C, _ = max_cayley_blocks(G, solver_cap=solver_cap,
                             allow_branch_and_bound=allow_branch_and_bound,
                             node_budget=node_budget)
    original_gap = (d + 1 - 2 * s) - C
    modified_bound = (17 * s - 4) // 6
    modified_gap = (d + 1 - modified_bound) - C
    if d > 2 * s:
        original_verdict = ("violates the Cayley conjecture"
                            if original_gap > 0
                            else "satisfies the Cayley conjecture")
    else:
        original_verdict = "not applicable (d <= 2s)"
    if 6 * d > 17 * s - 4:
        modified_verdict = ("violates the modified Cayley conjecture"
                            if modified_gap > 0
                            else "satisfies the modified Cayley conjecture")
    else:
        modified_verdict = "not applicable (d <= (17s-4)/6)"
    return ConjectureReport(d=d, s=s, cayley_number=C,
                            original_gap=original_gap,
                            modified_bound=modified_bound,
                            modified_gap=modified_gap,
                            original_verdict=original_verdict,
                            modified_verdict=modified_verdict)
