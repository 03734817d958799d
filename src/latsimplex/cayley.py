"""Cayley decomposition numbers via integral coordinate-block partitions.

A block of coordinates is *null* for a group when every element sums to an
integer over it; checking the generators suffices because block sums add.
The decomposition number of the associated simplex is the maximum size of a
partition of all coordinates into null blocks.  The exact solver is one
branch-and-bound search over null blocks anchored at the lowest uncovered
coordinate.  Coordinate i lies in no null block with fewer than s_i
members, so the uncovered coordinates form at most floor(sum of 1/s_i)
more blocks.  One node budget counts the search nodes and every subset
examined on the way, so the work of a request is bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .codes import half_matrix, projective_matrix
from .errors import HypothesesNotMet, NonIntegralHeights, SolverCapExceeded
from .groups import (LambdaGroup, _coordinate_components, _mask_to_set,
                     degree)
from .residues import as_int

DEFAULT_NODE_BUDGET = 2_000_000
# Least null sizes are found exactly up to this many sizes past the
# smallest; a coordinate in no null block that small is bounded below by
# the next size.
_EXACT_SIZES_PAST_MIN = 2


def is_null(G: LambdaGroup, S) -> bool:
    """True iff the sums over the coordinate set S are integral on G."""
    S = {as_int(i) for i in S}
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


def _indices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _Solver:
    """Max-blocks search over null subsets of the coordinate set.

    Column i of the generator rows is packed into one int, a field of p + 1
    bits per generator with 2^p >= den, so two columns add mod den in a few
    int operations: a field reaches den exactly when adding 2^p - den sets
    its top bit, and those fields drop by den.
    """

    def __init__(self, G: LambdaGroup):
        self.e = e = G.e
        self.den = den = G.den
        self.p = p = (den - 1).bit_length()
        self.ones = ones = sum(1 << (t * (p + 1))
                               for t in range(len(G.generators)))
        self.bias = ((1 << p) - den) * ones
        self.cols = [sum((g.nums[i] % den) << (t * (p + 1))
                         for t, g in enumerate(G.generators))
                     for i in range(e)]
        # coordinates by negated column: j completes a partial sum s to a
        # null set exactly when s is the negation of column j
        self.completing: dict[int, list[int]] = {}
        for j, c in enumerate(self.cols):
            self.completing.setdefault(self._reduce(den * ones - c),
                                       []).append(j)
        self.nodes = 0
        self.sizes = self._null_sizes()
        self.smin = min(self.sizes)

    def _reduce(self, t: int) -> int:
        return t - ((t + self.bias) >> self.p & self.ones) * self.den

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > DEFAULT_NODE_BUDGET:
            raise SolverCapExceeded(
                f"solver exceeded the node budget of {DEFAULT_NODE_BUDGET}")

    def _completions(self, pool: int, total: int, count: int,
                     first: bool = False) -> list[int]:
        """``count``-subsets T of ``pool`` with ``total`` + sum(T) null.

        Masks in index order.  All but the last member are walked, each
        prefix charged to the node budget; the last member is looked up by
        its column.  ``first`` stops at the first subset found.
        """
        if count == 0:
            return [0] if total == 0 else []
        idxs = _indices(pool)
        cols, completing, reduce = self.cols, self.completing, self._reduce
        out: list[int] = []

        def walk(start, left, s, mask, after) -> bool:
            self._tick()
            if left == 1:
                for j in completing.get(s, ()):
                    if j > after and pool >> j & 1:
                        out.append(mask | 1 << j)
                        if first:
                            return True
                return False
            for pos in range(start, len(idxs) - left + 1):
                i = idxs[pos]
                if walk(pos + 1, left - 1, reduce(s + cols[i]),
                        mask | 1 << i, i):
                    return True
            return False

        walk(0, count, total, 0, -1)
        return out

    def _null_sizes(self) -> list[int]:
        """Lower bounds on the size of a null block holding each coordinate.

        Exact for coordinates in a null block at most
        ``_EXACT_SIZES_PAST_MIN`` larger than the smallest one.
        """
        full = (1 << self.e) - 1
        sizes = [0] * self.e
        size = smin = 0
        while not all(sizes) and not (
                smin and size >= smin + _EXACT_SIZES_PAST_MIN):
            size += 1
            for i in range(self.e):
                if sizes[i]:
                    continue
                hit = self._completions(full & ~(1 << i), self.cols[i],
                                        size - 1, first=True)
                if hit:
                    # every member was searched at each smaller size
                    for j in _indices(hit[0] | 1 << i):
                        sizes[j] = sizes[j] or size
            if not smin and any(sizes):
                smin = size
        return [s or size + 1 for s in sizes]

    def search(self) -> list[int]:
        """Block masks of a maximum partition, the first found in
        size-then-index order; a branch is cut only when it cannot beat the
        best partition so far, so ties keep that first one."""
        sizes, smin = self.sizes, self.smin
        unit = lcm(*set(sizes))
        weight = [unit // s for s in sizes]
        best: list[int] = []
        path: list[int] = []
        stack = []

        def blocks(avail, anchor, m, cur):
            # Null blocks holding the anchor, smallest first, in index
            # order.  A block holding a smaller null block is never in a
            # maximum partition (splitting it gives more blocks), so it
            # cannot change the answer or the witness and needs no filter.
            bit = 1 << anchor
            for size in range(sizes[anchor], m + 1):
                if cur + 1 + (m - size) // smin <= len(best):
                    return
                for rest in self._completions(avail & ~bit, self.cols[anchor],
                                              size - 1):
                    yield rest | bit

        def enter(avail: int, left: int) -> bool:
            # coordinate i fills at most 1/sizes[i] of a block, so the
            # weights ``left`` of avail allow at most left // unit blocks
            nonlocal best
            self._tick()
            if not avail:
                if len(path) > len(best):
                    best = list(path)
                return False
            if len(path) + left // unit <= len(best):
                return False
            anchor = (avail & -avail).bit_length() - 1
            stack.append((avail, left, blocks(avail, anchor,
                                              avail.bit_count(), len(path))))
            return True

        # explicit stack: a partition may have thousands of blocks
        enter((1 << self.e) - 1, sum(weight))
        while stack:
            avail, left, candidates = stack[-1]
            block = next(candidates, None)
            if block is None:
                stack.pop()
                if path:
                    path.pop()
                continue
            path.append(block)
            if not enter(avail & ~block,
                         left - sum(weight[i] for i in _indices(block))):
                path.pop()
        return best


def max_cayley_blocks(G: LambdaGroup):
    """Exact maximum number of null blocks partitioning [e], with a witness.

    Raises SolverCapExceeded once the search has visited
    ``DEFAULT_NODE_BUDGET`` nodes and subsets.  Ties between witnesses go
    to the smaller block first, then to index order, so results are
    deterministic.
    """
    if not G.integer_sum:
        raise NonIntegralHeights("Cayley partitions need an integer-sum group")
    masks = _Solver(G).search()
    blocks = tuple(sorted((_mask_to_set(m) for m in masks), key=min))
    return len(masks), CayleyPartition(blocks)


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


def code_partition(r: int) -> CayleyPartition:
    """A maximum null partition of the dimension-(r+2) code group.

    Coordinate j is labelled by its column v of ``projective_matrix(r+2)``.
    A block is null exactly when its labels sum to 0 in F_2^n, n = r + 2.
    On each pair of bits, omega multiplies by a cube root of unity of F_4:
    it has order 3, fixes no nonzero vector and 1 + omega + omega^2 = 0, so
    its orbits are null 3-blocks.  For even n they are the partition.  For
    odd n write v = (u, w) with w in F_8 = F_2[z]/(z^3 + z + 1) the low
    three bits: the blocks are {(a, w), (omega a, zw), (omega^2 a, w + zw)}
    for each orbit representative a and every w, the block {1, z, 1 + z}
    of u = 0 and the 4-block of the other (0, w).  Either way there are
    floor((2^n - 1)/3) blocks, which ``cayley_upper_bound_distinct_halves``
    caps, so the partition is maximum.  Every block is validated against
    the generator rows.  The projective matrix is built first, so an r past
    its cell budget is refused with GroupTooLarge before any block is made.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    n = r + 2
    A = projective_matrix(n)
    shift = 3 * (n % 2)               # the bits of w; u takes the rest
    low = ((1 << n - shift) - 1) // 3  # the low bit of every pair of u

    def omega(u: int) -> int:
        x0, x1 = u & low, u >> 1 & low
        return x1 | (x0 ^ x1) << 1

    tails = [(0, 0, 0)]
    if shift:
        for w in range(1, 8):
            zw = w << 1 ^ (0b1011 if w & 0b100 else 0)  # z * w mod z^3+z+1
            tails.append((w, zw, w ^ zw))
    vec_blocks = [[a << shift | x, omega(a) << shift | y,
                   omega(omega(a)) << shift | z]
                  for a in range(1, 1 << n - shift)
                  if a < omega(a) and a < omega(omega(a))
                  for x, y, z in tails]
    if shift:
        vec_blocks += [[1, 2, 3], [4, 5, 6, 7]]
    col_of: dict[int, int] = {}
    for j in range(1, A.cols + 1):
        v = 0
        for bit in A.column(j):
            v = (v << 1) | bit
        col_of[v] = j
    blocks = tuple(sorted((frozenset(col_of[v] for v in blk)
                           for blk in vec_blocks), key=min))
    rows = half_matrix(n)
    for blk in blocks:
        for row in rows:
            if sum(row.nums[i - 1] for i in blk) % row.den != 0:
                raise RuntimeError("constructed block is not null")
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


def conjecture_report(G: LambdaGroup, *,
                      allow_branch_and_bound=None) -> ConjectureReport:
    """C(G) against the original and the modified Cayley bounds.

    ``allow_branch_and_bound`` has no effect; it stays so that callers of
    the former fallback switch, such as the benchmark, keep working.
    """
    d = G.e - 1
    s = degree(G)
    C, _ = max_cayley_blocks(G)
    original_gap = (d + 1 - 2 * s) - C
    modified_bound = (17 * s - 4) // 6
    modified_gap = (d + 1 - modified_bound) - C
    if d > 2 * s:
        original_verdict = ("violates the Cayley conjecture"
                            if original_gap > 0
                            else "satisfies the Cayley conjecture")
    else:
        original_verdict = "not applicable (d <= 2s)"
    if s == 0:
        # the bound floor((17s - 4)/6) = -1 would ask for C >= d + 2 blocks
        modified_verdict = "not applicable (s = 0)"
    elif 6 * d > 17 * s - 4:
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
