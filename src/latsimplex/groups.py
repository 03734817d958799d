"""Finite abelian subgroups of (Q/Z)^e and their lattice-simplex invariants.

A group is stored with its complete element table (numerator tuples over one
shared denominator, which is always reduced to the group exponent).  The
integral-sum groups are exactly the ones that correspond to lattice simplices;
for those the height statistics give the h*-polynomial, degree and normalized
volume directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, lcm
from operator import add

from . import _kernels
from .errors import (
    BudgetExceeded,
    CanonicalizationBudgetExceeded,
    DimensionMismatch,
    EmptySubset,
    GroupTooLarge,
    HypothesesNotMet,
    NonIntegralHeights,
)
from .residues import ResidueVector, as_int

DEFAULT_MAX_ORDER = 1 << 20
# Memory budget for one element table, counted in cells (order times e) and
# checked before the table is built; a closure refused by it never stores
# more than its cap of elements.  2^24 cells are 128 MiB of tuple slots and
# admit the code groups up to r = 12 (2^12 elements on 2^12 - 1
# coordinates).
MAX_TABLE_CELLS = 1 << 24
DEFAULT_CANONICAL_BUDGET = 2_000_000


def _admit_table(rows: int, cols: int, what: str) -> None:
    """Refuse ``what``, an element table of ``rows`` elements on ``cols``
    coordinates, before it is built: past ``MAX_TABLE_CELLS`` cells or past
    ``DEFAULT_MAX_ORDER`` elements, both read at call time."""
    for used, budget, unit in ((rows * cols, MAX_TABLE_CELLS, "table cells"),
                               (rows, DEFAULT_MAX_ORDER, "elements")):
        if used > budget:
            raise GroupTooLarge(f"{what} exceeds the budget of {budget} {unit}")


@dataclass(frozen=True)
class HStarPolynomial:
    """Nonnegative integer coefficients of h*(t), lowest power first."""

    coeffs: tuple[int, ...]

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def volume(self) -> int:
        return sum(self.coeffs)

    def as_list(self) -> list[int]:
        return list(self.coeffs)

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}t" if c != 1 else "t")
            else:
                parts.append(f"{c}t^{k}" if c != 1 else f"t^{k}")
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class CanonicalForm:
    """Element table canonicalized over all coordinate permutations."""

    e: int
    den: int
    table: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {"e": self.e, "den": self.den,
                "elements": [list(row) for row in self.table]}


class LambdaGroup:
    """A fully enumerated finite abelian subgroup of (Q/Z)^e.

    Immutable after construction; build instances with :func:`close`,
    :func:`trivial_group`, :func:`restrict` or :func:`direct_sum`.
    """

    __slots__ = ("e", "den", "generators", "elements", "integer_sum",
                 "full_support", "_masks")

    def __init__(self, e, den, generators, elements):
        # ``generators`` generate ``elements``; sums and supports add, so
        # both facts are read from the generators
        self.e = e
        self.den = den
        self.generators = generators
        self.elements = elements
        self.integer_sum = all(sum(g.nums) % g.den == 0 for g in generators)
        union = 0
        for g in generators:
            for i, a in enumerate(g.nums):
                if a:
                    union |= 1 << i
        self.full_support = union == (1 << e) - 1
        self._masks = None

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def masks(self) -> tuple[int, ...]:
        """Support bitmasks, one per element, bit i <-> coordinate i+1."""
        if self._masks is None:
            out = []
            for el in self.elements:
                m = 0
                for i, a in enumerate(el):
                    if a:
                        m |= 1 << i
                out.append(m)
            self._masks = tuple(out)
        return self._masks

    def element_vector(self, i: int) -> ResidueVector:
        return ResidueVector(self.den, self.elements[i])

    def element_vectors(self):
        return [ResidueVector(self.den, el) for el in self.elements]

    def support_union(self) -> frozenset[int]:
        union = 0
        for m in self.masks:
            union |= m
        return _mask_to_set(union)

    def max_weight(self) -> int:
        return max(self.e - el.count(0) for el in self.elements)

    def contains(self, v: ResidueVector) -> bool:
        if v.e != self.e:
            return False
        if self.den % v.reduced().den != 0:
            return False
        return v.reduced().rescale(self.den).nums in set(self.elements)

    def to_json(self) -> dict:
        return {"e": self.e, "den": self.den,
                "generators": [list(g.nums) for g in self.generators]}

    def __eq__(self, other) -> bool:
        if not isinstance(other, LambdaGroup):
            return NotImplemented
        return (self.e, self.den, self.elements) == \
            (other.e, other.den, other.elements)

    def __hash__(self) -> int:
        return hash((self.e, self.den, self.elements))

    def __repr__(self) -> str:
        return (f"LambdaGroup(e={self.e}, den={self.den}, "
                f"order={self.order})")


def _mask_to_set(mask: int) -> frozenset[int]:
    out = set()
    i = 1
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return frozenset(out)


def _build(e, den, gen_nums, elements) -> LambdaGroup:
    """Normalize the denominator to the group exponent and assemble.

    The generators generate the elements, so their numerators have the
    elements' gcd with ``den``.
    """
    g = gcd(den, *(a for nums in gen_nums for a in nums))
    if g > 1:
        den //= g
        elements = [tuple(a // g for a in el) for el in elements]
        gen_nums = [tuple(a // g for a in gen) for gen in gen_nums]
    gens = tuple(ResidueVector(den, nums) for nums in gen_nums)
    return LambdaGroup(e, den, gens, tuple(elements))


def close(generators, max_order: int | None = None) -> LambdaGroup:
    """Smallest addition-closed subgroup containing ``generators`` and zero.

    Generators are reduced and rescaled to the lcm of their denominators,
    the group's exponent, here, once and explicitly.  Raises GroupTooLarge
    past ``max_order`` elements (``DEFAULT_MAX_ORDER`` when None) or past
    ``MAX_TABLE_CELLS`` table cells, at once when the exponent alone passes
    the cap, so the kernels never see a denominator above it.
    """
    if max_order is None:
        max_order = DEFAULT_MAX_ORDER
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    e = gens[0].e
    for g in gens:
        if g.e != e:
            raise DimensionMismatch("generators have mixed lengths")
    # even the one-element table holds e cells
    _admit_table(1, e, f"e = {e}")
    gens = [g.reduced() for g in gens]
    den = 1
    for g in gens:
        den = lcm(den, g.den)
    gen_nums = [g.rescale(den).nums for g in gens]
    cap = min(max_order, MAX_TABLE_CELLS // e)
    status = _kernels.STATUS_TOO_LARGE
    # the exponent is the order of some element, so at most the group's
    if den <= cap:
        status, elements = _kernels.closure_table(gen_nums, e, den, cap)
    if status == _kernels.STATUS_TOO_LARGE:
        raise GroupTooLarge(f"closure exceeds {cap} elements (order cap "
                            f"{max_order}, {MAX_TABLE_CELLS} table cells)")
    return _build(e, den, gen_nums, elements)


def trivial_group(e: int) -> LambdaGroup:
    _admit_table(1, e, f"e = {e}")
    zero = (0,) * e
    return LambdaGroup(e, 1, (ResidueVector(1, zero),), (zero,))


def f(M: int) -> int:
    """Sum of floor(M / 2^n) over n >= 0."""
    if M < 0:
        raise ValueError("M must be nonnegative")
    total = 0
    while M:
        total += M
        M >>= 1
    return total


def _require_integer_sum(G: LambdaGroup) -> None:
    if not G.integer_sum:
        raise NonIntegralHeights(
            "group has elements with non-integral coordinate sum")


def h_star(G: LambdaGroup) -> HStarPolynomial:
    """h*(t) = sum over group elements of t^height."""
    _require_integer_sum(G)
    den = G.den
    heights = [sum(el) // den for el in G.elements]
    coeffs = [0] * (max(heights) + 1)
    for h in heights:
        coeffs[h] += 1
    return HStarPolynomial(tuple(coeffs))


def degree(G: LambdaGroup) -> int:
    _require_integer_sum(G)
    return max(sum(el) for el in G.elements) // G.den


def volume(G: LambdaGroup) -> int:
    _require_integer_sum(G)
    return G.order


def is_lattice_pyramid(G: LambdaGroup) -> bool:
    """True iff some coordinate is zero on the whole group.

    A group on a single coordinate corresponds to a point or a segment and is
    never a pyramid.
    """
    if G.e == 1:
        return False
    return not G.full_support


def greedy_support_cover(G: LambdaGroup):
    """Cover supp(G) greedily by element supports, largest new chunk first.

    Returns [(element, I_j)] with the I_j disjoint, partitioning supp(G).
    Ties pick the element that comes first in the sorted element table.
    """
    masks = G.masks
    union = 0
    for m in masks:
        union |= m
    covered = 0
    out = []
    while covered != union:
        best_gain = -1
        best_i = -1
        for i, m in enumerate(masks):
            gain = (m & ~covered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_i = i
        new_bits = masks[best_i] & ~covered
        out.append((G.element_vector(best_i), _mask_to_set(new_bits)))
        covered |= new_bits
    return out


def atoms(vectors) -> dict[frozenset[int], frozenset[int]]:
    """A_J = coordinates supported by exactly the vectors indexed by J.

    Keys run over all nonempty J subseteq [k]; values are pairwise disjoint.
    Raises BudgetExceeded before building anything when the 2^k - 1 keys
    would exceed ``MAX_TABLE_CELLS``.
    """
    vectors = list(vectors)
    k = len(vectors)
    if k == 0:
        raise ValueError("need at least one vector")
    if k > MAX_TABLE_CELLS.bit_length() or (1 << k) - 1 > MAX_TABLE_CELLS:
        raise BudgetExceeded(f"the atoms of {k} vectors exceed the budget of "
                             f"{MAX_TABLE_CELLS} table cells")
    e = vectors[0].e
    for v in vectors:
        if v.e != e:
            raise DimensionMismatch("vectors have mixed lengths")
    supports = [v.support() for v in vectors]
    out: dict[frozenset[int], frozenset[int]] = {}
    for size in range(1, k + 1):
        for J in combinations(range(1, k + 1), size):
            out[frozenset(J)] = frozenset()
    buckets: dict[frozenset[int], set[int]] = {}
    for i in range(1, e + 1):
        J = frozenset(j for j in range(1, k + 1) if i in supports[j - 1])
        if J:
            buckets.setdefault(J, set()).add(i)
    for J, coords in buckets.items():
        out[J] = frozenset(coords)
    return out


def check_weight_bound(G: LambdaGroup) -> bool:
    """Every element weight is at most twice the group degree."""
    _require_integer_sum(G)
    bound = 2 * degree(G)
    return all(G.e - el.count(0) <= bound for el in G.elements)


def half_lemma_witness(G: LambdaGroup, x: ResidueVector,
                       x2: ResidueVector) -> bool:
    """Check the forced half-integrality of a maximal half-overlapping pair.

    Hypotheses (checked): x and x2 lie in G, both have weight M = max weight
    over G, M is even, and their supports share exactly M/2 coordinates.
    Under them every entry of x and x2 must be 0 or 1/2; returns that test.
    """
    if not (G.contains(x) and G.contains(x2)):
        raise HypothesesNotMet("both vectors must be elements of the group")
    M = G.max_weight()
    if M % 2 != 0 or M == 0:
        raise HypothesesNotMet(f"group weight {M} is not a positive even number")
    if x.weight() != M or x2.weight() != M:
        raise HypothesesNotMet("both vectors must have maximal weight")
    if len(x.support() & x2.support()) * 2 != M:
        raise HypothesesNotMet("supports must overlap in exactly M/2 indices")

    def half_only(v: ResidueVector) -> bool:
        return all(2 * a == v.den or a == 0 for a in v.nums)

    return half_only(x) and half_only(x2)


def restrict(G: LambdaGroup, S) -> LambdaGroup:
    """Image of the group under projection to the coordinates in S."""
    S = sorted({as_int(i) for i in S})
    if not S:
        raise EmptySubset("restriction needs a nonempty coordinate set")
    if S[0] < 1 or S[-1] > G.e:
        raise ValueError("coordinate indices out of range")
    cols = [i - 1 for i in S]
    projected = sorted({tuple(el[c] for c in cols) for el in G.elements})
    gen_nums = []
    for g in G.generators:
        nums = tuple(g.nums[c] for c in cols)
        if nums not in gen_nums:
            gen_nums.append(nums)
    return _build(len(cols), G.den, gen_nums, projected)


def direct_sum(G1: LambdaGroup, G2: LambdaGroup) -> LambdaGroup:
    """Block sum on disjoint coordinates; order multiplies, heights add."""
    _admit_table(G1.order * G2.order, G1.e + G2.e, "the direct sum")
    den = lcm(G1.den, G2.den)
    k1 = den // G1.den
    k2 = den // G2.den
    e = G1.e + G2.e
    elements = sorted(
        tuple(a * k1 for a in el1) + tuple(b * k2 for b in el2)
        for el1 in G1.elements for el2 in G2.elements)
    zeros1 = (0,) * G1.e
    zeros2 = (0,) * G2.e
    gen_nums = [tuple(a * k1 for a in g.nums) + zeros2 for g in G1.generators]
    gen_nums += [zeros1 + tuple(b * k2 for b in g.nums) for g in G2.generators]
    return _build(e, den, gen_nums, elements)


def _coordinate_components(e: int, supports) -> list[list[int]]:
    """Components of coordinates 0..e-1 linked by ``supports`` (0-based)."""
    parent = list(range(e))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for supp in supports:
        for i in supp[1:]:
            ra, rb = find(supp[0]), find(i)
            if ra != rb:
                parent[rb] = ra
    comps: dict[int, list[int]] = {}
    for i in range(e):
        comps.setdefault(find(i), []).append(i)
    return list(comps.values())


def _components(G: LambdaGroup) -> list[list[int]]:
    """Coordinate components (0-based) of indecomposable-element supports.

    An element x is decomposable when x restricted to some proper nonzero
    part of its support lies in the group; that part is then the support of
    that element, so only the group's distinct support masks are tried.
    """
    members = set(G.elements)
    parts = {m: [i for i in range(G.e) if m >> i & 1]
             for m in set(G.masks) if m}
    supports = []
    for x, mx in zip(G.elements, G.masks):
        if not mx & (mx - 1):
            continue
        for m, idx in parts.items():
            if m & mx == m and m != mx:
                y = [0] * G.e
                for i in idx:
                    y[i] = x[i]
                if tuple(y) in members:
                    break
        else:
            supports.append(parts[mx])
    return _coordinate_components(G.e, supports)


def canonical_form(G: LambdaGroup) -> CanonicalForm:
    """Canonical element table under coordinate permutations.

    The group is exactly the product of its restrictions to the connected
    components of indecomposable-element supports (see ``_components``), so
    each component is canonicalized on its own and the sorted tables merge
    in a fixed order; a single component merges to its own table.  Two
    groups get equal canonical forms iff they differ by a coordinate
    permutation.  Each component's search visits at most
    ``DEFAULT_CANONICAL_BUDGET`` nodes.
    """
    keyed = []
    for coords in _components(G):
        sub = sorted({tuple(el[c] for c in coords) for el in G.elements})
        keyed.append((len(coords), _canonical_table(sub, len(coords))))
    keyed.sort()
    rows = [()]
    for _, sub_table in keyed:
        rows = [r + piece for r in rows for piece in sub_table]
    return CanonicalForm(e=G.e, den=G.den, table=tuple(sorted(rows)))


def _canonical_table(elements, e: int):
    """Greedy column-choice canonicalization of one connected table.

    A search state is (chosen columns, colors), with one color per row: two
    rows agree on the chosen columns exactly when their colors agree, and
    the colors rank the rows by their values there.  A node is one state
    with one distinct unchosen column c, scored by the sorted labels
    color * base + value of c.  States at one level share their color class
    sizes, so these flat keys order the columns as the value multisets of
    the color classes, class by class, do.  Only globally least keys
    survive, and the survivors' labels, ranked, become the next colors;
    among states with the same chosen set and colors the first is kept.
    Once every row has its own color the rows are in order, the unchosen
    columns follow sorted, and the least such table is the form.
    """
    n = len(elements)
    cols = list(zip(*elements))
    firsts = {}
    for c, col in enumerate(cols):
        firsts.setdefault(col, c)
    firsts = [firsts[col] for col in cols]
    # colors are kept times base, so that a label is one addition
    base = max(map(max, cols)) + 1
    states = [((), (0,) * n)]
    node_budget = DEFAULT_CANONICAL_BUDGET
    nodes = 0
    ncolors = 1
    while ncolors < n:
        best = None
        winners = []
        for chosen, colors in states:
            # identical columns refine identically: try the first unchosen
            # copy of each
            free = {}
            for c in range(e):
                if c not in chosen:
                    free.setdefault(firsts[c], c)
            free = free.values()
            nodes += len(free)
            if nodes > node_budget:
                raise CanonicalizationBudgetExceeded(
                    f"canonicalization exceeded {node_budget} nodes")
            # a key opens with the sorted values of the rows of color 0,
            # where most columns already lose
            zero = [i for i, k in enumerate(colors) if not k]
            for c in free:
                col = cols[c]
                head = sorted(map(col.__getitem__, zero))
                if best and head > best[:len(head)]:
                    continue
                key = sorted(map(add, colors, col))
                if not best or key < best:
                    best = key
                    winners = [(chosen, colors, c)]
                elif key == best:
                    winners.append((chosen, colors, c))
        rank = {label: k * base for k, label in enumerate(dict.fromkeys(best))}
        ncolors = len(rank)
        survivors = {}
        for chosen, colors, c in winners:
            colors = tuple(map(rank.__getitem__, map(add, colors, cols[c])))
            survivors.setdefault((frozenset(chosen) | {c}, colors),
                                 (chosen + (c,), colors))
        states = survivors.values()
    best_table = None
    for chosen, colors in states:
        order = sorted(range(n), key=colors.__getitem__)
        remaining = sorted((c for c in range(e) if c not in chosen),
                           key=lambda c: list(map(cols[c].__getitem__, order)))
        col_order = chosen + tuple(remaining)
        table = tuple(tuple(map(elements[i].__getitem__, col_order))
                      for i in order)
        if best_table is None or table < best_table:
            best_table = table
    return best_table
