"""Bounded exhaustive searches over integer-sum residue groups.

The enumeration adds generator rows one at a time, each nondecreasing
within the column classes of the rows before it, which visits every group
at least once per coordinate-permutation class.  States are deduplicated by
their element table and the generators spent; canonical forms deduplicate
the results.  Denominators are unbounded in principle, so every report
carries its budget and is a bounded verification, never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import _kernels
from .codes import simplex_code_group
from .errors import BudgetExceeded, HypothesesNotMet
from .groups import (
    CanonicalForm,
    LambdaGroup,
    _build,
    canonical_form,
    degree,
    f,
    greedy_support_cover,
    is_lattice_pyramid,
)

DEFAULT_NODE_BUDGET = 5_000_000


@dataclass(frozen=True)
class SearchBudget:
    e: int
    max_denominator: int
    max_generators: int
    max_order: int = 4096

    def __post_init__(self) -> None:
        if min(self.e, self.max_denominator, self.max_generators,
               self.max_order) <= 0:
            raise ValueError("budget fields must be positive")
        if self.max_order < self.max_denominator:
            raise ValueError("max_order must be at least max_denominator")

    def to_json(self) -> dict:
        return {"e": self.e, "maxDenominator": self.max_denominator,
                "maxGenerators": self.max_generators,
                "maxOrder": self.max_order}

    def banner(self) -> str:
        return ("bounded verification: exhaustive only over entry "
                f"denominators dividing {self.max_denominator}, at most "
                f"{self.max_generators} generators and closures of order at "
                f"most {self.max_order}; inconclusive beyond this budget")


@dataclass
class ClassificationReport:
    budget: SearchBudget
    target_degree: int
    require_full_support: bool
    require_non_pyramid: bool
    found: list[CanonicalForm]
    groups: list[LambdaGroup]
    counters: dict[str, int]
    complete: bool

    @property
    def banner(self) -> str:
        return self.budget.banner()

    def to_json(self) -> dict:
        return {
            "budget": self.budget.to_json(),
            "targetDegree": self.target_degree,
            "requireFullSupport": self.require_full_support,
            "requireNonPyramid": self.require_non_pyramid,
            "found": [cf.to_json() for cf in self.found],
            "counters": dict(self.counters),
            "complete": self.complete,
            "banner": self.banner,
        }


def enumerate_groups(budget: SearchBudget, s: int,
                     require_full_support: bool = False,
                     require_non_pyramid: bool = True,
                     node_budget: int = DEFAULT_NODE_BUDGET
                     ) -> ClassificationReport:
    """All integer-sum groups of degree s within the budget, canonicalized.

    The walk grows subgroup chains one generator at a time.  New generator
    rows are enumerated nondecreasing within the column classes of the
    current generator matrix (any extension can be brought to that shape by
    a permutation fixing the walked prefix, so this meets every group up to
    coordinate permutation), and closure states are deduplicated by their
    exact element table together with the number of generators spent.
    An element of weight above 2s or height above s stays in every
    supergroup, so a row y is emitted only when its whole extension <H, y>
    of the current group H has neither; only the order cap is left to the
    closure.  Untouched coordinates must stay reachable whenever full
    support is eventually required.

    Once <H, y> is closed, every row y' of the same level with
    <H, y'> = <H, y> (see ``_same_extension_rows``) is skipped without a
    closure and counted in ``skippedRepeats``: closed, it would be a state
    ``seen`` already holds with as many generator slots, so skipping it
    changes nothing else.  ``dedupedStates`` counts the repeats that were
    closed, those first met at another level.

    ``node_budget`` bounds the number of candidate rows tried outside H,
    skipped ones included.  A level whose candidate rows alone would pass
    it is refused before its row list is complete, so the partial report
    then holds only what was found before that level.
    """
    if s < 0:
        raise ValueError("degree must be nonnegative")
    e, D = budget.e, budget.max_denominator
    max_w = 2 * s
    max_h = s * D
    counters = {"closuresExamined": 0, "prunedByWeight": 0,
                "prunedByDegree": 0, "prunedByOrder": 0,
                "prunedBySupport": 0, "dedupedStates": 0,
                "skippedRepeats": 0}
    found: dict[tuple, tuple[CanonicalForm, LambdaGroup]] = {}
    seen: dict[tuple, int] = {}
    zero_row = (0,) * e
    full_mask = (1 << e) - 1
    need_full = require_full_support or (require_non_pyramid and e > 1)
    nodes = 0
    # Each probe t*y + h keeps its weight and its height in two biased
    # fields of ``width`` bits; a field's top bit is set once its partial
    # sum passes its cap, and no field can overflow into the next before
    # that is seen.
    width = (max(max_w, max_h) + D).bit_length() + 1
    pair = 2 * width
    half = 1 << (width - 1)
    top_pair = half | (half << width)
    bias_pair = (half - 1 - max_w) | ((half - 1 - max_h) << width)
    # what a coordinate of value x adds to one probe's (weight, height)
    fields = [(x != 0) | (x << width) for x in range(D)]

    def make_report(complete: bool) -> ClassificationReport:
        forms = sorted(found.values(), key=lambda fg: (fg[0].den, fg[0].table))
        return ClassificationReport(
            budget=budget, target_degree=s,
            require_full_support=require_full_support,
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

    def candidate_rows(elements, classes, forced_mask):
        """Rows y nondecreasing within ``classes`` with <H, y> admissible.

        H is ``elements``; its extension is the union of t*y + H for
        t = 1..D-1.  Every h in H is constant on each column class, so the
        probe t*y + h gains a fixed weight and height from each coordinate
        value: ``table[a]`` of coordinate j adds those of value a at j to
        every probe's fields at once.  The walk fills coordinates left to
        right and drops a prefix as soon as a field passes its cap.
        ``forced_mask`` marks coordinates that must be nonzero; the last
        coordinate is fixed by integrality and not scanned.
        """
        n = len(elements)
        block = n * pair
        spread = ((1 << (block * (D - 1))) - 1) // ((1 << pair) - 1)
        top = spread * top_pair
        units = [1 << (pair * i) for i in range(n)]
        coords = []
        for start, length in classes:
            by_value = [0] * D
            for u, h in zip(units, elements):
                by_value[h[start]] |= u
            shifted = [sum(m * fields[(v + q) % D]
                           for v, m in enumerate(by_value) if m)
                       for q in range(D)]
            table = [sum(shifted[t * a % D] << (block * (t - 1))
                         for t in range(1, D))
                     for a in range(D)]
            lo = 1 if (forced_mask >> start) & 1 else 0
            coords.append((table, lo))
            coords.extend((table, -1) for _ in range(length - 1))

        out = []
        row = [0] * e
        last = e - 1
        # rows of H cost no node, every other row costs one: past this many
        # rows the walk is bound to exceed its node budget
        limit = node_budget - nodes + n

        def rec(j, acc, total, prev):
            table, lo = coords[j]
            low = prev if lo < 0 else lo
            if j == last:
                # the last entry breaks no cap: a probe's sum is a multiple
                # of D, so it stays within sD; and z = t*y + h can pass
                # weight 2s only if its prefix weight is 2s, when the prefix
                # heights of z and of the probe -z, which add up to 2sD, are
                # both sD, so that z's last entry is 0
                a = -total % D
                if a >= low:
                    row[j] = a
                    out.append(tuple(row))
                    if len(out) > limit:
                        raise BudgetExceeded(
                            "enumeration exceeded the node budget",
                            partial_report=make_report(False))
                return
            for a in range(low, D):
                nxt = acc + table[a]
                if not nxt & top:
                    row[j] = a
                    rec(j + 1, nxt, total + a, a)
        rec(0, spread * bias_pair, 0, 0)
        return out

    def consider(rows_sel, elements, mask):
        # ``mask``, the union of the rows' supports, is the group's support
        if need_full and mask != full_mask:
            return
        if max(sum(el) for el in elements) != s * D:
            return
        gen_rows = list(rows_sel) if rows_sel else [zero_row]
        G = _build(e, D, gen_rows, list(elements))
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
        if need_full:
            missing = e - union_mask.bit_count()
            if missing > gens_left * max_w:
                counters["prunedBySupport"] += 1
                return
        forced = 0
        if need_full and gens_left == 1:
            forced = full_mask & ~union_mask
        classes = column_classes(rows_sel)
        known = set(elements)
        # rows whose extension of H this level has already closed
        closed = set()
        for row in candidate_rows(elements, classes, forced):
            if row in known:
                continue
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded("enumeration exceeded the node budget",
                                     partial_report=make_report(False))
            if row in closed:
                counters["skippedRepeats"] += 1
                continue
            status, els = _kernels.extend_closure(
                elements, row, e, D, budget.max_order)
            if status == _kernels.STATUS_TOO_LARGE:
                counters["prunedByOrder"] += 1
                continue
            closed.update(_same_extension_rows(
                elements, row, len(els) // len(elements), D))
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
            consider(rows_sel + [row], els, mask)
            walk(rows_sel + [row], els, mask)

    consider([], [zero_row], 0)
    walk([], [zero_row], 0)
    return make_report(True)


def _same_extension_rows(elements, row, m, D):
    """Every y' with <H, y'> = <H, y>, for H = ``elements`` and y = ``row``.

    ``m`` = |<H, y>| / |H| is the order of y modulo H, and <H, y>/H is
    cyclic, generated by y + H.  So y' generates the same extension exactly
    when y' lies in t*y + H for some t with gcd(t, m) = 1.
    """
    for t in range(1, m):
        if gcd(t, m) == 1:
            ty = [t * a % D for a in row]
            yield from (tuple((a + b) % D for a, b in zip(h, ty))
                        for h in elements)


@dataclass
class VerificationReport:
    suite: str
    parameter: int
    budget: SearchBudget
    status: str
    found: list[CanonicalForm]
    detail: str

    @property
    def banner(self) -> str:
        return self.budget.banner()

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "parameter": self.parameter,
            "budget": self.budget.to_json(),
            "status": self.status,
            "found": [cf.to_json() for cf in self.found],
            "detail": self.detail,
            "banner": self.banner,
        }


DEFAULT_MAIN1_BUDGETS = {
    0: SearchBudget(e=3, max_denominator=6, max_generators=3, max_order=512),
    1: SearchBudget(e=7, max_denominator=4, max_generators=3, max_order=2048),
}

DEFAULT_MAIN2_BUDGETS = {
    1: SearchBudget(e=3, max_denominator=6, max_generators=3, max_order=512),
    2: SearchBudget(e=7, max_denominator=4, max_generators=3, max_order=2048),
    3: SearchBudget(e=10, max_denominator=4, max_generators=4, max_order=4096),
}


def verify_main1(r: int, budget: SearchBudget | None = None,
                 node_budget: int = DEFAULT_NODE_BUDGET) -> VerificationReport:
    """Uniqueness of the code group among maximal-dimension groups, bounded.

    Searches e = 2^(r+2)-1, degree 2^r, non-pyramid; passes when exactly the
    code group is found.  A budget too small to express the code group at
    all makes the run inconclusive rather than a failure.
    """
    if r not in (0, 1):
        raise ValueError("desk-scale verification supports r in {0, 1}")
    if budget is None:
        budget = DEFAULT_MAIN1_BUDGETS[r]
    expected_e = (1 << (r + 2)) - 1
    if budget.e != expected_e:
        raise ValueError(f"budget.e must be {expected_e} for r={r}")
    s = 1 << r
    report = enumerate_groups(budget, s, require_non_pyramid=True,
                              node_budget=node_budget)
    expected = canonical_form(simplex_code_group(r + 2))
    representable = (budget.max_denominator >= 2
                     and budget.max_generators >= r + 2
                     and budget.max_order >= (1 << (r + 2)))
    if report.found == [expected]:
        status = "pass"
        detail = "found exactly the simplex-code group"
    elif not representable:
        status = "inconclusive"
        detail = ("budget cannot express the simplex-code group; "
                  "nothing was found to contradict uniqueness")
    else:
        status = "fail"
        detail = f"found {len(report.found)} group(s); expected exactly one"
    return VerificationReport(suite="main1", parameter=r, budget=budget,
                              status=status, found=report.found, detail=detail)


def verify_main2(s: int, budget: SearchBudget | None = None,
                 node_budget: int = DEFAULT_NODE_BUDGET) -> VerificationReport:
    """Half-integrality of every non-pyramid group at e = f(2s), bounded."""
    if budget is None:
        if s not in DEFAULT_MAIN2_BUDGETS:
            raise ValueError("default budgets cover s in {1, 2, 3}")
        budget = DEFAULT_MAIN2_BUDGETS[s]
    expected_e = f(2 * s)
    if budget.e != expected_e:
        raise ValueError(f"budget.e must be f(2s) = {expected_e} for s={s}")
    report = enumerate_groups(budget, s, require_non_pyramid=True,
                              node_budget=node_budget)
    bad = [cf for cf in report.found if cf.den > 2]
    if not bad:
        status = "pass"
        detail = (f"all {len(report.found)} found group(s) have entries "
                  "in {0, 1/2}")
    else:
        status = "fail"
        detail = f"{len(bad)} found group(s) have denominator above 2"
    return VerificationReport(suite="main2", parameter=s, budget=budget,
                              status=status, found=report.found, detail=detail)


@dataclass(frozen=True)
class BoundsCheck:
    """Clause-by-clause record for the dimension bounds of one group."""

    e: int
    s: int
    m: int
    f_m: int
    e_le_f_m: bool
    f_m_le_2m_minus_1: bool
    e_le_4s_minus_1: bool
    power_of_two_when_e_is_2m_minus_1: bool | None
    cover_length_when_e_is_f_m: bool | None

    @property
    def passed(self) -> bool:
        clauses = [self.e_le_f_m, self.f_m_le_2m_minus_1,
                   self.e_le_4s_minus_1,
                   self.power_of_two_when_e_is_2m_minus_1,
                   self.cover_length_when_e_is_f_m]
        return all(c for c in clauses if c is not None)

    def to_json(self) -> dict:
        return {
            "e": self.e, "s": self.s, "m": self.m, "fM": self.f_m,
            "eLeFM": self.e_le_f_m,
            "fMLe2MMinus1": self.f_m_le_2m_minus_1,
            "eLe4sMinus1": self.e_le_4s_minus_1,
            "powerOfTwoWhenExtremal": self.power_of_two_when_e_is_2m_minus_1,
            "coverLengthWhenTight": self.cover_length_when_e_is_f_m,
            "passed": self.passed,
        }


def check_bounds(G: LambdaGroup) -> BoundsCheck:
    """Dimension bounds for a non-pyramid integer-sum group of degree >= 1."""
    if not G.integer_sum:
        raise HypothesesNotMet("bounds need an integer-sum group")
    if is_lattice_pyramid(G):
        raise HypothesesNotMet("bounds apply to non-pyramids only")
    s = degree(G)
    if s < 1 or G.e < 3:
        raise HypothesesNotMet("bounds need degree >= 1 and e >= 3")
    m = 2 * s
    fm = f(m)
    power_clause = None
    if G.e == 2 * m - 1:
        power_clause = (m & (m - 1)) == 0
    cover_clause = None
    if G.e == fm:
        cover_clause = len(greedy_support_cover(G)) >= m.bit_length()
    return BoundsCheck(
        e=G.e, s=s, m=m, f_m=fm,
        e_le_f_m=G.e <= fm,
        f_m_le_2m_minus_1=fm <= 2 * m - 1,
        e_le_4s_minus_1=G.e <= 4 * s - 1,
        power_of_two_when_e_is_2m_minus_1=power_clause,
        cover_length_when_e_is_f_m=cover_clause,
    )


def support_cover_multiplicities(G: LambdaGroup) -> tuple[int, ...]:
    """How many nonzero elements support each coordinate."""
    counts = [0] * G.e
    for el in G.elements:
        if all(a == 0 for a in el):
            continue
        for i, a in enumerate(el):
            if a:
                counts[i] += 1
    return tuple(counts)
