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

from . import _kernels, groups
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
            "requireNonPyramid": self.require_non_pyramid,
            "found": [cf.to_json() for cf in self.found],
            "counters": dict(self.counters),
            "complete": self.complete,
            "banner": self.banner,
        }


def enumerate_groups(budget: SearchBudget, s: int,
                     require_non_pyramid: bool = True
                     ) -> ClassificationReport:
    """All integer-sum groups of degree s within the budget, canonicalized.

    The walk grows subgroup chains one generator at a time.  New generator
    rows are enumerated nondecreasing within the column classes of the
    current generator matrix (any extension can be brought to that shape by
    a permutation fixing the walked prefix, so this meets every group up to
    coordinate permutation), and closure states are deduplicated by their
    exact element table together with the number of generators spent.
    An element of height above s stays in every supergroup, so a row y is
    emitted only when its whole extension <H, y> of the current group H has
    none; only the order cap is left to the closure.  The walk caps heights
    only, and the weight bound 2s follows: a nonzero entry x of z adds x to
    the numerator sum of z and D - x to that of -z, so over any prefix the
    two sums add up to D times its weight, and -z lies in <H, y> with z.  A
    prefix of weight above 2s thus passes sD on z or on -z at that prefix.
    Untouched coordinates must stay reachable whenever full support is
    eventually required.

    Columns j - 1 and j fall in one class until some row tells them apart,
    so the walk carries the class starts as a bit mask (bit 0 always set)
    and ORs in each new row's.  <H, y>/H is cyclic of order m, generated by
    y + H, so a row y' with <H, y'> = <H, y> is one of the cosets t*y + H
    with gcd(t, m) = 1 that ``_kernels.extend_closure`` returns as slices of
    its table.  Such a row of the same level is skipped without a closure
    and counted in ``skippedRepeats``: closed, it would be a state ``seen``
    already holds with as many generator slots, so skipping it changes
    nothing else.  ``dedupedStates`` counts the repeats that were closed,
    those first met at another level.

    ``DEFAULT_NODE_BUDGET`` bounds the number of candidate rows outside H,
    skipped ones included; each is charged once, as its level's row list
    makes it.  A search whose closures could pass ``groups.MAX_TABLE_CELLS``
    cells (``budget.max_order`` times e) is refused before anything is
    built.  A level is refused while its row list is made once the rows
    pass the node budget or fill more than ``groups.MAX_TABLE_CELLS`` cells
    (e per row), and before its probe tables are built if they would hold
    more fields than that (D (D - 1) |H| per column class).  The partial
    report of a refusal holds only what was found before that level.
    """
    if s < 0:
        raise ValueError("degree must be nonnegative")
    e, D = budget.e, budget.max_denominator
    max_h = s * D
    counters = {"closuresExamined": 0, "prunedByWeight": 0,
                "prunedByDegree": 0, "prunedByOrder": 0,
                "prunedBySupport": 0, "dedupedStates": 0,
                "skippedRepeats": 0}
    found: dict[tuple, tuple[CanonicalForm, LambdaGroup]] = {}
    seen: dict[tuple, int] = {}

    def make_report(complete: bool) -> ClassificationReport:
        forms = sorted(found.values(), key=lambda fg: (fg[0].den, fg[0].table))
        return ClassificationReport(
            budget=budget, target_degree=s,
            require_non_pyramid=require_non_pyramid,
            found=[cf for cf, _ in forms],
            groups=[g for _, g in forms],
            counters=counters, complete=complete)

    cells = groups.MAX_TABLE_CELLS
    zero_row = (0,) * e
    full_mask = (1 << e) - 1
    need_full = require_non_pyramid and e > 1
    nodes = 0
    # Each probe t*y + h keeps its height in a biased field of ``width``
    # bits, whole bytes; its top bit is set once the partial sum passes sD,
    # and no field can overflow into the next before that is seen.
    width = (max_h + D).bit_length() + 1
    width += -width % 8
    half = 1 << (width - 1)
    top_field = half.to_bytes(width // 8, "little")
    bias_field = (half - 1 - max_h).to_bytes(width // 8, "little")
    # the field a coordinate of value x adds to one probe, listed twice so
    # that ``fields[v + q]`` is value v + q mod D
    fields = [x.to_bytes(width // 8, "little") for x in range(D)] * 2

    def candidate_rows(elements, starts, forced_mask):
        """Rows y outside H, nondecreasing within column classes, with
        <H, y> admissible; each costs one node as it is made.

        H is ``elements``; its extension is the union of t*y + H for
        t = 1..D-1.  Every h in H is constant on each column class, so
        ``table[a]`` of coordinate j holds at probe i of block t - 1 the
        field of value h_i[j] + t*a and adds it to every probe t*y + h_i at
        once.  The walk fills coordinates left to right and drops a prefix
        as soon as a field passes sD.  Bit j of ``starts`` marks a
        coordinate that starts a column class.  ``forced_mask`` marks
        coordinates that must be nonzero; the last coordinate is fixed by
        integrality and not scanned.
        """
        n = len(elements)
        probes = n * (D - 1)
        # each class's D tables hold D - 1 blocks of |H| probe fields
        need = starts.bit_count() * D * probes
        if need > cells:
            raise BudgetExceeded(
                f"a level's probe tables need {need} fields, more than the "
                f"budget of {cells} table cells")
        top = int.from_bytes(top_field * probes, "little")
        coords = []
        for j in range(e):
            if not (starts >> j) & 1:
                coords.append((table, -1))
                continue
            # one block of |H| probe fields per shift q of the class's values
            shifted = [b"".join([fields[h[j] + q] for h in elements])
                       for q in range(D)]
            table = [int.from_bytes(b"".join([shifted[t * a % D]
                                              for t in range(1, D)]), "little")
                     for a in range(D)]
            coords.append((table, (forced_mask >> j) & 1))

        known = set(elements)
        out = []
        row = [0] * e
        last = e - 1

        def rec(j, acc, total, prev):
            nonlocal nodes
            table, lo = coords[j]
            low = prev if lo < 0 else lo
            if j == last:
                # the last entry breaks no cap: a probe's sum is a multiple
                # of D, so it stays within sD
                a = -total % D
                row[j] = a
                if a < low or tuple(row) in known:
                    return
                nodes += 1
                if nodes > DEFAULT_NODE_BUDGET:
                    raise BudgetExceeded(
                        "enumeration exceeded the node budget")
                out.append(tuple(row))
                # the list holds at most as many cells as an element table
                if len(out) > cells // e:
                    raise BudgetExceeded("a level's candidate rows exceed "
                                         f"the budget of {cells} table cells")
                return
            for a in range(low, D):
                nxt = acc + table[a]
                if not nxt & top:
                    row[j] = a
                    rec(j + 1, nxt, total + a, a)
        rec(0, int.from_bytes(bias_field * probes, "little"), 0, 0)
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

    def walk(rows_sel, elements, union_mask, starts):
        gens_used = len(rows_sel)
        gens_left = budget.max_generators - gens_used
        if gens_left <= 0:
            return
        if need_full:
            missing = e - union_mask.bit_count()
            if missing > gens_left * 2 * s:
                counters["prunedBySupport"] += 1
                return
        forced = 0
        if need_full and gens_left == 1:
            forced = full_mask & ~union_mask
        n = len(elements)
        # rows whose extension of H this level has already closed
        closed = set()
        for row in candidate_rows(elements, starts, forced):
            if row in closed:
                counters["skippedRepeats"] += 1
                continue
            status, els = _kernels.extend_closure(
                elements, row, e, D, budget.max_order)
            if status == _kernels.STATUS_TOO_LARGE:
                counters["prunedByOrder"] += 1
                continue
            m = len(els) // n
            for t in range(1, m):
                if gcd(t, m) == 1:
                    closed.update(els[t * n:(t + 1) * n])
            els.sort()
            # states are deduplicated by their exact element table; a repeat
            # only matters if it now arrives with more generator slots left
            key = tuple(els)
            prior = seen.get(key)
            if prior is not None and prior <= gens_used + 1:
                counters["dedupedStates"] += 1
                continue
            seen[key] = gens_used + 1
            counters["closuresExamined"] += 1
            mask, splits = union_mask, starts
            for i, a in enumerate(row):
                if a:
                    mask |= 1 << i
                if i and a != row[i - 1]:
                    splits |= 1 << i
            consider(rows_sel + [row], els, mask)
            walk(rows_sel + [row], els, mask, splits)

    try:
        if budget.max_order * e > cells:
            raise BudgetExceeded(
                f"closures of order up to {budget.max_order} on {e} "
                f"coordinates need {budget.max_order * e} cells, more than "
                f"the budget of {cells} table cells")
        consider([], [zero_row], 0)
        walk([], [zero_row], 0, 1)
    except BudgetExceeded as exc:
        exc.partial_report = make_report(False)
        raise
    return make_report(True)


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


# What ``verify`` covers: main2 at each s, and main1 at each r with 2^r = s.
# main1 at r reads the budget of main2 at s = 2^r: both search
# e = 2^(r+2) - 1 = f(2^(r+1)) at degree 2^r
DEFAULT_MAIN2_BUDGETS = {
    1: SearchBudget(e=3, max_denominator=6, max_generators=3, max_order=512),
    2: SearchBudget(e=7, max_denominator=4, max_generators=3, max_order=2048),
    3: SearchBudget(e=10, max_denominator=4, max_generators=4, max_order=4096),
}


def main1_range() -> list[int]:
    """The r that ``verify_main1`` covers: those with 2^r a main2 budget."""
    return [s.bit_length() - 1 for s in DEFAULT_MAIN2_BUDGETS
            if s & (s - 1) == 0]


def verify_main1(r: int) -> VerificationReport:
    """Uniqueness of the code group among maximal-dimension groups, bounded.

    Searches e = 2^(r+2)-1, degree 2^r, non-pyramid, within the budget
    ``DEFAULT_MAIN2_BUDGETS[2^r]``; passes when exactly the code group is
    found, and fails otherwise.  Covers the r of ``main1_range()``.
    """
    if r not in main1_range():
        raise ValueError(
            f"desk-scale verification supports r in {main1_range()}")
    s = 1 << r
    budget = DEFAULT_MAIN2_BUDGETS[s]
    report = enumerate_groups(budget, s, require_non_pyramid=True)
    if report.found == [canonical_form(simplex_code_group(r + 2))]:
        status = "pass"
        detail = "found exactly the simplex-code group"
    else:
        status = "fail"
        detail = f"found {len(report.found)} group(s); expected exactly one"
    return VerificationReport(suite="main1", parameter=r, budget=budget,
                              status=status, found=report.found, detail=detail)


def verify_main2(s: int) -> VerificationReport:
    """Half-integrality of every non-pyramid group at e = f(2s), bounded.

    Searches within the budget ``DEFAULT_MAIN2_BUDGETS[s]``, whose e is
    f(2s); passes when every group found has entries in {0, 1/2}.  Covers
    the s of that table.
    """
    if s not in DEFAULT_MAIN2_BUDGETS:
        raise ValueError("desk-scale verification supports s in "
                         f"{list(DEFAULT_MAIN2_BUDGETS)}")
    budget = DEFAULT_MAIN2_BUDGETS[s]
    report = enumerate_groups(budget, s, require_non_pyramid=True)
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
