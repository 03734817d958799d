"""Bounded exhaustive searches and the dimension-bound records."""

import random
import time

import pytest

from _support import random_non_pyramid_group, reference_enumerate
from latsimplex import (
    SearchBudget,
    atoms,
    canonical_form,
    check_bounds,
    counterexample_simplex,
    degree,
    enumerate_groups,
    greedy_support_cover,
    simplex_code_group,
    support_cover_multiplicities,
    trivial_group,
    verify_main1,
    verify_main2,
)
from latsimplex.classify import DEFAULT_MAIN1_BUDGETS, DEFAULT_MAIN2_BUDGETS
from latsimplex.errors import HypothesesNotMet


def test_enumeration_e3_s1_finds_exactly_the_code_group():
    report = enumerate_groups(SearchBudget(3, 6, 3, 512), 1)
    assert report.complete
    assert report.found == [canonical_form(simplex_code_group(2))]


def test_enumeration_e3_s0():
    report = enumerate_groups(SearchBudget(3, 6, 3, 512), 0)
    assert report.found == []
    relaxed = enumerate_groups(SearchBudget(3, 6, 3, 512), 0,
                               require_non_pyramid=False)
    assert relaxed.found == [canonical_form(trivial_group(3))]


# perfbench's search budgets (e, max denominator, max generators, s) at max
# order 4096, copied because the tests do not import the benchmark
SEARCH_BUDGETS = ((7, 6, 3, 2), (8, 6, 3, 2), (9, 3, 3, 3), (9, 2, 3, 3),
                  (8, 2, 3, 3), (11, 2, 4, 3), (11, 3, 3, 3), (10, 3, 3, 3),
                  (12, 2, 4, 3), (6, 2, 4, 3), (8, 4, 3, 2), (10, 2, 3, 3),
                  (8, 4, 2, 3), (9, 4, 3, 2))
SAME_COUNTERS = ("closuresExamined", "prunedBySupport")


def _assert_same_walk(budget, s, **flags):
    ref = reference_enumerate(budget, s, **flags)
    # every row the oracle closed that this walk may close as well
    closed = sum(n for name, n in ref.counters.items()
                 if name != "prunedBySupport")
    ours = enumerate_groups(budget, s, node_budget=closed, **flags)
    case = (budget, s, flags)
    assert ours.complete and ref.complete, case
    assert ours.found == ref.found, case
    assert ([[g.nums for g in G.generators] for G in ours.groups]
            == [[g.nums for g in G.generators] for G in ref.groups]), case
    for name in SAME_COUNTERS:
        assert ours.counters[name] == ref.counters[name], (case, name)
    # the oracle closes the repeats this walk skips
    assert (ours.counters["dedupedStates"] + ours.counters["skippedRepeats"]
            == ref.counters["dedupedStates"]), case
    assert (ours.counters["prunedByOrder"]
            <= ref.counters["prunedByOrder"]), case
    assert ours.counters["prunedByWeight"] == 0, case
    assert ours.counters["prunedByDegree"] == 0, case


def test_enumeration_pruning_soundness():
    """The admissible-row walk against the walk that screens rows only by
    generators and leaves the rest to a limited closure."""
    budget = SearchBudget(3, 6, 3, 512)
    plain = reference_enumerate(budget, 1, prune=False)
    assert enumerate_groups(budget, 1).found == plain.found

    # cheap budgets first, so that a walk pruning too little fails early
    for r, budget in DEFAULT_MAIN1_BUDGETS.items():
        _assert_same_walk(budget, 1 << r)
    for s in (1, 2):
        _assert_same_walk(DEFAULT_MAIN2_BUDGETS[s], s)
    for budget in (SearchBudget(7, 4, 3, 8), SearchBudget(8, 6, 3, 6),
                   SearchBudget(8, 6, 3, 12)):
        _assert_same_walk(budget, 2)

    # s <= (e - 1) / 2 keeps the caps binding; past that the oracle's walk
    # takes seconds to tens of seconds per budget
    rng = random.Random(71)
    for _ in range(100):
        e, den = rng.randint(1, 7), rng.randint(1, 6)
        budget = SearchBudget(e, den, rng.randint(1, 3),
                              rng.randint(den, 4096))
        _assert_same_walk(budget, rng.randint(0, min(2, (e - 1) // 2)),
                          require_full_support=rng.random() < 0.5,
                          require_non_pyramid=rng.random() < 0.5)

    for e, den, gens, s in SEARCH_BUDGETS:
        _assert_same_walk(SearchBudget(e, den, gens, 4096), s)


def test_enumeration_is_deterministic():
    budget = SearchBudget(4, 4, 3, 512)
    first = enumerate_groups(budget, 1)
    second = enumerate_groups(budget, 1)
    assert first.found == second.found
    assert first.counters == second.counters


def test_enumeration_e7_s2_finds_exactly_b3():
    report = enumerate_groups(SearchBudget(7, 4, 3, 2048), 2)
    assert report.complete
    assert report.found == [canonical_form(simplex_code_group(3))]


def test_verify_main1_defaults():
    rep0 = verify_main1(0)
    assert rep0.status == "pass"
    assert "inconclusive beyond this budget" in rep0.banner
    rep1 = verify_main1(1)
    assert rep1.status == "pass"


def test_verify_main1_inconclusive_at_denominator_one():
    rep = verify_main1(0, budget=SearchBudget(3, 1, 3, 8))
    assert rep.status == "inconclusive"
    assert rep.found == []


def test_verify_main1_rejects_bad_parameters():
    with pytest.raises(ValueError):
        verify_main1(2)
    with pytest.raises(ValueError):
        verify_main1(0, budget=SearchBudget(4, 6, 3, 512))


def test_verify_main2_small():
    for s in (1, 2):
        rep = verify_main2(s)
        assert rep.status == "pass"
        assert all(cf.den <= 2 for cf in rep.found)
        assert "inconclusive beyond this budget" in rep.banner


def test_check_bounds_on_code_groups():
    B4 = simplex_code_group(4)
    record = check_bounds(B4)
    assert record.passed
    assert record.e == 15 == record.f_m == 2 * record.m - 1
    assert record.power_of_two_when_e_is_2m_minus_1 is True
    assert record.cover_length_when_e_is_f_m is True


def test_check_bounds_counterexample():
    record = check_bounds(counterexample_simplex(3))
    assert record.passed
    assert record.e == 10 == record.f_m
    assert record.f_m < 2 * record.m - 1
    assert record.power_of_two_when_e_is_2m_minus_1 is None
    assert record.cover_length_when_e_is_f_m is True


def test_check_bounds_rejects_pyramids_and_non_integral():
    with pytest.raises(HypothesesNotMet):
        check_bounds(trivial_group(4))


def test_check_bounds_random_corpus():
    rng = random.Random(53)
    for _ in range(150):
        record = check_bounds(random_non_pyramid_group(rng))
        assert record.passed


def test_cover_multiplicities_on_code_groups():
    for r in range(2, 6):
        G = simplex_code_group(r)
        s = degree(G)
        assert set(support_cover_multiplicities(G)) == {2 * s}


def test_atoms_singletons_on_extremal_groups():
    for r in (0, 1):
        G = simplex_code_group(r + 2)
        cover_elements = [v for v, _ in greedy_support_cover(G)]
        assert len(cover_elements) == r + 2
        result = atoms(cover_elements)
        assert all(len(A) == 1 for A in result.values())
        assert set().union(*result.values()) == set(range(1, G.e + 1))


def test_report_json_shape():
    report = enumerate_groups(SearchBudget(3, 6, 3, 512), 1)
    obj = report.to_json()
    assert list(obj) == ["budget", "targetDegree", "requireFullSupport",
                         "requireNonPyramid", "found", "counters",
                         "complete", "banner"]
    assert obj["budget"] == {"e": 3, "maxDenominator": 6,
                             "maxGenerators": 3, "maxOrder": 512}
    assert obj["found"][0]["den"] == 2


def _naive_found_set(e, den, max_gen, max_order, s, require_non_pyramid,
                     require_full_support=False):
    """Ground truth by closing every generator tuple, no cleverness."""
    from itertools import product

    from latsimplex import ResidueVector, close, h_star, is_lattice_pyramid
    from latsimplex.errors import GroupTooLarge

    vectors = [ResidueVector(den, nums)
               for nums in product(range(den), repeat=e)]
    found = set()
    tuples = [[]]
    for _ in range(max_gen):
        tuples = [t + [v] for t in tuples for v in vectors]
        for gens in tuples:
            try:
                G = close(gens, max_order=max_order)
            except GroupTooLarge:
                continue
            if not G.integer_sum:
                continue
            if h_star(G).degree() != s:
                continue
            if require_non_pyramid and is_lattice_pyramid(G):
                continue
            if require_full_support and not G.full_support:
                continue
            cf = canonical_form(G)
            found.add((cf.den, cf.table))
    return found


def test_enumeration_matches_naive_exhaustive():
    for s in (0, 1, 2):
        for require_non_pyramid in (True, False):
            naive = _naive_found_set(3, 4, 2, 256, s, require_non_pyramid)
            report = enumerate_groups(
                SearchBudget(3, 4, 2, 256), s,
                require_non_pyramid=require_non_pyramid)
            ours = {(cf.den, cf.table) for cf in report.found}
            assert ours == naive, (s, require_non_pyramid)


def test_enumeration_node_budget_carries_partial_report():
    from latsimplex.errors import BudgetExceeded
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_groups(SearchBudget(7, 4, 3, 2048), 2, node_budget=5)
    partial = exc.value.partial_report
    assert partial is not None
    assert partial.complete is False


def test_node_budget_bounds_row_generation():
    """A level with more candidate rows than the budget allows is refused
    before its row list is built."""
    from latsimplex.errors import BudgetExceeded
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_groups(SearchBudget(16, 16, 1, 4096), 32, node_budget=1000)
    assert time.perf_counter() - start < 1.0
    assert exc.value.partial_report.complete is False


def test_same_extension_rows_brute_force():
    """The rows skipped after closing <H, y> are exactly the rows outside H
    that close to the same extension."""
    from itertools import product

    from latsimplex._kernels import STATUS_OK, closure_table, extend_closure
    from latsimplex.classify import _same_extension_rows

    rng = random.Random(97)
    checked = 0
    while checked < 60:
        e, den = rng.randint(1, 6), rng.randint(1, 6)
        if den ** e > 1296:
            continue
        space = list(product(range(den), repeat=e))
        gens = [rng.choice(space) for _ in range(rng.randint(0, 2))]
        _, H = closure_table(gens, e, den, den ** e)
        y = rng.choice(space)
        _, ext = extend_closure(H, y, e, den, den ** e)
        skipped = set(_same_extension_rows(H, y, len(ext) // len(H), den))
        inside = set(H)
        same = {z for z in space if z not in inside
                and extend_closure(H, z, e, den, den ** e) == (STATUS_OK, ext)}
        assert skipped == same, (e, den, gens, y)
        checked += 1
