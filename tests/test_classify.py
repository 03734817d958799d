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
    f,
    greedy_support_cover,
    simplex_code_group,
    support_cover_multiplicities,
    trivial_group,
    verify_main1,
    verify_main2,
)
from latsimplex import _kernels, classify
from latsimplex.classify import DEFAULT_MAIN2_BUDGETS
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
    case = (budget, s, flags)
    extend = _kernels.extend_closure

    def capped_extend(prev, row, e, den, cap):
        # the walk caps heights only; every table it accepts must also keep
        # weights within 2s
        status, els = extend(prev, row, e, den, cap)
        if status == _kernels.STATUS_OK:
            assert max(e - el.count(0) for el in els) <= 2 * s, (case, row)
            assert max(map(sum, els)) <= s * den, (case, row)
        return status, els

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "DEFAULT_NODE_BUDGET", closed)
        mp.setattr(_kernels, "extend_closure", capped_extend)
        ours = enumerate_groups(budget, s, **flags)
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

    # cheap budgets first, so that a walk pruning too little fails early;
    # these two are also verify_main1's budgets at r = 0 and 1
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
                          require_non_pyramid=rng.random() < 0.5)

    for e, den, gens, s in SEARCH_BUDGETS:
        _assert_same_walk(SearchBudget(e, den, gens, 4096), s)

    # 16-bit fields: the height cap s * D = 512 plus D needs 11 bits and
    # the guard bit
    _assert_same_walk(SearchBudget(2, 512, 1, 512), 1)
    # s * D + D = 136 needs all 8 bits of a byte, so the guard bit takes a
    # second: with one byte, the bias 127 - s * D would be negative
    _assert_same_walk(SearchBudget(3, 8, 1, 8), 16)


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


def test_verify_main1_rejects_bad_parameters():
    for r in (-1, 2):
        with pytest.raises(ValueError):
            verify_main1(r)
    for s in (0, 4):
        with pytest.raises(ValueError):
            verify_main2(s)


def test_default_budgets_search_e_f_2s():
    """Each row of the coverage table searches the dimension main2 names."""
    for s, budget in DEFAULT_MAIN2_BUDGETS.items():
        assert budget.e == f(2 * s), s


def test_verify_coverage_follows_the_budget_table(monkeypatch, capsys):
    """The admitted r and s, and the CLI's default lists, read the table."""
    import json

    from latsimplex import cli
    monkeypatch.setattr(classify, "DEFAULT_MAIN2_BUDGETS",
                        {2: DEFAULT_MAIN2_BUDGETS[2]})
    assert classify.main1_range() == [1]
    for suite, param in (("main1", 1), ("main2", 2)):
        assert cli.main(["verify", "--suite", suite]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert [rep["parameter"] for rep in obj["reports"]] == [param]
        assert obj["reports"][0]["status"] == "pass"
    with pytest.raises(ValueError, match=r"r in \[1\]"):
        verify_main1(0)
    with pytest.raises(ValueError, match=r"s in \[2\]"):
        verify_main2(1)
    with pytest.raises(ValueError):
        verify_main2(3)


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
    assert list(obj) == ["budget", "targetDegree", "requireNonPyramid",
                         "found", "counters", "complete", "banner"]
    assert obj["budget"] == {"e": 3, "maxDenominator": 6,
                             "maxGenerators": 3, "maxOrder": 512}
    assert obj["found"][0]["den"] == 2


def _naive_found_set(e, den, max_gen, max_order, s, require_non_pyramid):
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


def test_enumeration_node_budget_carries_partial_report(monkeypatch):
    from latsimplex.errors import BudgetExceeded
    monkeypatch.setattr(classify, "DEFAULT_NODE_BUDGET", 5)
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_groups(SearchBudget(7, 4, 3, 2048), 2)
    partial = exc.value.partial_report
    assert partial is not None
    assert partial.complete is False


def test_node_budget_bounds_row_generation(monkeypatch):
    """A level whose rows pass the node budget is refused as they are made,
    before its row list is complete or any of its rows is closed."""
    from latsimplex.errors import BudgetExceeded
    monkeypatch.setattr(classify, "DEFAULT_NODE_BUDGET", 1000)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_groups(SearchBudget(16, 16, 1, 4096), 32)
    assert time.perf_counter() - start < 1.0
    assert exc.value.partial_report.complete is False


def test_cell_budget_bounds_row_generation(monkeypatch):
    """A level's row list holds at most as many cells as an element table,
    even when the node budget would allow more rows."""
    from latsimplex import groups
    from latsimplex.errors import BudgetExceeded
    # closures of order 100 on 16 coordinates fit the budget, 100 rows
    # more do not
    monkeypatch.setattr(groups, "MAX_TABLE_CELLS", 16 * 100)
    with pytest.raises(BudgetExceeded, match="candidate rows") as exc:
        enumerate_groups(SearchBudget(16, 16, 1, 100), 32)
    assert exc.value.partial_report.complete is False


def test_cell_budget_bounds_probe_tables(monkeypatch):
    """A level whose probe tables would pass the cell budget is refused
    before they are built, after the earlier levels ran."""
    from latsimplex import groups
    from latsimplex.errors import BudgetExceeded
    # the first level's tables hold 6 * 5 fields, a later level's more;
    # closures of order 6 on 3 coordinates fit
    monkeypatch.setattr(groups, "MAX_TABLE_CELLS", 6 * 5)
    with pytest.raises(BudgetExceeded, match="probe tables") as exc:
        enumerate_groups(SearchBudget(3, 6, 3, 6), 1)
    assert "budget of 30 table cells" in str(exc.value)
    partial = exc.value.partial_report
    assert partial.complete is False
    assert partial.counters["closuresExamined"] >= 1


def test_cell_budget_counts_probe_fields(monkeypatch):
    """A level's probe tables hold D (D - 1) |H| fields per column class:
    the level of 3 column classes over a group of order 6 at denominator 6
    needs 3 * 6 * 5 * 6 = 540 fields."""
    from latsimplex import groups
    from latsimplex.errors import BudgetExceeded
    monkeypatch.setattr(groups, "MAX_TABLE_CELLS", 539)
    with pytest.raises(BudgetExceeded, match="need 540 fields"):
        enumerate_groups(SearchBudget(3, 6, 3, 6), 1)
    monkeypatch.setattr(groups, "MAX_TABLE_CELLS", 540)
    assert enumerate_groups(SearchBudget(3, 6, 3, 6), 1).complete


def test_node_budget_threshold(monkeypatch):
    """Every row outside H is charged once, so a complete walk charges the
    rows it closed, skipped, deduplicated or pruned by order: it completes
    at exactly that node budget and is refused one below."""
    from latsimplex.errors import BudgetExceeded
    cases = [(SearchBudget(7, 4, 3, 2048), 2), (SearchBudget(8, 6, 3, 6), 2),
             (SearchBudget(6, 2, 4, 4096), 3), (SearchBudget(5, 3, 3, 729), 2),
             (SearchBudget(9, 4, 3, 4096), 2)]
    reports = [enumerate_groups(budget, s) for budget, s in cases]
    for (budget, s), report in zip(cases, reports):
        c = report.counters
        n = (c["closuresExamined"] + c["dedupedStates"]
             + c["skippedRepeats"] + c["prunedByOrder"])
        monkeypatch.setattr(classify, "DEFAULT_NODE_BUDGET", n)
        again = enumerate_groups(budget, s)
        assert again.complete and again.counters == c, budget
        monkeypatch.setattr(classify, "DEFAULT_NODE_BUDGET", n - 1)
        with pytest.raises(BudgetExceeded, match="node budget"):
            enumerate_groups(budget, s)


def test_same_extension_rows_brute_force():
    """The rows skipped after closing <H, y>, the cosets t*y + H with
    gcd(t, m) = 1 that ``extend_closure`` returns as slices of its table,
    are exactly the rows outside H that close to the same extension."""
    from itertools import product
    from math import gcd

    from latsimplex._kernels import closure_table, extend_closure

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
        n, m = len(H), len(ext) // len(H)
        assert ext[:n] == H
        skipped = {z for t in range(1, m) if gcd(t, m) == 1
                   for z in ext[t * n:(t + 1) * n]}
        inside = set(H)
        same = {z for z in space if z not in inside
                and sorted(extend_closure(H, z, e, den, den ** e)[1])
                == sorted(ext)}
        assert skipped == same, (e, den, gens, y)
        checked += 1
