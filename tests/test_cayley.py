"""Null blocks, the max-partition solver, bounds and decomposition families."""

import random
import time

import pytest

from _support import (
    brute_max_blocks,
    is_null_all_elements,
    random_integer_sum_group,
    reference_max_blocks,
)
from latsimplex import (
    ResidueVector,
    cayley_upper_bound_distinct_halves,
    close,
    code_partition,
    conjecture_report,
    counterexample_simplex,
    half_matrix,
    is_null,
    lambda_from_vertices,
    max_cayley_blocks,
    realize_vertices,
    simplex_code_group,
    trivial_group,
    validate_partition,
)
from latsimplex import cayley
from latsimplex.errors import (
    GroupTooLarge,
    HypothesesNotMet,
    NonIntegralHeights,
    SolverCapExceeded,
)


def test_is_null_examples():
    B2 = simplex_code_group(2)
    assert is_null(B2, {1, 2, 3})
    assert not is_null(B2, {1, 2})
    B3 = simplex_code_group(3)
    assert is_null(B3, {2, 3, 4})
    assert is_null(B3, range(1, 8))
    # S is a set of integers: a repeated index counts once, and a float is
    # refused, not truncated
    assert not is_null(B2, [1, 1])
    assert is_null(B2, [1, 2, 3, 3])
    with pytest.raises(TypeError):
        is_null(B2, [1.9, 2])


def test_generator_nullity_matches_all_elements():
    rng = random.Random(41)
    checked = 0
    while checked < 60:
        G = random_integer_sum_group(rng, e_max=7, max_order=64)
        for mask in range(1, 1 << G.e):
            block = [i + 1 for i in range(G.e) if mask >> i & 1]
            assert is_null(G, block) == is_null_all_elements(G, block)
        checked += 1


def test_max_blocks_code_groups():
    B2 = simplex_code_group(2)
    assert max_cayley_blocks(B2)[0] == 1
    B3 = simplex_code_group(3)
    count, witness = max_cayley_blocks(B3)
    assert count == 2
    assert len(witness) == 2
    assert validate_partition(B3, witness)
    # the two published blocks are themselves a valid optimal witness
    assert is_null(B3, {2, 3, 4}) and is_null(B3, {1, 5, 6, 7})
    assert max_cayley_blocks(simplex_code_group(4))[0] == 5


def test_max_blocks_trivial_group():
    T = trivial_group(3)
    count, witness = max_cayley_blocks(T)
    assert count == 3
    assert witness.block_lists() == [[1], [2], [3]]


def test_max_blocks_counterexamples():
    assert max_cayley_blocks(counterexample_simplex(3))[0] == 3
    assert max_cayley_blocks(counterexample_simplex(4))[0] == 5


def test_max_blocks_requires_integer_sum():
    G = close([ResidueVector(2, (1, 0, 0))])
    with pytest.raises(NonIntegralHeights):
        max_cayley_blocks(G)


def test_solver_cap_and_branch_and_bound(monkeypatch):
    # the 31 coordinates of B_5 need no solver option
    B5 = simplex_code_group(5)
    count, witness = max_cayley_blocks(B5)
    assert validate_partition(B5, witness)
    assert count == 10
    assert sorted(len(b) for b in witness.blocks) == [3] * 9 + [4]
    # the node budget is the only bound
    monkeypatch.setattr(cayley, "DEFAULT_NODE_BUDGET", 100)
    with pytest.raises(SolverCapExceeded):
        max_cayley_blocks(B5)


def test_solver_matches_memoized_reference():
    rng = random.Random(53)
    groups = [random_integer_sum_group(rng, e_max=12, den_max=4,
                                       max_order=256)
              for _ in range(100)]
    groups += [simplex_code_group(r) for r in range(2, 5)]
    groups += [counterexample_simplex(s) for s in range(2, 7)]
    for G in groups:
        count, witness = max_cayley_blocks(G)
        assert (count, witness.block_lists()) == reference_max_blocks(G)


def test_solver_agrees_with_brute_force():
    rng = random.Random(43)
    for _ in range(60):
        G = random_integer_sum_group(rng, e_max=9, max_order=128)
        count, witness = max_cayley_blocks(G)
        assert validate_partition(G, witness)
        assert len(witness) == count
        assert brute_max_blocks(G) == count


def test_solver_is_deterministic():
    rng = random.Random(47)
    for _ in range(20):
        G = random_integer_sum_group(rng, e_max=8)
        first = max_cayley_blocks(G)
        second = max_cayley_blocks(G)
        assert first[0] == second[0]
        assert first[1].block_lists() == second[1].block_lists()


def test_upper_bound_examples():
    assert cayley_upper_bound_distinct_halves(simplex_code_group(4)) == 5
    assert cayley_upper_bound_distinct_halves(simplex_code_group(2)) == 1
    assert cayley_upper_bound_distinct_halves(counterexample_simplex(3)) == 3


def test_upper_bound_hypotheses():
    with pytest.raises(HypothesesNotMet):
        cayley_upper_bound_distinct_halves(close([ResidueVector(4, (1, 1, 2))]))
    with pytest.raises(HypothesesNotMet):
        cayley_upper_bound_distinct_halves(
            close([ResidueVector(2, (1, 1, 0, 0))]))
    duplicated = close([ResidueVector(2, (1, 1, 1, 1))])
    with pytest.raises(HypothesesNotMet):
        cayley_upper_bound_distinct_halves(duplicated)


def test_upper_bound_dominates_solver():
    for r in range(2, 6):
        G = simplex_code_group(r)
        C, _ = max_cayley_blocks(G)
        assert C <= cayley_upper_bound_distinct_halves(G)


def test_code_partition_small():
    part1 = code_partition(1)
    assert sorted(len(b) for b in part1.blocks) == [3, 4]
    assert validate_partition(simplex_code_group(3), part1)
    part0 = code_partition(0)
    assert part0.block_lists() == [[1, 2, 3]]


def test_code_partition_counts_and_validity():
    for r in range(10):
        n = r + 2
        e = (1 << n) - 1
        part = code_partition(r)
        blocks = part.block_lists()
        assert sorted(i for b in blocks for i in b) == list(range(1, e + 1))
        rows = half_matrix(n)
        assert all(sum(row.nums[i - 1] for i in b) % 2 == 0
                   for b in blocks for row in rows)
        # floor(e/3) blocks: all lines for even n, one 4-block for odd n
        assert len(part) == e // 3
        assert sorted(map(len, blocks)) == [3] * (e // 3 - n % 2) \
            + [4] * (n % 2)
        if r <= 5:
            G = simplex_code_group(n)
            assert validate_partition(G, part)
            assert len(part) == cayley_upper_bound_distinct_halves(G)


def test_code_partition_is_refused_before_any_block():
    # 2^42 - 1 coordinates: the projective matrix's budget refuses it at
    # once, before the blocks over 2^42 values are made
    start = time.perf_counter()
    with pytest.raises(GroupTooLarge):
        code_partition(40)
    assert time.perf_counter() - start < 1.0


def test_decomposition_within_solver_bounds():
    for r in range(5):
        G = simplex_code_group(r + 2)
        C, _ = max_cayley_blocks(G)
        assert len(code_partition(r)) == C \
            == cayley_upper_bound_distinct_halves(G)


def test_conjecture_reports():
    rep = conjecture_report(simplex_code_group(3))
    assert (rep.d, rep.s, rep.cayley_number) == (6, 2, 2)
    assert rep.original_gap == 1
    assert rep.original_verdict == "violates the Cayley conjecture"
    rep2 = conjecture_report(simplex_code_group(2))
    assert rep2.original_gap == 0
    assert rep2.original_verdict == "not applicable (d <= 2s)"
    rep3 = conjecture_report(counterexample_simplex(3))
    assert rep3.original_gap == 1
    assert rep3.cayley_number == 3


def test_modified_conjecture_values_on_the_family():
    values = {}
    for r in range(4):
        G = simplex_code_group(r + 2)
        rep = conjecture_report(G)
        value = rep.cayley_number - (rep.d + 1) + rep.modified_bound
        values[r] = value
        assert value >= 0
        assert not rep.modified_verdict.startswith("violates")
    assert values[1] == 0
    assert values[2] == (2 ** 1 - 2) // 3
    # C = floor(e/3) for every r, one more block at r=3 than the modified
    # bound's equality needs, so the margin there is strictly positive
    assert values[3] == 1


def test_degree_zero_is_no_modified_counterexample():
    # a unimodular simplex has s = 0 and C = d + 1; the modified bound
    # floor((17s - 4)/6) = -1 would ask for d + 2 blocks
    for e in (1, 2, 5):
        rep = conjecture_report(trivial_group(e))
        assert (rep.d, rep.s, rep.cayley_number) == (e - 1, 0, e)
        assert (rep.modified_bound, rep.modified_gap) == (-1, 1)
        assert rep.modified_verdict == "not applicable (s = 0)"
        assert not rep.original_verdict.startswith("violates")


def test_realize_then_project_keeps_witness_valid():
    for G in (simplex_code_group(2), simplex_code_group(3),
              counterexample_simplex(3)):
        count, witness = max_cayley_blocks(G)
        recovered = lambda_from_vertices(realize_vertices(G))
        assert validate_partition(recovered, witness)
        assert max_cayley_blocks(recovered)[0] == count


def test_report_json_shape():
    rep = conjecture_report(simplex_code_group(3))
    obj = rep.to_json()
    assert list(obj) == ["d", "s", "C", "originalGap", "modifiedBound",
                         "modifiedGap", "verdicts"]
    assert obj["C"] == 2 and obj["originalGap"] == 1
