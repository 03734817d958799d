"""Projective matrices, code groups, rigidity, block-sum families."""

import time
from itertools import product

import pytest

from latsimplex import (
    ResidueVector,
    canonical_form,
    close,
    counterexample_simplex,
    degree,
    direct_sum,
    h_star,
    half_matrix,
    is_lattice_pyramid,
    projective_matrix,
    simplex_code_group,
    support_matrix,
    support_rigidity_check,
)
from latsimplex import codes, groups
from latsimplex.errors import GroupTooLarge, HypothesesNotMet
from latsimplex.groups import f


def test_projective_matrix_small_cases():
    assert projective_matrix(1).bits == ((1,),)
    assert projective_matrix(2).bits == ((1, 1, 0), (1, 0, 1))
    assert projective_matrix(3).bits == (
        (1, 1, 1, 0, 1, 0, 0),
        (1, 1, 0, 1, 0, 1, 0),
        (1, 0, 1, 1, 0, 0, 1),
    )


def test_projective_matrix_columns_distinct_nonzero():
    for r in range(1, 7):
        A = projective_matrix(r)
        cols = A.columns()
        assert len(cols) == (1 << r) - 1
        assert len(set(cols)) == len(cols)
        assert all(any(c) for c in cols)


def test_projective_matrix_cell_budget_is_checked_first(monkeypatch):
    # 2^40 - 1 columns: refused at once, not sorted
    for build in (projective_matrix, half_matrix):
        start = time.perf_counter()
        with pytest.raises(GroupTooLarge):
            build(40)
        assert time.perf_counter() - start < 1.0
    monkeypatch.setattr(groups, "MAX_TABLE_CELLS", 500)
    assert projective_matrix(6).cols == 63  # 6 x 63 cells
    with pytest.raises(GroupTooLarge):
        projective_matrix(7)  # 7 x 127 cells


def test_half_matrix_mirrors_projective_matrix():
    for r in range(1, 6):
        rows = half_matrix(r)
        assert all(v.den == 2 for v in rows)
        assert support_matrix(rows) == projective_matrix(r)
    assert [tuple(v.nums) for v in half_matrix(2)] == [(1, 1, 0), (1, 0, 1)]


def test_code_group_invariants():
    for r in range(2, 6):
        G = simplex_code_group(r)
        assert G.order == 1 << r
        assert G.e == (1 << r) - 1
        assert G.integer_sum and G.full_support
        hs = h_star(G)
        expected = [1] + [0] * ((1 << (r - 2)) - 1) + [(1 << r) - 1]
        assert hs.as_list() == expected
        assert G.e == 4 * hs.degree() - 1
        w = 1 << (r - 1)
        assert all(G.e - el.count(0) == w for el in G.elements if any(el))


def test_code_group_argument_checks():
    with pytest.raises(ValueError):
        simplex_code_group(1)


def test_code_group_cell_budget_is_checked_before_closure(monkeypatch):
    monkeypatch.setattr(groups, "MAX_TABLE_CELLS", 500)

    def not_past_the_budget(*args, **kwargs):
        raise AssertionError("work started past the cell budget")

    with monkeypatch.context() as m:
        m.setattr(codes, "half_matrix", not_past_the_budget)
        m.setattr(codes, "close", not_past_the_budget)
        with pytest.raises(GroupTooLarge):
            simplex_code_group(5)  # 32 x 31 cells
    assert simplex_code_group(4).order == 16  # 16 x 15 cells


def test_rigidity_on_half_matrices():
    assert support_rigidity_check(half_matrix(3), 1) is True
    assert support_rigidity_check(half_matrix(4), 2) is True


def test_rigidity_hypothesis_failures():
    with pytest.raises(HypothesesNotMet):
        support_rigidity_check(half_matrix(3), 2)
    bad = [ResidueVector(4, (1, 1, 0)), ResidueVector(4, (1, 0, 1))]
    with pytest.raises(HypothesesNotMet):
        # closure picks up weight 3 elements, violating the weight hypothesis
        support_rigidity_check(bad, 0)


def test_rigidity_exhaustive_denominator_four():
    # all 81 entry choices over {1/4, 1/2, 3/4} with the 2x3 support pattern:
    # only the all-halves matrix keeps every closure weight at most 2
    survivors = []
    for a, b, c, d in product((1, 2, 3), repeat=4):
        rows = [ResidueVector(4, (a, b, 0)), ResidueVector(4, (c, 0, d))]
        if close(rows).max_weight() <= 2:
            survivors.append((a, b, c, d))
            assert support_rigidity_check(rows, 0) is True
    assert survivors == [(2, 2, 2, 2)]


def test_counterexample_small_cases():
    G = counterexample_simplex(3)
    assert (G.e, degree(G), G.order) == (10, 3, 32)
    assert canonical_form(counterexample_simplex(2)) == \
        canonical_form(simplex_code_group(3))
    G5 = counterexample_simplex(5)
    assert (G5.e, degree(G5)) == (18, 5)
    assert G5.order == 64
    with pytest.raises(ValueError):
        counterexample_simplex(1)


def test_counterexample_family_invariants():
    for s in range(2, 17):
        G = counterexample_simplex(s)
        p = bin(2 * s).count("1")
        assert G.e == f(2 * s) == 4 * s - p
        assert G.full_support and not is_lattice_pyramid(G)
        assert G.den <= 2
        assert degree(G) == s


def test_generator_rows_close_to_their_groups():
    for r in range(2, 7):
        assert close(codes.simplex_code_rows(r)) == simplex_code_group(r)
    for s in range(2, 17):
        # the direct sum of the code groups, block by block, is the oracle
        blocks = [simplex_code_group(u + 1)
                  for u in reversed(range((2 * s).bit_length()))
                  if (2 * s) >> u & 1]
        expected = blocks[0]
        for block in blocks[1:]:
            expected = direct_sum(expected, block)
        G = counterexample_simplex(s)
        assert (G.den, G.elements, G.generators) == \
            (expected.den, expected.elements, expected.generators)
        assert codes.counterexample_rows(s) == G.generators
    # the rows are refused where their groups are, before anything is built
    for build in (codes.simplex_code_rows, simplex_code_group):
        with pytest.raises(ValueError):
            build(1)
        with pytest.raises(GroupTooLarge):
            build(13)
    for build in (codes.counterexample_rows, counterexample_simplex):
        with pytest.raises(ValueError):
            build(1)
        for s in (600, 1023, 2047, 10 ** 9):
            with pytest.raises(GroupTooLarge):
                build(s)
