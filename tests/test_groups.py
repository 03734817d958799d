"""Group closure, h* dictionary, covers, atoms, restriction and canonical forms."""

import random
import time

import pytest

from _support import (
    all_greedy_cover_size_sequences,
    bfs_closure,
    brute_canonical_key,
    random_integer_sum_group,
    random_non_pyramid_group,
    reference_canonical_form,
    reference_components,
)
from latsimplex import (
    ResidueVector,
    atoms,
    canonical_form,
    check_weight_bound,
    close,
    degree,
    direct_sum,
    f,
    greedy_support_cover,
    h_star,
    half_lemma_witness,
    half_matrix,
    is_lattice_pyramid,
    restrict,
    simplex_code_group,
    trivial_group,
    volume,
)
from latsimplex import _kernels, groups
from latsimplex.errors import (
    BudgetExceeded,
    DimensionMismatch,
    EmptySubset,
    GroupTooLarge,
    HypothesesNotMet,
    NonIntegralHeights,
)


def test_close_code_rows():
    assert close(half_matrix(2)).order == 4
    B3 = close(half_matrix(3))
    assert B3.order == 8
    weights = {B3.e - el.count(0) for el in B3.elements if any(el)}
    assert weights == {4}


def test_close_zero_vector_gives_trivial_group():
    G = close([ResidueVector.zero(4, 6)])
    assert G.order == 1 and G.den == 1
    assert G == trivial_group(4)


def test_close_normalizes_denominator_to_exponent():
    G = close([ResidueVector(6, (3, 3, 0)), ResidueVector(6, (0, 3, 3))])
    assert G.den == 2
    assert canonical_form(G) == canonical_form(simplex_code_group(2))


def test_close_rejects_mixed_lengths_and_huge_groups():
    with pytest.raises(DimensionMismatch):
        close([ResidueVector(2, (1, 1)), ResidueVector(2, (1, 1, 0))])
    with pytest.raises(GroupTooLarge):
        close([ResidueVector(64, tuple([1] + [0] * 5))], max_order=32)


def test_close_respects_the_cell_budget(monkeypatch):
    monkeypatch.setattr(groups, "MAX_TABLE_CELLS", 100)
    assert close(half_matrix(3)).order == 8  # 8 x 7 cells
    with pytest.raises(GroupTooLarge):
        close(half_matrix(4))  # 16 x 15 cells
    with pytest.raises(GroupTooLarge):
        close([ResidueVector(1, (0,) * 101)])  # one element, 101 cells


def test_extend_matches_full_closure():
    rng = random.Random(79)
    for _ in range(1000):
        e = rng.randint(1, 8)
        den = rng.randint(1, 7)
        k = rng.randint(0, 4)
        gens = [tuple(rng.randrange(den) for _ in range(e)) for _ in range(k)]
        for cap in (0, 1, 2, 3, 5, 8, 13, 4096):
            assert (_kernels.closure_table(gens, e, den, cap)
                    == bfs_closure(gens, e, den, cap)), (gens, e, den, cap)
        if not gens:
            continue
        st0, base = _kernels.closure_table(gens[:-1], e, den, 4096)
        assert st0 == 0
        st1, full = _kernels.closure_table(gens, e, den, 4096)
        st2, ext = _kernels.extend_closure(base, gens[-1], e, den, 4096)
        assert st1 == st2 == 0
        assert full == sorted(ext)


def test_closure_table_large_denominator():
    status, els = _kernels.closure_table([(300, 0)], 2, 600, 64)
    assert status == _kernels.STATUS_OK
    assert els == [(0, 0), (300, 0)]


def test_h_star_examples():
    assert h_star(simplex_code_group(2)).as_list() == [1, 3]
    assert h_star(trivial_group(3)).as_list() == [1]
    assert h_star(simplex_code_group(3)).as_list() == [1, 0, 7]


def test_h_star_requires_integral_heights():
    G = close([ResidueVector(2, (1, 0, 0))])
    assert not G.integer_sum
    for op in (h_star, degree, volume, check_weight_bound):
        with pytest.raises(NonIntegralHeights):
            op(G)


def test_degree_volume_examples():
    B4 = simplex_code_group(4)
    assert degree(B4) == 4 and volume(B4) == 16
    assert degree(trivial_group(5)) == 0 and volume(trivial_group(5)) == 1
    B3 = simplex_code_group(3)
    assert degree(B3) == 2 and volume(B3) == 8


def test_h_star_coefficients_invariants():
    rng = random.Random(2024)
    for _ in range(50):
        G = random_integer_sum_group(rng)
        hs = h_star(G)
        assert hs.coeffs[0] == 1
        assert hs.volume() == G.order
        assert all(c >= 0 for c in hs.coeffs)


def test_pyramid_detection():
    assert is_lattice_pyramid(close([ResidueVector(2, (1, 1, 0))]))
    assert not is_lattice_pyramid(simplex_code_group(3))
    assert not is_lattice_pyramid(trivial_group(1))
    for e in (2, 3, 4):
        assert is_lattice_pyramid(trivial_group(e))


def test_pyramid_full_support_formulation_agrees():
    rng = random.Random(77)
    for _ in range(120):
        G = random_integer_sum_group(rng, e_min=2)
        assert is_lattice_pyramid(G) == (not G.full_support)


def test_full_support_element_implies_non_pyramid_but_not_conversely():
    # one direction always holds; the code group on 3 coordinates is the
    # smallest witness that the converse fails
    B2 = simplex_code_group(2)
    assert B2.full_support and not is_lattice_pyramid(B2)
    assert all(el.count(0) > 0 for el in B2.elements)


def test_f_values():
    assert f(0) == 0
    assert f(1) == 1
    assert f(4) == 7
    assert f(6) == 10
    assert [f(m) for m in (2, 8, 10, 16)] == [3, 15, 18, 31]
    with pytest.raises(ValueError):
        f(-1)


def test_greedy_cover_sizes_forced_on_code_groups():
    B3 = simplex_code_group(3)
    assert all_greedy_cover_size_sequences(B3) == {(4, 2, 1)}
    cover = greedy_support_cover(B3)
    assert [len(I) for _, I in cover] == [4, 2, 1]
    B4 = simplex_code_group(4)
    assert all_greedy_cover_size_sequences(B4) == {(8, 4, 2, 1)}
    assert [len(I) for _, I in greedy_support_cover(B4)] == [8, 4, 2, 1]


def test_greedy_cover_trivial_and_partition():
    assert greedy_support_cover(trivial_group(3)) == []
    rng = random.Random(5)
    for _ in range(40):
        G = random_integer_sum_group(rng)
        cover = greedy_support_cover(G)
        chunks = [I for _, I in cover]
        union = set().union(*chunks) if chunks else set()
        assert union == G.support_union()
        assert sum(len(I) for I in chunks) == len(union)
        sizes = [len(I) for I in chunks]
        for j, size in enumerate(sizes):
            assert size <= sizes[0] // (2 ** j)


def test_atoms_of_code_rows():
    result = atoms(half_matrix(3))
    assert all(len(A) == 1 for A in result.values())
    assert set().union(*result.values()) == set(range(1, 8))
    single = atoms([half_matrix(3)[0]])
    assert single == {frozenset({1}): frozenset({1, 2, 3, 5})}
    m2 = atoms(half_matrix(2))
    assert m2 == {
        frozenset({1, 2}): frozenset({1}),
        frozenset({1}): frozenset({2}),
        frozenset({2}): frozenset({3}),
    }


def test_atoms_key_budget_is_checked_first(monkeypatch):
    # 2^40 - 1 keys: refused at once, not listed
    rows = [ResidueVector(2, (1, 0))] * 40
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        atoms(rows)
    assert time.perf_counter() - start < 1.0
    three, four = half_matrix(3), half_matrix(4)
    monkeypatch.setattr(groups, "MAX_TABLE_CELLS", 7)
    assert len(atoms(three)) == 7
    with pytest.raises(BudgetExceeded):
        atoms(four)


def test_atoms_disjoint_and_cover():
    rng = random.Random(6)
    for _ in range(40):
        G = random_integer_sum_group(rng)
        vecs = G.element_vectors()[: min(4, G.order)]
        result = atoms(vecs)
        seen = set()
        for A in result.values():
            assert not (A & seen)
            seen |= A
        assert seen == set().union(*(v.support() for v in vecs))


def test_weight_bound():
    for r in range(2, 6):
        G = simplex_code_group(r)
        assert check_weight_bound(G)
        bound = 2 * degree(G)
        assert all(G.e - el.count(0) == bound for el in G.elements if any(el))
    assert check_weight_bound(trivial_group(4))
    rng = random.Random(9)
    for _ in range(200):
        assert check_weight_bound(random_integer_sum_group(rng, e_max=10))


def test_half_lemma_on_code_rows():
    B3 = simplex_code_group(3)
    rows = half_matrix(3)
    assert half_lemma_witness(B3, rows[0], rows[1]) is True
    with pytest.raises(HypothesesNotMet):
        half_lemma_witness(B3, rows[0], rows[0])


def test_half_lemma_on_random_pairs():
    rng = random.Random(31)
    found_pairs = 0
    for _ in range(300):
        G = random_integer_sum_group(rng, e_max=8, den_max=8)
        M = G.max_weight()
        if M == 0 or M % 2:
            continue
        top = [v for v in G.element_vectors() if v.weight() == M]
        for i, x in enumerate(top):
            for y in top[i + 1:]:
                if len(x.support() & y.support()) * 2 == M:
                    assert half_lemma_witness(G, x, y) is True
                    found_pairs += 1
    assert found_pairs > 10


def test_restrict():
    B3 = simplex_code_group(3)
    row1 = half_matrix(3)[0]
    sub = restrict(B3, row1.support())
    assert sub.e == 4
    full = restrict(B3, range(1, 8))
    assert full.elements == B3.elements
    from latsimplex import counterexample_simplex
    cx = counterexample_simplex(3)
    head = restrict(cx, range(1, 8))
    assert canonical_form(head) == canonical_form(B3)
    with pytest.raises(EmptySubset):
        restrict(B3, [])
    # S is a set of integers: a float is refused, not truncated
    assert restrict(B3, [2, 1, 2]).elements == restrict(B3, [1, 2]).elements
    with pytest.raises(TypeError):
        restrict(B3, [1.5, 2])


def test_direct_sum():
    B3 = simplex_code_group(3)
    B2 = simplex_code_group(2)
    G = direct_sum(B3, B2)
    assert (G.order, G.e, degree(G)) == (32, 10, 3)
    piled = direct_sum(B3, trivial_group(1))
    assert is_lattice_pyramid(piled)
    assert h_star(direct_sum(B2, B2)).as_list() == [1, 6, 9]


def test_closure_idempotence():
    rng = random.Random(13)
    for _ in range(30):
        G = random_integer_sum_group(rng)
        again = close(G.element_vectors())
        assert again.elements == G.elements and again.den == G.den


def test_canonical_form_permutation_invariance():
    rng = random.Random(17)
    for _ in range(30):
        G = random_integer_sum_group(rng)
        perm = list(range(G.e))
        rng.shuffle(perm)
        permuted = close([ResidueVector(G.den, tuple(g.nums[p] for p in perm))
                          for g in G.generators])
        assert canonical_form(permuted) == canonical_form(G)


def test_canonical_form_matches_brute_force_key():
    """Forms survive random coordinate permutations, and two groups with
    equal (e, den, order) get equal forms exactly when the least sorted
    tables over all permutations are equal."""
    rng = random.Random(71)
    corpus = [simplex_code_group(2), simplex_code_group(3)]
    corpus += [random_integer_sum_group(rng, e_max=6, den_max=4,
                                        max_order=32, e_min=1)
               for _ in range(300)]
    buckets = {}
    for G in corpus:
        perm = list(range(G.e))
        rng.shuffle(perm)
        permuted = close([ResidueVector(G.den, tuple(g.nums[p] for p in perm))
                          for g in G.generators])
        cf = canonical_form(G)
        assert canonical_form(permuted) == cf
        key = brute_canonical_key(G)
        buckets.setdefault((G.e, G.den, G.order), []).append((cf, key))
    pairs = equal = 0
    for entries in buckets.values():
        for i, (cf1, key1) in enumerate(entries):
            for cf2, key2 in entries[i + 1:]:
                assert (cf1 == cf2) == (key1 == key2)
                pairs += 1
                equal += key1 == key2
    assert pairs > 1000 and 0 < equal < pairs


def test_canonical_form_examples():
    B2 = simplex_code_group(2)
    reversed_cols = close([ResidueVector(2, g.nums[::-1])
                           for g in B2.generators])
    assert canonical_form(reversed_cols) == canonical_form(B2)
    B3 = simplex_code_group(3)
    padded = direct_sum(B2, trivial_group(4))
    assert padded.e == B3.e
    assert canonical_form(padded) != canonical_form(B3)


def test_canonical_form_distinguishes_non_equivalent():
    G1 = close([ResidueVector(4, (1, 1, 2))])
    G2 = close([ResidueVector(4, (1, 3, 0))])
    assert G1.order == G2.order == 4
    assert canonical_form(G1) != canonical_form(G2)


def test_canonical_form_preserves_table_content():
    # rows and columns of the canonical table are a reshuffling of the
    # original element table, so the value multisets must survive intact
    rng = random.Random(59)
    for _ in range(40):
        G = random_integer_sum_group(rng)
        cf = canonical_form(G)
        assert cf.den == G.den and cf.e == G.e
        assert sorted(tuple(sorted(row)) for row in cf.table) == \
            sorted(tuple(sorted(el)) for el in G.elements)
        columns = sorted(tuple(sorted(row[c] for row in cf.table))
                         for c in range(G.e))
        original = sorted(tuple(sorted(el[c] for el in G.elements))
                          for c in range(G.e))
        assert columns == original


def test_components_match_pairwise_reference():
    """Decomposability by support masks against the pairwise rule, on
    random groups, their block sums, B_2..B_5 and the counterexamples."""
    from latsimplex import counterexample_simplex
    rng = random.Random(71)
    cases = [random_integer_sum_group(rng, e_max=9, max_order=128, e_min=1)
             for _ in range(200)]
    cases += [direct_sum(random_integer_sum_group(rng, e_max=5, e_min=1),
                         random_integer_sum_group(rng, e_max=5, e_min=1))
              for _ in range(100)]
    cases += [simplex_code_group(r) for r in range(2, 6)]
    cases += [counterexample_simplex(s) for s in range(2, 7)]
    split = 0
    for G in cases:
        comps = groups._components(G)
        assert comps == reference_components(G), G
        split += len(comps) > 1
    assert split > 100


def test_canonical_form_budget_error(monkeypatch):
    from latsimplex.errors import CanonicalizationBudgetExceeded
    G = simplex_code_group(4)
    monkeypatch.setattr(groups, "DEFAULT_CANONICAL_BUDGET", 10)
    with pytest.raises(CanonicalizationBudgetExceeded):
        canonical_form(G)


def test_canonical_form_matches_reference_search():
    """The color search against the class-by-class search it replaced,
    table for table, on random groups, B_2..B_4 and the counterexamples at
    s = 2 and 3."""
    from latsimplex import counterexample_simplex
    rng = random.Random(23)
    cases = [random_integer_sum_group(rng, e_max=9, max_order=256, e_min=1)
             for _ in range(200)]
    cases += [simplex_code_group(r) for r in range(2, 5)]
    cases += [counterexample_simplex(s) for s in (2, 3)]
    for G in cases:
        assert canonical_form(G) == reference_canonical_form(G), G


def test_canonical_budget_refusals_match_reference(monkeypatch):
    """Both searches count one node per state and distinct unchosen column,
    so at every budget they refuse together or return the same table: B_3
    takes 427 nodes, B_3 with every column doubled 938 and B_4 101,235."""
    from latsimplex.errors import CanonicalizationBudgetExceeded
    B3 = simplex_code_group(3)
    doubled = close([ResidueVector(2, g.nums * 2) for g in B3.generators])
    cases = [(B3, 427, (1, 7, 8, 100, 426, 427, 428)),
             (doubled, 938, (14, 15, 500, 937, 938)),
             (simplex_code_group(4), 101_235, (5_000, 101_234, 101_235))]
    for G, total, budgets in cases:
        for budget in budgets:
            monkeypatch.setattr(groups, "DEFAULT_CANONICAL_BUDGET", budget)
            tables = []
            for form in (canonical_form, reference_canonical_form):
                try:
                    tables.append(form(G).table)
                except CanonicalizationBudgetExceeded:
                    tables.append(None)
            assert tables[0] == tables[1], (G, budget)
            assert (tables[0] is None) == (budget < total), (G, budget)


def test_direct_sum_order_cap(monkeypatch):
    B3 = simplex_code_group(3)
    monkeypatch.setattr(groups, "DEFAULT_MAX_ORDER", 32)
    with pytest.raises(GroupTooLarge):
        direct_sum(B3, B3)


def test_direct_sum_cell_budget(monkeypatch):
    B2, B3 = simplex_code_group(2), simplex_code_group(3)
    monkeypatch.setattr(groups, "MAX_TABLE_CELLS", 100)
    assert direct_sum(B2, B2).order == 16  # 16 x 6 cells
    with pytest.raises(GroupTooLarge):
        direct_sum(B3, B2)  # 32 x 10 cells


def test_dimension_bounds_on_random_non_pyramids():
    rng = random.Random(19)
    for _ in range(150):
        G = random_non_pyramid_group(rng)
        s = degree(G)
        assert G.e <= f(2 * s) <= 4 * s - 1
