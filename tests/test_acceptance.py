"""Acceptance suite: every shipped claim at its stated (exact) tolerance.

Each test prints one PASS/FAIL line; run with ``pytest -v -s`` to see them
inline.  All checks are exact integer comparisons, no numeric tolerances.
"""

import random
from contextlib import contextmanager
from itertools import combinations

from _support import (
    brute_max_blocks,
    is_null_all_elements,
    random_integer_sum_group,
    random_non_pyramid_group,
    smith_lambda_from_vertices,
    walk_count,
)
from latsimplex import (
    canonical_form,
    cayley_upper_bound_distinct_halves,
    code_partition,
    counterexample_simplex,
    degree,
    f,
    greedy_support_cover,
    h_star,
    h_star_from_counts,
    half_lemma_witness,
    half_matrix,
    is_lattice_pyramid,
    is_null,
    lambda_from_vertices,
    max_cayley_blocks,
    realize_vertices,
    simplex_code_group,
    support_rigidity_check,
    validate_partition,
)
from latsimplex.geometry import LatticeSimplex


@contextmanager
def criterion(tag, description):
    try:
        yield
    except BaseException:
        print(f"[{tag}] {description}: FAIL")
        raise
    print(f"[{tag}] {description}: PASS")


def test_a1_simplex_code_invariants():
    with criterion("A1", "simplex-code invariants for r = 0..3"):
        for r in range(4):
            G = simplex_code_group(r + 2)
            assert G.order == 1 << (r + 2)
            hs = h_star(G)
            expected = [1] + [0] * ((1 << r) - 1) + [(1 << (r + 2)) - 1]
            assert hs.as_list() == expected
            assert G.e == (1 << (r + 2)) - 1 == 4 * hs.degree() - 1
            w = 1 << (r + 1)
            assert all(G.e - el.count(0) == w
                       for el in G.elements if any(el))


def test_a2_cayley_numbers():
    with criterion("A2", "exact Cayley numbers and solver-vs-brute corpus"):
        B2 = simplex_code_group(2)
        assert max_cayley_blocks(B2)[0] == 1
        B3 = simplex_code_group(3)
        count, witness = max_cayley_blocks(B3)
        assert count == 2
        assert len(witness) == 2
        assert validate_partition(B3, witness)
        assert is_null(B3, {2, 3, 4}) and is_null(B3, {1, 5, 6, 7})
        assert validate_partition(B3, [{2, 3, 4}, {1, 5, 6, 7}])
        assert max_cayley_blocks(simplex_code_group(4))[0] == 5
        rng = random.Random(101)
        for _ in range(200):
            G = random_integer_sum_group(rng, e_max=9, max_order=128)
            solved, part = max_cayley_blocks(G)
            assert validate_partition(G, part) and len(part) == solved
            assert brute_max_blocks(G) == solved


def test_a3_counterexample_reproduction():
    with criterion("A3", "counterexample families for s = 2..8"):
        for s in range(2, 9):
            G = counterexample_simplex(s)
            p = bin(2 * s).count("1")
            assert G.e == 4 * s - p == f(2 * s)
            assert degree(G) == s
            assert not is_lattice_pyramid(G)
            C, _ = max_cayley_blocks(G)
            # a null block of a direct sum splits into null blocks of its
            # parts, so C adds over the code groups B_{u+1}, 2^u in 2s
            assert C == sum(len(code_partition(u - 1))
                            for u in range(1, (2 * s).bit_length())
                            if (2 * s) >> u & 1)
            assert G.e - 2 * s > C
            if s == 2:
                assert (G.e - 2 * s) - C == 7 - 4 - 2 == 1


def test_a4_modified_conjecture_values():
    with criterion("A4", "modified-bound margins for r = 0..5"):
        margins = {}
        witnesses = {}
        for r in range(6):
            G = simplex_code_group(r + 2)
            if r <= 3:
                C, witnesses[r] = max_cayley_blocks(G)
            else:
                # past the solver's reach C is read from the certificate:
                # a null partition with the floor(e/3) bound's block count
                cert = code_partition(r)
                assert validate_partition(G, cert)
                C = cayley_upper_bound_distinct_halves(G)
                assert len(cert) == C
            s = 1 << r
            d_plus_1 = (1 << (r + 2)) - 1
            margins[r] = C - d_plus_1 + (17 * s - 4) // 6
        assert all(v >= 0 for v in margins.values())
        # At r=3 the margin is 1, not the 0 an equality C = 9 would need.
        # Nine 3-blocks plus one 4-block are a null partition of the 31
        # coordinates (nine disjoint lines of PG(4, 2), a maximal partial
        # spread, and the 4 leftover points), so C >= 10.  A null block is
        # a zero-sum set of distinct nonzero columns of F_2^5, so it has at
        # least 3 coordinates and C <= floor(31/3) = 10.  Both the solver's
        # witness and the constructed certificate are checked here against
        # every group element.
        assert margins == {0: 0, 1: 0, 2: 0, 3: 1, 4: 2, 5: 5}, margins
        G = simplex_code_group(5)
        for blocks in (witnesses[3].block_lists(),
                       code_partition(3).block_lists()):
            assert sorted(map(len, blocks)) == [3] * 9 + [4]
            assert sorted(i for b in blocks for i in b) == list(range(1, 32))
            assert all(is_null_all_elements(G, b) for b in blocks)
        assert not any(is_null_all_elements(G, b)
                       for b in combinations(range(1, 32), 2))
        assert not any(is_null_all_elements(G, (i,)) for i in range(1, 32))
        assert cayley_upper_bound_distinct_halves(G) == 10


def test_a5_bijection_round_trip():
    with criterion("A5", "realize/recover round trip over the corpus"):
        targets = [simplex_code_group(2), simplex_code_group(3)]
        targets += [counterexample_simplex(s) for s in range(2, 6)]
        rng = random.Random(103)
        targets += [random_integer_sum_group(rng, e_max=6, den_max=6,
                                             max_order=48)
                    for _ in range(200)]
        for G in targets:
            simplex = realize_vertices(G)
            recovered = lambda_from_vertices(simplex)
            assert canonical_form(recovered) == canonical_form(G)
            # the Smith normal form gives the same group, element for element
            ref = smith_lambda_from_vertices(simplex)
            assert (recovered.den, recovered.elements) == \
                (ref.den, ref.elements)


def test_a6_ehrhart_oracle_equivalence():
    with criterion("A6", "brute-force counts reproduce h* (d <= 6)"):
        conv220 = LatticeSimplex(2, ((0, 0), (2, 0), (0, 2)))
        counts = [walk_count(conv220, n) for n in (0, 1, 2)]
        assert counts == [1, 6, 15]
        assert h_star_from_counts(counts, 2).as_list() == [1, 3]
        targets = [simplex_code_group(2), simplex_code_group(3),
                   counterexample_simplex(2)]
        rng = random.Random(103)
        targets += [random_integer_sum_group(rng, e_max=6, den_max=6,
                                             max_order=48)
                    for _ in range(200)]
        for G in targets:
            if G.e - 1 > 6:
                continue
            simplex = realize_vertices(G)
            counts = [walk_count(simplex, n) for n in range(simplex.d + 1)]
            assert h_star_from_counts(counts, simplex.d) == h_star(G)


def test_a7_bound_suite():
    with criterion("A7", "bound suite over 1000 random non-pyramid groups"):
        rng = random.Random(107)
        pairs_seen = 0
        for _ in range(1000):
            G = random_non_pyramid_group(rng, e_max=8, den_max=6,
                                         max_order=256)
            s = degree(G)
            assert G.e <= f(2 * s) <= 4 * s - 1
            bound = 2 * s
            assert all(G.e - el.count(0) <= bound for el in G.elements)
            den = G.den
            for el in G.elements:
                inv = tuple((-a) % den for a in el)
                weight = G.e - el.count(0)
                assert (sum(el) + sum(inv)) == weight * den
            cover_sizes = [len(I) for _, I in greedy_support_cover(G)]
            for j, size in enumerate(cover_sizes):
                assert size <= cover_sizes[0] // (2 ** j)
            M = G.max_weight()
            if M and M % 2 == 0:
                top = [v for v in G.element_vectors() if v.weight() == M]
                for i, x in enumerate(top):
                    for y in top[i + 1:]:
                        if len(x.support() & y.support()) * 2 == M:
                            assert half_lemma_witness(G, x, y) is True
                            pairs_seen += 1
        assert pairs_seen > 0


def test_a8_bounded_search_verification():
    with criterion("A8", "bounded uniqueness and half-integrality searches"):
        from latsimplex import verify_main1, verify_main2
        rep = verify_main1(0)
        assert rep.status == "pass"
        assert "inconclusive beyond this budget" in rep.banner
        rep = verify_main1(1)
        assert rep.status == "pass"
        assert rep.found == [canonical_form(simplex_code_group(3))]
        for s in (1, 2, 3):
            rep = verify_main2(s)
            assert rep.status == "pass"
            assert all(cf.den <= 2 for cf in rep.found)
            assert "inconclusive beyond this budget" in rep.banner
        # the s = 3 search finds exactly three classes, all half-integral
        assert len(rep.found) == 3
        assert all(cf.den == 2 for cf in rep.found)


def test_a9_rigidity_check():
    with criterion("A9", "denominator-4 rigidity search at r = 0"):
        from itertools import product

        from latsimplex import ResidueVector, close
        survivors = []
        for a, b, c, d in product((1, 2, 3), repeat=4):
            rows = [ResidueVector(4, (a, b, 0)), ResidueVector(4, (c, 0, d))]
            if close(rows).max_weight() <= 2:
                survivors.append(rows)
        assert len(survivors) == 1
        assert [tuple(v.nums) for v in survivors[0]] == [(2, 2, 0), (2, 0, 2)]
        assert support_rigidity_check(survivors[0], 0) is True
        assert [v.reduced() for v in survivors[0]] == list(half_matrix(2))
