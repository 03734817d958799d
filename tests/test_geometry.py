"""Normal forms, realization round trips and the counting oracle."""

import random
from dataclasses import asdict

import pytest

from _support import (
    box_scan_counts,
    oracle_det_adjugate,
    random_integer_sum_group,
    smith_lambda_from_vertices,
    walk_count,
)
from latsimplex import (
    LatticeSimplex,
    canonical_form,
    count_lattice_points,
    counterexample_simplex,
    degree,
    ehrhart_table,
    h_star,
    h_star_from_counts,
    hermite_normal_form,
    lambda_from_vertices,
    min_interior_dilation,
    realize_vertices,
    simplex_code_group,
    smith_normal_form,
    trivial_group,
)
from latsimplex import _kernels, geometry, groups
from latsimplex._kernels import count_box_points
from latsimplex.errors import (
    BudgetExceeded,
    DegenerateSimplex,
    GroupTooLarge,
    InconsistentCounts,
    NonIntegralHeights,
)
from latsimplex.geometry import _det_adjugate

CONV_220 = LatticeSimplex(2, ((0, 0), (2, 0), (0, 2)))


def _matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def _det2(M):
    return _det_adjugate(M)[0]


def test_hnf_identity():
    H, U = hermite_normal_form([[1, 0], [0, 1]])
    assert H == ((1, 0), (0, 1))
    assert U == ((1, 0), (0, 1))


def test_hnf_example():
    M = [[2, 0], [0, 2], [1, 1]]
    H, U = hermite_normal_form(M)
    assert [row for row in H if any(row)] == [(1, 1), (0, 2)]
    assert _matmul(U, M) == [list(r) for r in H]
    assert abs(_det2([list(r) for r in U])) == 1
    # entries are integers: a float is refused, not truncated
    with pytest.raises(TypeError):
        hermite_normal_form([[2.9, 0], [0, 3]])


def test_hnf_invariant_under_row_order():
    rng = random.Random(3)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        H1, U1 = hermite_normal_form(M)
        rows = list(M)
        rng.shuffle(rows)
        H2, U2 = hermite_normal_form(rows)
        assert H1 == H2
        assert _matmul(U2, rows) == [list(r) for r in H2]


def test_snf_small_cases():
    S, U, V = smith_normal_form([[1, 0], [0, 1]])
    assert S == ((1, 0), (0, 1))
    S, U, V = smith_normal_form([[2, 0], [0, 2]])
    assert S == ((2, 0), (0, 2))
    bordered = [[0, 0, 1], [2, 0, 1], [0, 2, 1]]
    S, U, V = smith_normal_form(bordered)
    assert [S[i][i] for i in range(3)] == [1, 2, 2]
    assert _matmul(_matmul([list(r) for r in U], bordered),
                   [list(r) for r in V]) == [list(r) for r in S]
    # a float is refused, not truncated to diag(1, 6)
    with pytest.raises(TypeError):
        smith_normal_form([[2.9, 0], [0, 3]])


def test_snf_divisibility_and_transforms():
    rng = random.Random(8)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        S, U, V = smith_normal_form(M)
        assert _matmul(_matmul([list(r) for r in U], M),
                       [list(r) for r in V]) == [list(r) for r in S]
        diag = [S[i][i] for i in range(min(m, n))]
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert S[i][j] == 0


def test_lattice_simplex_validation():
    with pytest.raises(DegenerateSimplex):
        LatticeSimplex(2, ((0, 0), (1, 1), (2, 2)))
    assert CONV_220.normalized_volume() == 4
    # coordinates are integers: (0.5,) would be truncated to a vertex of
    # volume 2 that counts 2.5 points
    for bad in (((0,), (0.5,)), ((0,), (True,))):
        with pytest.raises(TypeError):
            LatticeSimplex(1, bad)
    with pytest.raises(TypeError):
        LatticeSimplex(1.0, ((0,), (1,)))


def test_lambda_from_vertices_examples():
    G = lambda_from_vertices(CONV_220)
    assert sorted(G.elements) == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert canonical_form(G) == canonical_form(simplex_code_group(2))
    std = LatticeSimplex(2, ((0, 0), (1, 0), (0, 1)))
    assert lambda_from_vertices(std).order == 1


def test_lambda_order_matches_determinant():
    """The bordered inverse gives the Smith normal form's residue group,
    element for element, of order |det|, on negative, positive and unit
    determinants."""
    rng = random.Random(59)
    dets = []
    while len(dets) < 300:
        d = rng.randint(0, 4)
        verts = tuple(tuple(rng.randint(-3, 3) for _ in range(d))
                      for _ in range(d + 1))
        try:
            simplex = LatticeSimplex(d, verts)
        except DegenerateSimplex:
            continue
        dets.append(simplex._det)
        G = lambda_from_vertices(simplex)
        ref = smith_lambda_from_vertices(simplex)
        assert (G.den, G.elements) == (ref.den, ref.elements), simplex
        assert G.order == simplex.normalized_volume()
    assert min(dets) < -1 and max(dets) > 1
    assert -1 in dets and 1 in dets


def test_realize_vertices_examples():
    S2 = realize_vertices(simplex_code_group(2))
    assert S2.d == 2 and S2.normalized_volume() == 4
    assert canonical_form(lambda_from_vertices(S2)) == \
        canonical_form(simplex_code_group(2))
    T = realize_vertices(trivial_group(3))
    assert T.normalized_volume() == 1
    assert lambda_from_vertices(T).order == 1
    S3 = realize_vertices(simplex_code_group(3))
    assert S3.d == 6 and S3.normalized_volume() == 8


def test_realize_requires_integer_sum():
    from latsimplex import ResidueVector, close
    G = close([ResidueVector(2, (1, 0, 0))])
    with pytest.raises(NonIntegralHeights):
        realize_vertices(G)


def test_realize_coordinate_budget_is_checked_before_the_work(monkeypatch):
    # B_5 (e = 31, ``code --r 5``) is the largest realization promised
    assert geometry.MAX_REALIZE_COORDINATES >= 31
    monkeypatch.setattr(geometry, "MAX_REALIZE_COORDINATES", 7)
    assert realize_vertices(simplex_code_group(3)).d == 6

    def not_past_the_budget(*args, **kwargs):
        raise AssertionError("work started past the coordinate budget")

    monkeypatch.setattr(geometry, "hermite_normal_form", not_past_the_budget)
    with pytest.raises(BudgetExceeded):
        realize_vertices(trivial_group(8))


def test_count_examples():
    assert [count_lattice_points(CONV_220, n) for n in (0, 1, 2)] == [1, 6, 15]
    assert count_lattice_points(CONV_220, 1, strict=True) == 0
    assert count_lattice_points(CONV_220, 2, strict=True) == 3
    # dilations are integers: True is refused, not read as n = 1
    with pytest.raises(TypeError):
        count_lattice_points(CONV_220, True)
    with pytest.raises(TypeError):
        ehrhart_table(CONV_220, True)


def _no_closure(*args, **kwargs):
    raise AssertionError("the group was closed past its budget")


def test_count_budget(monkeypatch):
    # a count sums d + 1 terms over h* of the simplex's group, so any n is
    # admitted: B_4's realization (d = 14) has h* = 1 + 15t^4
    S4 = realize_vertices(simplex_code_group(4))
    assert count_lattice_points(S4, 1) == 15
    assert ehrhart_table(S4, 3).counts == (1, 15, 120, 680)
    assert min_interior_dilation(S4) == 11
    assert count_lattice_points(CONV_220, 10 ** 6) == \
        (10 ** 6 + 1) * (2 * 10 ** 6 + 1)
    # |det| is the group's order: it is checked against the order cap, and
    # |det| (d + 1) against the cell budget, before anything is closed
    with monkeypatch.context() as mp:
        mp.setattr(groups, "DEFAULT_MAX_ORDER", 4)
        mp.setattr(groups, "MAX_TABLE_CELLS", 12)
        assert count_lattice_points(CONV_220, 2) == 15
    monkeypatch.setattr(geometry, "close", _no_closure)
    # det 2 * 10^6 passes the default order cap 2^20
    big = LatticeSimplex(2, ((0, 0), (2000, 0), (0, 1000)))
    for simplex, caps in ((big, {}), (CONV_220, {"DEFAULT_MAX_ORDER": 3}),
                          (CONV_220, {"MAX_TABLE_CELLS": 11})):
        with monkeypatch.context() as mp:
            for name, cap in caps.items():
                mp.setattr(groups, name, cap)
            for count in (lambda S: count_lattice_points(S, 1),
                          lambda S: ehrhart_table(S, 1),
                          min_interior_dilation):
                with pytest.raises(GroupTooLarge):
                    count(simplex)


def test_ehrhart_table_refuses_before_counting(monkeypatch):
    # a table sums (max_n + 1)(d + 1) terms
    segment = LatticeSimplex(1, ((0,), (1,)))
    top = geometry.MAX_COUNT_TERMS // 2 - 1
    assert ehrhart_table(segment, top).counts[-1] == top + 1
    assert len(ehrhart_table(CONV_220, geometry.MAX_COUNT_TERMS // 3 - 1)
               .counts) == geometry.MAX_COUNT_TERMS // 3
    with monkeypatch.context() as mp:
        mp.setattr(geometry, "lambda_from_vertices", _no_closure)
        for simplex, max_n in ((segment, top + 1),
                               (CONV_220, geometry.MAX_COUNT_TERMS // 3)):
            with pytest.raises(BudgetExceeded):
                ehrhart_table(simplex, max_n)
    # a negative max_n is refused as count_lattice_points refuses a
    # negative n, not answered with an empty table
    with monkeypatch.context() as mp:
        mp.setattr(geometry, "close", _no_closure)
        for table in (lambda S: ehrhart_table(S, -1),
                      lambda S: count_lattice_points(S, -1)):
            with pytest.raises(ValueError):
                table(CONV_220)
    # a small det with long edges: the table is cheap at any max_n
    wide = LatticeSimplex(3, ((0, 0, 0), (25, 0, 0), (0, 25, 0), (0, 0, 1)))
    table = ehrhart_table(wide, 21).counts
    assert table[:3] == tuple(walk_count(wide, n) for n in range(3))
    assert h_star_from_counts(table, 3) == h_star(lambda_from_vertices(wide))
    wider = LatticeSimplex(3, ((0, 0, 0), (200, 0, 0), (0, 200, 0),
                               (0, 0, 1)))
    assert min_interior_dilation(wider) == 2
    assert [walk_count(wider, m, strict=True) for m in (1, 2)] == [0, 19701]


def test_h_star_from_counts_examples():
    assert h_star_from_counts([1, 6, 15], 2).as_list() == [1, 3]
    assert h_star_from_counts([1, 3, 6, 10], 2).as_list() == [1]
    with pytest.raises(InconsistentCounts):
        h_star_from_counts([1, 6], 2)
    with pytest.raises(InconsistentCounts):
        h_star_from_counts([1, 6, 14], 2)
    # a float count is refused, not truncated to give h* = 1
    with pytest.raises(TypeError):
        h_star_from_counts([1.9, 3, 6], 2)
    # no simplex has dimension -1, so there is no polynomial of degree -1
    for counts in ([], [1]):
        with pytest.raises(ValueError):
            h_star_from_counts(counts, -1)


def test_ehrhart_table_monotone():
    table = ehrhart_table(CONV_220, 6)
    assert table.counts[0] == 1
    assert list(table.counts) == sorted(table.counts)


def test_code_group_oracle_equivalence():
    B3 = simplex_code_group(3)
    S3 = realize_vertices(B3)
    counts = [walk_count(S3, n) for n in range(7)]
    assert h_star_from_counts(counts, 6) == h_star(B3)


def test_round_trip_constructed_groups():
    targets = [simplex_code_group(2), simplex_code_group(3),
               counterexample_simplex(2), counterexample_simplex(3),
               counterexample_simplex(4), counterexample_simplex(5)]
    for G in targets:
        recovered = lambda_from_vertices(realize_vertices(G))
        assert canonical_form(recovered) == canonical_form(G)


def test_round_trip_random_groups():
    rng = random.Random(23)
    for _ in range(60):
        G = random_integer_sum_group(rng, e_max=6, den_max=6, max_order=48)
        simplex = realize_vertices(G)
        assert simplex.normalized_volume() == G.order
        recovered = lambda_from_vertices(simplex)
        assert canonical_form(recovered) == canonical_form(G)


def test_oracle_equivalence_random_groups():
    rng = random.Random(29)
    for _ in range(25):
        G = random_integer_sum_group(rng, e_max=5, den_max=6, max_order=48)
        simplex = realize_vertices(G)
        counts = [walk_count(simplex, n) for n in range(simplex.d + 1)]
        assert h_star_from_counts(counts, simplex.d) == h_star(G)


def test_closed_forms_match_the_walk():
    """Counts from h*, closed and strict, and the codegree agree with the
    box walk on random simplices; the walk's cost grows as n^(d-1), so the
    dilations stop at 6 - d."""
    rng = random.Random(211)
    checked = 0
    while checked < 200:
        d = rng.randint(0, 5)
        verts = tuple(tuple(rng.randint(-4, 4) for _ in range(d))
                      for _ in range(d + 1))
        try:
            simplex = LatticeSimplex(d, verts)
        except DegenerateSimplex:
            continue
        for n in range(min(4, 6 - d) + 1):
            for strict in (False, True):
                assert count_lattice_points(simplex, n, strict) == \
                    walk_count(simplex, n, strict), (simplex, n, strict)
        m = 1
        while walk_count(simplex, m, strict=True) == 0:
            m += 1
        assert min_interior_dilation(simplex) == m, simplex
        checked += 1


def test_counts_do_not_walk(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("a count walked the box")

    # geometry holds no binding of the walk that the patch would miss
    assert "_kernels" not in vars(geometry)
    monkeypatch.setattr(_kernels, "count_box_points", no_walk)
    assert count_lattice_points(CONV_220, 2, strict=True) == 3
    assert ehrhart_table(CONV_220, 2).counts == (1, 6, 15)
    assert min_interior_dilation(CONV_220) == 2


def _adjugate_and_sign(simplex):
    # the (det, adj) the simplex kept from its construction
    det, adj = simplex._det, simplex._adj
    assert (det, adj) == oracle_det_adjugate(simplex.bordered())
    return adj, 1 if det > 0 else -1


def test_det_adjugate_matches_oracle():
    """One elimination gives the old determinant and adjugate, and (0, None)
    exactly when the matrix is singular."""
    rng = random.Random(151)
    for n in range(9):
        for k in range(300):
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if n >= 2 and k % 10 == 0:
                src, dst = rng.sample(range(n), 2)
                mat[dst] = list(mat[src])
            det, adj = _det_adjugate(mat)
            assert (det, adj) == oracle_det_adjugate(mat), mat
            if n and det:
                # adj @ mat = det * I
                assert _matmul(adj, mat) == [
                    [det * (r == c) for c in range(n)] for r in range(n)]


def test_pruned_count_matches_box_scan():
    # every A6 target, one dilation past what A6 counts, closed and strict
    targets = [simplex_code_group(2), simplex_code_group(3),
               counterexample_simplex(2)]
    rng = random.Random(103)
    targets += [random_integer_sum_group(rng, e_max=6, den_max=6,
                                         max_order=48)
                for _ in range(200)]
    for G in targets:
        simplex = realize_vertices(G)
        verts = simplex.vertices
        adj_sign = _adjugate_and_sign(simplex)
        for n in range(simplex.d + 2):
            lows = [n * min(v[j] for v in verts) for j in range(simplex.d)]
            highs = [n * max(v[j] for v in verts) for j in range(simplex.d)]
            args = (*adj_sign, lows, highs, n)
            assert (count_box_points(*args, False),
                    count_box_points(*args, True)) == box_scan_counts(*args)
    # boxes that cut the dilation, miss it or are empty
    rng = random.Random(41)
    checked = 0
    while checked < 100:
        d = rng.randint(1, 4)
        verts = tuple(tuple(rng.randint(-3, 3) for _ in range(d))
                      for _ in range(d + 1))
        if _det_adjugate([list(v) + [1] for v in verts])[0] == 0:
            continue
        lows = [rng.randint(-6, 4) for _ in range(d)]
        highs = [lo + rng.randint(-1, 6) for lo in lows]
        n = rng.randint(0, 3)
        args = (*_adjugate_and_sign(LatticeSimplex(d, verts)), lows, highs, n)
        strict = rng.random() < 0.5
        assert count_box_points(*args, strict) == \
            box_scan_counts(*args)[strict]
        checked += 1


def test_simplex_runs_one_elimination(monkeypatch):
    """Construction runs the only elimination; volume, residue group and
    counts read what it kept, and no normal form is computed."""
    calls = []

    def counted(mat):
        calls.append(len(mat))
        return _det_adjugate(mat)

    def no_normal_form(*args, **kwargs):
        raise AssertionError("a normal form was computed")

    monkeypatch.setattr(geometry, "_det_adjugate", counted)
    monkeypatch.setattr(geometry, "smith_normal_form", no_normal_form)
    monkeypatch.setattr(geometry, "hermite_normal_form", no_normal_form)
    simplex = LatticeSimplex(2, ((0, 0), (2, 0), (0, 2)))
    assert calls == [3]
    assert simplex.normalized_volume() == 4
    assert lambda_from_vertices(simplex).order == 4
    assert ehrhart_table(simplex, 4).counts == (1, 6, 15, 28, 45)
    assert min_interior_dilation(simplex) == 2
    assert calls == [3]


def test_kept_elimination_is_not_a_field():
    # equality, hashing, repr and asdict see only d and the vertices
    simplex = LatticeSimplex(2, ((0, 0), (2, 0), (0, 2)))
    assert simplex == CONV_220 and hash(simplex) == hash(CONV_220)
    assert asdict(simplex) == {"d": 2, "vertices": ((0, 0), (2, 0), (0, 2))}
    assert repr(simplex) == \
        "LatticeSimplex(d=2, vertices=((0, 0), (2, 0), (0, 2)))"


def test_degree_via_interior_points():
    rng = random.Random(37)
    checked = 0
    while checked < 20:
        G = random_integer_sum_group(rng, e_max=5, den_max=6, max_order=36)
        simplex = realize_vertices(G)
        if simplex.d > 4:
            continue
        m = min_interior_dilation(simplex)
        assert simplex.d + 1 - m == degree(G)
        checked += 1
    assert min_interior_dilation(CONV_220) == 2


def test_simplex_json_round_trip(monkeypatch):
    obj = CONV_220.to_json()
    assert obj == {"d": 2, "vertices": [[0, 0], [2, 0], [0, 2]]}
    assert LatticeSimplex.from_json(obj) == CONV_220
    # the residue group of a d-simplex lies on d + 1 coordinates, budgeted
    # as a realization's, and a d past it is refused before the elimination
    d = geometry.MAX_REALIZE_COORDINATES
    wide = {"d": d, "vertices": [[0] * d for _ in range(d + 1)]}

    def no_elimination(mat):
        raise AssertionError("elimination started past the dimension budget")

    monkeypatch.setattr(geometry, "_det_adjugate", no_elimination)
    with pytest.raises(BudgetExceeded):
        LatticeSimplex.from_json(wide)
