"""Vector arithmetic in (Q/Z)^e: examples and algebraic identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latsimplex import ResidueVector, add, height, support, weight
from latsimplex.codes import half_matrix
from latsimplex.errors import DenominatorMismatch, DimensionMismatch


def vec(den, *nums):
    return ResidueVector(den, nums)


def test_add_closure_rows():
    u = vec(2, 1, 1, 0)
    v = vec(2, 1, 0, 1)
    assert add(u, v) == vec(2, 0, 1, 1)


def test_add_identity_and_inverse():
    v = vec(4, 1, 2, 3)
    zero = ResidueVector.zero(3, 4)
    assert add(v, zero) == v
    third = vec(3, 1, 1, 1)
    assert add(third, vec(3, 2, 2, 2)) == ResidueVector.zero(3, 3)
    assert add(third, -third).is_zero()


def test_add_rejects_mismatches():
    with pytest.raises(DimensionMismatch):
        add(vec(2, 1, 0), vec(2, 1, 0, 1))
    with pytest.raises(DenominatorMismatch):
        add(vec(2, 1, 0), vec(4, 1, 0))


def test_support_examples():
    assert support(vec(2, 1, 1, 0)) == {1, 2}
    assert support(ResidueVector.zero(4)) == frozenset()
    row1 = half_matrix(3)[0]
    assert support(row1) == {1, 2, 3, 5}


def test_weight_examples():
    for r in range(2, 6):
        for row in half_matrix(r):
            assert weight(row) == 1 << (r - 1)
    assert weight(ResidueVector.zero(5)) == 0
    assert weight(vec(2, 1, 1, 0)) == 2


def test_height_examples():
    assert height(half_matrix(3)[0]) == 2
    assert height(ResidueVector.zero(3)) == 0
    assert height(vec(2, 1, 1, 0)) == 1
    assert height(vec(4, 1, 2, 0)) == Fraction(3, 4)


def test_rescale_is_explicit_and_checked():
    v = vec(2, 1, 0, 1)
    w = v.rescale(6)
    assert w.den == 6 and w.nums == (3, 0, 3)
    assert w.reduced() == v
    with pytest.raises(DenominatorMismatch):
        v.rescale(3)
    # a float is refused, not truncated to 4
    with pytest.raises(TypeError):
        v.rescale(4.5)


def test_entries_are_residues():
    v = vec(4, 0, 3, 2)
    entries = v.entries()
    assert [r.numerator for r in entries] == [0, 3, 2]
    assert entries[1].as_fraction() == Fraction(3, 4)


def test_json_round_trip():
    v = vec(4, 1, 0, 3)
    assert v.to_json() == {"den": 4, "entries": [1, 0, 3]}
    assert ResidueVector.from_json(v.to_json()) == v


small_vec = st.integers(min_value=2, max_value=8).flatmap(
    lambda den: st.integers(min_value=1, max_value=6).flatmap(
        lambda e: st.tuples(
            st.just(den),
            st.lists(st.integers(min_value=0, max_value=den - 1),
                     min_size=e, max_size=e))))


def _mk(seed):
    den, nums = seed
    return ResidueVector(den, nums)


@settings(max_examples=200, derandomize=True)
@given(small_vec, small_vec.map(lambda s: s[1]))
def test_add_commutes_and_associates(seed, other_nums):
    u = _mk(seed)
    v = ResidueVector(u.den, [x % u.den for x in (other_nums * u.e)[:u.e]])
    w = add(u, v)
    assert add(v, u) == w
    assert add(add(u, v), u) == add(u, add(v, u))


@settings(max_examples=200, derandomize=True)
@given(small_vec)
def test_height_of_vector_plus_inverse_is_weight(seed):
    v = _mk(seed)
    assert height(v) + height(-v) == weight(v)


@settings(max_examples=200, derandomize=True)
@given(small_vec, small_vec.map(lambda s: s[1]))
def test_support_of_sum_within_union(seed, other_nums):
    u = _mk(seed)
    v = ResidueVector(u.den, [x % u.den for x in (other_nums * u.e)[:u.e]])
    assert support(add(u, v)) <= support(u) | support(v)
