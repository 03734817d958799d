"""Projective point matrices over F_2 and the residue groups they generate.

``projective_matrix(r)`` lists the 2^r - 1 nonzero binary r-vectors as
columns, ordered by weight descending then by value descending (row 1 read as
the most significant bit).  Halving its entries gives the generator rows of
the weight-uniform group ``simplex_code_group(r)``; block sums of those rows
give the families returned by ``counterexample_simplex``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import groups
from .errors import DimensionMismatch, HypothesesNotMet
from .groups import LambdaGroup, close
from .residues import ResidueVector


@dataclass(frozen=True)
class BinaryMatrix:
    bits: tuple[tuple[int, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.bits)

    @property
    def cols(self) -> int:
        return len(self.bits[0]) if self.bits else 0

    def row(self, i: int) -> tuple[int, ...]:
        return self.bits[i - 1]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j - 1] for row in self.bits)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(1, self.cols + 1)]


def _pow2(u: int) -> int:
    """2^u, clamped at 2^(bit length of the cell budget), which passes that
    budget, so that a huge u builds no huge integer."""
    return 1 << min(u, groups.MAX_TABLE_CELLS.bit_length())


def projective_matrix(r: int) -> BinaryMatrix:
    """The r x (2^r - 1) matrix of all nonzero binary column vectors.

    Raises GroupTooLarge before building anything when its r rows on
    2^r - 1 coordinates would not be admitted as an element table.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    groups._admit_table(r, _pow2(r) - 1, f"the projective matrix for r = {r}")
    order = sorted(range(1, 1 << r), key=lambda v: (-v.bit_count(), -v))
    bits = tuple(
        tuple((v >> (r - 1 - i)) & 1 for v in order) for i in range(r))
    return BinaryMatrix(bits)


def half_matrix(r: int) -> tuple[ResidueVector, ...]:
    """Rows of the projective matrix with every 1 replaced by 1/2."""
    A = projective_matrix(r)
    return tuple(ResidueVector(2, row) for row in A.bits)


def support_matrix(rows) -> BinaryMatrix:
    """0/1 pattern of nonzero entries, row by row."""
    rows = list(rows)
    if not rows:
        raise ValueError("need at least one row")
    e = rows[0].e
    for v in rows:
        if v.e != e:
            raise DimensionMismatch("rows have mixed lengths")
    return BinaryMatrix(tuple(
        tuple(1 if a else 0 for a in v.nums) for v in rows))


def simplex_code_rows(r: int) -> tuple[ResidueVector, ...]:
    """The generator rows of ``simplex_code_group(r)``, without closing them.

    Raises as ``simplex_code_group`` does, before building anything.
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    order = _pow2(r)
    groups._admit_table(order, order - 1, f"the code group for r = {r}")
    return half_matrix(r)


def simplex_code_group(r: int) -> LambdaGroup:
    """Group generated by the half-entry rows; order 2^r, all weights equal.

    Raises GroupTooLarge before building anything when the 2^r x (2^r - 1)
    element table would not be admitted.
    """
    return close(simplex_code_rows(r))


def support_rigidity_check(rows, r: int) -> bool:
    """Entrywise rigidity for matrices shaped like the half matrix.

    ``rows`` must be an (r+2) x (2^(r+2)-1) matrix of residue vectors whose
    support matrix equals ``projective_matrix(r+2)`` and whose generated group
    has maximal weight 2^(r+1); both hypotheses are checked.  Under them the
    matrix is forced to equal the half matrix, so False flags a bug.
    """
    m = r + 2
    rows = list(rows)
    if len(rows) != m:
        raise HypothesesNotMet(f"expected {m} rows")
    if any(v.e != (1 << m) - 1 for v in rows):
        raise HypothesesNotMet(f"expected {(1 << m) - 1} columns")
    if support_matrix(rows) != projective_matrix(m):
        raise HypothesesNotMet("support matrix mismatch")
    G = close(rows)
    if G.max_weight() != 1 << (r + 1):
        raise HypothesesNotMet(
            f"generated group must have maximal weight {1 << (r + 1)}")
    expected = half_matrix(m)
    return all(v.reduced() == w.reduced() for v, w in zip(rows, expected))


def _counterexample_exponents(s: int) -> list[int]:
    """The exponents u_1 > ... > u_p of 2s, after the budget checks of
    ``counterexample_simplex``."""
    if s < 2:
        raise ValueError("s must be at least 2")
    exponents = [u for u in range((2 * s).bit_length()) if (2 * s) >> u & 1]
    exponents.reverse()
    e = 4 * s - (2 * s).bit_count()
    groups._admit_table(_pow2(sum(u + 1 for u in exponents)), e,
                        f"the counterexample for s = {s} on {e} coordinates")
    return exponents


def counterexample_rows(s: int) -> tuple[ResidueVector, ...]:
    """The generator rows of ``counterexample_simplex(s)``, without closing
    them: the block sum of the half matrices, after the same checks."""
    blocks = [half_matrix(u + 1) for u in _counterexample_exponents(s)]
    e = sum(rows[0].e for rows in blocks)
    out = []
    before = 0
    for rows in blocks:
        after = e - before - rows[0].e
        out += [ResidueVector(2, (0,) * before + row.nums + (0,) * after)
                for row in rows]
        before += rows[0].e
    return tuple(out)


def counterexample_simplex(s: int) -> LambdaGroup:
    """Block-diagonal family with degree s on 4s - popcount(2s) coordinates.

    Writes 2s = 2^{u_1} + ... + 2^{u_p} with u_1 > ... > u_p >= 1 and stacks
    the half matrices of dimensions u_i + 1 on disjoint coordinate blocks:
    the closure of ``counterexample_rows(s)``.  Raises GroupTooLarge before
    building anything when the block sum would pass the order cap or the
    cell budget.
    """
    return close(counterexample_rows(s))
