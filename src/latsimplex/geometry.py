"""Bridge between residue groups and integer vertex coordinates.

``realize_vertices`` turns an integer-sum group into a concrete lattice
simplex by expressing the unit vectors in a basis of the overlattice the
group defines, flattening the common affine hyperplane onto Z^d, and skew
reducing the coordinates.  ``lambda_from_vertices`` inverts the
construction: the residue group is generated by the rows of the inverse of
the bordered vertex matrix, taken mod 1.  A simplex keeps that matrix's
determinant and adjugate from its one elimination, and its volume and
residue group read them.  Its point counts read h* of that group, since a
lattice d-simplex has Ehrhart series h*(t) / (1 - t)^(d+1) (Batyrev and
Hofscheier, arXiv:1309.5312; Beck and Robins, *Computing the Continuous
Discretely*, chs. 3-4), so counting is bounded as every group question is.
All arithmetic is exact.  Matrices here are tiny, so the normal forms, the
determinant and the adjugate use integer eliminations with no modular
tricks; only the lattice reduction's Gram-Schmidt uses fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import groups
from .errors import (
    BudgetExceeded,
    DegenerateSimplex,
    InconsistentCounts,
    NonIntegralHeights,
    RankDeficient,
)
from .groups import HStarPolynomial, LambdaGroup, close, h_star
from .residues import ResidueVector, as_int, int_rows

# the most binomial terms an Ehrhart table may sum: d + 1 per dilation
MAX_COUNT_TERMS = 1 << 18
# the most coordinates a realization may have; its lattice reduction grows
# steeply with e
MAX_REALIZE_COORDINATES = 32


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _sweep(rows, mates, top: int, c: int) -> bool:
    """Clear column ``c`` below row ``top`` by row operations.

    An entry the pivot divides is reduced away, which leaves the pivot row
    untouched; any other is combined with the pivot row by the unimodular
    2x2 step of its extended gcd, which changes the pivot.  ``mates`` gets
    the same operations.  Returns whether any pivot row changed.
    """
    changed = False
    for i in range(top + 1, len(rows)):
        b = rows[i][c]
        if b == 0:
            continue
        a = rows[top][c]
        if b % a == 0:
            q = b // a
            for mat in (rows, mates):
                mat[i] = [v - q * u for u, v in zip(mat[top], mat[i])]
            continue
        g, x, y = _xgcd(a, b)
        p, q = -(b // g), a // g
        for mat in (rows, mates):
            t, r = mat[top], mat[i]
            mat[top] = [x * u + y * v for u, v in zip(t, r)]
            mat[i] = [p * u + q * v for u, v in zip(t, r)]
        changed = True
    return changed


def hermite_normal_form(mat):
    """Row-style Hermite normal form: returns (H, U) with H = U @ mat.

    H is upper staircase with positive pivots and entries above each pivot
    reduced into [0, pivot); U is unimodular.  Zero rows sink to the bottom.
    """
    rows = [list(map(as_int, r)) for r in mat]
    m = len(rows)
    n = len(rows[0]) if m else 0
    U = _identity(m)
    r0 = 0
    for c in range(n):
        if r0 >= m:
            break
        piv = next((i for i in range(r0, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r0], rows[piv] = rows[piv], rows[r0]
        U[r0], U[piv] = U[piv], U[r0]
        _sweep(rows, U, r0, c)
        if rows[r0][c] < 0:
            rows[r0] = [-x for x in rows[r0]]
            U[r0] = [-x for x in U[r0]]
        pivval = rows[r0][c]
        for i in range(r0):
            q = rows[i][c] // pivval
            if q:
                rows[i] = [u - q * v for u, v in zip(rows[i], rows[r0])]
                U[i] = [u - q * v for u, v in zip(U[i], U[r0])]
        r0 += 1
    return tuple(map(tuple, rows)), tuple(map(tuple, U))


def smith_normal_form(mat):
    """Smith normal form: returns (S, U, V) with S = U @ mat @ V diagonal.

    Diagonal entries are nonnegative and form a divisibility chain; U and V
    are unimodular.  Columns are cleared as the rows of the transposes.
    """
    A = [list(map(as_int, row)) for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    U = _identity(m)
    Vt = _identity(n)  # V transposed: a column operation is a row one
    for t in range(min(m, n)):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (piv is None or
                                     abs(A[i][j]) < abs(A[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        A[t], A[i] = A[i], A[t]
        U[t], U[i] = U[i], U[t]
        for r in A:
            r[t], r[j] = r[j], r[t]
        Vt[t], Vt[j] = Vt[j], Vt[t]
        while True:
            changed = _sweep(A, U, t, t)
            if any(A[t][t + 1:]):
                At = [list(col) for col in zip(*A)]
                changed |= _sweep(At, Vt, t, t)
                A = [list(row) for row in zip(*At)]
            if changed:
                continue
            # divisibility: A[t][t] must divide everything that remains
            fix = next((i for i in range(t + 1, m)
                        if any(x % A[t][t] for x in A[i][t + 1:])), None)
            if fix is None:
                break
            A[t] = [u + v for u, v in zip(A[t], A[fix])]
            U[t] = [u + v for u, v in zip(U[t], U[fix])]
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
    return tuple(map(tuple, A)), tuple(map(tuple, U)), tuple(zip(*Vt))


def _det_adjugate(mat):
    """(det, adj) of a square integer matrix, or (0, None) if it is singular.

    Integer-preserving Gauss-Jordan elimination (Bareiss) on [mat | I]: after
    step k every entry is a minor of order k + 1 of the row-permuted
    [mat | I], so each division is exact.  The last pivot is the
    determinant of the permuted matrix and the right block its multiple of
    the inverse; each row swap flips the sign of both.
    """
    n = len(mat)
    a = [list(map(int, row)) + [int(i == j) for j in range(n)]
         for i, row in enumerate(mat)]
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0, None
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        top = a[k]
        p = top[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in a)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _lll_columns(cols):
    """Size-reduce the coordinate columns of a vertex matrix.

    Works on the columns centered to mean zero (so translations do not skew
    the metric) but applies every integer operation to the true columns.
    """
    k = len(cols)
    if k <= 1:
        return [list(c) for c in cols]
    n = len(cols[0])
    b = [list(c) for c in cols]

    def centered(v):
        mean = Fraction(sum(v), n)
        return [Fraction(x) - mean for x in v]

    def gram():
        c = [centered(v) for v in b]
        gs: list[list[Fraction]] = []
        B: list[Fraction] = []
        mu = [[Fraction(0)] * k for _ in range(k)]
        for i in range(k):
            v = list(c[i])
            for j in range(i):
                mu[i][j] = _dot(c[i], gs[j]) / B[j]
                v = [x - mu[i][j] * y for x, y in zip(v, gs[j])]
            gs.append(v)
            B.append(_dot(v, v))
        return mu, B

    i = 1
    guard = 0
    while i < k:
        guard += 1
        if guard > 10_000:
            break
        mu, B = gram()
        for j in range(i - 1, -1, -1):
            q = round(mu[i][j])
            if q:
                b[i] = [x - q * y for x, y in zip(b[i], b[j])]
                mu, B = gram()
        if B[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * B[i - 1]:
            i += 1
        else:
            b[i], b[i - 1] = b[i - 1], b[i]
            i = max(i - 1, 1)
    return b


@dataclass(frozen=True)
class LatticeSimplex:
    """d+1 affinely independent integer points in Z^d."""

    d: int
    vertices: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        d = as_int(self.d)
        vertices = tuple(tuple(map(as_int, v)) for v in self.vertices)
        if d < 0:
            raise ValueError("dimension must be nonnegative")
        if len(vertices) != d + 1:
            raise ValueError(f"need exactly {d + 1} vertices")
        for v in vertices:
            if len(v) != d:
                raise ValueError("vertex length does not match the dimension")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "vertices", vertices)
        det, adj = _det_adjugate(self.bordered())
        if det == 0:
            raise DegenerateSimplex("vertices are affinely dependent")
        # kept outside the fields, so equality, hashing and JSON ignore them
        object.__setattr__(self, "_det", det)
        object.__setattr__(self, "_adj", adj)

    def bordered(self) -> list[list[int]]:
        return [list(v) + [1] for v in self.vertices]

    def normalized_volume(self) -> int:
        return abs(self._det)

    def to_json(self) -> dict:
        return {"d": self.d, "vertices": [list(v) for v in self.vertices]}

    @classmethod
    def from_json(cls, obj: dict) -> "LatticeSimplex":
        """A simplex whose residue group would pass the coordinate budget
        of a realization is refused before the degeneracy check, whose
        elimination grows as d^3."""
        d = as_int(obj["d"])
        if d + 1 > MAX_REALIZE_COORDINATES:
            raise BudgetExceeded(
                f"the residue group of a {d}-simplex has {d + 1} "
                f"coordinates, more than the budget of "
                f"{MAX_REALIZE_COORDINATES}")
        return cls(d, int_rows(obj["vertices"], "vertices"))


@dataclass(frozen=True)
class EhrhartTable:
    """counts[n] = number of lattice points in the n-th dilation."""

    counts: tuple[int, ...]

    def to_json(self) -> list[int]:
        return list(self.counts)


def realize_vertices(G: LambdaGroup) -> LatticeSimplex:
    """Integer vertices of a simplex whose residue group is G.

    Only the unimodular equivalence class (with the vertex order preserved)
    is pinned down; coordinates are skew reduced to keep dilations small.
    A group on more than ``MAX_REALIZE_COORDINATES`` coordinates is refused
    before any work.
    """
    e = G.e
    if e > MAX_REALIZE_COORDINATES:
        raise BudgetExceeded(
            f"realization is budgeted to e <= {MAX_REALIZE_COORDINATES} "
            f"coordinates, not {e}")
    if not G.integer_sum:
        raise NonIntegralHeights("realization needs an integer-sum group")
    if e == 1:
        return LatticeSimplex(0, ((),))
    D = G.den
    stack = [[D if i == j else 0 for j in range(e)] for i in range(e)]
    stack += [list(g.nums) for g in G.generators]
    H, _ = hermite_normal_form(stack)
    basis = [list(H[i]) for i in range(e)]
    # the stack holds D * I, so the basis has full rank
    det, adj = _det_adjugate(basis)
    verts_full = []
    for row in adj:
        row = [D * x for x in row]
        if any(x % det for x in row):
            raise RankDeficient("unit vector is not integral in the overlattice")
        verts_full.append([x // det for x in row])
    base = verts_full[-1]
    edges = [[verts_full[i][j] - base[j] for j in range(e)]
             for i in range(e - 1)]
    S, _, V = smith_normal_form(edges)
    d = e - 1
    if any(S[i][i] == 0 for i in range(d)):
        raise RankDeficient("edge lattice is rank deficient")
    flats = []
    for row in edges:
        y = [sum(row[k] * V[k][j] for k in range(e)) for j in range(e)]
        if any(y[d:]):
            raise RankDeficient("edge image leaves the saturation")
        flats.append(y[:d])
    flats.append([0] * d)
    cols = [[flats[i][j] for i in range(e)] for j in range(d)]
    cols = _lll_columns(cols)
    mins = [min(col) for col in cols]
    vertices = tuple(tuple(cols[j][i] - mins[j] for j in range(d))
                     for i in range(e))
    return LatticeSimplex(d, vertices)


def lambda_from_vertices(simplex: LatticeSimplex) -> LambdaGroup:
    """Residue group of a simplex: Z^(d+1) B^-1 / Z^(d+1).

    x lies in it exactly when x @ B is integral, for B the bordered vertex
    matrix, so it is generated by the rows of B^-1 = adj / det mod 1.  Its
    order is |det|, so a table that ``groups`` would not admit is refused
    with GroupTooLarge before anything is closed.
    """
    det = simplex._det
    den = abs(det)
    groups._admit_table(den, simplex.d + 1,
                        f"the residue group of a simplex of volume {den}")
    sign = 1 if det > 0 else -1
    return close([ResidueVector(den, tuple(sign * x % den for x in row))
                  for row in simplex._adj])


def _count(coeffs, d: int, n: int, strict: bool) -> int:
    """L(n * simplex) from the coefficients of h*, or the interior count
    L(n * simplex°) = sum of h*_k C(n - (d + 1 - k) + d, d) when ``strict``
    (Ehrhart-Macdonald reciprocity), which is 0 at n = 0."""
    if strict:
        if n == 0:
            return 0
        return sum(h * comb(n - (d + 1 - k) + d, d)
                   for k, h in enumerate(coeffs))
    return sum(h * comb(n - k + d, d) for k, h in enumerate(coeffs))


def count_lattice_points(simplex: LatticeSimplex, n: int,
                         strict: bool = False) -> int:
    """Exact number of integer points in n * simplex (boundary included).

    ``strict`` counts interior points instead.  Sums the d + 1 terms of the
    closed form over h* of the simplex's residue group, so the group's
    order bounds the cost, as in ``lambda_from_vertices``.
    """
    n = as_int(n)
    if n < 0:
        raise ValueError("dilation must be nonnegative")
    coeffs = h_star(lambda_from_vertices(simplex)).coeffs
    return _count(coeffs, simplex.d, n, strict)


def ehrhart_table(simplex: LatticeSimplex, max_n: int) -> EhrhartTable:
    """Counts at n = 0..max_n, from h* of the simplex's residue group.

    A negative ``max_n``, or a table of more than ``MAX_COUNT_TERMS``
    terms, (max_n + 1)(d + 1), is refused before the group is closed.
    """
    max_n = as_int(max_n)
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    terms = (max_n + 1) * (simplex.d + 1)
    if terms > MAX_COUNT_TERMS:
        raise BudgetExceeded(
            f"counting up to n = {max_n} sums {terms} terms, more than the "
            f"budget of {MAX_COUNT_TERMS}")
    coeffs = h_star(lambda_from_vertices(simplex)).coeffs
    return EhrhartTable(tuple(_count(coeffs, simplex.d, n, False)
                              for n in range(max_n + 1)))


def h_star_from_counts(counts, d: int) -> HStarPolynomial:
    """Invert the Ehrhart series numerator from counts at n = 0..d.

    Any extra counts beyond d are cross-checked against the recovered
    polynomial; a negative or non-reproducing coefficient set means the
    counting or the realization is broken.  A negative ``d`` is refused.
    """
    if isinstance(counts, EhrhartTable):
        counts = counts.counts
    counts = list(map(as_int, counts))
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    if len(counts) < d + 1:
        raise InconsistentCounts(f"need counts for every n in 0..{d}")
    coeffs = []
    for k in range(d + 1):
        h = sum((-1) ** (k - j) * comb(d + 1, k - j) * counts[j]
                for j in range(k + 1))
        if h < 0:
            raise InconsistentCounts(f"coefficient of t^{k} is negative")
        coeffs.append(h)
    for m in range(len(counts)):
        if _count(coeffs, d, m, False) != counts[m]:
            raise InconsistentCounts(f"counts are not Ehrhart-consistent at n={m}")
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return HStarPolynomial(tuple(coeffs))


def min_interior_dilation(simplex: LatticeSimplex) -> int:
    """Least m with an interior lattice point in m * simplex.

    By reciprocity this is the codegree d + 1 - deg h*, read from the
    simplex's residue group.
    """
    return simplex.d + 1 - h_star(lambda_from_vertices(simplex)).degree()
