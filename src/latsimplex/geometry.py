"""Bridge between residue groups and integer vertex coordinates.

``realize_vertices`` turns an integer-sum group into a concrete lattice
simplex by expressing the unit vectors in a basis of the overlattice the
group defines, flattening the common affine hyperplane onto Z^d, and skew
reducing the coordinates so box point counting stays within budget.
``lambda_from_vertices`` inverts the construction from the bordered vertex
matrix.  All arithmetic is exact.  Matrices here are tiny, so the normal
forms, the determinant and the adjugate use integer eliminations with no
modular tricks; only the lattice reduction's Gram-Schmidt uses fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, prod

from . import _kernels
from .errors import (
    BudgetExceeded,
    DegenerateSimplex,
    InconsistentCounts,
    NonIntegralHeights,
    RankDeficient,
)
from .groups import (
    DEFAULT_MAX_ORDER,
    HStarPolynomial,
    LambdaGroup,
    close,
    trivial_group,
)
from .residues import ResidueVector, as_int, int_rows

DEFAULT_MAX_COUNT_DIMENSION = 8
DEFAULT_MAX_DILATION = 20
# the most points of the box a count may walk: every side but the last,
# which is counted as an interval
MAX_BOX_POINTS = 1 << 18
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


def hermite_normal_form(mat):
    """Row-style Hermite normal form: returns (H, U) with H = U @ mat.

    H is upper staircase with positive pivots and entries above each pivot
    reduced into [0, pivot); U is unimodular.  Zero rows sink to the bottom.
    """
    rows = [list(map(int, r)) for r in mat]
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
        for i in range(r0 + 1, m):
            b = rows[i][c]
            if b == 0:
                continue
            a = rows[r0][c]
            if b % a == 0:
                # plain reduction keeps the pivot row untouched
                q = b // a
                rows[i] = [u - q * v for u, v in zip(rows[i], rows[r0])]
                U[i] = [u - q * v for u, v in zip(U[i], U[r0])]
                continue
            g, x, y = _xgcd(a, b)
            p, q = -(b // g), a // g
            new_top = [x * u + y * v for u, v in zip(rows[r0], rows[i])]
            new_bot = [p * u + q * v for u, v in zip(rows[r0], rows[i])]
            rows[r0], rows[i] = new_top, new_bot
            new_top = [x * u + y * v for u, v in zip(U[r0], U[i])]
            new_bot = [p * u + q * v for u, v in zip(U[r0], U[i])]
            U[r0], U[i] = new_top, new_bot
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
    are unimodular.
    """
    A = [list(map(int, row)) for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    U = _identity(m)
    V = _identity(n)

    def row_combine(i, j, a, b, c, d):
        ri = [a * p + b * q for p, q in zip(A[i], A[j])]
        rj = [c * p + d * q for p, q in zip(A[i], A[j])]
        A[i], A[j] = ri, rj
        ri = [a * p + b * q for p, q in zip(U[i], U[j])]
        rj = [c * p + d * q for p, q in zip(U[i], U[j])]
        U[i], U[j] = ri, rj

    def col_combine(i, j, a, b, c, d):
        for row in (A, V):
            for r in row:
                p, q = r[i], r[j]
                r[i] = a * p + b * q
                r[j] = c * p + d * q

    for t in range(min(m, n)):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (piv is None or
                                     abs(A[i][j]) < abs(A[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            A[t], A[piv[0]] = A[piv[0]], A[t]
            U[t], U[piv[0]] = U[piv[0]], U[t]
        if piv[1] != t:
            for row in (A, V):
                for r in row:
                    r[t], r[piv[1]] = r[piv[1]], r[t]
        while True:
            clean = True
            for i in range(t + 1, m):
                b = A[i][t]
                if b == 0:
                    continue
                a = A[t][t]
                if b % a == 0:
                    # plain reduction never dirties the pivot row
                    q = b // a
                    A[i] = [p - q * v for p, v in zip(A[i], A[t])]
                    U[i] = [p - q * v for p, v in zip(U[i], U[t])]
                else:
                    g, x, y = _xgcd(a, b)
                    row_combine(t, i, x, y, -(b // g), a // g)
                    clean = False
            for j in range(t + 1, n):
                b = A[t][j]
                if b == 0:
                    continue
                a = A[t][t]
                if b % a == 0:
                    q = b // a
                    for rows_ in (A, V):
                        for r in rows_:
                            r[j] -= q * r[t]
                else:
                    g, x, y = _xgcd(a, b)
                    col_combine(t, j, x, y, -(b // g), a // g)
                    clean = False
            if not clean:
                continue
            # divisibility: A[t][t] must divide everything that remains
            fix = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % A[t][t] != 0:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            row_combine(t, fix, 1, 1, 0, 1)
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
    return tuple(map(tuple, A)), tuple(map(tuple, U)), tuple(map(tuple, V))


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
        if self.d < 0:
            raise ValueError("dimension must be nonnegative")
        if len(self.vertices) != self.d + 1:
            raise ValueError(f"need exactly {self.d + 1} vertices")
        for v in self.vertices:
            if len(v) != self.d:
                raise ValueError("vertex length does not match the dimension")
        if _det_adjugate(self.bordered())[0] == 0:
            raise DegenerateSimplex("vertices are affinely dependent")

    def bordered(self) -> list[list[int]]:
        return [list(v) + [1] for v in self.vertices]

    def normalized_volume(self) -> int:
        return abs(_det_adjugate(self.bordered())[0])

    def to_json(self) -> dict:
        return {"d": self.d, "vertices": [list(v) for v in self.vertices]}

    @classmethod
    def from_json(cls, obj: dict) -> "LatticeSimplex":
        return cls(as_int(obj["d"]),
                   tuple(int_rows(obj["vertices"], "vertices")))


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


def lambda_from_vertices(simplex: LatticeSimplex,
                         max_order: int = DEFAULT_MAX_ORDER) -> LambdaGroup:
    """Residue group of a simplex, from the bordered vertex matrix."""
    n = simplex.d + 1
    S, U, _ = smith_normal_form(simplex.bordered())
    diag = [S[i][i] for i in range(n)]
    if any(x == 0 for x in diag):
        raise DegenerateSimplex("vertices are affinely dependent")
    L = 1
    for x in diag:
        L = lcm(L, x)
    gens = []
    for i in range(n):
        s = diag[i]
        if s == 1:
            continue
        k = L // s
        gens.append(ResidueVector(L, tuple((U[i][j] * k) % L
                                           for j in range(n))))
    if not gens:
        return trivial_group(n)
    return close(gens, max_order=max_order)


def check_count_budget(d: int, n: int, max_d: int, max_n: int) -> None:
    """Refuse a count in dimension ``d`` at dilation ``n`` past the budget."""
    if d > max_d or n > max_n:
        raise BudgetExceeded(
            f"counting is budgeted to d <= {max_d} and n <= {max_n}")


def count_lattice_points(simplex: LatticeSimplex, n: int,
                         max_d: int = DEFAULT_MAX_COUNT_DIMENSION,
                         max_n: int = DEFAULT_MAX_DILATION,
                         strict: bool = False) -> int:
    """Exact number of integer points in n * simplex (boundary included).

    ``strict`` counts interior points instead.  Walks the bounding box of
    the dilation coordinate by coordinate, keeping only the values for which
    every integral barycentric coordinate can still end up nonnegative
    (positive when ``strict``), and counts the last coordinate as an integer
    interval; see ``_kernels.count_box_points``.  A walked box of more than
    ``MAX_BOX_POINTS`` points is refused before counting.
    """
    if n < 0:
        raise ValueError("dilation must be nonnegative")
    check_count_budget(simplex.d, n, max_d, max_n)
    if n == 0:
        return 0 if strict else 1
    if simplex.d == 0:
        return 1
    lows = [n * min(v[j] for v in simplex.vertices) for j in range(simplex.d)]
    highs = [n * max(v[j] for v in simplex.vertices) for j in range(simplex.d)]
    walked = prod(hi - lo + 1 for lo, hi in zip(lows[:-1], highs[:-1]))
    if walked > MAX_BOX_POINTS:
        raise BudgetExceeded(
            f"counting at n = {n} walks {walked} box points, more than "
            f"the budget of {MAX_BOX_POINTS}")
    bordered = simplex.bordered()
    det, adj = _det_adjugate(bordered)
    det_sign = 1 if det > 0 else -1
    return _kernels.count_box_points(adj, det_sign, lows, highs, n, strict)


def ehrhart_table(simplex: LatticeSimplex, max_n: int,
                  max_d: int = DEFAULT_MAX_COUNT_DIMENSION,
                  budget_max_n: int = DEFAULT_MAX_DILATION) -> EhrhartTable:
    """Counts at n = 0..max_n; a table past the budget is refused at once."""
    check_count_budget(simplex.d, max_n, max_d, budget_max_n)
    counts = tuple(count_lattice_points(simplex, n, max_d=max_d,
                                        max_n=budget_max_n)
                   for n in range(max_n + 1))
    return EhrhartTable(counts)


def h_star_from_counts(counts, d: int) -> HStarPolynomial:
    """Invert the Ehrhart series numerator from counts at n = 0..d.

    Any extra counts beyond d are cross-checked against the recovered
    polynomial; a negative or non-reproducing coefficient set means the
    counting or the realization is broken.
    """
    if isinstance(counts, EhrhartTable):
        counts = counts.counts
    counts = [int(c) for c in counts]
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
        pred = sum(coeffs[k] * comb(m - k + d, d)
                   for k in range(min(m, d) + 1))
        if pred != counts[m]:
            raise InconsistentCounts(f"counts are not Ehrhart-consistent at n={m}")
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return HStarPolynomial(tuple(coeffs))


def min_interior_dilation(simplex: LatticeSimplex, limit: int | None = None,
                          max_d: int = DEFAULT_MAX_COUNT_DIMENSION) -> int:
    """Least m with an interior lattice point in m * simplex."""
    if limit is None:
        limit = simplex.d + 1
    for m in range(1, limit + 1):
        if count_lattice_points(simplex, m, max_d=max_d,
                                max_n=max(limit, DEFAULT_MAX_DILATION),
                                strict=True) > 0:
            return m
    raise InconsistentCounts(
        f"no interior point up to dilation {limit}; simplex data is broken")
