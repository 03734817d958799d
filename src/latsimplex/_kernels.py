"""The hot inner loops, in plain Python.

Closure of a generating set under coordinatewise addition mod 1, built one
generator at a time as a union of cosets.  A closure refused by its cap
never stores more than ``cap`` elements.  ``count_box_points``, a pruned
lattice-point walk over an integer box, is not called by the package, which
counts from h*: the tests count with it as an independent oracle, and
the benchmark's tracer wraps it by name.  Tests compare the closure against
a breadth-first search and the walk against a straight box scan, both kept
in ``tests/_support.py``.
"""

from __future__ import annotations

STATUS_OK = 0
STATUS_TOO_LARGE = 1


def active_backend() -> str:
    """Name of the kernel implementation; there is only the Python one."""
    return "python"


def closure_table(gens, e, den, cap):
    """Close ``gens`` (numerator tuples, entries in [0, den)) under addition.

    Returns ``(status, elements)`` where ``elements`` is the sorted table of
    all group elements, or None with ``STATUS_TOO_LARGE`` past ``cap``
    elements.  The table is the fold of ``extend_closure`` over the
    generators, starting from the trivial group, sorted once at the end.
    """
    table = [(0,) * e]
    for g in gens:
        status, table = extend_closure(table, g, e, den, cap)
        if status != STATUS_OK:
            return status, None
    table.sort()
    return STATUS_OK, table


def extend_closure(prev, row, e, den, cap):
    """Close ``prev`` (an already closed group table H) with one row y.

    Entries of ``prev`` and ``row`` lie in [0, den), so each sum of two is
    reduced mod den by a lookup in a table of 2 den entries.

    The extension is returned as its cosets in order: H as given, then
    y + H, 2y + H, ... up to (m - 1)y + H, each in the order of ``prev``,
    where m is the order of y modulo H.  So ``out[t*|H|:(t+1)*|H|]`` is the
    coset t*y + H, and the table is not sorted.  A coset that would take
    the table past ``cap`` is never built: the result is then
    ``(STATUS_TOO_LARGE, None)``.
    """
    base = set(prev)
    row = tuple(row)
    if len(row) != e:
        raise ValueError("row length does not match e")
    out = list(prev)
    cur = row
    wrap = list(range(den)) * 2
    while cur not in base:
        if len(out) + len(prev) > cap:
            return STATUS_TOO_LARGE, None
        out.extend(tuple([wrap[a + b] for a, b in zip(h, cur)])
                   for h in prev)
        cur = tuple([wrap[a + b] for a, b in zip(cur, row)])
    return STATUS_OK, out


def count_box_points(adj, det_sign, lows, highs, n, strict=False):
    """Count integer points of the dilation ``n * simplex`` inside a box.

    ``adj`` is the adjugate of the bordered vertex matrix (rows ``(v_i, 1)``),
    so for a point ``p`` the vector ``(p, n) @ adj`` equals ``det`` times the
    barycentric coordinates.  A point counts when every entry of
    ``det_sign * (p, n) @ adj`` is >= 0 (> 0 when ``strict``); all
    arithmetic is exact integer arithmetic.

    The box is walked one coordinate at a time.  ``reach[k][i]`` is the most
    that coordinates k..d-1 can still add to barycentric entry i, so at each
    depth only the integer interval of values that leaves every entry able
    to reach its threshold is visited.  At the last coordinate nothing
    remains to add, the interval is exact and it is counted, not scanned.
    """
    d = len(lows)
    if d == 0:
        return 1
    if any(lo > hi for lo, hi in zip(lows, highs)):
        return 0
    rows = [[det_sign * x for x in row] for row in adj]
    reach = [[0] * (d + 1)]
    for k in range(d - 1, -1, -1):
        lo, hi = lows[k], highs[k]
        reach.append([s + max(lo * r, hi * r)
                      for s, r in zip(reach[-1], rows[k])])
    reach.reverse()
    threshold = 1 if strict else 0

    def interval(t, k):
        # values x of coordinate k with t_i + x * r_i + reach >= threshold
        lo, hi = lows[k], highs[k]
        for ti, r, rest in zip(t, rows[k], reach[k + 1]):
            need = threshold - ti - rest
            if r > 0:
                lo = max(lo, -(-need // r))
            elif r < 0:
                hi = min(hi, need // r)
            elif need > 0:
                return 1, 0
        return lo, hi

    last = d - 1

    def walk(t, k):
        lo, hi = interval(t, k)
        if k == last:
            return max(0, hi - lo + 1)
        row = rows[k]
        t = [ti + lo * r for ti, r in zip(t, row)]
        total = 0
        for _ in range(lo, hi + 1):
            total += walk(t, k + 1)
            t = [ti + r for ti, r in zip(t, row)]
        return total

    return walk([n * r for r in rows[d]], 0)
