"""The hot inner loops, in plain Python.

Breadth-first closure of a generating set under coordinatewise addition
mod 1, its one-row incremental form, and lattice-point counting over an
integer box.  Tests compare the counter against a straight box scan kept
in ``tests/_support.py``.
"""

from __future__ import annotations

STATUS_OK = 0
STATUS_TOO_LARGE = 1
STATUS_WEIGHT = 2
STATUS_HEIGHT = 3


def active_backend() -> str:
    """Name of the kernel implementation; there is only the Python one."""
    return "python"


def closure_table(gens, e, den, cap, max_weight=-1, max_height_num=-1,
                  require_integral=False):
    """Close ``gens`` (numerator tuples mod ``den``) under addition.

    Returns ``(status, elements)`` where ``elements`` is the sorted table of
    all group elements (or None if a limit was violated).  Optional limits:
    ``max_weight`` caps the support size of every element, ``max_height_num``
    caps the numerator sum, and ``require_integral`` rejects any element
    whose numerator sum is not divisible by ``den``.
    """
    zero = (0,) * e
    seen = {zero}
    frontier = [zero]
    gens = [tuple(g) for g in gens]
    for g in gens:
        if len(g) != e:
            raise ValueError("generator length does not match e")
    while frontier:
        nxt = []
        for base in frontier:
            for g in gens:
                s = tuple((a + b) % den for a, b in zip(base, g))
                if s in seen:
                    continue
                total = sum(s)
                if require_integral and total % den != 0:
                    return STATUS_HEIGHT, None
                if max_height_num >= 0 and total > max_height_num:
                    return STATUS_HEIGHT, None
                if max_weight >= 0 and e - s.count(0) > max_weight:
                    return STATUS_WEIGHT, None
                seen.add(s)
                if len(seen) > cap:
                    return STATUS_TOO_LARGE, None
                nxt.append(s)
        frontier = nxt
    return STATUS_OK, sorted(seen)


def extend_closure(prev, row, e, den, cap, max_weight=-1, max_height_num=-1,
                   require_integral=False):
    """Close ``prev`` (an already closed, sorted group table) with one row.

    The extension is the union of the cosets ``prev + t*row`` for
    t = 0..ord-1, so violations surface after a handful of additions.
    Same status codes and limits as ``closure_table``.
    """
    base = set(prev)
    row = tuple(row)
    if len(row) != e:
        raise ValueError("row length does not match e")
    layers = []
    cur = row
    total_new = 0
    while cur not in base:
        layer = []
        for h in prev:
            s = tuple((a + b) % den for a, b in zip(h, cur))
            total = sum(s)
            if require_integral and total % den != 0:
                return STATUS_HEIGHT, None
            if max_height_num >= 0 and total > max_height_num:
                return STATUS_HEIGHT, None
            if max_weight >= 0 and e - s.count(0) > max_weight:
                return STATUS_WEIGHT, None
            layer.append(s)
        total_new += len(layer)
        if len(prev) + total_new > cap:
            return STATUS_TOO_LARGE, None
        layers.append(layer)
        cur = tuple((a + b) % den for a, b in zip(cur, row))
    out = list(prev)
    for layer in layers:
        out.extend(layer)
    out.sort()
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
