"""Outside-in spans around the public entry points of each latsimplex layer.

``Tracer.install()`` replaces every module-level binding of each traced
function inside the ``latsimplex`` package (``classify`` imports
``canonical_form`` by name and ``geometry`` imports ``close`` by name, so
patching the defining module alone would miss calls) with a wrapper that
records one span: name, start, end and parent.  ``Tracer.uninstall()`` puts
the original objects back.  The package itself is not edited.

A span's self time is its duration minus the durations of its direct
children.  Summed over a request's span tree the self times telescope to the
request's duration exactly, in integer nanoseconds.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

# (span name, defining module, function name)
TRACED = (
    ("classify.enumerate_groups", "latsimplex.classify", "enumerate_groups"),
    ("kernels.closure_table", "latsimplex._kernels", "closure_table"),
    ("kernels.extend_closure", "latsimplex._kernels", "extend_closure"),
    ("kernels.count_box_points", "latsimplex._kernels", "count_box_points"),
    ("groups.close", "latsimplex.groups", "close"),
    ("groups.canonical_form", "latsimplex.groups", "canonical_form"),
    ("geometry.hermite_normal_form", "latsimplex.geometry",
     "hermite_normal_form"),
    ("geometry.smith_normal_form", "latsimplex.geometry", "smith_normal_form"),
    ("geometry.realize_vertices", "latsimplex.geometry", "realize_vertices"),
    ("geometry.lambda_from_vertices", "latsimplex.geometry",
     "lambda_from_vertices"),
    ("geometry.count_lattice_points", "latsimplex.geometry",
     "count_lattice_points"),
    ("cayley.max_cayley_blocks", "latsimplex.cayley", "max_cayley_blocks"),
)


def _package_modules():
    return [m for key, m in sorted(sys.modules.items())
            if m is not None
            and (key == "latsimplex" or key.startswith("latsimplex."))]


def _extend_note(args, kwargs, result):
    return result[0] == 0  # STATUS_OK: the row was accepted


def _count_note(args, kwargs, result):
    lows, highs = args[2], args[3]
    box = 1
    for lo, hi in zip(lows, highs):
        box *= hi - lo + 1
    return box, result


def _closure_note(args, kwargs, result):
    status, elements = result
    return len(elements) * args[1] if status == 0 else 0


def _enumerate_note(args, kwargs, result):
    return dict(result.counters)


# per-span annotations taken from the call's arguments and result
NOTES = {
    "kernels.extend_closure": _extend_note,
    "kernels.count_box_points": _count_note,
    "kernels.closure_table": _closure_note,
    "classify.enumerate_groups": _enumerate_note,
}


WRAPPER_QUALNAME = "Tracer._wrapper.<locals>.traced"


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent_index, note]
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        spans = self.spans
        stack = self._stack
        index = len(spans)
        record = [name, 0, 0, stack[-1] if stack else -1, None]
        spans.append(record)
        stack.append(index)
        record[1] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter_ns()
            stack.pop()
        note = NOTES.get(name)
        if note is not None:
            record[4] = note(args, kwargs, result)
        return result

    def _wrapper(self, name, fn):
        span = self.span

        def traced(*args, **kwargs):
            return span(name, fn, *args, **kwargs)

        return traced

    def install(self):
        """Replace every package binding of each traced function."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for name, module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrapper(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched = []


def installed_wrappers():
    """Bindings in the latsimplex package that are still tracer wrappers."""
    return [f"{module.__name__}.{attr}"
            for module in _package_modules()
            for attr, value in vars(module).items()
            if getattr(value, "__qualname__", "") == WRAPPER_QUALNAME]


def summarize(spans):
    """Per-name totals from one pass's spans.

    Returns ``{name: {"calls", "time_ns", "self_ns", "notes"}}``.
    ``time_ns`` counts only outermost spans of a name, so a function that
    re-enters itself is not counted twice.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = {}
    for i, (name, start, end, parent, note) in enumerate(spans):
        entry = totals.setdefault(
            name, {"calls": 0, "time_ns": 0, "self_ns": 0, "notes": []})
        entry["calls"] += 1
        entry["self_ns"] += end - start - child_ns[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            entry["time_ns"] += end - start
        if note is not None:
            entry["notes"].append(note)
    return totals


def enumerate_accounting(spans):
    """Check each enumerate_groups call against the extend calls under it.

    For every call, the number of ``kernels.extend_closure`` spans below it
    must equal closuresExamined + prunedByWeight + prunedByDegree +
    prunedByOrder + dedupedStates from its report.  Returns a list of
    mismatch descriptions (empty when every call balances).
    """
    extends_below = {}
    for name, _, _, parent, _ in spans:
        if name != "kernels.extend_closure":
            continue
        p = parent
        while p >= 0:
            if spans[p][0] == "classify.enumerate_groups":
                extends_below[p] = extends_below.get(p, 0) + 1
                break
            p = spans[p][3]
    problems = []
    for i, (name, _, _, _, note) in enumerate(spans):
        if name != "classify.enumerate_groups":
            continue
        expected = (note["closuresExamined"] + note["prunedByWeight"]
                    + note["prunedByDegree"] + note["prunedByOrder"]
                    + note["dedupedStates"])
        got = extends_below.get(i, 0)
        if got != expected:
            problems.append(f"enumerate_groups span {i}: {got} extend calls, "
                            f"report accounts for {expected}")
    return problems
