"""The benchmark's own calls into the library, against its recorded answers.

``perfbench/workloads.py`` and ``perfbench/spans.py`` are imported as they
are, without changes, so a change to an API the benchmark calls or traces,
to an answer it records, or to the accounting its traced runs check fails
here before a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_recorded_answers(name, requests_count, keys_count):
    workloads = _load("workloads")
    answers = json.loads(workloads.ANSWERS_FILE.read_text())[name]
    assert len(answers) == keys_count
    requests = workloads.BUILDERS[name]()
    assert len(requests) == requests_count
    assert {req.key for req in requests} == set(answers)
    for req in requests:
        assert workloads.digest(req.run()) == answers[req.key], req.key


def test_analyze_requests_match_recorded_answers():
    _check_recorded_answers("analyze", 125, 122)


def test_search_requests_match_recorded_answers():
    _check_recorded_answers("search", 18, 18)


def test_roundtrip_requests_match_recorded_answers():
    _check_recorded_answers("roundtrip", 204, 191)


def test_ehrhart_requests_match_recorded_answers():
    _check_recorded_answers("ehrhart", 107, 103)


def _check_traced_passes(name):
    """Two traced passes, checked as ``run.py --trace 1`` checks them,
    except for its share of unaccounted wall time, which depends on
    timing."""
    workloads, spans = _load("workloads"), _load("spans")
    answers = json.loads(workloads.ANSWERS_FILE.read_text())[name]
    requests = workloads.BUILDERS[name]()
    passes = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            for req in requests:
                answer = tracer.span("request", req.prepare())
                if req.key in answers:
                    assert workloads.digest(answer) == answers[req.key], \
                        req.key
        finally:
            tracer.uninstall()
        assert spans.enumerate_accounting(tracer.spans) == []
        totals = spans.summarize(tracer.spans)
        assert (sum(t["self_ns"] for t in totals.values())
                == totals["request"]["time_ns"])
        passes.append({span: (t["calls"], t["notes"])
                       for span, t in totals.items()})
    assert passes[0] == passes[1]
    assert spans.installed_wrappers() == []


def test_traced_search_passes_balance():
    _check_traced_passes("search")


def test_traced_ehrhart_passes_balance():
    _check_traced_passes("ehrhart")


def test_traced_roundtrip_passes_balance():
    _check_traced_passes("roundtrip")


def test_traced_analyze_passes_balance():
    _check_traced_passes("analyze")
