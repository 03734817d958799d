"""The benchmark's own calls into the library, against its recorded answers.

``perfbench/workloads.py`` is imported as it is, without changes, so a
change to an API the benchmark calls, or to an answer it records, fails
here before a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_recorded_answers(name, requests_count, keys_count):
    workloads = _workloads()
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
