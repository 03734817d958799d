"""The benchmark's own calls into the library, against its recorded answers.

``perfbench/workloads.py`` is imported as it is, without changes, so a
change to an API the benchmark calls fails here before a benchmark run.
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


def test_analyze_requests_match_recorded_answers():
    workloads = _workloads()
    answers = json.loads(workloads.ANSWERS_FILE.read_text())["analyze"]
    requests = workloads.analyze_requests()
    assert len(requests) == 125
    for req in requests:
        assert workloads.digest(req.run()) == answers[req.key], req.key
