"""latsimplex benchmark: one closed-loop client per workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout.  The client sends the workload's requests
one after another, each only when the previous one has returned, and goes
through the whole request list (one pass) as often as fits in ``--seconds``,
at least once.  Every answer is checked; see workloads.py and README.md.

``--trace 0`` reports the end-to-end metrics, from each request's fastest
call in the run.  ``--trace 1`` makes one untraced pass, then traced
passes, and reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from env import SetupError, describe, pin

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("search", "pipeline", "roundtrip", "ehrhart",
                            "analyze"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def measure_setup(workload, seed):
    """Median time from spawning a fresh interpreter to its ready line."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or not line.startswith("ready"):
            raise SetupError(f"set-up probe failed with exit code {code}")
        times.append(dt)
    return statistics.median(times)


class Pass:
    """Outcome of one pass over the request list."""

    def __init__(self, latencies_ns, failures):
        self.latencies_ns = latencies_ns  # one per request, in list order
        self.failures = failures  # [(request key, reason)]

    @property
    def wall_ns(self):
        return sum(self.latencies_ns)


def run_pass(requests, expected, tracer=None):
    """Send each request once and check its answer.

    A request's latency is the time of its call alone: copying its inputs
    before and hashing its answer after are left off the clock.
    """
    import workloads

    latencies = []
    failures = []
    for req in requests:
        call = req.prepare()
        t0 = perf_counter_ns()
        try:
            try:
                answer = (call() if tracer is None
                          else tracer.span("request", call))
            finally:
                latencies.append(perf_counter_ns() - t0)
            got = workloads.digest(answer)
            want = expected.get(req.key)
            if want is not None and got != want:
                raise workloads.WrongAnswer(
                    f"answer digest {got} != {want}")
        except Exception as exc:  # a failed request is counted, not fatal
            failures.append((req.key, f"{type(exc).__name__}: {exc}"))
    return Pass(latencies, failures)


def run_passes(requests, expected, seconds, started, tracer_factory=None):
    """Passes until another one would end past ``started + seconds``."""
    passes = []
    lengths = []
    while True:
        tracer = tracer_factory() if tracer_factory else None
        if tracer is not None:
            tracer.install()
        t0 = perf_counter()
        try:
            passes.append((run_pass(requests, expected, tracer), tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        now = perf_counter()
        lengths.append(now - t0)
        if now - started + statistics.median(lengths) > seconds:
            return passes


def end_to_end(passes, setup_s):
    """End-to-end metrics from each request's best latency over the passes.

    A shared host can slow a process by 40 % or more for stretches of
    seconds to minutes, and never speeds it up, so the fastest of a
    request's calls in a run is its steadiest measure; a run calls every
    request many times, spread over the whole run.
    """
    best_ns = [min(lat) for lat in
               zip(*(p.latencies_ns for p, _ in passes))]
    best_ms = [ns / 1e6 for ns in best_ns]
    deciles = statistics.quantiles(best_ms, n=10, method="inclusive")
    return {
        "wall_s": (sum(best_ns) / 1e9, "s"),
        "req_p50_ms": (statistics.median(best_ms), "ms"),
        "req_p90_ms": (deciles[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def per_layer(traced, untraced_wall_ns):
    """Per-layer metrics and accounting problems from the traced passes."""
    import spans as sp

    problems = []
    summaries = []
    for p, tracer in traced:
        totals = sp.summarize(tracer.spans)
        summaries.append(totals)
        problems += sp.enumerate_accounting(tracer.spans)
        request = totals.get("request", {"time_ns": 0})
        self_sum = sum(t["self_ns"] for t in totals.values())
        if self_sum != request["time_ns"]:
            problems.append(f"self times sum to {self_sum} ns, requests "
                            f"took {request['time_ns']} ns")
        # what the clock sees beyond the request span: entering the span
        if abs(p.wall_ns - self_sum) > 0.001 * p.wall_ns:
            problems.append(f"self times {self_sum} ns leave more than 0.1 % "
                            f"of the traced wall {p.wall_ns} ns unaccounted")

    def med_s(name, key):
        return statistics.median(s.get(name, {}).get(key, 0)
                                 for s in summaries) / 1e9

    first = summaries[0]

    def calls(name):
        return first.get(name, {}).get("calls", 0)

    def notes(name):
        return first.get(name, {}).get("notes", [])

    def ratio(num, den):
        return num / den if den else 0.0

    examined = sum(n["closuresExamined"]
                   for n in notes("classify.enumerate_groups"))
    extend_ok = sum(notes("kernels.extend_closure"))
    boxes = notes("kernels.count_box_points")
    box_points = sum(b for b, _ in boxes)
    counted = sum(c for _, c in boxes)
    counts = {
        "classify.enumerate_groups.calls": calls("classify.enumerate_groups"),
        "classify.candidates_per_closure":
            ratio(calls("kernels.extend_closure"), examined),
        "kernels.extend_closure.calls": calls("kernels.extend_closure"),
        "kernels.extend_closure.accept_ratio":
            ratio(extend_ok, calls("kernels.extend_closure")),
        "groups.canonical_form.calls": calls("groups.canonical_form"),
        "geometry.realize_vertices.calls": calls("geometry.realize_vertices"),
        "kernels.count_box_points.calls": calls("kernels.count_box_points"),
        "kernels.count_box_points.box_points": box_points,
        "kernels.count_box_points.hit_ratio": ratio(counted, box_points),
        "cayley.max_cayley_blocks.calls": calls("cayley.max_cayley_blocks"),
        "kernels.closure_table.calls": calls("kernels.closure_table"),
        "kernels.closure_table.cells": sum(notes("kernels.closure_table")),
    }
    for later in summaries[1:]:
        for name, entry in first.items():
            other = later.get(name, {"calls": -1, "notes": []})
            if (entry["calls"] != other["calls"]
                    or entry["notes"] != other["notes"]):
                problems.append(f"{name}: counts differ between passes")
    traced_wall = statistics.median(p.wall_ns for p, _ in traced)
    metrics = {
        "classify.enumerate_groups.self_s":
            med_s("classify.enumerate_groups", "self_ns"),
        "kernels.extend_closure.time_s":
            med_s("kernels.extend_closure", "time_ns"),
        "groups.canonical_form.time_s":
            med_s("groups.canonical_form", "time_ns"),
        "geometry.realize_vertices.self_s":
            med_s("geometry.realize_vertices", "self_ns"),
        "geometry.hermite_normal_form.time_s":
            med_s("geometry.hermite_normal_form", "time_ns"),
        "geometry.smith_normal_form.time_s":
            med_s("geometry.smith_normal_form", "time_ns"),
        "geometry.lambda_from_vertices.self_s":
            med_s("geometry.lambda_from_vertices", "self_ns"),
        "kernels.count_box_points.time_s":
            med_s("kernels.count_box_points", "time_ns"),
        "cayley.max_cayley_blocks.time_s":
            med_s("cayley.max_cayley_blocks", "time_ns"),
        "kernels.closure_table.time_s":
            med_s("kernels.closure_table", "time_ns"),
        "request.self_s": med_s("request", "self_ns"),
        "trace.overhead_ratio": traced_wall / untraced_wall_ns,
    }
    out = {name: (value, "count") for name, value in counts.items()}
    for name in ("classify.candidates_per_closure",
                 "kernels.extend_closure.accept_ratio",
                 "kernels.count_box_points.hit_ratio"):
        out[name] = (counts[name], "ratio")
    for name, value in metrics.items():
        out[name] = (value, "ratio" if name.endswith("ratio") else "s")
    return out, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        latsimplex = pin()
        setup_s = (measure_setup(args.workload, args.seed)
                   if args.trace == 0 else None)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import spans
    import workloads

    requests = workloads.build(args.workload, args.seed)
    # keys are prefixed by request type, so they are unique across tables
    expected = {key: got for table in json.loads(
        workloads.ANSWERS_FILE.read_text()).values()
        for key, got in table.items()}
    meta = describe(latsimplex)
    meta.update(workload=args.workload, seed=args.seed, trace=args.trace,
                requests=len(requests),
                checked=sum(r.key in expected for r in requests))

    started = perf_counter()
    problems = []
    if args.trace == 0:
        passes = run_passes(requests, expected, args.seconds, started)
        metrics = end_to_end(passes, setup_s)
    else:
        untraced = run_pass(requests, expected)
        passes = run_passes(requests, expected, args.seconds, started,
                            spans.Tracer)
        metrics, problems = per_layer(passes, untraced.wall_ns)
        passes.append((untraced, None))
        left = spans.installed_wrappers()
        if left:
            problems.append("wrappers left installed: " + ", ".join(left))

    attempted = sum(len(p.latencies_ns) for p, _ in passes)
    failures = [f for p, _ in passes for f in p.failures]
    meta.update(passes=len(passes), fail_ratio=len(failures) / attempted)
    for key, reason in failures[:20]:
        print(f"FAILED {key}: {reason}")
    for problem in problems:
        print(f"CHECK {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {name:40s} {value:16.6f} {unit}")
    print(f"{args.workload:10s} {'fail_ratio':40s} "
          f"{meta['fail_ratio']:16.6f} ratio")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
