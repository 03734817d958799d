"""Check that a workload's per-layer counts repeat exactly across runs.

    python3 perfbench/repeat.py <workload> <seed> [<seconds>]

Runs the traced benchmark twice for the same seed, each in its own process,
and compares every per-layer count and ratio (all metrics whose unit is not
seconds, except trace.overhead_ratio, which is a timing).  Exits 1 and
names the metrics that differ, or a run that was not correct.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv):
    workload, seed = argv[0], int(argv[1])
    seconds = int(argv[2]) if len(argv) > 2 else 1
    runs = [traced_run(workload, seed, seconds) for _ in range(2)]
    if not all(r["correct"] for r in runs):
        print(f"{workload} seed {seed}: a traced run was not correct")
        return 1
    counts = [{name: m["value"] for name, m in r["metrics"].items()
               if m["unit"] != "s" and name != "trace.overhead_ratio"}
              for r in runs]
    differ = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
    for name in differ:
        print(f"{workload} seed {seed}: {name} {counts[0][name]} "
              f"!= {counts[1][name]}")
    if not differ:
        print(f"{workload} seed {seed}: {len(counts[0])} counts repeat "
              "exactly")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
