"""Set-up probe: one fresh interpreter imports latsimplex and builds a
workload's inputs, then reports that the first request is ready.

    python3 perfbench/probe.py <workload> <seed>

``run.py`` times it from process start to the ``ready`` line.
"""

import sys

from env import pin

pin()

import workloads  # noqa: E402

requests = workloads.build(sys.argv[1], int(sys.argv[2]))
print("ready", len(requests), flush=True)
