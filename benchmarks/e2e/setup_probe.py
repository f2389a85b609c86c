"""What a fresh process does before its first operation can start.

    python3 benchmarks/e2e/setup_probe.py --workload paper230 --seed 42

``run.py`` spawns this a few times and times each from spawn to exit: start
Python, ``import repro``, generate the workload's ``SessionConfig``,
``build()`` the session.  The host's speed is measured from inside, while the
imports and the build run, and printed as one JSON line for the parent to
scale by: a probe in the parent, which only waits, ran on a core that kept
falling idle and read up to three times slow.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
sys.path[:0] = [path for path in (SRC, HERE) if path not in sys.path]

import hostspeed  # noqa: E402  (stdlib only: nothing of the program is imported yet)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    with hostspeed.HostSpeedProbe() as probe:
        import workloads  # the program's imports are part of what is timed

        workload = workloads.WORKLOADS[args.workload]
        with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as workdir:
            # ``build()`` opens the telemetry workload's trace file.
            workload.session(workload.make_config(args.seed, args.quick, workdir)).build()
    print(json.dumps({"probe_wall_s": probe.wall_s, "slowdown": probe.slowdown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
