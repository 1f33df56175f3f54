"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from ./src. One
process, one closed-loop client: each job starts when the previous one ends.
Jobs run in rounds (see inputs.py); --seconds sets how many, a fixed number
per second given, so a run is a fixed job list. Each
job's result goes through its oracle (oracles.py) outside the timed region.
Times are reported at a reference host speed: a fixed stdlib calibration loop
runs around and during each job, and the job's time is scaled by it (see
measure.py), because the shared host's own speed swings more than a change
to the code would move them.

--trace 0 prints the end-to-end metrics. --trace 1 runs a fixed job set twice,
untraced and then traced, and prints the per-layer metrics, the modulus sweep
and the tracing overhead. Lines before the last are for people: every metric
by name with its unit, and a record of the run (git sha, versions, nproc,
seed, sample counts). The last line is one JSON object with the keys correct,
attempted, failed and metrics. The record and the spans are also written to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("progressions", "algebra", "structure", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "voicegroup", "__init__.py")):
        print(f"error: no voicegroup sources under {src}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # the checkout's library and this package, never an installed copy
    sys.path[0:1] = [src, ROOT]
    from perfbench import bench

    return bench.run(args)


if __name__ == "__main__":
    sys.exit(main())
