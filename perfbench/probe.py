"""Set-up time of one workload in a fresh interpreter.

``python -m perfbench.probe <workload> <seed>`` prints the seconds spent
importing voicegroup and voicegroup.cli plus running the workload's warm-up
jobs, at the reference speed (see measure.py). Generating the warm-up
inputs and importing the benchmark's own job code are not counted.
"""

import statistics
import sys
import time

# Calibrations before and after the measured part; their median scales it.
PROBE_CALIBRATIONS = 4


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    from perfbench import inputs, measure

    warm = inputs.warmup_jobs(workload, seed)
    measure.calibration_s()  # the first call also pays for compiling the loop
    before = [measure.calibration_s() for _ in range(PROBE_CALIBRATIONS)]
    t0 = time.perf_counter()
    import voicegroup  # noqa: F401
    import voicegroup.cli  # noqa: F401

    t1 = time.perf_counter()
    from perfbench import jobs

    t2 = time.perf_counter()
    for job in warm:
        try:
            jobs.run(job)
        except Exception:  # the main process runs the same jobs and counts the failure
            pass
    t3 = time.perf_counter()
    after = [measure.calibration_s() for _ in range(PROBE_CALIBRATIONS)]
    seconds = (t1 - t0) + (t3 - t2)
    print(repr(seconds * measure.CAL_REF_S / statistics.median(before + after)))


if __name__ == "__main__":
    main()
