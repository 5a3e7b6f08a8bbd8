"""One repetition of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --tmp DIR

``run.py`` starts this script once per repetition.  The record holds
``ready_at`` (``time.monotonic()`` once imports are done and the inputs are
built, so the parent can take the set-up time from the moment it started
the process), the wall and CPU time of the public call, ``calib_s`` (the
mean time of :func:`reference_kernel_s` just before and just after that
call), the process's peak resident memory, the SHA-256 of the output, the
problems the output check found and, with ``--trace 1``, the per-layer
metrics of the traced call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
KERNEL_ITERATIONS = 30_000


def _kernel_part(iterations: int) -> None:
    x = np.linspace(0.5, 1.5, 256)
    acc = 0.0
    for _ in range(iterations):
        a = x * 1.0000001
        x = a - 1e-9 * np.sqrt(np.abs(a))
        acc += math.sqrt(abs(float(x[3])))


def reference_kernel_s(threads: int) -> float:
    """Seconds this process takes for a fixed mix of interpreter and small-NumPy work.

    The mix (short array arithmetic plus scalar Python per iteration) is what
    sdestep's stepping loops do, and it does not involve sdestep, so no change
    to the program moves it.  It is split over ``threads`` threads the way a
    study splits its batches, because two threads contending for the
    interpreter lock slow down differently from one.  On a shared machine
    its time swings with the other tenants' load the same way a
    repetition's does, which is what ``run.py`` divides out.
    """
    t0 = time.perf_counter()
    if threads == 1:
        _kernel_part(KERNEL_ITERATIONS)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(_kernel_part, [KERNEL_ITERATIONS // threads] * threads))
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="directory for the path workload's file")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sdestep

    if Path(sdestep.__file__).resolve().parent != (src / "sdestep").resolve():
        raise SystemExit(f"imported sdestep from {sdestep.__file__}, not from {src}")

    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    inputs = workload.prepare(args.seed, args.tmp, tracer)

    ready_at = time.monotonic()
    calib_before = reference_kernel_s(workload.threads)

    def timed_call():
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        result = workload.run(inputs)
        return result, time.perf_counter() - t0, time.process_time() - cpu0

    if tracer is None:
        result, wall_s, cpu_s = timed_call()
    else:
        with spans.installed(tracer, workload.fine_h), tracer.root(workload.root_span):
            result, wall_s, cpu_s = timed_call()
    calib_s = (calib_before + reference_kernel_s(workload.threads)) / 2

    # taken before the output check, which allocates; sdestep starts no
    # processes today, should it, its largest child's peak is added (Linux
    # reports no sum over children)
    peak_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    output = workload.output(inputs, result)
    problems = workload.check(output, args.seed)
    record = {
        "ready_at": ready_at,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "calib_s": calib_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "sha256": hashlib.sha256(output).hexdigest(),
        "problems": problems,
    }
    if tracer is not None:
        if workload.root_span == "cli.main":  # only the CLI workload writes a file
            tracer.count("cli.output_bytes", len(output))
        record["layers"] = spans.per_layer(spans.summarize(tracer.spans()), tracer.counters())
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
