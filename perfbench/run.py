"""sdestep benchmark: time to a rendered table on three study shapes.

    python3 perfbench/run.py --workload vol32_study --seed 2024 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, so nothing needs installing.  Workloads (see ``workloads.py``):
``vol32_study``, ``toy2d_newton`` and ``vol32_path``.

A run is a closed loop of repetitions, each in a fresh Python process
started one after another (never two at once, and sdestep uses at most
``nproc`` threads inside one), until ``--seconds`` is spent; at least
three repetitions are made.  With ``--trace 0`` the run prints the
end-to-end metrics of ``BENCHMARK.json`` as medians over repetitions:

* ``wall_s``: from the call into the public entry point until the table
  is rendered or the path file written; set-up excluded.
* ``sample_steps_per_s``: M * (ref_steps + sum of N_l * |schemes|) /
  ``wall_s`` for a study, N / ``wall_s`` for the path.
* ``setup_s``: from starting the process until the inputs are built.
* ``peak_rss_mb``: peak resident memory of the repetition's process, plus
  the peak of its largest child process if the program starts any.

Times are corrected for the machine's speed at the moment.  On a shared
machine one repetition can take 50% longer than the one before it, for
minutes at a time, while its CPU time tracks its wall time: other tenants
slow the processor down rather than take it away.  So every repetition
also times a fixed reference kernel (``worker.reference_kernel_s``, which
does not involve sdestep) just before and just after its public call, and
each of its times is multiplied by ``reference_kernel_s`` of
``baseline.json`` over the kernel time it measured.  A time is thus in
seconds on this machine at the speed recorded in ``baseline.json``; the
uncorrected medians and the kernel's are printed above the result.

With ``--trace 1`` untraced and traced repetitions alternate, at least two
of each, and the run prints the per-layer metrics: medians of the traced
repetitions (times corrected the same way), exact counts (which must
repeat exactly), ``harness.cpu_per_wall`` from the untraced ones and
``trace.overhead_s``, the traced median ``wall_s`` minus the untraced one.

Every repetition's output is checked (``workloads.check_*``); for the seed
recorded in ``baseline.json`` its SHA-256 must match, and every
repetition of a run, traced or not, must produce the same bytes.  A
repetition that raised, exited non-zero or failed a check counts as
failed; ``failed_frac`` is failed / attempted.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
MIN_TRACED_REPS = 2
#: No repetition starts after this many seconds, so a run ends within 180 s.
LAST_START_S = 150.0
RUN_LIMIT_S = 175.0


def run_rep(workload: str, seed: int, trace: int, tmp: str, timeout: float) -> dict:
    """Start one worker process, wait for it and return its parsed record."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--tmp", tmp,
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"trace": trace, "error": f"timed out after {timeout:.0f} s",
                "duration": time.monotonic() - started}
    rep = {"trace": trace, "duration": time.monotonic() - started}
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        record = None
    if proc.returncode != 0 or record is None:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        rep["error"] = f"exit code {proc.returncode}: {tail}"
        return rep
    rep.update(record)
    rep["setup_s"] = record["ready_at"] - started
    if record["problems"]:
        rep["error"] = "output check: " + "; ".join(record["problems"][:3])
    return rep


def run_reps(workload: str, seed: int, seconds: float, trace: int, tmp: str) -> list[dict]:
    """Closed loop of repetitions until ``seconds`` are spent (with the minimums met)."""
    kinds = (0, 1) if trace else (0,)
    minimum = {0: MIN_TRACED_REPS, 1: MIN_TRACED_REPS} if trace else {0: MIN_REPS}
    reps: list[dict] = []
    t0 = time.monotonic()
    while True:
        kind = kinds[len(reps) % len(kinds)]
        elapsed = time.monotonic() - t0
        done = sum(1 for r in reps if r["trace"] == kind)
        same = [r["duration"] for r in reps if r["trace"] == kind] or [r["duration"] for r in reps]
        predicted = statistics.median(same) if same else 0.0
        if elapsed > LAST_START_S:
            break
        if done >= minimum[kind] and elapsed + predicted > seconds:
            break
        reps.append(run_rep(workload, seed, kind, tmp, timeout=max(1.0, RUN_LIMIT_S - elapsed)))
    return reps


def check_digests(reps: list[dict], expected: str | None) -> None:
    """Mark repetitions whose output differs from the recorded or the first digest."""
    first = None
    for rep in reps:
        if "error" in rep:
            continue
        if expected is not None and rep["sha256"] != expected:
            rep["error"] = f"sha256 {rep['sha256']} != recorded {expected}"
        elif first is None:
            first = rep
        elif rep["sha256"] != first["sha256"]:
            what = "traced" if rep["trace"] != first["trace"] else "repeated"
            rep["error"] = f"{what} output sha256 {rep['sha256']} != {first['sha256']}"


def speed_correct(reps: list[dict], reference_kernel_s: float) -> None:
    """Scale each repetition's times to the speed at which the kernel takes ``reference_kernel_s``.

    The uncorrected wall time stays in ``raw_wall_s``.
    """
    for rep in reps:
        if "error" in rep:
            continue
        scale = reference_kernel_s / rep["calib_s"]
        rep["raw_wall_s"] = rep["wall_s"]
        rep["raw_setup_s"] = rep["setup_s"]
        rep["wall_s"] *= scale
        rep["setup_s"] *= scale
        if "layers" in rep:
            rep["layers"] = {
                name: value * scale if name.endswith("_s") else value
                for name, value in rep["layers"].items()
            }


def end_to_end(reps: list[dict], sample_steps: int) -> dict[str, float]:
    ok = [r for r in reps if "error" not in r]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in ok),
        "sample_steps_per_s": statistics.median(sample_steps / r["wall_s"] for r in ok),
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }


def check_counts(reps: list[dict], exact_counts) -> None:
    """Mark traced repetitions whose exact counts differ from the first one's."""
    first = None
    for rep in reps:
        if "error" in rep or rep["trace"] != 1:
            continue
        counts = {name: rep["layers"][name] for name in exact_counts}
        if first is None:
            first = counts
        elif counts != first:
            changed = sorted(n for n in counts if counts[n] != first[n])
            rep["error"] = f"exact counts did not repeat: {changed}"


def per_layer(reps: list[dict]) -> dict[str, float]:
    """Medians of the traced repetitions plus the metrics that compare both kinds."""
    plain = [r for r in reps if "error" not in r and r["trace"] == 0]
    traced = [r for r in reps if "error" not in r and r["trace"] == 1]
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
    }
    metrics["harness.cpu_per_wall"] = statistics.median(r["cpu_s"] / r["raw_wall_s"] for r in plain)
    metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sdestep" / "__init__.py").is_file():
        print(f"error: no sdestep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print(f"error: seed must be in [0, 2**64), got {args.seed}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print(f"error: --seconds must be positive, got {args.seconds}", file=sys.stderr)
        return 2

    from spans import EXACT_COUNTS
    from workloads import WORKLOADS

    baseline = json.loads((HERE / "baseline.json").read_text())
    recorded = baseline["workloads"][args.workload]
    expected = recorded["sha256"] if args.seed == recorded["seed"] else None

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        reps = run_reps(args.workload, args.seed, args.seconds, args.trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass
    check_digests(reps, expected)
    check_counts(reps, EXACT_COUNTS)
    speed_correct(reps, baseline["machine"]["reference_kernel_s"])

    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_specs}
    ok = [r for r in reps if "error" not in r]
    metrics: dict[str, float] = {}
    if args.trace:
        if {0, 1} <= {r["trace"] for r in ok}:
            metrics = per_layer(reps)
    elif ok:
        metrics = end_to_end(reps, WORKLOADS[args.workload].sample_steps)
    attempted = len(reps)
    failed = attempted - len(ok)

    digests = sorted({r["sha256"] for r in reps if "sha256" in r})
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {attempted}  failed {failed}  failed_frac {failed / attempted:g}")
    print(f"sha256 {' '.join(digests) or '-'}"
          + ("  (recorded for this seed)" if expected else "  (no digest recorded for this seed)"))
    if ok:
        print("uncorrected medians: "
              + "  ".join(f"{k} {statistics.median(r[k] for r in ok):.4f} s"
                          for k in ("raw_wall_s", "raw_setup_s", "calib_s")))
    for rep in reps:
        if "error" in rep:
            print(f"FAILED repetition (trace {rep['trace']}): {rep['error']}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.10g} {units.get(name, '?')}")

    if set(metrics) != set(units):
        if metrics:
            print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
                  file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in metric_specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
