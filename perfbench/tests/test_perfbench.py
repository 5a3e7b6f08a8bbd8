"""Tests of the benchmark's own logic: spans, output checks, seed handling.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import run
import spans
import workloads
from sdestep import ImplicitSolverConfig, cli, make_model, schemes

ROOT = Path(__file__).resolve().parents[2]
SMALL_STUDY = workloads.Study(
    "small", "vol32", 4.0, 1.0, (1.0,), samples=8, batch_size=4, ref_steps=800, threads=1
)
SMALL_PATH = workloads.Path("small_path", steps=200)


def ticking_tracer():
    """A tracer whose clock advances by exactly 1 on every read."""
    return spans.Tracer(clock=itertools.count().__next__)


def run_small_path(tmp_path, seed):
    argv = SMALL_PATH.prepare(seed, str(tmp_path))
    return SMALL_PATH.output(argv, SMALL_PATH.run(argv))


def test_self_time_with_nested_solve_implicit():
    tracer = ticking_tracer()
    _, model = make_model("vol32")
    model = spans.traced_model(tracer, model)
    R = np.array([[0.5], [np.nan], [0.2]])
    with spans.installed(tracer):
        with tracer.root("harness.study"):
            # a non-finite row makes solve_implicit recurse on the finite rows
            out = schemes.solve_implicit(model, 2.0 / 3.0, 0.01, R, ImplicitSolverConfig())
    assert np.isnan(out[1, 0]) and np.isfinite(out[[0, 2], 0]).all()
    stats = spans.summarize(tracer.spans())
    # root opens at 0; solve at 1; the inner closed form at 2..3; solve
    # closes at 4 and the root at 5.  The recursion is no span of its own.
    assert stats["schemes.solve"] == spans.NameStats(calls=1, total_s=3.0, self_s=2.0)
    assert stats["schemes.closed_form"] == spans.NameStats(calls=1, total_s=1.0, self_s=1.0)
    assert stats["harness.study"] == spans.NameStats(calls=1, total_s=5.0, self_s=2.0)
    assert tracer.counters() == {"schemes.nonfinite_solves": 1}
    assert schemes.solve_implicit.__name__ == "solve_implicit"  # restored


def test_root_self_time_subtracts_union_of_children_across_threads():
    # two threads' children overlap inside [1, 6]; [8, 9] is separate
    spans_ = [
        spans.Span(0, "harness.study", -1, 0.0, 10.0),
        spans.Span(1, "harness.ref_step", 0, 1.0, 4.0),
        spans.Span(1 << 32, "harness.ref_step", 0, 2.0, 6.0),
        spans.Span((1 << 32) + 1, "brownian.draw", 0, 8.0, 9.0),
    ]
    stats = spans.summarize(spans_)
    assert stats["harness.study"].self_s == 10.0 - 5.0 - 1.0
    assert stats["harness.ref_step"] == spans.NameStats(2, 7.0, 7.0)


def test_worker_thread_spans_hang_under_the_root():
    tracer = ticking_tracer()
    leaf = tracer.wrap("models.drift", lambda: None)
    with tracer.root("harness.study"):
        from threading import Thread

        t = Thread(target=leaf)
        t.start()
        t.join(timeout=10)
    assert not t.is_alive()
    root, child = sorted(tracer.spans(), key=lambda s: s.start)
    assert child.parent == root.key


def test_traced_study_keeps_output_and_counts_repeat():
    plain = SMALL_STUDY.run(SMALL_STUDY.prepare(5, ""))
    layers = []
    for _ in range(2):
        tracer = spans.Tracer()
        config = SMALL_STUDY.prepare(5, "", tracer)
        with spans.installed(tracer, SMALL_STUDY.fine_h), tracer.root("harness.study"):
            assert SMALL_STUDY.run(config) == plain
        layers.append(spans.per_layer(spans.summarize(tracer.spans()), tracer.counters()))
    counts = [{k: lay[k] for k in spans.EXACT_COUNTS} for lay in layers]
    assert counts[0] == counts[1]
    assert layers[0]["brownian.normals"] == SMALL_STUDY.samples * SMALL_STUDY.ref_steps
    assert layers[0]["harness.ref_step_s"] > 0 and layers[0]["harness.lvl_step_s"] > 0
    assert layers[0]["cli.self_s"] == 0.0  # no cli span in a study: reported as 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = set(spans.per_layer({}, {})) | {"harness.cpu_per_wall", "trace.overhead_s"}
    assert layer_names == {m["name"] for m in spec["per_layer"]}
    rep = {"wall_s": 2.0, "setup_s": 0.1, "peak_rss_mb": 40.0}
    assert set(run.end_to_end([rep], 10)) == {m["name"] for m in spec["end_to_end"]}
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_study_check_accepts_real_table_and_flags_perturbations():
    table = SMALL_STUDY.run(SMALL_STUDY.prepare(3, "")).encode()
    assert workloads.check_study_csv(table, SMALL_STUDY) == []
    lines = table.decode().split("\n")
    row = lines[2].split(",")  # N=50: every scheme has a finite predecessor
    perturbed = {
        "exploded above M": 4,
        "EOC off by 0.1": 3,
        "h column": 1,
    }
    for what, col in perturbed.items():
        bad = list(row)
        if what == "exploded above M":
            bad[col] = str(SMALL_STUDY.samples + 1)
        elif what == "EOC off by 0.1":
            bad[col] = f"{float(bad[col]) + 0.1:.2f}"
        else:
            bad[col] = "0.5"
        text = "\n".join(lines[:2] + [",".join(bad)] + lines[3:]).encode()
        assert workloads.check_study_csv(text, SMALL_STUDY), what
    assert workloads.check_study_csv(b"\n".join(table.split(b"\n")[:-2]) + b"\n", SMALL_STUDY)


def test_path_check_matches_reference_and_flags_a_changed_digit(tmp_path):
    data = run_small_path(tmp_path, 7)
    assert workloads.check_path_csv(data, SMALL_PATH, 7) == []
    assert workloads.check_path_csv(data, SMALL_PATH, 8)  # other noise, other path
    lines = data.decode().split("\n")
    t, x = lines[100].split(",")
    lines[100] = f"{t},{float(x) * (1 + 1e-7):.10g}"
    assert workloads.check_path_csv("\n".join(lines).encode(), SMALL_PATH, 7)


def test_changed_digest_or_count_counts_as_failed():
    reps = [
        {"trace": 0, "sha256": "a"},
        {"trace": 1, "sha256": "b"},
        {"trace": 0, "error": "exit code 1"},
    ]
    run.check_digests(reps, expected=None)
    assert "error" not in reps[0] and "traced output" in reps[1]["error"]
    reps = [{"trace": 0, "sha256": "a"}]
    run.check_digests(reps, expected="c")
    assert "recorded" in reps[0]["error"]
    reps = [{"trace": 1, "layers": {"brownian.normals": n}} for n in (8, 8, 9)]
    run.check_counts(reps, ["brownian.normals"])
    assert ["error" in r for r in reps] == [False, False, True]


def test_speed_correction_scales_times_only():
    reps = [
        {"trace": 1, "wall_s": 3.0, "setup_s": 0.3, "cpu_s": 3.0, "calib_s": 0.2,
         "layers": {"schemes.solve_s": 1.0, "schemes.solve_calls": 7}},
        {"trace": 0, "wall_s": 2.0, "setup_s": 0.2, "cpu_s": 1.0, "calib_s": 0.05},
        {"trace": 0, "error": "exit code 1"},
    ]
    run.speed_correct(reps, 0.1)
    traced, plain, failed = reps
    assert (traced["wall_s"], traced["setup_s"], traced["raw_wall_s"]) == (1.5, 0.15, 3.0)
    assert traced["layers"] == {"schemes.solve_s": 0.5, "schemes.solve_calls": 7}
    assert (plain["wall_s"], plain["setup_s"]) == (4.0, 0.4)
    assert failed == {"trace": 0, "error": "exit code 1"}
    metrics = run.per_layer(reps)
    assert metrics["harness.cpu_per_wall"] == 0.5  # from the uncorrected wall time
    assert metrics["trace.overhead_s"] == 1.5 - 4.0


def test_seed_reaches_the_generated_inputs(tmp_path, monkeypatch):
    assert SMALL_STUDY.prepare(123, "").base_seed == 123
    argv = SMALL_PATH.prepare(123, str(tmp_path))
    assert cli.build_parser().parse_args(argv).seed == 123
    assert run_small_path(tmp_path, 11) == run_small_path(tmp_path, 11)
    assert run_small_path(tmp_path, 11) != run_small_path(tmp_path, 12)

    seen = []

    def fake_reps(workload, seed, seconds, trace, tmp):
        seen.append((workload, seed))
        return [{"trace": 0, "wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 1.0,
                 "calib_s": 0.1, "sha256": "x", "duration": 1.0}]

    monkeypatch.setattr(run, "run_reps", fake_reps)
    assert run.main(["--workload", "vol32_path", "--seed", "99", "--seconds", "1"]) == 0
    assert seen == [("vol32_path", 99)]


def test_reps_stop_when_time_is_spent(monkeypatch):
    clock = itertools.count(step=4.0)
    monkeypatch.setattr(run, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    started = []

    def fake_rep(workload, seed, trace, tmp, timeout):
        started.append(trace)
        return {"trace": trace, "duration": 4.0}

    monkeypatch.setattr(run, "run_rep", fake_rep)
    assert len(run.run_reps("w", 1, 10.0, 0, "tmp")) == run.MIN_REPS
    started.clear()
    run.run_reps("w", 1, 10.0, 1, "tmp")
    assert started == [0, 1, 0, 1]


def test_missing_sources_exit_nonzero_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "vol32_path", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_study_work_count():
    study = dataclasses.replace(SMALL_STUDY, samples=2)
    assert study.sample_steps == 2 * (800 + (25 + 50 + 100 + 200 + 400 + 800) * 3)
