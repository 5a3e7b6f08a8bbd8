"""Tests for the convergence-study harness, error tables, and defect estimates."""

import dataclasses
import hashlib
import os

import numpy as np
import pytest

from sdestep import (
    ErrorTable,
    ExperimentConfig,
    GridFunction,
    SdeModel,
    SeedSpec,
    StepSizeError,
    coarsen,
    eoc,
    cfl_indicator,
    generate_increments,
    make_model,
    reference_trajectory,
    run_convergence_study,
    strong_error,
    write_csv,
)
from sdestep import harness, schemes
from sdestep.harness import (
    LevelRow,
    SchemeCell,
    _kahan_merge,
    _map_batches,
    _masked_sums,
    _reference_pass,
    _residual_pass,
    _rms_max,
    _study_pass,
    estimate_residuals,
    residual_defects,
)

_, VOL32 = make_model("vol32", 4.0, 1.0)
_, VOL32_SIG0 = make_model("vol32", 4.0, 0.0)
_, TOY = make_model("toy2d", 96.0, 0.47)


def linear_model(a: float) -> SdeModel:
    return SdeModel(
        state_dim=1,
        noise_dim=1,
        drift=lambda x: a * x,
        diffusion=lambda x: np.zeros(x.shape + (1,)),
        drift_jacobian=lambda x: np.broadcast_to(np.array([[a]]), x.shape + (1,)).copy(),
        closed_form_implicit=lambda beta, h, R: np.asarray(R, dtype=float) / (1.0 - h * beta * a),
        L=1.0,
        eta=1.0,
        q=1.0,
    )


# ------------------------------------------------------------- eoc and cfl


def test_eoc_basic_ratios():
    assert eoc(0.2, 0.1, 0.04, 0.02) == pytest.approx(1.0, abs=1e-14)
    assert eoc(0.2, 0.05, 0.04, 0.02) == pytest.approx(2.0, abs=1e-14)
    # six-decimal table pairs under halving
    assert round(eoc(0.020186, 0.010528, 1 / 25, 1 / 50), 2) == 0.94
    assert round(eoc(0.010594, 0.003739, 1 / 25, 1 / 50), 2) == 1.50


def test_eoc_undefined_cases():
    assert eoc(0.0, 0.1, 0.04, 0.02) is None
    assert eoc(0.1, 0.0, 0.04, 0.02) is None
    assert eoc(float("nan"), 0.1, 0.04, 0.02) is None
    assert eoc(0.1, float("inf"), 0.04, 0.02) is None
    assert eoc(0.2, 0.1, 0.04, 0.04) is None
    assert eoc(0.2, 0.1, -0.04, 0.02) is None


def test_cfl_indicator_examples():
    assert not cfl_indicator(96.0, 1 / 25)
    assert cfl_indicator(96.0, 1 / 50)
    assert cfl_indicator(4.0, 0.04)
    assert not cfl_indicator(2.0, 1.0)  # |1 - lam h| = 1 exactly: not inside


# ------------------------------------------------------------ configuration


def test_experiment_config_validation():
    base = dict(
        model=VOL32, x0=(1.0,), schemes=("bem",), levels=(25, 50),
        samples=8, ref_steps=400, base_seed=1,
    )
    cfg = ExperimentConfig(**base)
    assert cfg.fine_grid.N == 400
    assert cfg.level_grid(25).h == 0.04
    assert cfg.reference_scheme == "bdf2" and cfg.second_init == "bem"

    bad = [
        dict(base, levels=(50, 25)),
        dict(base, levels=(25, 25)),
        dict(base, levels=()),
        dict(base, levels=(25, 30)),       # 30 does not divide 400
        dict(base, ref_steps=75),
        dict(base, schemes=("bem", "rk4")),
        dict(base, schemes=()),
        dict(base, x0=(1.0, 2.0)),
        dict(base, samples=0),
        dict(base, threads=0),
        dict(base, batch_size=0),
        dict(base, second_init="zeroed"),
        dict(base, reference_scheme="rk4"),
        dict(base, T=0.0),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)


@pytest.mark.parametrize("value", [2.5, float("nan")])
@pytest.mark.parametrize(
    "field", ["levels", "samples", "ref_steps", "base_seed", "threads", "batch_size"]
)
def test_experiment_config_rejects_non_integer_counts_by_name(field, value):
    base = dict(model=VOL32, x0=(1.0,), schemes=("bem",), levels=(25, 50), samples=8,
                ref_steps=400, base_seed=1)
    bad = (value,) if field == "levels" else value
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
        ExperimentConfig(**dict(base, **{field: bad}))


def test_experiment_config_takes_numpy_integers():
    cfg = ExperimentConfig(
        model=VOL32, x0=(1.0,), schemes=("bem",), levels=(np.int32(25), np.int64(50)),
        samples=np.int64(8), ref_steps=np.int64(400), base_seed=np.uint64(1),
        threads=np.int8(1), batch_size=np.int16(4),
    )
    plain = ExperimentConfig(
        model=VOL32, x0=(1.0,), schemes=("bem",), levels=(25, 50), samples=8, ref_steps=400,
        base_seed=1, batch_size=4,
    )
    assert cfg.levels == (25, 50)
    assert _sha256(run_convergence_study(cfg)) == _sha256(run_convergence_study(plain))


def test_experiment_config_rejects_non_finite_x0_and_horizon():
    base = dict(model=VOL32, x0=(1.0,), levels=(25,), samples=2, ref_steps=100)
    for x0 in ((float("nan"),), (float("inf"),)):
        with pytest.raises(ValueError, match="^x0 must be finite"):
            ExperimentConfig(**dict(base, x0=x0))
    with pytest.raises(ValueError, match="^horizon must be"):
        ExperimentConfig(**dict(base, T=float("inf")))


def test_reference_trajectory_is_deterministic_per_sample():
    cfg = ExperimentConfig(
        model=VOL32, x0=(1.0,), schemes=("bem",), levels=(25,),
        samples=4, ref_steps=200, base_seed=6,
    )
    a = reference_trajectory(cfg, 2)
    b = reference_trajectory(cfg, 2)
    c = reference_trajectory(cfg, 3)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)
    assert a.states.shape == (201, 1)
    assert np.array_equal(a.states[0], np.array([1.0]))


# ------------------------------------------------------------ study engine


def _multi_chunk_config(model, x0, levels=(25, 50), ref_steps=400, **kw):
    # by default factors 16 and 8: 16-step chunks, 25 of them per reference pass
    return ExperimentConfig(
        model=model, x0=x0, levels=levels, samples=9, ref_steps=ref_steps, base_seed=21, **kw
    )


# levels (40, 50) do not nest: factors 5 and 4 give 20-step chunks, larger than either factor.
# Factors 12, 6, 4, 2 nest in part: 12 continues from 6's sums, 6 and 4 from 2's.
# Levels (50, 100, 200) at ref_steps 200 include factor 1, from whose sums factor 2 continues.
_ENGINE_CASES = pytest.mark.parametrize(
    "model,x0,levels,ref_steps",
    [
        (VOL32, (1.0,), (25, 50), 400),
        (TOY, (2.0, 3.0), (25, 50), 400),
        (VOL32, (1.0,), (40, 50), 200),
        (TOY, (2.0, 3.0), (40, 50), 200),
        (VOL32, (1.0,), (25, 50, 75, 150), 300),
        (TOY, (2.0, 3.0), (25, 50, 75, 150), 300),
        (VOL32, (1.0,), (50, 100, 200), 200),
        (TOY, (2.0, 3.0), (50, 100, 200), 200),
    ],
    ids=["vol32", "toy2d", "vol32-unnested", "toy2d-unnested", "vol32-part-nested",
         "toy2d-part-nested", "vol32-factor-1", "toy2d-factor-1"],
)


@_ENGINE_CASES
def test_engine_coarse_increments_equal_coarsened_tables_bitwise(model, x0, levels, ref_steps):
    cfg = _multi_chunk_config(model, x0, levels, ref_steps)
    lo, hi = 2, 9
    _snapshots, coarse_incs = _reference_pass(cfg, lo, hi)
    for n in cfg.levels:
        assert coarse_incs[n].shape == (n, hi - lo, model.noise_dim)
        for i in range(hi - lo):
            fine = generate_increments(cfg.fine_grid, model.noise_dim, SeedSpec(cfg.base_seed, lo + i))
            want = coarsen(fine, cfg.ref_steps // n).increments
            assert coarse_incs[n][:, i, :].tobytes() == want.tobytes()


@pytest.mark.parametrize("second_init", ["bem", "copy"])
@_ENGINE_CASES
def test_engine_snapshots_equal_per_sample_references_bitwise(model, x0, levels, ref_steps,
                                                              second_init):
    cfg = _multi_chunk_config(model, x0, levels, ref_steps, second_init=second_init)
    lo, hi = 2, 9
    snapshots, _coarse_incs = _reference_pass(cfg, lo, hi)
    for i in range(hi - lo):
        ref = reference_trajectory(cfg, lo + i).states
        for n in cfg.levels:
            want = ref[:: cfg.ref_steps // n]
            assert snapshots[n][i].tobytes() == want.tobytes()


def _sha256(table: ErrorTable) -> str:
    return hashlib.sha256(table.render_csv().encode("utf-8")).hexdigest()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_small_study_tables_are_pinned():
    """The rendered tables of three small studies, pinned by SHA-256: their digits move only on purpose."""
    _, toy_sigma1 = make_model("toy2d", 96.0, 1.0)
    common = dict(levels=(25, 50, 100), ref_steps=400, batch_size=16)
    vol32_copy = run_convergence_study(ExperimentConfig(
        model=VOL32, x0=(1.0,), samples=40, base_seed=11, second_init="copy", **common
    ))
    toy_newton = run_convergence_study(ExperimentConfig(
        model=toy_sigma1, x0=(2.0, 3.0), samples=32, base_seed=77, **common
    ))
    vol32_bem_ref = run_convergence_study(ExperimentConfig(
        model=VOL32, x0=(1.0,), samples=40, base_seed=5, reference_scheme="bem", **common
    ))
    assert toy_newton.cell(25, "eulm").exploded == 32 and toy_newton.cell(50, "eulm").exploded == 11
    assert _sha256(vol32_copy) == "31a2c7dd0e4a4b0d0ff9915a5d5eb74ae8c994a9bbbad945217f6dce07869af7"
    assert _sha256(toy_newton) == "7c72dee43984e5e61c4e4c2dcd6559263f17a8adf0ed840c7763be3fdb1de070"
    assert _sha256(vol32_bem_ref) == "15b94b81098d2bb91e8ffcfcadc5f4a425676bc3ddad0f552e7951b44fb393d8"


def test_engine_evaluates_the_diffusion_once_per_step():
    calls = []

    def diffusion(x):
        calls.append(1)
        return VOL32.diffusion(x)

    cfg = ExperimentConfig(
        model=dataclasses.replace(VOL32, diffusion=diffusion), x0=(1.0,), levels=(25, 50),
        samples=10, ref_steps=200, base_seed=4, batch_size=5,
    )
    run_convergence_study(cfg)
    passes = 1  # both batches of 5 are stepped in one pass
    assert len(calls) == passes * (cfg.ref_steps + sum(cfg.levels) * len(cfg.schemes))


def test_toy2d_study_makes_exactly_k_newton_updates_per_implicit_solve(monkeypatch):
    calls = {"drift": 0, "jacobian": 0, "diffusion": 0, "solve": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(schemes, "_newton_solve", counting("solve", schemes._newton_solve))
    model = dataclasses.replace(
        TOY,
        drift=counting("drift", TOY.drift),
        drift_jacobian=counting("jacobian", TOY.drift_jacobian),
        diffusion=counting("diffusion", TOY.diffusion),
    )
    cfg = ExperimentConfig(
        model=model, x0=(2.0, 3.0), levels=(25, 50), samples=6, ref_steps=200, base_seed=3,
        batch_size=4,
    )
    run_convergence_study(cfg)
    # one pass: the BDF2 reference (its BEM starter included) and the bem and bdf2 levels solve
    # once per step; explicit Euler calls the drift once per step and solves nothing
    assert calls["solve"] == cfg.ref_steps + 2 * sum(cfg.levels) == 350
    assert calls["jacobian"] == cfg.solver.newton_iterations * calls["solve"] == 1750
    assert calls["drift"] == calls["jacobian"] + sum(cfg.levels) == 1825
    assert calls["diffusion"] == cfg.ref_steps + 3 * sum(cfg.levels) == 425


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_copy_start_checks_no_one_step_bound():
    # h = 1: inside the two-step bound (h < 3/2), on the one-step bound (h*1*L = 1)
    kw = dict(model=VOL32, x0=(1.0,), schemes=("bdf2",), levels=(1,), samples=4, ref_steps=8)
    table = run_convergence_study(ExperimentConfig(second_init="copy", **kw))
    assert np.isfinite(table.cell(1, "bdf2").error)
    with pytest.raises(StepSizeError):
        run_convergence_study(ExperimentConfig(second_init="bem", **kw))


# ------------------------------------------------------------- strong error


def test_strong_error_of_the_reference_against_itself_is_zero():
    cfg = ExperimentConfig(
        model=VOL32, x0=(1.0,), schemes=("bdf2",), levels=(100, 400),
        samples=6, ref_steps=400, base_seed=3,
    )
    refs = [reference_trajectory(cfg, i) for i in range(cfg.samples)]
    err, exploded = strong_error(cfg, "bdf2", 400, refs)
    assert err == 0.0
    assert exploded == 0


_, TOY_SIGMA1 = make_model("toy2d", 96.0, 1.0)


def _same_float(a: float, b: float) -> bool:
    return a == b or (np.isnan(a) and np.isnan(b))


def test_per_sample_and_batched_routes_agree():
    vol32 = dict(model=VOL32, x0=(1.0,), schemes=("bem", "bdf2"), samples=24, base_seed=3,
                 batch_size=7)
    # explicit Euler on stiff toy2d explodes 32/11/0 samples, so counts are compared non-zero
    toy_eulm = dict(model=TOY_SIGMA1, x0=(2.0, 3.0), schemes=("eulm",), samples=32, base_seed=77,
                    batch_size=16)
    # diffusion 3x^2 explodes both implicit schemes 4/3/3 times (the reference stays finite),
    # so non-finite R rows reach the level solves
    blowup = SdeModel(1, 1, drift=lambda x: -x, diffusion=lambda x: (3.0 * x * x)[..., None],
                      drift_jacobian=lambda x: -np.ones(x.shape + (1,)))
    implicit = dict(model=blowup, x0=(1.0,), schemes=("bem", "bdf2"), samples=24, base_seed=3,
                    batch_size=7)
    for kw, exploded in ((vol32, (0, 0, 0)), (toy_eulm, (32, 11, 0)), (implicit, (4, 3, 3))):
        cfg = ExperimentConfig(levels=(25, 50, 100), ref_steps=400, **kw)
        refs = [reference_trajectory(cfg, i) for i in range(cfg.samples)]
        table = run_convergence_study(cfg)
        assert tuple(table.cell(n, cfg.schemes[0]).exploded for n in cfg.levels) == exploded
        for scheme in cfg.schemes:
            for n in cfg.levels:
                err, exploded_count = strong_error(cfg, scheme, n, refs)
                cell = table.cell(n, scheme)
                assert _same_float(err, cell.error) or abs(err - cell.error) <= 1e-12 * (1.0 + err)
                assert exploded_count == cell.exploded


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_one_sample_batches_reduce_exactly_like_the_per_sample_route():
    """With batch_size=1 both routes feed the same partials to the same merge."""
    cfg = ExperimentConfig(
        model=TOY_SIGMA1, x0=(2.0, 3.0), levels=(25, 50, 100), samples=32, ref_steps=400,
        base_seed=77, batch_size=1,
    )
    refs = [reference_trajectory(cfg, i) for i in range(cfg.samples)]
    table = run_convergence_study(cfg)
    for scheme in cfg.schemes:
        for n in cfg.levels:
            err, exploded = strong_error(cfg, scheme, n, refs)
            assert _same_float(err, table.cell(n, scheme).error)
            assert exploded == table.cell(n, scheme).exploded


def test_strong_error_counts_a_singular_newton_row_as_exploded_like_the_study():
    # backward Euler at h = 1/25 on drift 25*x: the Newton matrix 1 - h*25 is singular
    model = SdeModel(
        state_dim=1, noise_dim=1, drift=lambda x: 25.0 * x,
        diffusion=lambda x: np.zeros(x.shape + (1,)),
        drift_jacobian=lambda x: np.full(x.shape + (1,), 25.0), L=1.0,
    )
    cfg = ExperimentConfig(model=model, x0=(1.0,), schemes=("bem",), levels=(25,), samples=4,
                           ref_steps=100)
    refs = [reference_trajectory(cfg, i) for i in range(cfg.samples)]
    err, exploded = strong_error(cfg, "bem", 25, refs)
    assert np.isnan(err)
    assert exploded == cfg.samples == run_convergence_study(cfg).cell(25, "bem").exploded


def test_strong_error_rejects_empty_levels_and_keeps_empty_references():
    cfg = ExperimentConfig(model=VOL32, x0=(1.0,), levels=(25,), samples=2, ref_steps=100)
    for n_steps in (0, -4, 2.5, float("nan")):
        with pytest.raises(ValueError, match="^n_steps must be"):
            strong_error(cfg, "bdf2", n_steps, [])
    err, exploded = strong_error(cfg, "bdf2", 25, [])
    assert np.isnan(err) and exploded == 0


def test_reduction_masks_whole_samples_and_merges_in_order():
    one = np.array([[1.0, 2.0], [np.inf, 1.0], [3.0, 4.0]])
    pair = np.array([[1.0], [1.0], [np.nan]])
    (one_sums, pair_sums), valid = _masked_sums(one, pair)
    assert valid == 1  # a non-finite entry in either array drops the whole sample
    assert one_sums.tolist() == [1.0, 2.0] and pair_sums.tolist() == [1.0]
    parts = [{"k": ((np.array([1.0]),), 1)}] + [{"k": ((np.array([1e-16]),), 2)}] * 10
    (total,), count = _kahan_merge(parts)["k"]
    assert count == 21 and total[0] == 1.0 + 1e-15  # plain summation would stay at 1.0
    assert np.isnan(_rms_max(np.array([4.0]), 0)) and np.isnan(_rms_max(np.empty(0), 5))
    assert _rms_max(np.array([2.0, 8.0]), 2) == 2.0


def test_noise_free_errors_do_not_depend_on_sample_count():
    kw = dict(
        model=VOL32_SIG0, x0=(1.0,), schemes=("bem", "bdf2"),
        levels=(25, 50, 100), ref_steps=800, base_seed=9,
    )
    one = run_convergence_study(ExperimentConfig(samples=1, **kw))
    three = run_convergence_study(ExperimentConfig(samples=3, **kw))
    assert one.render_csv() == three.render_csv()
    for n in (25, 50, 100):
        for s in ("bem", "bdf2"):
            a, b = one.cell(n, s).error, three.cell(n, s).error
            assert abs(a - b) <= 1e-12 * a


def _logistic_path(lam: float, x0: float, grid):
    # at sigma = 0 the 3/2-volatility equation is the logistic ODE x' = x - lam*x^2
    growth = np.exp(grid.times())
    return GridFunction(grid, (x0 * growth / (1.0 + lam * x0 * (growth - 1.0)))[:, None])


@pytest.mark.parametrize("lam", [4.0, 25.0])
def test_noise_free_study_errors_match_errors_against_the_exact_solution(lam):
    """The numerical reference is close enough to the exact path that every cell agrees
    to 2e-3 (relative) with the error measured against that path."""
    _, model = make_model("vol32", lam, 0.0)
    cfg = ExperimentConfig(model=model, x0=(1.0,), schemes=("bem", "bdf2"),
                           levels=tuple(25 * 2**k for k in range(6)), samples=1,
                           ref_steps=25_600, base_seed=9)
    table = run_convergence_study(cfg)
    exact = [_logistic_path(lam, 1.0, cfg.fine_grid)]
    for scheme in cfg.schemes:
        for n in cfg.levels:
            want, exploded = strong_error(cfg, scheme, n, exact)
            assert exploded == 0 and table.cell(n, scheme).exploded == 0
            assert abs(table.cell(n, scheme).error - want) <= 2e-3 * want


def test_noise_free_orders_match_the_deterministic_methods():
    cfg = ExperimentConfig(
        model=VOL32_SIG0, x0=(1.0,), schemes=("bem", "bdf2"),
        levels=(25, 50, 100), samples=1, ref_steps=800, base_seed=9,
    )
    table = run_convergence_study(cfg)
    assert table.cell(25, "bem").eoc is None  # nothing to compare against yet
    for n in (50, 100):
        assert 0.85 <= table.cell(n, "bem").eoc <= 1.05
        assert 1.30 <= table.cell(n, "bdf2").eoc <= 2.10
    for n in (25, 50, 100):
        assert table.cell(n, "bdf2").error < table.cell(n, "bem").error


def test_thread_count_never_changes_the_rendered_table():
    base = dict(
        model=VOL32, x0=(1.0,), schemes=("bem", "bdf2"), levels=(25, 50),
        samples=64, ref_steps=400, base_seed=2, batch_size=16,
    )
    serial = run_convergence_study(ExperimentConfig(**base, threads=1))
    pooled = run_convergence_study(ExperimentConfig(**base, threads=4))
    assert serial.render_csv() == pooled.render_csv()


def test_batch_fan_out_keeps_batch_order_for_any_thread_count():
    base = dict(
        model=VOL32, x0=(1.0,), levels=(25, 50), samples=100, ref_steps=100,
        base_seed=5, batch_size=32,
    )
    serial = ExperimentConfig(**base, threads=1)
    pooled = ExperimentConfig(**base, threads=3)
    ranges = [(0, 32), (32, 64), (64, 96), (96, 100)]
    assert _map_batches(pooled, lambda config, batches: batches) == ranges
    assert _map_batches(serial, lambda config, batches: batches) == ranges
    # repr round-trips floats exactly, so equal reprs mean bitwise-equal defects
    assert repr(estimate_residuals(serial)) == repr(estimate_residuals(pooled))


def _partial_bytes(partials):
    return [
        {key: ([v.tobytes() for v in sums], valid) for key, (sums, valid) in part.items()}
        for part in partials
    ]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("pass_fn", [_study_pass, _residual_pass], ids=["study", "residual"])
@pytest.mark.parametrize(
    "model,x0,extra",
    [
        (VOL32, (1.0,), {}),
        (VOL32, (1.0,), {"second_init": "copy"}),
        (VOL32, (1.0,), {"reference_scheme": "bem"}),
        (TOY, (5.0, 5.0), {}),
    ],
    ids=["vol32", "vol32-copy", "vol32-bem-ref", "toy2d"],
)
def test_a_pass_reduces_each_batch_as_if_it_were_stepped_alone(pass_fn, model, x0, extra):
    cfg = _multi_chunk_config(model, x0, batch_size=4, **extra)
    batches = [(0, 4), (4, 8), (8, 9)]  # the last batch is ragged
    fused = pass_fn(cfg, batches)
    alone = [part for batch in batches for part in pass_fn(cfg, [batch])]
    assert _partial_bytes(fused) == _partial_bytes(alone)
    if model is TOY and pass_fn is _study_pass:
        # explicit Euler explodes in every row at N=25 and in some rows of each batch at N=50
        assert [part[(25, "eulm")][1] for part in fused] == [0, 0, 0]
        assert [part[(50, "eulm")][1] for part in fused] == [3, 2, 1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_studies_over_several_passes_keep_their_output_for_any_thread_count(monkeypatch):
    base = dict(
        model=TOY, x0=(2.0, 3.0), levels=(25, 50), samples=30, ref_steps=400,
        base_seed=8, batch_size=4,
    )
    cfg = ExperimentConfig(**base)
    # repr round-trips floats exactly, so equal reprs mean bitwise-equal results
    one_pass = repr(run_convergence_study(cfg))
    one_pass_defects = repr(estimate_residuals(dataclasses.replace(cfg, samples=100)))
    monkeypatch.setattr(harness, "_PASS_ROWS", 8)  # two batches per pass
    grouped = _map_batches(cfg, lambda config, batches: [batches])
    assert grouped == [[(lo, lo + 4), (lo + 4, min(lo + 8, 30))] for lo in range(0, 30, 8)]
    for threads in (1, 3):
        cfg = dataclasses.replace(cfg, threads=threads)
        assert repr(run_convergence_study(cfg)) == one_pass
        assert repr(estimate_residuals(dataclasses.replace(cfg, samples=100))) == one_pass_defects


def test_explosion_accounting_for_explicit_stepping():
    cfg = ExperimentConfig(
        model=TOY, x0=(2.0, 3.0), schemes=("eulm",), levels=(25, 50, 100),
        samples=16, ref_steps=800, base_seed=5,
    )
    table = run_convergence_study(cfg)
    coarse = table.cell(25, "eulm")
    assert coarse.exploded == 16 and coarse.is_exploded
    assert np.isnan(coarse.error)
    mid = table.cell(50, "eulm")
    assert 0 < mid.exploded < 16 and mid.is_exploded
    fine = table.cell(100, "eulm")
    assert fine.exploded == 0 and not fine.is_exploded
    assert np.isfinite(fine.error)
    # an exploded predecessor breaks the order chain even for a clean cell
    assert fine.eoc is None

    lines = table.render_csv().splitlines()
    assert lines[1].startswith("25,0.04,-,")
    assert lines[2].startswith("50,0.02,-,")
    assert lines[3].startswith("100,0.01,0.")


def test_second_init_copy_is_markedly_worse_than_an_euler_step():
    base = dict(
        model=VOL32, x0=(1.0,), schemes=("bdf2",), levels=(25, 50, 100),
        samples=128, ref_steps=1600, base_seed=4,
    )
    euler = run_convergence_study(ExperimentConfig(**base, second_init="bem"))
    copied = run_convergence_study(ExperimentConfig(**base, second_init="copy"))
    assert euler.cell(25, "bdf2").error == pytest.approx(0.048756888567036215, rel=1e-9)
    for n in (25, 50, 100):
        assert copied.cell(n, "bdf2").error > 2.0 * euler.cell(n, "bdf2").error


def test_reference_scheme_can_be_downgraded():
    kw = dict(
        model=VOL32, x0=(1.0,), schemes=("bem",), levels=(25, 50),
        samples=8, ref_steps=400, base_seed=1,
    )
    table = run_convergence_study(ExperimentConfig(reference_scheme="bem", **kw))
    for n in (25, 50):
        assert np.isfinite(table.cell(n, "bem").error)


# -------------------------------------------------------------- error table


def test_scheme_cell_explosion_threshold():
    assert SchemeCell(error=0.1, eoc=None, exploded=1, samples=1000).is_exploded
    assert not SchemeCell(error=0.1, eoc=None, exploded=1, samples=1001).is_exploded
    assert not SchemeCell(error=0.1, eoc=1.0, exploded=0, samples=8).is_exploded


def test_render_csv_layout_and_file_round_trip(tmp_path):
    rows = (
        LevelRow(n_steps=25, h=0.04, cells={"bem": SchemeCell(0.0123456789, None, 0, 8)}),
        LevelRow(n_steps=50, h=0.02, cells={"bem": SchemeCell(float("nan"), None, 8, 8)}),
    )
    table = ErrorTable(schemes=("bem",), rows=rows, samples=8)
    text = table.render_csv()
    assert text == "N,h,bem_error,bem_eoc,bem_exploded\n25,0.04,0.0123457,,0\n50,0.02,-,,8\n"
    path = tmp_path / "table.csv"
    write_csv(table, path)
    assert path.read_text() == text
    with pytest.raises(OSError):
        write_csv(table, tmp_path / "missing" / "table.csv")
    with pytest.raises(KeyError):
        table.cell(33, "bem")
    with pytest.raises(KeyError):
        table.cell(25, "rk4")


# ----------------------------------------------------------- local defects


def test_defects_vanish_on_a_noise_free_equilibrium_path():
    # f(c) = 0 at c = 1/lam, so the constant path has zero defect exactly
    c = 0.25
    states = np.full((11, 1), c)
    increments = np.zeros((10, 1))
    one, pair = residual_defects(VOL32, states, increments, h=0.1)
    assert one.shape == (10, 1) and pair.shape == (9, 1)
    assert np.all(one == 0.0)
    assert np.all(pair == 0.0)


def test_defect_formulas_match_a_plain_loop():
    rng = np.random.default_rng(14)
    N, h = 12, 0.05
    V = rng.uniform(-2.0, 2.0, size=(N + 1, 2))
    dW = rng.normal(0.0, np.sqrt(h), size=(N, 2))
    one, pair = residual_defects(TOY, V, dW, h)

    f = TOY.drift
    g = TOY.diffusion
    for j in range(1, N + 1):
        expected = h * f(V[j]) + g(V[j - 1]) @ dW[j - 1] - V[j] + V[j - 1]
        assert np.allclose(one[j - 1], expected, rtol=0, atol=1e-14)
    for j in range(2, N + 1):
        drift_corr = 0.5 * (h * f(V[j - 1]) + g(V[j - 1]) @ dW[j - 1] - V[j] + V[j - 1])
        shifted = -0.5 * (h * f(V[j - 1]) + g(V[j - 2]) @ dW[j - 2] - V[j - 1] + V[j - 2])
        assert np.allclose(pair[j - 2], drift_corr + shifted, rtol=0, atol=1e-14)
        # the shifted-noise term is minus half the previous one-step defect
        assert np.allclose(-2.0 * shifted, one[j - 2], rtol=0, atol=1e-14)


def test_defects_accept_batched_paths():
    rng = np.random.default_rng(15)
    V = rng.uniform(-1.0, 1.0, size=(5, 9, 1))
    dW = rng.normal(0.0, 0.1, size=(5, 8, 1))
    one, pair = residual_defects(VOL32, V, dW, h=0.125)
    assert one.shape == (5, 8, 1) and pair.shape == (5, 7, 1)
    single_one, single_pair = residual_defects(VOL32, V[3], dW[3], h=0.125)
    assert np.array_equal(one[3], single_one)
    assert np.array_equal(pair[3], single_pair)


def test_noise_free_linear_defects_shrink_quadratically():
    cfg = ExperimentConfig(
        model=linear_model(-1.0), x0=(1.0,), schemes=("bem",),
        levels=(25, 50, 100, 200), samples=100, ref_steps=1600, base_seed=11,
    )
    report = estimate_residuals(cfg)
    assert report.levels == (25, 50, 100, 200)
    assert report.h == (0.04, 0.02, 0.01, 0.005)
    assert report.samples == 100
    for r in report.bem_ratios + report.bdf2_pair_ratios:
        assert 3.7 <= r <= 4.3


def test_noisy_defect_estimates_are_finite_and_ordered():
    cfg = ExperimentConfig(
        model=VOL32, x0=(1.0,), schemes=("bem",), levels=(50, 100, 200),
        samples=200, ref_steps=1600, base_seed=7,
    )
    report = estimate_residuals(cfg)
    values = report.bem_defect + report.bdf2_pair_defect
    assert all(np.isfinite(v) and v > 0 for v in values)
    # coarser grids carry strictly larger defects
    assert report.bem_defect[0] > report.bem_defect[-1]
    assert report.bdf2_pair_defect[0] > report.bdf2_pair_defect[-1]


def test_defect_estimation_requires_a_stable_sample_size():
    cfg = ExperimentConfig(
        model=VOL32, x0=(1.0,), schemes=("bem",), levels=(25,),
        samples=500, ref_steps=400, base_seed=1,
    )
    with pytest.raises(ValueError):
        estimate_residuals(dataclasses.replace(cfg, samples=99))
    report = estimate_residuals(dataclasses.replace(cfg, samples=100))  # boundary is inclusive
    assert report.samples == 100
