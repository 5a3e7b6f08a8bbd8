"""Tests for the two benchmark models and the structural-condition checkers."""

import numpy as np
import pytest

from sdestep import make_model
from sdestep.models import (
    MODEL_DEFAULTS,
    ThreeHalvesVol,
    ToyCubic2D,
    check_coercivity,
    check_local_lipschitz_f,
    check_monotonicity,
    eval_32vol,
    eval_toy2d,
)


def fd_jacobian(f, x, eps=1e-6):
    x = np.asarray(x, dtype=float)
    m = x.shape[0]
    out = np.zeros((m, m))
    for i in range(m):
        e = np.zeros(m)
        e[i] = eps
        out[:, i] = (f(x + e) - f(x - e)) / (2.0 * eps)
    return out


# ------------------------------------------------------------------ vol32


def test_vol32_pointwise_values():
    params = ThreeHalvesVol(lam=4.0, sigma=1.0)
    f, g, jf = eval_32vol(params, np.array([0.0]))
    assert f[0] == 0.0 and g[0, 0] == 0.0 and jf[0, 0] == 1.0
    f, g, jf = eval_32vol(params, np.array([1.0]))
    assert f[0] == -3.0
    assert g[0, 0] == 1.0
    assert jf[0, 0] == -7.0
    # |x|^{3/2} scaling of the noise
    _, g4, _ = eval_32vol(params, np.array([4.0]))
    assert g4[0, 0] == 8.0


def test_vol32_drift_is_odd_and_noise_even():
    params = ThreeHalvesVol(lam=2.5, sigma=0.7)
    rng = np.random.default_rng(8)
    for _ in range(200):
        x = np.array([rng.uniform(-6.0, 6.0)])
        fp, gp, _ = eval_32vol(params, x)
        fm, gm, _ = eval_32vol(params, -x)
        assert fm == pytest.approx(-fp, abs=0)
        assert gm == pytest.approx(gp, abs=0)


def test_vol32_jacobian_matches_finite_differences():
    _, model = make_model("vol32", 4.0, 1.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = np.array([rng.uniform(-5.0, 5.0)])
        if abs(x[0]) < 0.1:
            continue  # |x| kink
        jn = fd_jacobian(model.drift, x)
        ja = model.drift_jacobian(x)
        assert np.allclose(ja, jn, rtol=1e-6, atol=1e-6)


def test_vol32_eta_and_theory_window():
    assert ThreeHalvesVol(lam=4.0, sigma=1.0).eta == 2.0
    assert ThreeHalvesVol(lam=4.0, sigma=0.0).eta == 1.0  # noise-free convention
    assert ThreeHalvesVol(lam=4.0, sigma=1.0).in_theory
    assert ThreeHalvesVol(lam=10.0, sigma=2.0).in_theory  # boundary lam = 2.5 sigma^2
    assert not ThreeHalvesVol(lam=4.0, sigma=2.0).in_theory
    assert ThreeHalvesVol(lam=25.0, sigma=1.0).in_theory


def test_vol32_model_contract():
    params, model = make_model("vol32", 4.0, 1.0)
    assert model.state_dim == 1 and model.noise_dim == 1
    assert model.L == 1.0 and model.q == 2.0 and model.eta == 2.0
    assert model.closed_form_implicit is not None
    x = np.array([1.0])
    assert model.drift(x) == eval_32vol(params, x)[0]
    batch = np.array([[1.0], [-2.0], [0.5]])
    fb = model.drift(batch)
    assert fb.shape == (3, 1)
    assert fb[0, 0] == -3.0
    assert model.diffusion(batch).shape == (3, 1, 1)
    # as_sde_model agrees with the factory route
    again = params.as_sde_model()
    assert np.array_equal(again.drift(batch), fb)


# ------------------------------------------------------------------ toy2d


def test_toy2d_coupling_matrix_and_eigenvectors():
    params = ToyCubic2D(lam=96.0, sigma=0.47)
    A = params.coupling_matrix
    assert np.array_equal(A, np.array([[48.5, -47.5], [-47.5, 48.5]]))
    ones = np.array([1.0, 1.0])
    diff = np.array([1.0, -1.0])
    assert np.allclose(A @ ones, ones, atol=0)
    assert np.allclose(A @ diff, 96.0 * diff, atol=0)


def test_toy2d_pointwise_values():
    params = ToyCubic2D(lam=96.0, sigma=0.47)
    f, g, jf = eval_toy2d(params, np.array([1.0, 1.0]))
    assert np.allclose(f, [-1.0, -1.0], atol=0)
    assert np.array_equal(g, 0.47 * np.eye(2))
    assert np.allclose(jf, np.array([[-50.5, 47.5], [47.5, -50.5]]), atol=0)
    f0, g0, _ = eval_toy2d(params, np.zeros(2))
    assert np.array_equal(f0, np.zeros(2))
    assert np.array_equal(g0, np.zeros((2, 2)))


def test_toy2d_jacobian_matches_finite_differences():
    _, model = make_model("toy2d", 96.0, 0.47)
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.uniform(-3.0, 3.0, size=2)
        jn = fd_jacobian(model.drift, x)
        ja = model.drift_jacobian(x)
        assert np.allclose(ja, jn, rtol=1e-5, atol=1e-4)


def test_toy2d_eta_and_theory_window():
    assert ToyCubic2D(lam=96.0, sigma=0.47).eta == pytest.approx(2.2634676324128566, abs=0)
    assert ToyCubic2D(lam=96.0, sigma=0.47).in_theory
    assert not ToyCubic2D(lam=96.0, sigma=1.0).in_theory
    # the window closes exactly at sigma = sqrt(2)/3
    assert ToyCubic2D(lam=96.0, sigma=0.4714).in_theory
    assert not ToyCubic2D(lam=96.0, sigma=0.4715).in_theory


def test_toy2d_model_contract():
    params, model = make_model("toy2d", 96.0, 0.47)
    assert model.state_dim == 2 and model.noise_dim == 2
    assert model.L == 1.0 and model.q == 3.0
    assert model.closed_form_implicit is None
    batch = np.stack([np.array([2.0, 3.0]), np.array([-1.0, 0.5])])
    fb = model.drift(batch)
    assert fb.shape == (2, 2)
    single = model.drift(batch[0])
    assert np.array_equal(fb[0], single)
    assert model.diffusion(batch).shape == (2, 2, 2)


def reference_toy2d(params, x):
    """Drift, diffusion and Jacobian by the componentwise formulas the model once used."""
    x1, x2 = x[..., 0], x[..., 1]
    a_diag = 0.5 * (1.0 + params.lam)
    a_off = 0.5 * (1.0 - params.lam)
    f1 = x1 - x1**3 - (a_diag * x1 + a_off * x2)
    f2 = x2 - x2**3 - (a_off * x1 + a_diag * x2)
    g = np.zeros(x.shape + (2,), dtype=float)
    g[..., 0, 0] = params.sigma * x1**2
    g[..., 1, 1] = params.sigma * x2**2
    jf = np.empty(x.shape + (2,), dtype=float)
    jf[..., 0, 0] = 1.0 - 3.0 * x1**2 - a_diag
    jf[..., 0, 1] = -a_off
    jf[..., 1, 0] = -a_off
    jf[..., 1, 1] = 1.0 - 3.0 * x2**2 - a_diag
    return np.stack([f1, f2], axis=-1), g, jf


def assert_same_bits(got, want):
    """Equal shape and dtype, NaN at the same places and every other value bit for bit."""
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lam,sigma", [(96.0, 1.0), (96.0, 0.47), (1.0, 0.3), (0.0, 0.0)])
def test_toy2d_whole_array_kernels_keep_the_componentwise_bits(lam, sigma):
    params = ToyCubic2D(lam=lam, sigma=sigma)
    special = [0.0, -0.0, 1.0, -1.0, 1e200, -1e200, np.inf, -np.inf, np.nan]
    pairs = np.array([(u, v) for u in special for v in special])  # (81, 2)
    batch = np.concatenate([pairs, np.random.default_rng(6).normal(scale=3.0, size=(39, 2))])
    inputs = [
        batch[0], batch[17], batch[100],  # (2,)
        batch,  # (B, 2)
        batch.reshape(12, 10, 2),  # (B, N, 2), as the residual estimator passes
        batch[::3],  # a strided view
    ]
    for x in inputs:
        f, g, jf = reference_toy2d(params, x)
        assert_same_bits(params.drift(x), f)
        assert_same_bits(params.diffusion(x), g)
        assert_same_bits(params.drift_jacobian(x), jf)


# ------------------------------------------------------ factory validation


def test_make_model_defaults_and_errors():
    params, _ = make_model("vol32")
    assert (params.lam, params.sigma) == (4.0, 1.0)
    tparams, _ = make_model("toy2d")
    assert (tparams.lam, tparams.sigma) == (96.0, 1.0)
    assert MODEL_DEFAULTS["vol32"]["x0"] == (1.0,)
    assert MODEL_DEFAULTS["toy2d"]["x0"] == (2.0, 3.0)
    with pytest.raises(ValueError):
        make_model("heston")
    with pytest.raises(ValueError):
        make_model("vol32", -1.0, 1.0)
    with pytest.raises(ValueError):
        make_model("vol32", 4.0, -0.5)
    with pytest.raises(ValueError):
        make_model("toy2d", -1.0, 1.0)
    # zero coupling is legal for the planar model: the matrix stays psd
    assert make_model("toy2d", 0.0, 1.0)[0].lam == 0.0


@pytest.mark.parametrize("family", ["vol32", "toy2d"])
def test_non_finite_parameters_are_rejected_by_name(family):
    for lam, sigma, name in (
        (float("inf"), 1.0, "lam"),
        (float("nan"), 1.0, "lam"),
        (4.0, float("nan"), "sigma"),
        (4.0, float("inf"), "sigma"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            make_model(family, lam, sigma)


# ------------------------------------------------------------ the checkers


def test_monotonicity_rejects_weights_at_or_below_half():
    _, model = make_model("vol32", 4.0, 1.0)
    for eta in (0.5, 0.25, 0.0, -1.0):
        with pytest.raises(ValueError):
            check_monotonicity(model.drift, model.diffusion, eta=eta, L=1.0)


def test_monotonicity_holds_for_in_theory_parameter_sets():
    cases = [
        ("vol32", 4.0, 1.0, 2.0, 1),
        ("vol32", 4.0, 2.0, 0.6, 1),   # eta well below the critical ratio
        ("vol32", 25.0, 1.0, 12.5, 1),
        ("vol32", 4.0, 0.0, 1.0, 1),
        ("toy2d", 96.0, 0.47, None, 2),
    ]
    for name, lam, sigma, eta, dim in cases:
        params, model = make_model(name, lam, sigma)
        weight = params.eta if eta is None else eta
        rep = check_monotonicity(
            model.drift, model.diffusion, eta=weight, L=1.0,
            n_pairs=20_000, seed=0, state_dim=dim,
        )
        assert rep.ok, (name, lam, sigma, weight, rep.violation_count)
        assert rep.violation_count == 0
        assert rep.max_slack >= 0.0
        assert rep.violations == []


def test_monotonicity_flags_overweighted_eta():
    _, model = make_model("vol32", 1.0, 1.0)
    rep = check_monotonicity(model.drift, model.diffusion, eta=2.0, L=1.0, n_pairs=20_000, seed=0)
    assert not rep.ok
    assert rep.violation_count > 0
    assert rep.max_slack < 0.0
    x1, x2, lhs, rhs = rep.violations[0]
    # first hit comes from the deterministic lattice pass (quarter-integer grid)
    assert np.array_equal(x1 * 4.0, np.round(x1 * 4.0))
    assert np.array_equal(x2 * 4.0, np.round(x2 * 4.0))
    assert lhs == pytest.approx(1.6054316643577056, rel=1e-12)
    assert rhs == pytest.approx(0.0625, abs=0)
    assert lhs > rhs
    assert len(rep.violations) == 50  # recorded examples are capped


def test_monotonicity_recorded_examples_recompute():
    _, model = make_model("vol32", 4.0, 2.0)
    rep = check_monotonicity(model.drift, model.diffusion, eta=1.0, L=1.0, n_pairs=20_000, seed=0)
    assert rep.violation_count > 0
    for x1, x2, lhs, rhs in rep.violations[:10]:
        df = model.drift(x1) - model.drift(x2)
        dg = model.diffusion(x1) - model.diffusion(x2)
        dx = x1 - x2
        lhs_again = float(np.sum(df * dx) + 1.0 * np.sum(dg * dg))
        assert lhs_again == pytest.approx(lhs, rel=1e-12)
        assert rhs == pytest.approx(float(np.sum(dx * dx)), rel=1e-12)


def test_coercivity_clean_and_violating_sets():
    _, good = make_model("vol32", 4.0, 1.0)
    rep = check_coercivity(good.drift, good.diffusion, L=1.0, q=2.0, n_points=20_000, seed=0)
    assert rep.ok
    assert rep.max_slack == 1.0  # tightest margin sits at the origin: L(1+0) - 0

    _, bad = make_model("vol32", 1.0, 1.0)
    rep = check_coercivity(bad.drift, bad.diffusion, L=1.0, q=2.0, n_points=20_000, seed=0)
    assert not rep.ok
    x, none, lhs, rhs = rep.violations[0]
    assert none is None
    assert np.array_equal(x, np.array([-10.0]))
    assert lhs == pytest.approx(1600.0, rel=1e-12)
    assert rhs == pytest.approx(101.0, abs=0)

    _, toy_good = make_model("toy2d", 96.0, 0.47)
    rep = check_coercivity(toy_good.drift, toy_good.diffusion, L=1.0, q=3.0, n_points=20_000, seed=0, state_dim=2)
    assert rep.ok
    _, toy_bad = make_model("toy2d", 96.0, 1.0)
    rep = check_coercivity(toy_bad.drift, toy_bad.diffusion, L=1.0, q=3.0, n_points=20_000, seed=0, state_dim=2)
    assert not rep.ok


def test_local_lipschitz_bound():
    _, model = make_model("vol32", 4.0, 1.0)
    tight = check_local_lipschitz_f(model.drift, L=1.0, q=2.0, n_pairs=20_000, seed=0)
    assert not tight.ok  # slope 1 - 2*lam*|x| outruns L=1 for |x| > 1/3
    roomy = check_local_lipschitz_f(model.drift, L=4.0, q=2.0, n_pairs=20_000, seed=0)
    assert roomy.ok and roomy.max_slack >= 0.0

    _, gentle = make_model("vol32", 1.0, 1.0)
    rep = check_local_lipschitz_f(gentle.drift, L=1.0, q=2.0, n_pairs=20_000, seed=0)
    assert rep.ok


@pytest.mark.parametrize("name", ["L", "box", "eta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_checkers_reject_scan_arguments_that_are_not_positive_finite(name, value):
    _, model = make_model("vol32", 4.0, 1.0)
    args = dict(L=1.0, box=10.0, eta=2.0, q=2.0)
    args[name] = value
    checks = [
        lambda: check_monotonicity(model.drift, model.diffusion, eta=args["eta"], L=args["L"],
                                   box=args["box"], n_pairs=10),
    ]
    if name != "eta":  # only the monotonicity inequality has a weight eta
        checks += [
            lambda: check_coercivity(model.drift, model.diffusion, L=args["L"], q=args["q"],
                                     box=args["box"], n_points=10),
            lambda: check_local_lipschitz_f(model.drift, L=args["L"], q=args["q"],
                                            box=args["box"], n_pairs=10),
        ]
    for check in checks:
        with pytest.raises(ValueError, match=rf"\b{name} must"):
            check()


def test_checkers_reject_negative_sample_counts_and_accept_zero():
    _, model = make_model("vol32", 4.0, 1.0)
    checks = {
        "n_pairs": [
            lambda n: check_monotonicity(model.drift, model.diffusion, eta=2.0, L=1.0, n_pairs=n),
            lambda n: check_local_lipschitz_f(model.drift, L=1.0, q=2.0, n_pairs=n),
        ],
        "n_points": [
            lambda n: check_coercivity(model.drift, model.diffusion, L=1.0, q=2.0, n_points=n),
        ],
    }
    for name, calls in checks.items():
        for check in calls:
            with pytest.raises(ValueError, match=rf"\b{name} must be >= 0, got -5"):
                check(-5)
            for value in (2.5, float("nan")):
                with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value}$"):
                    check(value)
            assert check(0).pairs_tested > 0  # the deterministic lattice alone


def test_report_slack_sign_tracks_the_verdict():
    _, model = make_model("vol32", 4.0, 1.0)
    for rep in (
        check_monotonicity(model.drift, model.diffusion, eta=2.0, L=1.0, n_pairs=5_000, seed=1),
        check_coercivity(model.drift, model.diffusion, L=1.0, q=2.0, n_points=5_000, seed=1),
        check_local_lipschitz_f(model.drift, L=4.0, q=2.0, n_pairs=5_000, seed=1),
    ):
        assert rep.ok == (rep.max_slack >= 0.0)
        assert rep.ok == (len(rep.violations) == 0)
        assert rep.pairs_tested > 5_000  # lattice pass is always included
