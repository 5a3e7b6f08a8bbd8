"""Unit tests for the steppers, the implicit solvers, and trajectory integration."""

import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from sdestep import (
    BACKWARD_EULER,
    BDF2,
    EXPLICIT_EULER,
    ExperimentConfig,
    ImplicitSolverConfig,
    SchemeCoefficients,
    SdeModel,
    SeedSpec,
    SolverSingularError,
    StepSizeError,
    TimeGrid,
    closed_form_32vol,
    generate_increments,
    integrate,
    make_model,
    run_convergence_study,
    solve_implicit,
    step_bdf2,
    step_bem,
    step_explicit_euler,
    step_lmm,
)
from sdestep import schemes
from sdestep.brownian import IncrementTable
from sdestep.schemes import (
    _noise_product,
    _rhs_form,
    _solve_core,
    _solve_linear,
)

VOL32_PARAMS, VOL32 = make_model("vol32", 4.0, 1.0)
TOY_PARAMS, TOY = make_model("toy2d", 96.0, 0.47)
# the model picks its solve: without its closed form, vol32 runs Newton
VOL32_NEWTON = replace(VOL32, closed_form_implicit=None)
SPD_A = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.0]])
# f(x) = -A x with A symmetric positive definite (so x @ A is A x row by row), noise 0.5*I
SPD3 = SdeModel(
    state_dim=3,
    noise_dim=3,
    drift=lambda x: -(x @ SPD_A),
    diffusion=lambda x: 0.5 * np.broadcast_to(np.eye(3), x.shape + (3,)),
    drift_jacobian=lambda x: -np.broadcast_to(SPD_A, x.shape + (3,)),
    L=1.0,
    eta=1.0,
    q=1.0,
)


def residual(model, beta, h, x, R):
    """|x - h*beta*f(x) - R| for checking solver output."""
    x = np.asarray(x, dtype=float)
    phi = x - h * beta * model.drift(x) - np.asarray(R, dtype=float)
    return np.sqrt(np.sum(phi * phi, axis=-1))


def linear_model(a: float) -> SdeModel:
    """Noise-free linear drift f(x) = a*x with exact solve and Jacobian."""
    return SdeModel(
        state_dim=1,
        noise_dim=1,
        drift=lambda x: a * x,
        diffusion=lambda x: np.zeros(x.shape + (1,)),
        drift_jacobian=lambda x: np.broadcast_to(np.array([[a]]), x.shape + (1,)).copy(),
        closed_form_implicit=lambda beta, h: lambda R: R / (1.0 - h * beta * a),
        L=max(abs(a), 1.0),
        eta=1.0,
        q=1.0,
    )


def zero_table(grid: TimeGrid, d: int = 1) -> IncrementTable:
    return IncrementTable(grid=grid, noise_dim=d, increments=np.zeros((grid.N, d)))


# ---------------------------------------------------------------- step bound


@pytest.mark.parametrize(
    "coeffs,second_init,L,bound",
    [
        (BACKWARD_EULER, "bem", 1.0, 1.0),
        (BACKWARD_EULER, "bem", 4.0, 0.25),
        (BDF2, "copy", 1.0, 1.5),
        (BDF2, "copy", 4.0, 0.375),
        (BDF2, "bem", 1.0, 1.0),  # the drift-implicit Euler starter's beta = 1
        (BDF2, "bem", 4.0, 0.25),
        (EXPLICIT_EULER, "bem", 1.0, np.inf),
    ],
    ids=["bem-L1", "bem-L4", "bdf2-copy-L1", "bdf2-copy-L4", "bdf2-bem-L1", "bdf2-bem-L4", "eulm"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrate_step_bound_sits_at_one_over_beta_L(coeffs, second_init, L, bound):
    """h < 1/(beta L) for every implicit solve that runs: 1/L for BEM, 3/(2L) for BDF2."""
    model = replace(VOL32, L=L)
    cfg = ImplicitSolverConfig()

    def run(h):
        grid = TimeGrid(T=2.0 * h, N=2)
        return integrate(model, coeffs, cfg, grid, zero_table(grid), [0.5], second_init=second_init)

    if np.isinf(bound):
        assert run(1e6).states.shape == (3, 1)
        return
    assert np.isfinite(run(bound * (1.0 - 1e-9)).states).all()
    with pytest.raises(StepSizeError):
        run(bound)
    if coeffs is BDF2 and second_init == "bem":
        # a copy start runs no implicit Euler step, so 1/L is inside the BDF2 bound
        grid = TimeGrid(T=2.0 * bound, N=2)
        integrate(model, BDF2, cfg, grid, zero_table(grid), [0.5], second_init="copy")


@pytest.mark.parametrize("h", [0.0, -1.0, np.inf, np.nan])
def test_non_positive_or_non_finite_steps_are_rejected_even_without_the_bound(h):
    for cfg in (ImplicitSolverConfig(), ImplicitSolverConfig(enforce_step_bound=False)):
        with pytest.raises(StepSizeError, match="positive finite"):
            solve_implicit(VOL32, 1.0, h, np.array([1.0]), cfg)
        with pytest.raises(StepSizeError, match="positive finite"):
            step_bem(VOL32, cfg, np.array([1.0]), h, np.array([0.0]))


def test_integration_warns_above_stricter_stability_candidates():
    grid = TimeGrid(T=1.0, N=5)  # h = 0.2 > 0.1, inside the step bound
    inc = zero_table(grid)
    with pytest.warns(RuntimeWarning, match="stability"):
        integrate(VOL32, BACKWARD_EULER, ImplicitSolverConfig(), grid, inc, [1.0], second_init="bem")
    with pytest.warns(RuntimeWarning, match="stability") as record:
        integrate(VOL32, BDF2, ImplicitSolverConfig(), grid, inc, [1.0], second_init="bem")
    assert len(record) == 1  # once per call, not once per step

    fine = TimeGrid(T=1.0, N=25)  # h = 0.04 < both candidates
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        integrate(VOL32, BACKWARD_EULER, ImplicitSolverConfig(), fine, zero_table(fine), [1.0], second_init="bem")
        integrate(VOL32, EXPLICIT_EULER, ImplicitSolverConfig(), grid, inc, [1.0], second_init="bem")


# ------------------------------------------------------- closed-form solve


def test_closed_form_32vol_zero_and_sign_symmetry():
    assert closed_form_32vol(4.0, 1.0, 0.01)(0.0) == 0.0
    rng = np.random.default_rng(12)
    R = rng.uniform(-50.0, 50.0, size=10_000)
    plus = closed_form_32vol(4.0, 1.0, 0.01)(R)
    minus = closed_form_32vol(4.0, 1.0, 0.01)(-R)
    assert np.array_equal(minus, -plus)  # exact oddness by construction


def test_closed_form_32vol_spot_value_against_bisection():
    lam, beta, h, R = 4.0, 1.0, 0.01, 1.0
    x = closed_form_32vol(lam, beta, h)(R)

    def phi(z):
        return z - beta * h * (z - lam * z * abs(z)) - R

    lo, hi = 0.0, 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if phi(lo) * phi(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert abs(x - 0.5 * (lo + hi)) < 1e-12
    assert x == pytest.approx(0.9719331683349637, abs=1e-13)
    assert residual(VOL32, beta, h, np.array([x]), np.array([R])) <= 1e-12 * (1.0 + abs(R))


def test_closed_form_32vol_residual_over_random_inputs():
    rng = np.random.default_rng(7)
    n = 2000
    lam = rng.uniform(0.5, 30.0, size=n)
    beta = rng.uniform(0.1, 1.0, size=n)
    h = rng.uniform(1e-4, 0.9, size=n) / (beta * 1.0)  # keep h*beta*L < 1 with L=1
    R = rng.uniform(-20.0, 20.0, size=n)
    for i in range(n):
        x = closed_form_32vol(lam[i], beta[i], h[i])(R[i])
        f = x - lam[i] * x * abs(x)
        assert abs(x - beta[i] * h[i] * f - R[i]) <= 1e-12 * (1.0 + abs(R[i]))


def test_closed_form_32vol_validation_and_array_shapes():
    with pytest.raises(ValueError):
        closed_form_32vol(0.0, 1.0, 0.01)(1.0)
    with pytest.raises(ValueError):
        closed_form_32vol(4.0, 1.0, 0.0)(1.0)
    out = closed_form_32vol(4.0, 1.0, 0.01)(np.array([[1.0], [-2.0]]))
    assert out.shape == (2, 1)
    assert isinstance(closed_form_32vol(4.0, 1.0, 0.01)(1.0), float)


@pytest.mark.parametrize("h", [1e-156, 1e-200])
def test_closed_form_32vol_where_c_squared_overflows_agrees_with_newton(h):
    # c = (1 - beta*h) / (2*beta*h*lam) is finite but c*c is not
    newton = ImplicitSolverConfig()
    for R in (1.0, -2.5, 1e-300, 0.3, 1e10):
        x = closed_form_32vol(4.0, 1.0, h)(R)
        assert isinstance(x, float)
        assert x == pytest.approx(solve_implicit(VOL32_NEWTON, 1.0, h, np.array([R]), newton)[0],
                                  rel=1e-15)
    R = np.array([[1.0], [-2.5], [0.0]])
    assert np.array_equal(closed_form_32vol(4.0, 1.0, h)(R), R)


def test_closed_form_32vol_names_a_step_too_small_for_its_formula():
    with pytest.raises(ValueError, match=r"h=1e-320\b"):
        closed_form_32vol(4.0, 1.0, 1e-320)(1.0)


@pytest.mark.parametrize("name,args", [
    ("lam", (np.inf, 1.0, 0.01)),
    ("lam", (np.nan, 1.0, 0.01)),
    ("beta", (4.0, np.inf, 0.01)),
    ("h", (4.0, 1.0, np.inf)),
    ("h", (4.0, 1.0, np.nan)),
    # two negative parameters, whose product beta*h*lam is positive
    ("beta", (4.0, -1.0, -0.01)),
    ("lam", (-4.0, -1.0, 0.01)),
    ("lam", (0.0, 1.0, 0.01)),
    ("beta", (4.0, 0.0, 0.01)),
    ("h", (4.0, 1.0, 0.0)),
])
def test_closed_form_32vol_names_a_non_finite_parameter(name, args):
    lam, beta, h = args
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} must be a positive finite real, got"):
            closed_form_32vol(lam, beta, h)(0.5)


@pytest.mark.parametrize("beta", [np.inf, np.nan, 0.0, -1.0])
def test_solve_implicit_needs_a_positive_finite_beta(beta):
    loose = ImplicitSolverConfig(enforce_step_bound=False)
    for model in (VOL32, TOY):
        with pytest.raises(ValueError, match=rf"^beta must be a positive finite real, got {beta}$"):
            solve_implicit(model, beta, 0.01, np.full(model.state_dim, 0.5), loose)


def _closed_form_per_call(lam, beta, h, R):
    """The closed form as evaluated before its constants were settled: Python-float operands."""
    bh = beta * h
    R = np.asarray(R, dtype=float)
    c = float((1.0 - bh) / (2.0 * bh * lam))
    if np.isfinite(c * c):
        a = np.abs(R) / (bh * lam)
        return np.sign(R) * (a / (c + np.sqrt(c * c + a)))
    q = 2.0 * np.abs(R) / (1.0 - bh)
    return np.sign(R) * (q / (1.0 + np.sqrt(1.0 + q / c)))


def _random_rhs(rng, n=257):
    R = rng.standard_normal((n, 1)) * 10.0 ** rng.integers(-300, 300, size=(n, 1))
    R[:6, 0] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]
    return R


@pytest.mark.parametrize("h", [0.01, 1e-156])
def test_settled_closed_form_is_the_per_call_formula_bitwise(h):
    # h=1e-156 takes the branch where c*c overflows; the second round hits the cache
    rng = np.random.default_rng(13)
    models = (make_model("vol32", 4.0, 1.0)[0], make_model("vol32", 30.0, 2.0)[0])
    beta = 2.0 / 3.0
    with np.errstate(invalid="ignore"):
        for _round in range(2):
            for params in models:  # alternating lambdas share no settled constants
                R = _random_rhs(rng)
                want = _closed_form_per_call(params.lam, beta, h, R)
                hits = closed_form_32vol.cache_info().hits
                got = params.closed_form_implicit(beta, h)(R)
                assert _round == 0 or closed_form_32vol.cache_info().hits == hits + 1
                assert got.tobytes() == want.tobytes()
                assert closed_form_32vol(params.lam, beta, h)(R).tobytes() == want.tobytes()
                x = closed_form_32vol(params.lam, beta, h)(float(R[7, 0]))
                assert isinstance(x, float) and x == want[7, 0]


def test_settled_operands_are_read_only_float64_scalars():
    params = make_model("vol32", 4.0, 1.0)[0]
    toy = make_model("toy2d", 96.0, 0.47)[0]
    settled = [*closed_form_32vol(4.0, 1.0, 0.01).args,
               *closed_form_32vol(4.0, 1.0, 1e-156).args,
               params._lam, params._sigma, toy._a_diag, toy._a_off, toy._minus_a_off, toy._sigma]
    settled += _rhs_form(BDF2).args  # -1/3 on U_0, -1/3 on its noise, 4/3 on U_1
    assert len(settled) == 14
    for value in settled:
        assert value.shape == () and value.dtype == np.float64
        with pytest.raises(ValueError):
            value[()] = 1.0
    assert repr(params) == "ThreeHalvesVol(lam=4.0, sigma=1.0)"
    assert params == make_model("vol32", 4.0, 1.0)[0]
    assert repr(toy) == "ToyCubic2D(lam=96.0, sigma=0.47)"
    assert toy == make_model("toy2d", 96.0, 0.47)[0] and hash(toy) == hash(make_model("toy2d", 96.0, 0.47)[0])


# -------------------------------------------------------------- solve_implicit


def test_solve_implicit_enforces_the_step_bound():
    with pytest.raises(StepSizeError):
        solve_implicit(VOL32, 1.0, 1.0, np.array([1.0]), ImplicitSolverConfig())
    with pytest.raises(StepSizeError):
        solve_implicit(VOL32, 1.0, -0.1, np.array([1.0]), ImplicitSolverConfig())
    with pytest.raises(ValueError):
        solve_implicit(VOL32, 0.0, 0.1, np.array([1.0]), ImplicitSolverConfig())

    # the bound is skippable for deliberate out-of-regime experiments
    loose = ImplicitSolverConfig(enforce_step_bound=False)
    x = solve_implicit(VOL32, 1.0, 1.2, np.array([1.0]), loose)
    assert residual(VOL32, 1.0, 1.2, x, np.array([1.0])) <= 1e-12 * 2.0


@pytest.mark.parametrize("model", [VOL32, VOL32_NEWTON], ids=["closed_form", "newton"])
@pytest.mark.parametrize("shape", [(), (3, 2), (2,), (4, 1, 1)])
def test_solve_implicit_rejects_an_rhs_of_the_wrong_shape(model, shape):
    # a 0-d R made Newton fail on len(); a (3, 2) R came back from the m=1 closed form as (3, 2)
    message = rf"^R must have shape \(1,\) or \(B, 1\), got {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=message):
        solve_implicit(model, 1.0, 0.01, np.ones(shape), ImplicitSolverConfig())


@pytest.mark.parametrize("R", [1.0, [1.0, 2.0, 3.0], [[1.0], [2.0]]])
def test_solve_implicit_rejects_an_rhs_of_the_wrong_shape_for_newton_models(R):
    with pytest.raises(ValueError, match=r"^R must have shape \(2,\) or \(B, 2\), got "):
        solve_implicit(TOY, 1.0, 0.01, R, ImplicitSolverConfig())


def test_solve_implicit_fixed_point_at_zero():
    for model in (VOL32, VOL32_NEWTON):  # the closed form, then Newton
        x = solve_implicit(model, 1.0, 0.01, np.array([0.0]), ImplicitSolverConfig())
        assert x == np.array([0.0])


def test_newton_is_exact_for_linear_drift_in_one_iteration():
    model = replace(linear_model(-2.0), closed_form_implicit=None)
    cfg = ImplicitSolverConfig(newton_iterations=1)
    R = np.array([3.7])
    x = solve_implicit(model, 0.5, 0.3, R, cfg)
    expected = R / (1.0 - 0.3 * 0.5 * (-2.0))
    assert np.all(np.abs(x - expected) <= 1e-14 * (1.0 + np.abs(R)))
    assert residual(model, 0.5, 0.3, x, R) <= 1e-14


def test_closed_form_and_newton_agree_on_the_32vol_model():
    cfg_newton = ImplicitSolverConfig(newton_iterations=10)
    cfg_closed = ImplicitSolverConfig()
    rng = np.random.default_rng(42)
    for _ in range(50):
        R = np.array([rng.uniform(-5.0, 5.0)])
        h = rng.uniform(1e-3, 0.5)
        a = solve_implicit(VOL32, 1.0, h, R, cfg_closed)
        b = solve_implicit(VOL32_NEWTON, 1.0, h, R, cfg_newton)
        assert np.all(np.abs(a - b) <= 1e-10 * (1.0 + np.abs(R)))


def test_solver_mode_configuration_errors():
    no_jac = replace(VOL32, drift_jacobian=None, closed_form_implicit=None)
    with pytest.raises(ValueError):
        solve_implicit(no_jac, 1.0, 0.01, np.array([1.0]), ImplicitSolverConfig())
    no_closed = replace(VOL32, closed_form_implicit=None)
    # a model without a closed form gets Newton
    x = solve_implicit(no_closed, 1.0, 0.01, np.array([1.0]), ImplicitSolverConfig())
    assert residual(no_closed, 1.0, 0.01, x, np.array([1.0])) <= 1e-10 * 2.0
    with pytest.raises(ValueError):
        ImplicitSolverConfig(newton_iterations=0)


def test_solver_config_holds_only_the_newton_count_and_the_step_bound_switch():
    # which solve runs is the model's, read off its closed_form_implicit
    names = [field.name for field in fields(ImplicitSolverConfig)]
    assert names == ["newton_iterations", "enforce_step_bound"]


def test_newton_iterations_must_be_an_integer():
    for value in (2.5, float("nan")):
        with pytest.raises(ValueError, match=f"^newton_iterations must be an integer, got {value}$"):
            ImplicitSolverConfig(newton_iterations=value)
    R = np.array([[2.0, 3.0], [-1.0, 0.5]])
    numpy_int = solve_implicit(TOY, 1.0, 0.01, R, ImplicitSolverConfig(newton_iterations=np.int64(3)))
    plain = solve_implicit(TOY, 1.0, 0.01, R, ImplicitSolverConfig(newton_iterations=3))
    assert numpy_int.tobytes() == plain.tobytes()


def reference_solve_2x2(A, b):
    """The componentwise adjugate solve that ``_solve_linear`` used for m = 2, for a batch."""
    a11, a12, a21, a22 = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    det = a11 * a22 - a12 * a21
    b = np.where((np.abs(det) < 1e-14)[..., None], np.nan, b)
    x1 = (a22 * b[..., 0] - a12 * b[..., 1]) / det
    x2 = (a11 * b[..., 1] - a21 * b[..., 0]) / det
    return np.stack([x1, x2], axis=-1)


def assert_same_bits(got, want):
    """Equal shape and dtype, NaN at the same places and every other value bit for bit."""
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_two_by_two_solve_keeps_the_bits_of_the_componentwise_adjugate():
    rng = np.random.default_rng(12)
    special = [0.0, -0.0, 1.0, -1.0, 1e200, -1e200, np.inf, -np.inf, np.nan]
    A = rng.normal(size=(60, 2, 2))
    A[0] = [[1.0, 2.0], [2.0, 4.0]]  # singular row
    A[1:10, 0, 0] = special
    b = rng.normal(size=(60, 2))
    b[10:19, 0] = special
    b[19:28, 1] = special
    for shape in [(60,), (6, 10)]:
        A_s, b_s = A.reshape(shape + (2, 2)), b.reshape(shape + (2,))
        assert_same_bits(_solve_linear(A_s, b_s), reference_solve_2x2(A_s, b_s))
    assert np.isnan(_solve_linear(A, b)[0]).all()
    for i in (5, 12, 30):  # single states
        assert_same_bits(_solve_linear(A[i], b[i]), reference_solve_2x2(A[i], b[i]))
    with pytest.raises(SolverSingularError, match=r"\|det\|=0\.000e\+00"):
        _solve_linear(A[0], b[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize(
    "model, h, scale",
    [
        (VOL32, 0.01, 5.0),  # the closed form
        (VOL32_NEWTON, 0.01, 5.0),
        (TOY, 0.004, 30.0),
        (SPD3, 0.04, 3.0),
    ],
    ids=["vol32-closed-form", "vol32-newton", "toy2d-newton", "spd3-newton"],
)
def test_non_finite_rhs_propagates_as_nan(model, h, scale, bad):
    # a non-finite row runs through the core's own arithmetic and comes back
    # NaN (no finite entry), and its batch-mates keep the bits they have alone
    cfg = ImplicitSolverConfig()
    single = solve_implicit(model, 2.0 / 3.0, h, np.full(model.state_dim, bad), cfg)
    assert np.isnan(single).all()

    batch = np.random.default_rng(5).uniform(-scale, scale, size=(5, model.state_dim))
    batch[2] = bad
    out = solve_implicit(model, 2.0 / 3.0, h, batch, cfg)
    assert out.shape == batch.shape and np.isnan(out[2]).all()
    for i in (0, 1, 3, 4):
        alone = solve_implicit(model, 2.0 / 3.0, h, batch[i], cfg)
        assert out[i].tobytes() == alone.tobytes(), i


@pytest.mark.parametrize(
    "model,R",
    [
        (VOL32, [[np.inf], [1.0]]),  # the closed form
        (VOL32_NEWTON, [[np.inf], [1.0]]),
        (TOY, [[np.inf, 1.0], [1.0, -2.0]]),
    ],
    ids=["vol32-closed-form", "vol32-newton", "toy2d-newton"],
)
def test_solve_implicit_is_silent_on_a_non_finite_row(model, R):
    # integrate and the study engine run the same arithmetic under np.errstate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = solve_implicit(model, 2.0 / 3.0, 0.004, np.array(R), ImplicitSolverConfig())
    assert not np.isfinite(out[0]).any()
    assert np.isfinite(out[1]).all()


def singular_at_origin(model: SdeModel, bh: float) -> SdeModel:
    """``model`` with its Jacobian set to I/bh at x = 0, where DPhi = I - bh*J is then singular."""
    eye = np.eye(model.state_dim)

    def jac(x):
        at_zero = np.all(np.asarray(x) == 0.0, axis=-1)[..., None, None]
        return np.where(at_zero, eye / bh, model.drift_jacobian(x))

    return replace(model, drift_jacobian=jac)


def fake_singular_model(h: float, beta: float, state_dim: int = 1) -> SdeModel:
    """A zero-drift model whose reported Jacobian makes DPhi exactly singular at x = 0."""
    zero = SdeModel(
        state_dim=state_dim,
        noise_dim=1,
        drift=lambda x: 0.0 * x,
        diffusion=lambda x: np.zeros(x.shape + (1,)),
        drift_jacobian=lambda x: np.zeros(x.shape + (state_dim,)),
        L=1.0,
        eta=1.0,
        q=1.0,
    )
    return singular_at_origin(zero, h * beta)


def test_singular_linearization_raises_for_single_states():
    cfg = ImplicitSolverConfig()
    for m in (1, 2, 3):  # division, adjugate and LU
        model = fake_singular_model(h=0.1, beta=1.0, state_dim=m)
        with pytest.raises(SolverSingularError, match=r"\|det\|=") as excinfo:
            solve_implicit(model, 1.0, 0.1, np.zeros(m), cfg)
        # only an integration loop knows which step failed
        assert excinfo.value.step_index is None


def test_singular_linearization_nans_only_the_bad_batch_rows():
    cfg = ImplicitSolverConfig(newton_iterations=1)
    for m in (1, 2, 3):  # division, adjugate and LU
        model = fake_singular_model(h=0.1, beta=1.0, state_dim=m)
        batch = np.array([[0.0] * m, [2.0] * m])  # row 0 starts at the singular point
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a bad row is data, not a floating-point warning
            out = solve_implicit(model, 1.0, 0.1, batch, cfg)
        assert np.isnan(out[0]).all()
        assert np.all(out[1] == 2.0)  # zero drift: the solution is R itself


def test_a_bare_newton_step_raises_for_a_singular_state_and_nans_its_batch_row():
    # the bare steps solve through the stepper, not solve_implicit: the same rules hold there
    cfg = ImplicitSolverConfig(newton_iterations=1)
    for m in (1, 2, 3):  # division, adjugate and LU
        model = fake_singular_model(h=0.1, beta=1.0, state_dim=m)
        with pytest.raises(SolverSingularError, match=r"\|det\|=") as excinfo:
            step_bem(model, cfg, np.zeros(m), 0.1, np.zeros(1))
        assert excinfo.value.step_index is None
        batch = np.array([[0.0] * m, [2.0] * m])  # row 0 starts at the singular point
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = step_bem(model, cfg, batch, 0.1, np.zeros((2, 1)))
        assert np.isnan(out[0]).all()
        assert out[1:].tobytes() == step_bem(model, cfg, batch[1:], 0.1, np.zeros((1, 1))).tobytes()


def test_newton_runs_exactly_k_iterations_without_tolerance():
    jac_calls = []
    counted = replace(
        VOL32,
        closed_form_implicit=None,
        drift_jacobian=lambda x: (jac_calls.append(1) or VOL32.drift_jacobian(x)),
    )
    cfg = ImplicitSolverConfig(newton_iterations=5)
    solve_implicit(counted, 1.0, 0.01, np.array([1.0]), cfg)
    assert len(jac_calls) == 5


def test_batched_newton_solves_each_row_as_if_alone():
    # every row gets exactly K updates, so its bits never depend on its batch-mates
    cfg = ImplicitSolverConfig(newton_iterations=8)
    rng = np.random.default_rng(3)
    for model, h, scale in ((VOL32_NEWTON, 0.01, 5.0), (TOY, 0.004, 30.0), (SPD3, 0.04, 3.0)):
        model = singular_at_origin(model, h)
        R = rng.uniform(-scale, scale, size=(32, model.state_dim))
        R[0] = np.inf  # non-finite row
        R[1] = 0.0  # singular row: NaN in the batch, an error alone
        batched = solve_implicit(model, 1.0, h, R, cfg)
        assert batched.shape == R.shape and np.isnan(batched[1]).all()
        with pytest.raises(SolverSingularError):
            solve_implicit(model, 1.0, h, R[1], cfg)
        for i in [0, *range(2, len(R))]:
            alone = solve_implicit(model, 1.0, h, R[i], cfg)
            assert batched[i].tobytes() == alone.tobytes(), (model.state_dim, i)


def test_newton_solves_a_three_dimensional_linear_model():
    beta, h = 2.0 / 3.0, 0.04
    R = np.random.default_rng(4).uniform(-3.0, 3.0, size=(5, 3))
    direct = np.linalg.solve(np.eye(3) + beta * h * SPD_A, R.T).T
    for rows in (3, 5):  # B = m and B != m both once tripped the batched LU
        got = solve_implicit(SPD3, beta, h, R[:rows], ImplicitSolverConfig())
        assert got.shape == (rows, 3)
        assert np.max(np.abs(got - direct[:rows])) <= 1e-14
    table = run_convergence_study(
        ExperimentConfig(
            model=SPD3, x0=(1.0, -0.5, 2.0), schemes=("bem", "bdf2"), levels=(25, 50),
            samples=8, ref_steps=400, base_seed=9,
        )
    )
    for n in (25, 50):
        for scheme in ("bem", "bdf2"):
            assert np.isfinite(table.cell(n, scheme).error)


def test_newton_starts_from_the_rhs():
    cfg = ImplicitSolverConfig(newton_iterations=1)
    R = np.array([1.0])

    def one_update(x0):
        f = VOL32.drift(x0)
        jf = VOL32.drift_jacobian(x0)[..., 0, 0]
        phi = x0 - 0.01 * f - R
        return x0 - phi / (1.0 - 0.01 * jf)

    got = solve_implicit(VOL32_NEWTON, 1.0, 0.01, R, cfg)
    assert np.allclose(got, one_update(R.copy()), rtol=0, atol=1e-16)


def newton_with_a_broadcast_identity(model, bh, iterations, R):
    """Newton for x - bh*f(x) = R as it ran with one ``np.eye(m)`` broadcast over the rows."""
    eye = np.eye(model.state_dim)
    x = R
    for _ in range(iterations):
        phi = x - bh * model.drift(x) - R
        x = x - _solve_linear(eye - bh * model.drift_jacobian(x), phi)
    return x


@pytest.mark.parametrize("h", [(0.004,), (0.004, 0.002, 0.001)], ids=["one-block", "three-blocks"])
@pytest.mark.parametrize("model,scale", [(VOL32_NEWTON, 5.0), (TOY, 30.0), (SPD3, 3.0)],
                         ids=["m1", "m2", "m3"])
def test_newton_with_a_per_row_identity_keeps_the_broadcast_bits(model, scale, h):
    cfg = ImplicitSolverConfig()
    beta, block = 2.0 / 3.0, 4
    R = np.random.default_rng(21).uniform(-scale, scale, size=(block * len(h), model.state_dim))
    R[1] = np.inf
    R[-2, 0] = -0.0
    solve = _solve_core(model, beta, h, cfg, R.shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for blocks in range(len(h), 0, -1):  # all rows, then each prefix a narrowed stepper keeps
            rows = blocks * block
            got = solve(R[:rows])
            for i in range(blocks):
                part = slice(i * block, (i + 1) * block)
                want = newton_with_a_broadcast_identity(model, beta * h[i], cfg.newton_iterations,
                                                        R[part])
                assert_same_bits(got[part], want)


# ------------------------------------------------------------------- steppers


def test_explicit_euler_hand_values_and_explosion():
    still = SdeModel(1, 1, drift=lambda x: 0.0 * x, diffusion=lambda x: np.zeros(x.shape + (1,)))
    x = step_explicit_euler(still, np.array([2.5]), 0.1, np.array([0.3]))
    assert x == np.array([2.5])

    sig0 = make_model("vol32", 4.0, 0.0)[1]
    x = step_explicit_euler(sig0, np.array([1.0]), 0.1, np.array([0.0]))
    assert x == pytest.approx(np.array([0.7]), abs=0)

    # running away is data, not an error
    with np.errstate(over="ignore"):
        big = step_explicit_euler(sig0, np.array([1e200]), 0.1, np.array([0.0]))
    assert not np.isfinite(big).all() or abs(big[0]) > 1e200


def test_bem_reduces_to_explicit_when_drift_vanishes():
    still = SdeModel(
        1, 1,
        drift=lambda x: 0.0 * x,
        diffusion=lambda x: np.ones(x.shape + (1,)),
        drift_jacobian=lambda x: np.zeros(x.shape + (1,)),
    )
    dW = np.array([0.37])
    a = step_bem(still, ImplicitSolverConfig(), np.array([1.5]), 0.1, dW)
    b = step_explicit_euler(still, np.array([1.5]), 0.1, dW)
    assert np.array_equal(a, b)


def test_bem_step_satisfies_its_implicit_equation():
    sig0 = make_model("vol32", 4.0, 0.0)[1]
    x_prev = np.array([1.0])
    x = step_bem(sig0, ImplicitSolverConfig(), x_prev, 0.01, np.array([0.0]))
    assert residual(sig0, 1.0, 0.01, x, x_prev) <= 1e-12 * 2.0


def test_bdf2_equilibrium_and_unnormalized_residual():
    # f vanishes at |x| = 1/lambda; with zero noise the step must stay put
    c = np.array([0.25])
    x = step_bdf2(VOL32, ImplicitSolverConfig(), c, c, 0.01, np.zeros(1), np.zeros(1))
    assert np.all(np.abs(x - c) <= 1e-13)

    rng = np.random.default_rng(5)
    x_prev = np.array([rng.uniform(0.2, 1.5)])
    x_prev2 = np.array([rng.uniform(0.2, 1.5)])
    dw1, dw0 = np.array([rng.normal() * 0.1]), np.array([rng.normal() * 0.1])
    h = 0.01
    x = step_bdf2(VOL32, ImplicitSolverConfig(), x_prev, x_prev2, h, dw1, dw0)
    lhs = (
        1.5 * x - 2.0 * x_prev + 0.5 * x_prev2
        - h * VOL32.drift(x)
        - 1.5 * VOL32.diffusion(x_prev)[..., 0] * dw1
        + 0.5 * VOL32.diffusion(x_prev2)[..., 0] * dw0
    )
    assert np.all(np.abs(lhs) <= 1e-10 * (1.0 + np.abs(x)))


def test_generic_stepper_matches_dedicated_steppers():
    rng = np.random.default_rng(17)
    cfg = ImplicitSolverConfig()
    h = 0.01
    for _ in range(20):
        x1 = np.array([rng.uniform(-2.0, 2.0)])
        x2 = np.array([rng.uniform(-2.0, 2.0)])
        dw1 = np.array([rng.normal() * 0.1])
        dw0 = np.array([rng.normal() * 0.1])

        bem_direct = step_bem(VOL32, cfg, x1, h, dw1)
        bem_generic = step_lmm(VOL32, cfg, BACKWARD_EULER, [x1], [dw1], h)
        assert np.array_equal(bem_direct, bem_generic)

        eul_direct = step_explicit_euler(VOL32, x1, h, dw1)
        eul_generic = step_lmm(VOL32, cfg, EXPLICIT_EULER, [x1], [dw1], h)
        assert np.array_equal(eul_direct, eul_generic)

        bdf_direct = step_bdf2(VOL32, cfg, x1, x2, h, dw1, dw0)
        bdf_generic = step_lmm(VOL32, cfg, BDF2, [x2, x1], [dw0, dw1], h)
        assert np.array_equal(bdf_direct, bdf_generic)


def j_ordered_noise(g, dW):
    """g @ dW entry by entry, each entry summed over j = 0, 1, ... in order."""
    out = np.empty(g.shape[:-1])
    for index in np.ndindex(*g.shape[:-1]):
        terms = g[index] * dW[index[:-1]]
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        out[index] = total
    return out


@pytest.mark.parametrize("m", [1, 2, 3])
def test_two_dimensional_noise_product_is_the_j_ordered_sum(m):
    rng = np.random.default_rng(23)
    g = rng.normal(size=(40, m, 2))
    dW = rng.normal(size=(40, 2))
    g[:4, 0, 0] = [np.inf, -np.inf, np.nan, -0.0]
    dW[4:8, 1] = [np.inf, -np.inf, np.nan, -0.0]
    g[8] = -0.0
    product = _noise_product(2)
    with np.errstate(invalid="ignore"):
        # the broadcast form the product had before it was written by component
        broadcast = g[..., 0] * dW[..., 0:1] + g[..., 1] * dW[..., 1:2]
        for rows in (slice(None), 3, 8):  # a batch and single states
            got = product(g[rows], dW[rows])
            assert_same_bits(got, j_ordered_noise(g[rows], dW[rows]))
            assert_same_bits(got, broadcast[rows])


def test_bare_steps_settle_their_constants_once(monkeypatch):
    cfg = ImplicitSolverConfig()
    x1, x2 = np.array([[0.7], [-1.2]]), np.array([[0.5], [2.0]])
    dw1, dw0 = np.array([[0.03], [-0.02]]), np.array([[-0.01], [0.04]])
    first = step_bdf2(VOL32, cfg, x1, x2, 0.01, dw1, dw0)
    calls = []

    def counted(value):
        calls.append(value)
        return core_const(value)

    core_const = schemes._const
    monkeypatch.setattr(schemes, "_const", counted)
    assert step_bdf2(VOL32, cfg, x1, x2, 0.01, dw1, dw0).tobytes() == first.tobytes()
    assert calls == []


def test_bare_steps_are_silent_on_a_non_finite_row_and_keep_the_others():
    cfg = ImplicitSolverConfig()
    x1, x2 = np.array([[np.inf], [1.0]]), np.array([[-np.inf], [0.5]])
    dw1, dw0 = np.array([[-0.1], [0.1]]), np.array([[0.2], [-0.3]])
    steps = {
        "bem": lambda r: step_bem(VOL32, cfg, x1[r], 0.01, dw1[r]),
        "bdf2": lambda r: step_bdf2(VOL32, cfg, x1[r], x2[r], 0.01, dw1[r], dw0[r]),
        "eulm": lambda r: step_explicit_euler(VOL32, x1[r], 0.01, dw1[r]),
        "lmm bdf2": lambda r: step_lmm(VOL32, cfg, BDF2, [x2[r], x1[r]], [dw0[r], dw1[r]], 0.01),
        "lmm eulm": lambda r: step_lmm(VOL32, cfg, EXPLICIT_EULER, [x1[r]], [dw1[r]], 0.01),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, step in steps.items():
            both, alone = step(slice(None)), step(slice(1, 2))
            assert not np.isfinite(both[0]).all(), name
            assert both[1:].tobytes() == alone.tobytes(), name


@pytest.mark.parametrize("name,step", [
    ("dW", lambda cfg: step_explicit_euler(VOL32, np.ones(1), 0.01, np.zeros((3, 1)))),
    ("dW", lambda cfg: step_explicit_euler(VOL32, [1.0], 0.01, 0.1)),
    ("x_prev", lambda cfg: step_explicit_euler(TOY, np.ones((2, 2, 2)), 0.001, np.zeros(2))),
    ("dW", lambda cfg: step_bem(VOL32, cfg, [1.0], 0.01, 0.1)),
    ("x_prev", lambda cfg: step_bem(VOL32, cfg, np.ones(2), 0.01, np.zeros(1))),
    ("x_prev", lambda cfg: step_bdf2(TOY, cfg, np.ones(2), np.ones((3, 2)), 0.001,
                                     np.zeros(2), np.zeros(2))),
    ("dW_prev", lambda cfg: step_bdf2(TOY, cfg, np.ones(2), np.ones(2), 0.001,
                                      np.zeros(2), np.zeros(1))),
    ("dW_cur", lambda cfg: step_bdf2(VOL32, cfg, np.ones((2, 1)), np.ones((2, 1)), 0.01,
                                     np.zeros(1), np.zeros((2, 1)))),
    ("state_history[1]", lambda cfg: step_lmm(VOL32, cfg, BDF2, [np.ones((2, 1)), np.ones(1)],
                                              [np.zeros(1)] * 2, 0.01)),
    ("increment_history[0]", lambda cfg: step_lmm(VOL32, cfg, BACKWARD_EULER, [np.ones(1)],
                                                  [np.zeros((4, 1))], 0.01)),
])
def test_bare_steps_name_a_mis_shaped_state_or_increment(name, step):
    # each of these once broadcast to a batch, ended in a bare IndexError or named R
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must have "):
        step(ImplicitSolverConfig())


def test_bare_steps_build_their_rhs_form_once_and_repeat_bitwise():
    cfg = ImplicitSolverConfig()
    x1, x2 = np.array([[0.7], [-1.2]]), np.array([[0.5], [2.0]])
    dw1, dw0 = np.array([[0.03], [-0.02]]), np.array([[-0.01], [0.04]])
    _rhs_form.cache_clear()
    states = [step_bdf2(VOL32, cfg, x1, x2, 0.01, dw1, dw0) for _ in range(3)]
    assert _rhs_form.cache_info().misses == 1 and _rhs_form.cache_info().hits == 2
    assert states[0].tobytes() == states[1].tobytes() == states[2].tobytes()


def test_crank_nicolson_style_preset_hand_value():
    cn = SchemeCoefficients(k=1, alpha=(-1.0, 1.0), beta=(0.5, 0.5), gamma=(1.0,))
    model = replace(linear_model(-1.0), closed_form_implicit=None)
    x_prev = np.array([1.0])
    x = step_lmm(model, ImplicitSolverConfig(), cn, [x_prev], [np.zeros(1)], 0.1)
    assert abs(x[0] - 19.0 / 21.0) <= 1e-15


@pytest.mark.parametrize("coeffs", [BACKWARD_EULER, BDF2, EXPLICIT_EULER], ids=["bem", "bdf2", "eulm"])
def test_step_lmm_returns_the_next_state_that_integrate_takes(coeffs):
    grid = TimeGrid(T=1.0, N=20)
    inc = generate_increments(grid, 1, SeedSpec(9, 0))
    cfg = ImplicitSolverConfig()
    states = integrate(VOL32, coeffs, cfg, grid, inc, [1.0]).states
    k, j = coeffs.k, 10
    x = step_lmm(VOL32, cfg, coeffs, list(states[j - k:j]), list(inc.increments[j - k:j]), grid.h)
    assert isinstance(x, np.ndarray) and x.shape == (1,)
    assert x.tobytes() == states[j].tobytes()


def test_step_lmm_rejects_mismatched_histories():
    with pytest.raises(ValueError):
        step_lmm(VOL32, ImplicitSolverConfig(), BDF2, [np.zeros(1)], [np.zeros(1)], 0.01)


# ------------------------------------------------------------------ integrate


def test_integrate_validates_inputs():
    grid = TimeGrid(T=1.0, N=10)
    other = TimeGrid(T=1.0, N=20)
    inc = zero_table(grid)
    cfg = ImplicitSolverConfig()
    with pytest.raises(ValueError, match=r"grid \(N, h\) = \(10, 0.1\) does not match"):
        integrate(VOL32, BACKWARD_EULER, cfg, other, inc, [1.0], second_init="bem")
    with pytest.raises(ValueError):
        integrate(TOY, BACKWARD_EULER, cfg, grid, inc, [1.0, 2.0], second_init="bem")
    with pytest.raises(ValueError):
        integrate(VOL32, BACKWARD_EULER, cfg, grid, inc, [1.0, 2.0], second_init="bem")


@pytest.mark.parametrize("ulps", [3, -3, 1000])
def test_integrate_rejects_a_table_whose_h_is_off_by_more_than_rounding(ulps):
    # T = h*N rounded is at most an ulp off; three ulps of T is another grid
    grid = TimeGrid(T=1.0, N=10)
    off = TimeGrid(T=1.0 + ulps * np.finfo(float).eps, N=10)
    with pytest.raises(ValueError, match="does not match the integration grid"):
        integrate(VOL32, BDF2, ImplicitSolverConfig(), grid, zero_table(off), [1.0])
    ok = TimeGrid(T=float(np.nextafter(1.0, 0.0)), N=10)
    integrate(VOL32, BDF2, ImplicitSolverConfig(), grid, zero_table(ok), [1.0])


def test_integrate_rejects_a_non_finite_initial_state():
    grid = TimeGrid(T=1.0, N=10)
    for x0 in ([np.nan], [np.inf]):
        with pytest.raises(ValueError, match="^x0 must be finite"):
            integrate(VOL32, BDF2, ImplicitSolverConfig(), grid, zero_table(grid), x0, second_init="bem")


def test_integrate_names_an_initial_state_of_the_wrong_kind_and_takes_a_real():
    # a complex, a string and a ragged list once raised float()'s or numpy's own messages
    grid = TimeGrid(T=1.0, N=10)
    for x0 in ([1j], np.array([1.0 + 2.0j]), ["a"], [[1.0], [2.0, 3.0]]):
        with pytest.raises(ValueError, match="^x0 must be a real or a flat sequence of reals"):
            integrate(VOL32, BDF2, ImplicitSolverConfig(), grid, zero_table(grid), x0)
    with pytest.raises(ValueError, match=r"^x0 has dimension 2, model expects 1$"):
        integrate(VOL32, BDF2, ImplicitSolverConfig(), grid, zero_table(grid), [1.0, 2.0])
    noise = IncrementTable(grid=grid, noise_dim=1,
                           increments=np.random.default_rng(3).normal(0.0, grid.h**0.5, (10, 1)))
    real, listed = (integrate(VOL32, BDF2, ImplicitSolverConfig(), grid, noise, x0).states
                    for x0 in (1.0, [1.0]))
    assert real.tobytes() == listed.tobytes()


def test_integrate_guard_rejects_large_steps_unless_overridden():
    grid = TimeGrid(T=2.0, N=1)  # h = 2 >= 1/(beta_k L) = 1
    inc = zero_table(grid)
    with pytest.raises(StepSizeError):
        integrate(VOL32, BACKWARD_EULER, ImplicitSolverConfig(), grid, inc, [0.5], second_init="bem")
    # enforce_step_bound is the one switch: alone it lets integrate step past the bound
    loose = ImplicitSolverConfig(enforce_step_bound=False)
    with pytest.warns(RuntimeWarning):
        out = integrate(VOL32, BACKWARD_EULER, loose, grid, inc, [0.5], second_init="bem")
    assert out.states.shape == (2, 1)
    assert np.isfinite(out.states).all()


def test_integrate_constant_dynamics_and_copy_first():
    still = SdeModel(
        1, 1,
        drift=lambda x: 0.0 * x,
        diffusion=lambda x: np.zeros(x.shape + (1,)),
        drift_jacobian=lambda x: np.zeros(x.shape + (1, 1))[..., 0],
    )
    grid = TimeGrid(T=1.0, N=8)
    inc = generate_increments(grid, 1, SeedSpec(3, 0))
    out = integrate(still, EXPLICIT_EULER, ImplicitSolverConfig(), grid, inc, [1.25], second_init="bem")
    assert np.all(out.states == 1.25)

    copied = integrate(
        VOL32, BDF2, ImplicitSolverConfig(),
        TimeGrid(T=1.0, N=25), generate_increments(TimeGrid(T=1.0, N=25), 1, SeedSpec(3, 1)), [1.0],
        second_init="copy",
    )
    assert np.array_equal(copied.states[1], copied.states[0])


def test_integrate_bdf2_first_steps_satisfy_the_per_step_equations():
    sig0 = make_model("vol32", 4.0, 0.0)[1]
    grid = TimeGrid(T=1.0, N=25)
    inc = zero_table(grid)
    out = integrate(sig0, BDF2, ImplicitSolverConfig(), grid, inc, [1.0], second_init="bem")
    X = out.states
    h = grid.h
    # state 1 comes from one drift-implicit Euler step
    assert abs(X[1, 0] - h * sig0.drift(X[1])[0] - X[0, 0]) <= 1e-12
    # state 2 satisfies the two-step recursion
    lhs = 1.5 * X[2] - 2.0 * X[1] + 0.5 * X[0] - h * sig0.drift(X[2])
    assert np.all(np.abs(lhs) <= 1e-12)


def test_integrate_explosion_is_silent_and_sticky():
    toy0 = make_model("toy2d", 96.0, 0.0)[1]
    grid = TimeGrid(T=1.0, N=25)
    inc = zero_table(grid, d=2)
    out = integrate(toy0, EXPLICIT_EULER, ImplicitSolverConfig(), grid, inc, [2.0, 3.0], second_init="bem")
    finite_rows = np.isfinite(out.states).all(axis=1)
    assert not finite_rows[-1]
    # once gone, never back
    first_bad = int(np.argmin(finite_rows))
    assert not finite_rows[first_bad:].any()


def test_integrate_reports_the_failing_step_on_singular_solves():
    model = fake_singular_model(h=0.1, beta=1.0)
    grid = TimeGrid(T=1.0, N=10)
    inc = zero_table(grid)
    with pytest.raises(SolverSingularError) as excinfo:
        integrate(model, BACKWARD_EULER, ImplicitSolverConfig(), grid, inc, [0.0], second_init="bem")
    assert excinfo.value.step_index == 1
    assert "step 1" in str(excinfo.value)


@pytest.mark.parametrize(
    "beta,step",
    [(1.0, 1), (2.0 / 3.0, 2)],
    ids=["starter", "recursion"],
)
def test_integrate_reports_the_failing_step_of_a_bdf2_newton_solve(beta, step):
    """The linearization is singular at 0 for the solve with this beta: the
    drift-implicit Euler starter (beta = 1) or the BDF2 recursion (2/3)."""
    model = fake_singular_model(h=0.1, beta=beta)
    grid = TimeGrid(T=1.0, N=10)
    with pytest.raises(SolverSingularError) as excinfo:
        integrate(model, BDF2, ImplicitSolverConfig(), grid, zero_table(grid), [0.0])
    assert excinfo.value.step_index == step
    assert f"step {step}:" in str(excinfo.value)


@pytest.mark.parametrize(
    "coeffs",
    [
        SchemeCoefficients(k=1, alpha=(-1.0, 1.0), beta=(0.5, 0.5), gamma=(1.0,)),
        SchemeCoefficients(
            k=2, alpha=(0.0, -1.0, 1.0), beta=(-1.0 / 12.0, 2.0 / 3.0, 5.0 / 12.0), gamma=(-0.5, 1.0)
        ),
        # three-step Adams-Moulton drift weights: two starting steps, then drift history
        SchemeCoefficients(
            k=3, alpha=(0.0, 0.0, -1.0, 1.0),
            beta=(1.0 / 24.0, -5.0 / 24.0, 19.0 / 24.0, 9.0 / 24.0), gamma=(0.0, 0.0, 1.0)
        ),
    ],
    ids=["theta-half", "two-step-drift-history", "three-step-drift-history"],
)
def test_integrate_equals_chained_step_lmm_calls_bitwise(coeffs):
    """General tuples, with drift history, give exactly what step_lmm gives step by step."""
    grid = TimeGrid(T=1.0, N=50)
    inc = generate_increments(grid, 1, SeedSpec(5, 0))
    cfg = ImplicitSolverConfig()
    traj = integrate(VOL32, coeffs, cfg, grid, inc, [1.0], second_init="bem")
    k, dW = coeffs.k, inc.increments
    states = [np.array([1.0])]
    for j in range(1, k):
        states.append(step_bem(VOL32, cfg, states[-1], grid.h, dW[j - 1]))
    for j in range(k, grid.N + 1):
        states.append(step_lmm(VOL32, cfg, coeffs, states[-k:], dW[j - k : j], grid.h))
    assert np.isfinite(traj.states).all()
    assert np.array(states).tobytes() == traj.states.tobytes()


def test_bdf2_integrate_calls_the_diffusion_once_per_step_and_no_history_drift():
    counts = {"drift": 0, "diffusion": 0}

    def counted(name):
        fn = getattr(VOL32, name)

        def wrapper(x):
            counts[name] += 1
            return fn(x)

        return wrapper

    model = replace(VOL32, drift=counted("drift"), diffusion=counted("diffusion"))
    grid = TimeGrid(T=1.0, N=40)
    inc = generate_increments(grid, 1, SeedSpec(2, 0))
    integrate(model, BDF2, ImplicitSolverConfig(), grid, inc, [1.0], second_init="bem")
    assert counts == {"drift": 0, "diffusion": grid.N}


@pytest.mark.parametrize("steps", [50, 500])
def test_bdf2_integrate_settles_each_closed_form_once(steps):
    calls = []

    def closed_form_implicit(beta, h):
        calls.append((beta, h))
        return VOL32.closed_form_implicit(beta, h)

    model = replace(VOL32, closed_form_implicit=closed_form_implicit)
    grid = TimeGrid(T=1.0, N=steps)
    inc = generate_increments(grid, 1, SeedSpec(2, 0))
    got = integrate(model, BDF2, ImplicitSolverConfig(), grid, inc, [1.0])
    # the recursion's solve and the BEM starter's, each settled when the stepper is built
    assert calls == [(2.0 / 3.0, grid.h), (1.0, grid.h)]
    want = integrate(VOL32, BDF2, ImplicitSolverConfig(), grid, inc, [1.0])
    assert got.states.tobytes() == want.states.tobytes()


def test_integrate_single_step_grid_with_two_step_scheme():
    grid = TimeGrid(T=0.01, N=1)
    inc = zero_table(grid)
    out = integrate(VOL32, BDF2, ImplicitSolverConfig(), grid, inc, [1.0], second_init="bem")
    assert out.states.shape == (2, 1)
    assert np.isfinite(out.states).all()


def test_deterministic_limit_convergence_orders():
    """With zero noise the integrators are the classical deterministic methods."""
    model = linear_model(-1.0)
    exact = np.exp(-1.0)
    errors = {"bem": [], "bdf2": []}
    levels = (16, 32, 64, 128)
    for n in levels:
        grid = TimeGrid(T=1.0, N=n)
        inc = zero_table(grid)
        bem = integrate(model, BACKWARD_EULER, ImplicitSolverConfig(), grid, inc, [1.0], second_init="bem")
        bdf = integrate(model, BDF2, ImplicitSolverConfig(), grid, inc, [1.0], second_init="bem")
        errors["bem"].append(abs(bem.states[-1, 0] - exact))
        errors["bdf2"].append(abs(bdf.states[-1, 0] - exact))
    for scheme, floor in (("bem", 0.95), ("bdf2", 1.9)):
        e = np.array(errors[scheme])
        slopes = np.log2(e[:-1] / e[1:])
        assert np.all(slopes >= floor), (scheme, slopes)


def test_newton_residuals_decrease_through_the_iteration():
    """Per-step |Phi| is non-increasing across Newton iterates (above rounding).

    The drift wrapper logs every iterate the iteration evaluates; each
    implicit step contributes K of them and its result is the last, so the
    per-step residual sequence can be reconstructed exactly.  Tiny wiggles below the
    double-precision floor of the converged residual do not count.
    """
    calls = []
    logged = replace(TOY, drift=lambda x: (calls.append(np.array(x, ndmin=1)) or TOY.drift(x)))
    grid = TimeGrid(T=1.0, N=1000)  # h = 1e-3
    inc = generate_increments(grid, 2, SeedSpec(99, 0))
    K = 5
    traj = integrate(
        logged, BDF2, ImplicitSolverConfig(newton_iterations=K),
        grid, inc, [2.0, 3.0], second_init="bem",
    )
    assert len(calls) == grid.N * K

    X = traj.states
    dW = inc.increments
    h = grid.h
    sigma = TOY_PARAMS.sigma
    bad = 0
    for j in range(1, grid.N + 1):
        seq = calls[(j - 1) * K : j * K] + [X[j]]  # the K-th iterate is the state
        if j == 1:
            beta = 1.0
            R = X[0] + (sigma * np.diag(X[0] ** 2)) @ dW[0]
        else:
            beta = 2.0 / 3.0
            g1 = sigma * np.diag(X[j - 1] ** 2)
            g2 = sigma * np.diag(X[j - 2] ** 2)
            R = (4.0 * X[j - 1] - X[j - 2]) / 3.0 + g1 @ dW[j - 1] - g2 @ dW[j - 2] / 3.0
        res = [np.linalg.norm(x - beta * h * TOY.drift(x) - R) for x in seq]
        floor = 1e-14 * (1.0 + np.linalg.norm(R))
        if any(res[i + 1] > max(res[i], floor) for i in range(K)):
            bad += 1
    assert bad <= 0.01 * grid.N
