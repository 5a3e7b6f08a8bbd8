"""Unit tests for the steppers, the implicit solvers, and trajectory integration."""

import warnings
from dataclasses import replace

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
from sdestep.brownian import IncrementTable
from sdestep.schemes import _solve_linear

VOL32_PARAMS, VOL32 = make_model("vol32", 4.0, 1.0)
TOY_PARAMS, TOY = make_model("toy2d", 96.0, 0.47)
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
        closed_form_implicit=lambda beta, h, R: np.asarray(R, dtype=float) / (1.0 - h * beta * a),
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
    with pytest.warns(RuntimeWarning, match="stability"):
        integrate(VOL32, BDF2, ImplicitSolverConfig(), grid, inc, [1.0], second_init="bem")

    fine = TimeGrid(T=1.0, N=25)  # h = 0.04 < both candidates
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        integrate(VOL32, BACKWARD_EULER, ImplicitSolverConfig(), fine, zero_table(fine), [1.0], second_init="bem")
        integrate(VOL32, EXPLICIT_EULER, ImplicitSolverConfig(), grid, inc, [1.0], second_init="bem")


# ------------------------------------------------------- closed-form solve


def test_closed_form_32vol_zero_and_sign_symmetry():
    assert closed_form_32vol(4.0, 1.0, 1.0, 0.01, 0.0) == 0.0
    rng = np.random.default_rng(12)
    R = rng.uniform(-50.0, 50.0, size=10_000)
    plus = closed_form_32vol(4.0, 1.0, 1.0, 0.01, R)
    minus = closed_form_32vol(4.0, 1.0, 1.0, 0.01, -R)
    assert np.array_equal(minus, -plus)  # exact oddness by construction


def test_closed_form_32vol_spot_value_against_bisection():
    lam, beta, h, R = 4.0, 1.0, 0.01, 1.0
    x = closed_form_32vol(lam, 1.0, beta, h, R)

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
        x = closed_form_32vol(lam[i], 0.0, beta[i], h[i], R[i])
        f = x - lam[i] * x * abs(x)
        assert abs(x - beta[i] * h[i] * f - R[i]) <= 1e-12 * (1.0 + abs(R[i]))


def test_closed_form_32vol_validation_and_array_shapes():
    with pytest.raises(ValueError):
        closed_form_32vol(0.0, 1.0, 1.0, 0.01, 1.0)
    with pytest.raises(ValueError):
        closed_form_32vol(4.0, 1.0, 1.0, 0.0, 1.0)
    out = closed_form_32vol(4.0, 1.0, 1.0, 0.01, np.array([[1.0], [-2.0]]))
    assert out.shape == (2, 1)
    assert isinstance(closed_form_32vol(4.0, 1.0, 1.0, 0.01, 1.0), float)


@pytest.mark.parametrize("h", [1e-156, 1e-200])
def test_closed_form_32vol_where_c_squared_overflows_agrees_with_newton(h):
    # c = (1 - beta*h) / (2*beta*h*lam) is finite but c*c is not
    newton = ImplicitSolverConfig(mode="newton")
    for R in (1.0, -2.5, 1e-300, 0.3, 1e10):
        x = closed_form_32vol(4.0, 1.0, 1.0, h, R)
        assert isinstance(x, float)
        assert x == pytest.approx(solve_implicit(VOL32, 1.0, h, np.array([R]), newton)[0], rel=1e-15)
    R = np.array([[1.0], [-2.5], [0.0]])
    assert np.array_equal(closed_form_32vol(4.0, 1.0, 1.0, h, R), R)


def test_closed_form_32vol_names_a_step_too_small_for_its_formula():
    with pytest.raises(ValueError, match=r"h=1e-320\b"):
        closed_form_32vol(4.0, 1.0, 1.0, 1e-320, 1.0)


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


def test_solve_implicit_fixed_point_at_zero():
    for mode in ("closed_form", "newton"):
        x = solve_implicit(VOL32, 1.0, 0.01, np.array([0.0]), ImplicitSolverConfig(mode=mode))
        assert x == np.array([0.0])


def test_newton_is_exact_for_linear_drift_in_one_iteration():
    model = linear_model(-2.0)
    cfg = ImplicitSolverConfig(mode="newton", newton_iterations=1)
    R = np.array([3.7])
    x = solve_implicit(model, 0.5, 0.3, R, cfg)
    expected = R / (1.0 - 0.3 * 0.5 * (-2.0))
    assert np.all(np.abs(x - expected) <= 1e-14 * (1.0 + np.abs(R)))
    assert residual(model, 0.5, 0.3, x, R) <= 1e-14


def test_closed_form_and_newton_agree_on_the_32vol_model():
    cfg_newton = ImplicitSolverConfig(mode="newton", newton_iterations=10)
    cfg_closed = ImplicitSolverConfig(mode="closed_form")
    rng = np.random.default_rng(42)
    for _ in range(50):
        R = np.array([rng.uniform(-5.0, 5.0)])
        h = rng.uniform(1e-3, 0.5)
        a = solve_implicit(VOL32, 1.0, h, R, cfg_closed)
        b = solve_implicit(VOL32, 1.0, h, R, cfg_newton)
        assert np.all(np.abs(a - b) <= 1e-10 * (1.0 + np.abs(R)))


def test_solver_mode_configuration_errors():
    no_jac = replace(VOL32, drift_jacobian=None, closed_form_implicit=None)
    with pytest.raises(ValueError):
        solve_implicit(no_jac, 1.0, 0.01, np.array([1.0]), ImplicitSolverConfig(mode="newton"))
    no_closed = replace(VOL32, closed_form_implicit=None)
    # "closed_form" is strict: a model without a closed form is a configuration error ...
    with pytest.raises(ValueError, match="closed-form"):
        solve_implicit(no_closed, 1.0, 0.01, np.array([1.0]), ImplicitSolverConfig(mode="closed_form"))
    # ... while "auto" picks Newton for it
    x = solve_implicit(no_closed, 1.0, 0.01, np.array([1.0]), ImplicitSolverConfig(mode="auto"))
    assert residual(no_closed, 1.0, 0.01, x, np.array([1.0])) <= 1e-10 * 2.0
    with pytest.raises(ValueError):
        ImplicitSolverConfig(mode="bogus")
    with pytest.raises(ValueError):
        ImplicitSolverConfig(newton_iterations=0)


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


def test_non_finite_rhs_propagates_as_nan():
    cfg = ImplicitSolverConfig(mode="newton")
    single = solve_implicit(VOL32, 1.0, 0.01, np.array([np.nan]), cfg)
    assert np.isnan(single).all()

    batch = np.array([[1.0], [np.nan], [-2.0]])
    out = solve_implicit(VOL32, 1.0, 0.01, batch, cfg)
    assert np.isnan(out[1]).all()
    for i in (0, 2):
        row = solve_implicit(VOL32, 1.0, 0.01, batch[i], cfg)
        assert np.array_equal(out[i], row)


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
    cfg = ImplicitSolverConfig(mode="newton")
    for m in (1, 2, 3):  # division, adjugate and LU
        model = fake_singular_model(h=0.1, beta=1.0, state_dim=m)
        with pytest.raises(SolverSingularError, match=r"\|det\|=") as excinfo:
            solve_implicit(model, 1.0, 0.1, np.zeros(m), cfg)
        # only an integration loop knows which step failed
        assert excinfo.value.step_index is None


def test_singular_linearization_nans_only_the_bad_batch_rows():
    cfg = ImplicitSolverConfig(mode="newton", newton_iterations=1)
    for m in (1, 2, 3):  # division, adjugate and LU
        model = fake_singular_model(h=0.1, beta=1.0, state_dim=m)
        batch = np.array([[0.0] * m, [2.0] * m])  # row 0 starts at the singular point
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a bad row is data, not a floating-point warning
            out = solve_implicit(model, 1.0, 0.1, batch, cfg)
        assert np.isnan(out[0]).all()
        assert np.all(out[1] == 2.0)  # zero drift: the solution is R itself


def test_newton_runs_exactly_k_iterations_without_tolerance():
    jac_calls = []
    counted = replace(
        VOL32,
        closed_form_implicit=None,
        drift_jacobian=lambda x: (jac_calls.append(1) or VOL32.drift_jacobian(x)),
    )
    cfg = ImplicitSolverConfig(mode="newton", newton_iterations=5)
    solve_implicit(counted, 1.0, 0.01, np.array([1.0]), cfg)
    assert len(jac_calls) == 5


def test_batched_newton_solves_each_row_as_if_alone():
    # every row gets exactly K updates, so its bits never depend on its batch-mates
    cfg = ImplicitSolverConfig(mode="newton", newton_iterations=8)
    rng = np.random.default_rng(3)
    for model, h, scale in ((VOL32, 0.01, 5.0), (TOY, 0.004, 30.0), (SPD3, 0.04, 3.0)):
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
    cfg = ImplicitSolverConfig(mode="newton", newton_iterations=1)
    R = np.array([1.0])

    def one_update(x0):
        f = VOL32.drift(x0)
        jf = VOL32.drift_jacobian(x0)[..., 0, 0]
        phi = x0 - 0.01 * f - R
        return x0 - phi / (1.0 - 0.01 * jf)

    got = solve_implicit(VOL32, 1.0, 0.01, R, cfg)
    assert np.allclose(got, one_update(R.copy()), rtol=0, atol=1e-16)


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
    a = step_bem(still, ImplicitSolverConfig(mode="newton"), np.array([1.5]), 0.1, dW)
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
        f1, f2 = VOL32.drift(x1), VOL32.drift(x2)

        bem_direct = step_bem(VOL32, cfg, x1, h, dw1)
        bem_generic, f_next = step_lmm(VOL32, cfg, BACKWARD_EULER, [x1], [f1], [dw1], h)
        assert np.array_equal(bem_direct, bem_generic)
        assert np.array_equal(f_next, VOL32.drift(bem_generic))

        eul_direct = step_explicit_euler(VOL32, x1, h, dw1)
        eul_generic, _ = step_lmm(VOL32, cfg, EXPLICIT_EULER, [x1], [f1], [dw1], h)
        assert np.array_equal(eul_direct, eul_generic)

        bdf_direct = step_bdf2(VOL32, cfg, x1, x2, h, dw1, dw0)
        bdf_generic, _ = step_lmm(VOL32, cfg, BDF2, [x2, x1], [f2, f1], [dw0, dw1], h)
        assert np.array_equal(bdf_direct, bdf_generic)


def test_crank_nicolson_style_preset_hand_value():
    cn = SchemeCoefficients(k=1, alpha=(-1.0, 1.0), beta=(0.5, 0.5), gamma=(1.0,))
    model = linear_model(-1.0)
    x_prev = np.array([1.0])
    x, _ = step_lmm(model, ImplicitSolverConfig(mode="newton"), cn, [x_prev], [model.drift(x_prev)], [np.zeros(1)], 0.1)
    assert abs(x[0] - 19.0 / 21.0) <= 1e-15


def test_step_lmm_rejects_mismatched_histories():
    with pytest.raises(ValueError):
        step_lmm(VOL32, ImplicitSolverConfig(), BDF2, [np.zeros(1)], [np.zeros(1)], [np.zeros(1)], 0.01)


# ------------------------------------------------------------------ integrate


def test_integrate_validates_inputs():
    grid = TimeGrid(T=1.0, N=10)
    other = TimeGrid(T=1.0, N=20)
    inc = zero_table(grid)
    cfg = ImplicitSolverConfig()
    with pytest.raises(ValueError):
        integrate(VOL32, BACKWARD_EULER, cfg, other, inc, [1.0], second_init="bem")
    with pytest.raises(ValueError):
        integrate(TOY, BACKWARD_EULER, cfg, grid, inc, [1.0, 2.0], second_init="bem")
    with pytest.raises(ValueError):
        integrate(VOL32, BACKWARD_EULER, cfg, grid, inc, [1.0, 2.0], second_init="bem")


def test_integrate_rejects_a_non_finite_initial_state():
    grid = TimeGrid(T=1.0, N=10)
    for x0 in ([np.nan], [np.inf]):
        with pytest.raises(ValueError, match="^x0 must be finite"):
            integrate(VOL32, BDF2, ImplicitSolverConfig(), grid, zero_table(grid), x0, second_init="bem")


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
        integrate(model, BACKWARD_EULER, ImplicitSolverConfig(mode="newton"), grid, inc, [0.0], second_init="bem")
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
        integrate(model, BDF2, ImplicitSolverConfig(mode="newton"), grid, zero_table(grid), [0.0])
    assert excinfo.value.step_index == step
    assert f"step {step}:" in str(excinfo.value)


@pytest.mark.parametrize(
    "coeffs",
    [
        SchemeCoefficients(k=1, alpha=(-1.0, 1.0), beta=(0.5, 0.5), gamma=(1.0,)),
        SchemeCoefficients(
            k=2, alpha=(0.0, -1.0, 1.0), beta=(-1.0 / 12.0, 2.0 / 3.0, 5.0 / 12.0), gamma=(-0.5, 1.0)
        ),
    ],
    ids=["theta-half", "two-step-drift-history"],
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
    drifts = [VOL32.drift(x) for x in states]
    for j in range(k, grid.N + 1):
        x, f = step_lmm(VOL32, cfg, coeffs, states[-k:], drifts[-k:], dW[j - k : j], grid.h)
        states.append(x)
        drifts.append(f)
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
    integrate(model, BDF2, ImplicitSolverConfig(mode="closed_form"), grid, inc, [1.0], second_init="bem")
    assert counts == {"drift": 0, "diffusion": grid.N}


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
        logged, BDF2, ImplicitSolverConfig(mode="newton", newton_iterations=K),
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
