"""Unit tests for the shared value types and the two energy identities."""

import numpy as np
import pytest

from sdestep import (
    BACKWARD_EULER,
    BDF2,
    EXPLICIT_EULER,
    GridFunction,
    SchemeCoefficients,
    SdeModel,
    TimeGrid,
    gstability_identity_one,
    gstability_identity_two,
    hs_norm,
)


def test_time_grid_step_and_points():
    grid = TimeGrid(T=1.0, N=25)
    assert grid.h == 0.04
    t = grid.times()
    assert t.shape == (26,)
    assert t[0] == 0.0
    assert np.all(np.diff(t) > 0)
    # T = h*N up to one rounding of the division
    assert abs(grid.h * grid.N - grid.T) <= np.finfo(float).eps * grid.T

    odd = TimeGrid(T=2.0, N=7)
    assert abs(odd.h * odd.N - odd.T) <= np.finfo(float).eps * odd.T


@pytest.mark.parametrize(
    "T,N", [(0.0, 10), (-1.0, 10), (np.inf, 10), (np.nan, 10), (1.0, 0), (1.0, -3), (1.0, 2.5), (1.0, np.nan)]
)
def test_time_grid_rejects_bad_arguments(T, N):
    with pytest.raises(ValueError):
        TimeGrid(T=T, N=N)


def test_grid_function_shape_check_and_immutability():
    grid = TimeGrid(T=1.0, N=4)
    gf = GridFunction(grid=grid, states=np.zeros((5, 2)))
    assert gf.state_dim == 2
    with pytest.raises(ValueError):
        gf.states[0, 0] = 1.0  # frozen buffer

    with pytest.raises(ValueError):
        GridFunction(grid=grid, states=np.zeros((4, 2)))  # needs N+1 rows
    with pytest.raises(ValueError):
        GridFunction(grid=grid, states=np.zeros(5))  # needs explicit state axis


def test_preset_coefficients_are_the_normalized_tuples():
    assert BACKWARD_EULER.k == 1
    assert BACKWARD_EULER.alpha == (-1.0, 1.0)
    assert BACKWARD_EULER.beta == (0.0, 1.0)
    assert BACKWARD_EULER.gamma == (1.0,)
    assert BACKWARD_EULER.implicit

    assert BDF2.k == 2
    assert BDF2.alpha == (1.0 / 3.0, -4.0 / 3.0, 1.0)
    assert BDF2.beta == (0.0, 0.0, 2.0 / 3.0)
    assert BDF2.gamma == (-1.0 / 3.0, 1.0)
    assert BDF2.implicit

    assert EXPLICIT_EULER.beta == (1.0, 0.0)
    assert not EXPLICIT_EULER.implicit


def test_scheme_coefficients_validation():
    with pytest.raises(ValueError):
        SchemeCoefficients(k=1, alpha=(-1.0, 2.0), beta=(0.0, 1.0), gamma=(1.0,))  # alpha_k != 1
    with pytest.raises(ValueError):
        SchemeCoefficients(k=1, alpha=(-1.0, 1.0), beta=(0.0, -0.5), gamma=(1.0,))  # beta_k < 0
    with pytest.raises(ValueError):
        SchemeCoefficients(k=2, alpha=(-1.0, 1.0), beta=(0.0, 0.0, 1.0), gamma=(0.0, 1.0))
    with pytest.raises(ValueError):
        SchemeCoefficients(k=1, alpha=(-1.0, 1.0), beta=(0.0, 1.0), gamma=())
    with pytest.raises(ValueError):
        SchemeCoefficients(k=0, alpha=(1.0,), beta=(1.0,), gamma=())
    for k in (1.5, float("nan")):
        with pytest.raises(ValueError, match=f"^k must be an integer, got {k}$"):
            SchemeCoefficients(k=k, alpha=(-1.0, 1.0), beta=(0.0, 1.0), gamma=(1.0,))


def test_sde_model_validates_dimensions_and_constants():
    f = lambda x: -x
    g = lambda x: np.zeros(x.shape + (1,))
    SdeModel(state_dim=1, noise_dim=1, drift=f, diffusion=g, L=1.0, eta=1.0, q=1.0)
    for kwargs in (
        dict(state_dim=0, noise_dim=1),
        dict(state_dim=1, noise_dim=0),
        dict(state_dim=2.5, noise_dim=1),
        dict(state_dim=1, noise_dim=float("nan")),
        dict(state_dim=1, noise_dim=1, L=0.0),
        dict(state_dim=1, noise_dim=1, eta=0.0),
        dict(state_dim=1, noise_dim=1, q=0.5),
    ):
        with pytest.raises(ValueError):
            SdeModel(drift=f, diffusion=g, **kwargs)


@pytest.mark.parametrize("name", ["L", "eta", "q"])
def test_sde_model_rejects_non_finite_constants_by_name(name):
    f = lambda x: -x
    g = lambda x: np.zeros(x.shape + (1,))
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            SdeModel(state_dim=1, noise_dim=1, drift=f, diffusion=g, **{name: value})


def test_hs_norm_known_values_and_batching():
    assert hs_norm(np.array([[3.0, 4.0]])) == 5.0
    assert hs_norm(np.eye(3)) == pytest.approx(np.sqrt(3.0))
    batch = np.stack([np.array([[3.0, 4.0]]), np.array([[0.0, 0.0]])])
    out = hs_norm(batch)
    assert out.shape == (2,)
    assert out[0] == 5.0 and out[1] == 0.0
    with pytest.raises(ValueError):
        hs_norm(np.array([1.0, 2.0]))


def test_identity_one_arithmetic_cases():
    # zero case, coincident case, and a hand-evaluated pair
    assert gstability_identity_one(np.zeros(3), np.zeros(3)) == (0.0, 0.0)
    v = np.array([2.0, -1.0])
    lhs, rhs = gstability_identity_one(v, v)
    assert lhs == 0.0 and rhs == 0.0
    lhs, rhs = gstability_identity_one(np.array([1.0]), np.array([2.0]))
    assert lhs == 4.0  # 2*(2-1)*2
    assert rhs == 4.0  # 4 - 1 + 1


def test_identity_two_arithmetic_cases():
    z = np.zeros(2)
    assert gstability_identity_two(z, z, z) == (0.0, 0.0)
    v = np.array([3.0, -5.0])
    lhs, rhs = gstability_identity_two(v, v, v)
    assert lhs == 0.0 and rhs == 0.0
    lhs, rhs = gstability_identity_two(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    assert lhs == 8.0  # 4*(3/2 + 1/2)
    assert rhs == 8.0  # 1 - 0 + 4 - 1 + 4


def test_identity_dimension_mismatch_and_scalars_rejected():
    with pytest.raises(ValueError):
        gstability_identity_one(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        gstability_identity_two(np.zeros(2), np.zeros(2), np.zeros(4))
    with pytest.raises(ValueError):
        gstability_identity_one(1.0, 2.0)


def test_identities_random_sweep_both_tolerance_forms():
    """lhs == rhs up to floating noise, measured against both denominators.

    The identity value itself can cancel to ~0 for nonzero inputs, so the
    sweep checks a value-anchored bound (1 + |lhs|) and a magnitude-anchored
    bound (1 + sum of squared norms); both must hold.
    """
    rng = np.random.default_rng(321)
    for m in (1, 2, 5):
        u1, u2, u3 = rng.uniform(-10.0, 10.0, size=(3, 20_000, m))
        l1, r1 = gstability_identity_one(u1, u2)
        l2, r2 = gstability_identity_two(u1, u2, u3)
        scale = 1.0 + np.sum(u1 * u1, axis=-1) + np.sum(u2 * u2, axis=-1)
        assert np.all(np.abs(l1 - r1) <= 1e-12 * (1.0 + np.abs(l1)))
        assert np.all(np.abs(l1 - r1) <= 1e-12 * scale)
        scale3 = scale + np.sum(u3 * u3, axis=-1)
        assert np.all(np.abs(l2 - r2) <= 1e-12 * (1.0 + np.abs(l2)))
        assert np.all(np.abs(l2 - r2) <= 1e-12 * scale3)


def test_identities_batched_shapes():
    rng = np.random.default_rng(9)
    u = rng.normal(size=(7, 3, 4))
    lhs, rhs = gstability_identity_one(u, u[::-1])
    assert lhs.shape == rhs.shape == (7, 3)
    lhs2, rhs2 = gstability_identity_two(u, u[::-1], u)
    assert lhs2.shape == (7, 3)
    # scalar-tuple call returns plain floats
    out = gstability_identity_one(np.array([1.0, 2.0]), np.array([0.5, -0.5]))
    assert isinstance(out[0], float) and isinstance(out[1], float)
