"""Concrete test models and checkers for the monotonicity framework.

Two model families drive the numerical experiments:

``vol32``
    Scalar 3/2-volatility dynamics dX = (X - lam*X|X|) dt + sigma*|X|^{3/2} dW.
    The drift-implicit step equation has a closed-form solution, which makes
    this family cheap enough for large Monte Carlo runs.

``toy2d``
    A two-dimensional cubic system dX = (f(X) - A X) dt + g(X) dW with
    f(x) = (x1 - x1^3, x2 - x2^3), diagonal diffusion g = sigma*diag(x1^2, x2^2)
    and a symmetric coupling matrix A whose eigenvalues are 1 and lam.  The
    parameter lam controls stiffness; implicit steps are solved by Newton.

The module also provides samplers that probe the three structural
inequalities (monotonicity, coercivity, local Lipschitz drift) on random
and deterministic point sets and report any violations found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import SdeModel, _require_count, _require_positive_finite
from .schemes import closed_form_32vol

__all__ = [
    "ThreeHalvesVol",
    "ToyCubic2D",
    "make_model",
    "eval_32vol",
    "eval_toy2d",
    "ConditionReport",
    "check_monotonicity",
    "check_coercivity",
    "check_local_lipschitz_f",
]


def _check_sigma(params) -> None:
    """Reject a sigma that is not a finite real >= 0 or that makes eta unusable.

    eta divides by 2 sigma^2, so a tiny sigma divides by zero (sigma^2
    underflows) or gives an infinite eta (sigma^2 is subnormal).
    """
    sigma = params.sigma
    if not (sigma >= 0.0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be a finite real >= 0, got {sigma}")
    if sigma > 0.0 and not (sigma**2 > 0.0 and 0.0 < params.eta < math.inf):
        raise ValueError(
            f"sigma={sigma} is too small: the weight eta, which divides by 2 sigma^2,"
            " is not a positive finite real"
        )


@dataclass(frozen=True)
class ThreeHalvesVol:
    """Parameters of the scalar 3/2-volatility model.

    The monotonicity inequality holds with L = 1 and any diffusion weight
    eta <= lam / (2 sigma^2); together with the coercivity requirement
    this puts the model inside the convergence theory iff
    lam >= (5/2) sigma^2.
    """

    lam: float
    sigma: float

    def __post_init__(self) -> None:
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be a positive finite real, got {self.lam}")
        _check_sigma(self)

    @property
    def in_theory(self) -> bool:
        return self.lam >= 2.5 * self.sigma**2

    @property
    def eta(self) -> float:
        if self.sigma == 0.0:
            return 1.0
        return self.lam / (2.0 * self.sigma**2)

    def drift(self, x: np.ndarray) -> np.ndarray:
        return x - self.lam * x * np.abs(x)

    def diffusion(self, x: np.ndarray) -> np.ndarray:
        ax = np.abs(x)
        return (self.sigma * ax * np.sqrt(ax))[..., None]

    def drift_jacobian(self, x: np.ndarray) -> np.ndarray:
        return (1.0 - 2.0 * self.lam * np.abs(x))[..., None]

    def closed_form_implicit(self, beta: float, h: float, R: np.ndarray) -> np.ndarray:
        return closed_form_32vol(self.lam, self.sigma, beta, h, R)

    def as_sde_model(self) -> SdeModel:
        return SdeModel(
            state_dim=1,
            noise_dim=1,
            drift=self.drift,
            diffusion=self.diffusion,
            drift_jacobian=self.drift_jacobian,
            closed_form_implicit=self.closed_form_implicit,
            L=1.0,
            eta=self.eta,
            q=2.0,
        )


@dataclass(frozen=True)
class ToyCubic2D:
    """Parameters of the stiff two-dimensional cubic model.

    The coupling matrix A = 1/2 [[1+lam, 1-lam], [1-lam, 1+lam]] has
    eigenvector (1, 1)/sqrt(2) with eigenvalue 1 and (1, -1)/sqrt(2) with
    eigenvalue lam, so large lam damps the difference of the two
    components on a fast time scale.  Coercivity with q = 3 requires
    sigma < sqrt(2)/3; that is the in-theory regime.

    Drift, diffusion and Jacobian take the whole ``(..., 2)`` array at once
    (A x reads ``x[..., ::-1]``), as Newton calls them on every update, and
    keep the floating-point expressions (so the bits) of the componentwise forms.
    """

    lam: float
    sigma: float

    def __post_init__(self) -> None:
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be a finite real >= 0, got {self.lam}")
        _check_sigma(self)

    @property
    def in_theory(self) -> bool:
        return self.sigma < math.sqrt(2.0) / 3.0

    @property
    def eta(self) -> float:
        if self.sigma == 0.0:
            return 1.0
        return 1.0 / (2.0 * self.sigma**2)

    @property
    def coupling_matrix(self) -> np.ndarray:
        lam = self.lam
        return 0.5 * np.array([[1.0 + lam, 1.0 - lam], [1.0 - lam, 1.0 + lam]])

    def drift(self, x: np.ndarray) -> np.ndarray:
        a_diag = 0.5 * (1.0 + self.lam)
        a_off = 0.5 * (1.0 - self.lam)
        # x**3 stays a pow call (libm or SIMD): x*x*x rounds differently and would move every pin
        return x - x**3 - (a_diag * x + a_off * x[..., ::-1])

    def diffusion(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(x.shape[:-1] + (4,), dtype=float)
        out[..., ::3] = self.sigma * x**2
        return out.reshape(x.shape + (2,))

    def drift_jacobian(self, x: np.ndarray) -> np.ndarray:
        a_diag = 0.5 * (1.0 + self.lam)
        a_off = 0.5 * (1.0 - self.lam)
        out = np.empty(x.shape[:-1] + (4,), dtype=float)
        out[..., 1:3] = -a_off
        out[..., ::3] = 1.0 - 3.0 * x**2 - a_diag
        return out.reshape(x.shape + (2,))

    def as_sde_model(self) -> SdeModel:
        return SdeModel(
            state_dim=2,
            noise_dim=2,
            drift=self.drift,
            diffusion=self.diffusion,
            drift_jacobian=self.drift_jacobian,
            closed_form_implicit=None,
            L=1.0,
            eta=self.eta,
            q=3.0,
        )


#: Conventional parameter / initial-value defaults per model id.
MODEL_DEFAULTS = {
    "vol32": {"lam": 4.0, "sigma": 1.0, "x0": (1.0,)},
    "toy2d": {"lam": 96.0, "sigma": 1.0, "x0": (2.0, 3.0)},
}


def make_model(name: str, lam: float | None = None, sigma: float | None = None):
    """Build ``(params, SdeModel)`` for a model id, filling default parameters."""
    if name not in MODEL_DEFAULTS:
        raise ValueError(f"unknown model {name!r}; available: {sorted(MODEL_DEFAULTS)}")
    defaults = MODEL_DEFAULTS[name]
    lam = defaults["lam"] if lam is None else float(lam)
    sigma = defaults["sigma"] if sigma is None else float(sigma)
    params = ThreeHalvesVol(lam, sigma) if name == "vol32" else ToyCubic2D(lam, sigma)
    return params, params.as_sde_model()


def _as_state(x, m: int) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (m,):
        raise ValueError(f"expected a state of shape ({m},), got {x.shape}")
    return x


def eval_32vol(params: ThreeHalvesVol, x):
    """Evaluate (f, g, jf) of the 3/2-volatility model at one state."""
    x = _as_state(x, 1)
    return params.drift(x), params.diffusion(x), params.drift_jacobian(x)


def eval_toy2d(params: ToyCubic2D, x):
    """Evaluate (f, g, jf) of the two-dimensional cubic model at one state."""
    x = _as_state(x, 2)
    return params.drift(x), params.diffusion(x), params.drift_jacobian(x)


# ---------------------------------------------------------------------------
# Structural condition checkers
# ---------------------------------------------------------------------------

_MAX_RECORDED = 50


@dataclass
class ConditionReport:
    """Outcome of sampling one structural inequality.

    ``max_slack`` is the worst margin rhs - lhs observed (negative means a
    violation); ``violations`` keeps at most a few dozen recorded examples
    as (x1, x2, lhs, rhs) tuples (x2 is None for single-point conditions),
    while ``violation_count`` counts all of them.
    """

    condition: str
    pairs_tested: int
    violation_count: int
    max_slack: float
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


def _grid_points(box: float, state_dim: int) -> np.ndarray:
    """Deterministic coarse lattice covering [-box, box]^m (always contains 0)."""
    per_axis = 81 if state_dim == 1 else 13
    axis = np.linspace(-box, box, per_axis)
    if state_dim == 1:
        return axis[:, None]
    grids = np.meshgrid(*([axis] * state_dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _pair_sets(box: float, state_dim: int, n_pairs: int, seed: int):
    """Deterministic grid pairs first, then seeded uniform pairs."""
    pts = _grid_points(box, state_dim)
    n = pts.shape[0]
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    x1 = pts[ii.ravel()]
    x2 = pts[jj.ravel()]
    rng = np.random.default_rng(seed)
    r1 = rng.uniform(-box, box, size=(n_pairs, state_dim))
    r2 = rng.uniform(-box, box, size=(n_pairs, state_dim))
    return np.concatenate([x1, r1]), np.concatenate([x2, r2])


def _point_set(box: float, state_dim: int, n_points: int, seed: int):
    pts = _grid_points(box, state_dim)
    rng = np.random.default_rng(seed)
    rand = rng.uniform(-box, box, size=(n_points, state_dim))
    return np.concatenate([pts, rand])


def _build_report(condition: str, x1, x2, lhs, rhs) -> ConditionReport:
    slack = rhs - lhs
    bad = slack < 0.0
    count = int(np.count_nonzero(bad))
    recorded = []
    if count:
        idx = np.flatnonzero(bad)[:_MAX_RECORDED]
        for i in idx:
            recorded.append(
                (
                    np.array(x1[i]),
                    None if x2 is None else np.array(x2[i]),
                    float(lhs[i]),
                    float(rhs[i]),
                )
            )
    return ConditionReport(
        condition=condition,
        pairs_tested=int(lhs.shape[0]),
        violation_count=count,
        max_slack=float(np.min(slack)),
        violations=recorded,
    )


def check_monotonicity(
    f: Callable,
    g: Callable,
    eta: float,
    L: float,
    n_pairs: int = 100_000,
    box: float = 10.0,
    seed: int = 0,
    state_dim: int = 1,
) -> ConditionReport:
    """Sample the global monotonicity inequality

        <f(x1) - f(x2), x1 - x2> + eta * |g(x1) - g(x2)|_HS^2  <=  L |x1 - x2|^2

    over a deterministic coarse lattice of pairs plus ``n_pairs`` seeded
    uniform pairs in [-box, box]^m.  The inequality only certifies a
    convergent scheme for eta > 1/2, so weaker weights are rejected here
    even though the formula itself would evaluate fine.
    """
    _require_positive_finite(L=L, box=box, eta=eta)
    _require_count(0, n_pairs=n_pairs)
    if not (eta > 0.5):
        raise ValueError(f"monotonicity weight eta must exceed 1/2, got {eta}")
    x1, x2 = _pair_sets(box, state_dim, n_pairs, seed)
    df = f(x1) - f(x2)
    dx = x1 - x2
    dg = g(x1) - g(x2)
    lhs = np.sum(df * dx, axis=-1) + eta * np.sum(dg * dg, axis=(-2, -1))
    rhs = L * np.sum(dx * dx, axis=-1)
    return _build_report("monotonicity", x1, x2, lhs, rhs)


def check_coercivity(
    f: Callable,
    g: Callable,
    L: float,
    q: float,
    n_points: int = 100_000,
    box: float = 10.0,
    seed: int = 0,
    state_dim: int = 1,
) -> ConditionReport:
    """Sample the coercivity inequality

        <f(x), x> + (4q - 3)/2 * |g(x)|_HS^2  <=  L (1 + |x|^2)

    over the deterministic lattice plus ``n_points`` seeded uniform states.
    """
    _require_positive_finite(L=L, box=box)
    _require_count(0, n_points=n_points)
    x = _point_set(box, state_dim, n_points, seed)
    fx = f(x)
    gx = g(x)
    weight = 0.5 * (4.0 * q - 3.0)
    lhs = np.sum(fx * x, axis=-1) + weight * np.sum(gx * gx, axis=(-2, -1))
    rhs = L * (1.0 + np.sum(x * x, axis=-1))
    return _build_report("coercivity", x, None, lhs, rhs)


def check_local_lipschitz_f(
    f: Callable,
    L: float,
    q: float,
    n_pairs: int = 100_000,
    box: float = 10.0,
    seed: int = 0,
    state_dim: int = 1,
) -> ConditionReport:
    """Sample the polynomial local Lipschitz bound on the drift

        |f(x1) - f(x2)|  <=  L (1 + |x1|^{q-1} + |x2|^{q-1}) |x1 - x2|.
    """
    _require_positive_finite(L=L, box=box)
    _require_count(0, n_pairs=n_pairs)
    x1, x2 = _pair_sets(box, state_dim, n_pairs, seed)
    df = f(x1) - f(x2)
    dx = x1 - x2
    norm1 = np.sqrt(np.sum(x1 * x1, axis=-1))
    norm2 = np.sqrt(np.sum(x2 * x2, axis=-1))
    lhs = np.sqrt(np.sum(df * df, axis=-1))
    rhs = L * (1.0 + norm1 ** (q - 1.0) + norm2 ** (q - 1.0)) * np.sqrt(np.sum(dx * dx, axis=-1))
    return _build_report("local_lipschitz_f", x1, x2, lhs, rhs)
