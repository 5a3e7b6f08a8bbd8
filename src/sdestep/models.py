"""Concrete test models and checkers for the monotonicity framework.

Two model families drive the numerical experiments:

``vol32``
    Scalar 3/2-volatility dynamics dX = (X - lam*X|X|) dt + sigma*|X|^{3/2} dW.
    The drift-implicit step equation has a closed-form solution
    (:func:`closed_form_32vol`, the model's ``closed_form_implicit``), which
    makes this family cheap enough for large Monte Carlo runs.

``toy2d``
    A two-dimensional cubic system dX = (f(X) - A X) dt + g(X) dW with
    f(x) = (x1 - x1^3, x2 - x2^3), diagonal diffusion g = sigma*diag(x1^2, x2^2)
    and a symmetric coupling matrix A whose eigenvalues are 1 and lam.  The
    parameter lam controls stiffness; implicit steps are solved by Newton.

The checkers probe the three structural inequalities (monotonicity,
coercivity, local Lipschitz drift) on one sampler's states, a lattice of
2m+1 points beyond the plane plus seeded draws, and report violations.
It imports only :mod:`core`: the steppers reach a model via ``SdeModel``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .core import SdeModel, _const, _require_count, _require_growth_exponent
from .core import _require_positive_finite

__all__ = [
    "ThreeHalvesVol",
    "closed_form_32vol",
    "ToyCubic2D",
    "make_model",
    "MODEL_DEFAULTS",
    "eval_32vol",
    "eval_toy2d",
    "ConditionReport",
    "check_monotonicity",
    "check_coercivity",
    "check_local_lipschitz_f",
]


def _check_sigma(params) -> None:
    """Reject a sigma that is not a finite real >= 0 or that makes eta unusable.

    eta and the theory regime square sigma, so sigma^2 must be finite (in
    Python ``sigma**2`` raises above about 1.34e154).  eta divides by
    2 sigma^2, so a tiny sigma divides by zero (sigma^2 underflows) or gives
    an infinite eta (sigma^2 is subnormal).
    """
    sigma = params.sigma
    if not (sigma >= 0.0 and math.isfinite(sigma * sigma)):
        raise ValueError(f"sigma must be a finite real >= 0 with a finite square, got {sigma}")
    if sigma > 0.0 and not (sigma**2 > 0.0 and 0.0 < params.eta < math.inf):
        raise ValueError(
            f"sigma={sigma} is too small or too large: the weight eta, which divides by"
            " 2 sigma^2, is not a positive finite real"
        )


def _sde_model(params, state_dim: int, q: float, closed_form_implicit=None) -> SdeModel:
    """The SdeModel of a parameter set: L = 1, one noise per state, the set's callables."""
    return SdeModel(state_dim=state_dim, noise_dim=state_dim, drift=params.drift,
                    diffusion=params.diffusion, drift_jacobian=params.drift_jacobian,
                    closed_form_implicit=closed_form_implicit, L=1.0, eta=params.eta, q=q)


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
        _require_positive_finite(lam=self.lam)
        _check_sigma(self)
        # the drift's and diffusion's operands, settled once (not fields: eq and repr keep theirs)
        object.__setattr__(self, "_lam", _const(self.lam))
        object.__setattr__(self, "_sigma", _const(self.sigma))

    @property
    def in_theory(self) -> bool:
        return self.lam >= 2.5 * self.sigma**2

    @property
    def eta(self) -> float:
        if self.sigma == 0.0:
            return 1.0
        return self.lam / (2.0 * self.sigma**2)

    def drift(self, x: np.ndarray) -> np.ndarray:
        return x - self._lam * x * np.abs(x)

    def diffusion(self, x: np.ndarray) -> np.ndarray:
        ax = np.abs(x)
        return (self._sigma * ax * np.sqrt(ax))[..., None]

    def drift_jacobian(self, x: np.ndarray) -> np.ndarray:
        return (1.0 - 2.0 * self.lam * np.abs(x))[..., None]

    def closed_form_implicit(self, beta: float, h: float) -> Callable[[np.ndarray], np.ndarray]:
        return closed_form_32vol(self.lam, beta, h)

    def as_sde_model(self) -> SdeModel:
        return _sde_model(self, 1, 2.0, self.closed_form_implicit)


@lru_cache
def closed_form_32vol(lam: float, beta: float, h: float):
    """Exact drift-implicit solve ``solve(R)`` for the 3/2-volatility family.

    ``solve`` returns the root of ``x - beta*h*(x - lam*x*|x|) = R``
    elementwise, where lam, beta and h are positive finite reals (a
    ``ValueError`` names the one that is not).  On each sign branch the
    equation is a quadratic with non-negative discriminant; the root that
    depends continuously on R is returned.  The formula is evaluated in
    rationalized form,

        x = sign(R) * a / (c + sqrt(c*c + a)),
        a = |R| / (beta*h*lam),  c = (1 - beta*h) / (2*beta*h*lam),

    which avoids the catastrophic cancellation of the textbook
    ``-c + sqrt(c^2 + a)`` expression when ``a`` is tiny.  When ``c*c``
    overflows (beta*h*lam below about 1e-154) the root is divided through
    by ``c``: ``x = sign(R) * q / (1 + sqrt(1 + q/c))`` with
    ``q = a/c = 2|R| / (1 - beta*h)``.  A ``c`` that is itself infinite
    (beta*h*lam below about 3e-309) is a ``ValueError`` naming ``h``.

    The checks (with one that ``beta*h*lam`` does not underflow to 0), the
    branch and its constants (read-only 0-d float64 arrays, ``solve.args``)
    are settled once per ``(lam, beta, h)`` and cached, so a call does only
    the array arithmetic, in the order of the formula.  R is not converted:
    a float64 array gives an array, a real a float64.
    """
    _require_positive_finite(lam=lam, beta=beta, h=h)
    bh = beta * h
    if not (bh * lam > 0.0):
        raise ValueError(f"need beta*h*lam > 0, got beta*h={bh}, lam={lam}")
    c = float((1.0 - bh) / (2.0 * bh * lam))
    if not math.isfinite(c):
        raise ValueError(
            f"step size h={h} is too small for the closed-form solve: "
            f"(1 - beta*h)/(2*beta*h*lam) overflows at beta*h*lam={bh * lam}"
        )
    if math.isfinite(c * c):
        return partial(_rationalized_root, _const(bh * lam), _const(c), _const(c * c))
    return partial(_divided_root, _const(1.0 - bh), _const(c))


def _rationalized_root(bh_lam: np.ndarray, c: np.ndarray, c_squared: np.ndarray,
                       R: np.ndarray) -> np.ndarray:
    # np.sign, not np.copysign: sign(-0.0) is +0.0, so a zero root stays +0
    a = np.abs(R) / bh_lam
    return np.sign(R) * (a / (c + np.sqrt(c_squared + a)))


def _divided_root(one_minus_bh: np.ndarray, c: np.ndarray, R: np.ndarray) -> np.ndarray:
    q = 2.0 * np.abs(R) / one_minus_bh
    return np.sign(R) * (q / (1.0 + np.sqrt(1.0 + q / c)))


@dataclass(frozen=True)
class ToyCubic2D:
    """Parameters of the stiff two-dimensional cubic model.

    The coupling matrix A = 1/2 [[1+lam, 1-lam], [1-lam, 1+lam]] has
    eigenvector (1, 1)/sqrt(2) with eigenvalue 1 and (1, -1)/sqrt(2) with
    eigenvalue lam, so large lam damps the difference of the two
    components on a fast time scale.  Coercivity with q = 3 requires
    sigma < sqrt(2)/3; that is the in-theory regime.

    Drift, diffusion and Jacobian keep the floating-point expressions (so
    the bits) of the componentwise forms.  Newton calls them on every
    update, so each array operation runs over whole rows: ``x**3`` and
    ``x**2`` over the contiguous ``(..., 2)`` array, and every other
    operand a contiguous array or a 1-d view of one component, never a
    reversed view or a strided write into pairs, over which numpy loops
    per row.
    """

    lam: float
    sigma: float

    def __post_init__(self) -> None:
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be a finite real >= 0, got {self.lam}")
        _check_sigma(self)
        # the entries of A and sigma, settled once (not fields: eq and repr keep theirs)
        a_off = 0.5 * (1.0 - self.lam)
        object.__setattr__(self, "_a_diag", _const(0.5 * (1.0 + self.lam)))
        object.__setattr__(self, "_a_off", _const(a_off))
        object.__setattr__(self, "_minus_a_off", _const(-a_off))
        object.__setattr__(self, "_sigma", _const(self.sigma))

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
        # A x: the off-diagonal entry takes the other component, from a swapped copy
        swapped = np.empty(x.shape)
        swapped[..., 0] = x[..., 1]
        swapped[..., 1] = x[..., 0]
        # x**3 stays a pow call (libm or SIMD): x*x*x rounds differently and would move every pin
        return x - x**3 - (self._a_diag * x + self._a_off * swapped)

    def diffusion(self, x: np.ndarray) -> np.ndarray:
        diagonal = self._sigma * x**2
        out = np.zeros(x.shape + (2,))
        out[..., 0, 0] = diagonal[..., 0]
        out[..., 1, 1] = diagonal[..., 1]
        return out

    def drift_jacobian(self, x: np.ndarray) -> np.ndarray:
        diagonal = 1.0 - 3.0 * x**2 - self._a_diag
        out = np.empty(x.shape + (2,))
        out[..., 0, 0] = diagonal[..., 0]
        out[..., 0, 1] = self._minus_a_off
        out[..., 1, 0] = self._minus_a_off
        out[..., 1, 1] = diagonal[..., 1]
        return out

    def as_sde_model(self) -> SdeModel:
        return _sde_model(self, 2, 3.0)


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
    violation), NaN when some pair's margin is undefined because its
    inequality overflowed; such a pair is a violation too.  ``violations``
    keeps at most a few dozen recorded examples as (x1, x2, lhs, rhs) tuples
    (x2 is None for single-point conditions), while ``violation_count``
    counts all of them.
    """

    condition: str
    pairs_tested: int
    violation_count: int
    max_slack: float
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


def _sample_states(box: float, state_dim: int, seed: int, **count: int) -> list:
    """The states a checker scans: a lattice in [-box, box]^m, then seeded uniform draws.

    ``count`` is one keyword, ``n_points`` (returns ``[x]``) or ``n_pairs``
    (returns ``[x1, x2]``: every ordered pair of lattice points, then the x1
    draws, then the x2 draws).  The lattice always contains 0: 81 points on
    a line, 13 x 13 in the plane, beyond that 0 and +-box on each axis.
    """
    _require_positive_finite(box=box)
    _require_count(0, **count, seed=seed)
    _require_count(1, state_dim=state_dim)
    ((name, n),) = count.items()
    if state_dim > 2:
        lattice = np.concatenate([np.zeros((1, state_dim)), np.diag(np.full(state_dim, -box)),
                                  np.diag(np.full(state_dim, box))])
    else:
        axis = np.linspace(-box, box, 81 if state_dim == 1 else 13)
        grids = np.meshgrid(*([axis] * state_dim), indexing="ij")
        lattice = np.stack([g.ravel() for g in grids], axis=-1)
    k = lattice.shape[0]
    sets = [np.repeat(lattice, k, 0), np.tile(lattice, (k, 1))] if name == "n_pairs" else [lattice]
    rng = np.random.default_rng(seed)
    return [np.concatenate([s, rng.uniform(-box, box, size=(n, state_dim))]) for s in sets]


def _build_report(condition: str, x1, x2, lhs, rhs) -> ConditionReport:
    slack = rhs - lhs
    bad = ~(slack >= 0.0)  # a NaN margin (an overflowed inequality) certifies nothing
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


@np.errstate(over="ignore", invalid="ignore")
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
    _require_positive_finite(L=L, eta=eta)
    _require_count(0, n_pairs=n_pairs)  # a bad count is named first, eta before any draw
    if not (eta > 0.5):
        raise ValueError(f"monotonicity weight eta must exceed 1/2, got {eta}")
    x1, x2 = _sample_states(box, state_dim, seed, n_pairs=n_pairs)
    df = f(x1) - f(x2)
    dx = x1 - x2
    dg = g(x1) - g(x2)
    lhs = np.sum(df * dx, axis=-1) + eta * np.sum(dg * dg, axis=(-2, -1))
    rhs = L * np.sum(dx * dx, axis=-1)
    return _build_report("monotonicity", x1, x2, lhs, rhs)


@np.errstate(over="ignore", invalid="ignore")
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
    _require_positive_finite(L=L)
    _require_growth_exponent(q)
    (x,) = _sample_states(box, state_dim, seed, n_points=n_points)
    fx = f(x)
    gx = g(x)
    weight = 0.5 * (4.0 * q - 3.0)
    lhs = np.sum(fx * x, axis=-1) + weight * np.sum(gx * gx, axis=(-2, -1))
    rhs = L * (1.0 + np.sum(x * x, axis=-1))
    return _build_report("coercivity", x, None, lhs, rhs)


@np.errstate(over="ignore", invalid="ignore")
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
    _require_positive_finite(L=L)
    _require_growth_exponent(q)
    x1, x2 = _sample_states(box, state_dim, seed, n_pairs=n_pairs)
    df = f(x1) - f(x2)
    dx = x1 - x2
    norm1 = np.sqrt(np.sum(x1 * x1, axis=-1))
    norm2 = np.sqrt(np.sum(x2 * x2, axis=-1))
    lhs = np.sqrt(np.sum(df * df, axis=-1))
    rhs = L * (1.0 + norm1 ** (q - 1.0) + norm2 ** (q - 1.0)) * np.sqrt(np.sum(dx * dx, axis=-1))
    return _build_report("local_lipschitz_f", x1, x2, lhs, rhs)
