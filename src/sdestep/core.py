"""Shared value types for grid-based SDE integration.

Everything downstream (increment generation, steppers, the Monte Carlo
harness) speaks in terms of these types: an equidistant time grid, an SDE
model with declared structural constants, the coefficient tuples of a
stochastic linear multistep recursion, and trajectories stored per grid
point.  The two energy identities used to sanity-check one- and two-step
schemes live here as well because they are pure vector arithmetic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "TimeGrid",
    "GridFunction",
    "SdeModel",
    "SchemeCoefficients",
    "BACKWARD_EULER",
    "BDF2",
    "EXPLICIT_EULER",
    "hs_norm",
    "gstability_identity_one",
    "gstability_identity_two",
]


@dataclass(frozen=True)
class TimeGrid:
    """Equidistant grid 0 = t_0 < t_1 < ... < t_N = T with step h = T/N."""

    T: float
    N: int

    def __post_init__(self) -> None:
        if not (self.T > 0.0 and np.isfinite(self.T)):
            raise ValueError(f"horizon must be a positive finite real, got {self.T}")
        _require_count(1, N=self.N)

    @property
    def h(self) -> float:
        return self.T / self.N

    def times(self) -> np.ndarray:
        """All grid points t_j = j*h as a length-(N+1) array."""
        return np.arange(self.N + 1) * self.h


def _require_positive_finite(**values: float) -> None:
    """Reject the first value that is not a positive finite real, naming it."""
    for name, value in values.items():
        if not (value > 0.0 and np.isfinite(value)):
            raise ValueError(f"{name} must be a positive finite real, got {value}")


def _require_count(minimum: int, **counts: int) -> None:
    """Reject the first count that is not an integer >= ``minimum`` (numpy ints pass), naming it."""
    for name, count in counts.items():
        try:
            operator.index(count)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {count!r}") from None
        if count < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {count}")


@dataclass(frozen=True)
class SdeModel:
    """Autonomous SDE dX = f(X) dt + g(X) dW with declared structural constants.

    ``drift`` maps states to states, ``diffusion`` maps a state to an
    (m x d) matrix; both must be vectorized over leading axes, i.e. accept
    ``(..., m)`` and return ``(..., m)`` / ``(..., m, d)``.  The optional
    ``drift_jacobian`` returns ``(..., m, m)`` and enables Newton solves;
    the optional ``closed_form_implicit(beta, h, R)`` returns the exact
    root of ``x - h*beta*f(x) = R`` and, when present, is preferred by the
    implicit solver.

    The constants describe the monotonicity framework the schemes rely on:
    ``L`` bounds the one-sided growth of the coefficients, ``eta`` weights
    the diffusion term in the monotonicity inequality, and ``q`` is the
    polynomial growth exponent of the drift.  The convergence theory needs
    eta > 1/2; models outside that regime may still be declared (and
    integrated) — the condition checkers are the place where the regime
    gets classified.
    """

    state_dim: int
    noise_dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    drift_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    closed_form_implicit: Optional[Callable[[float, float, np.ndarray], np.ndarray]] = None
    L: float = 1.0
    eta: float = 1.0
    q: float = 1.0

    def __post_init__(self) -> None:
        _require_count(1, state_dim=self.state_dim, noise_dim=self.noise_dim)
        _require_positive_finite(L=self.L, eta=self.eta)
        if not (self.q >= 1.0 and np.isfinite(self.q)):
            raise ValueError(f"q must be a finite growth exponent >= 1, got {self.q}")


@dataclass(frozen=True)
class GridFunction:
    """A trajectory attached to a time grid: states[j] approximates X(t_j)."""

    grid: TimeGrid
    states: np.ndarray  # shape (N+1, m)

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or states.shape[0] != self.grid.N + 1:
            raise ValueError(
                f"states must have shape (N+1, m) = ({self.grid.N + 1}, m), got {states.shape}"
            )
        states = states.copy()
        states.flags.writeable = False
        object.__setattr__(self, "states", states)

    @property
    def state_dim(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class SchemeCoefficients:
    """Coefficient tuples (alpha, beta, gamma) of a stochastic k-step recursion.

    The recursion advanced per step is

        sum_{l=0..k} alpha_{k-l} U^{j-l}
            = h * sum_{l=0..k} beta_{k-l} f(U^{j-l})
              + sum_{l=1..k} gamma_{k-l} g(U^{j-l}) dW^{j-l+1},

    normalized so that alpha_k = 1.  ``alpha`` and ``beta`` have length
    k+1 (index k multiplies the unknown U^j), ``gamma`` has length k (the
    newest increment dW^j always pairs with g(U^{j-1})).  The recursion is
    implicit exactly when beta_k > 0; beta_k < 0 is rejected.
    """

    k: int
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    gamma: tuple[float, ...]

    def __post_init__(self) -> None:
        _require_count(1, k=self.k)
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(self, "gamma", tuple(float(c) for c in self.gamma))
        if len(self.alpha) != self.k + 1:
            raise ValueError(f"alpha must have length k+1={self.k + 1}, got {len(self.alpha)}")
        if len(self.beta) != self.k + 1:
            raise ValueError(f"beta must have length k+1={self.k + 1}, got {len(self.beta)}")
        if len(self.gamma) != self.k:
            raise ValueError(f"gamma must have length k={self.k}, got {len(self.gamma)}")
        if self.alpha[self.k] != 1.0:
            raise ValueError(f"normalization requires alpha_k == 1, got {self.alpha[self.k]}")
        if self.beta[self.k] < 0.0:
            raise ValueError(f"beta_k must be >= 0, got {self.beta[self.k]}")

    @property
    def implicit(self) -> bool:
        return self.beta[self.k] > 0.0


#: Drift-implicit Euler-Maruyama as a one-step recursion:
#: U^j - U^{j-1} = h f(U^j) + g(U^{j-1}) dW^j.
BACKWARD_EULER = SchemeCoefficients(k=1, alpha=(-1.0, 1.0), beta=(0.0, 1.0), gamma=(1.0,))

#: Two-step backward differentiation recursion, normalized by its leading
#: coefficient 3/2:
#: U^j - 4/3 U^{j-1} + 1/3 U^{j-2}
#:     = 2/3 h f(U^j) + g(U^{j-1}) dW^j - 1/3 g(U^{j-2}) dW^{j-1}.
BDF2 = SchemeCoefficients(
    k=2,
    alpha=(1.0 / 3.0, -4.0 / 3.0, 1.0),
    beta=(0.0, 0.0, 2.0 / 3.0),
    gamma=(-1.0 / 3.0, 1.0),
)

#: Classical (explicit) Euler-Maruyama written as a one-step recursion.
EXPLICIT_EULER = SchemeCoefficients(k=1, alpha=(-1.0, 1.0), beta=(1.0, 0.0), gamma=(1.0,))


def hs_norm(matrix: np.ndarray) -> np.ndarray | float:
    """Frobenius (Hilbert-Schmidt) norm over the last two axes."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim < 2:
        raise ValueError(f"expected at least a 2-d array, got shape {matrix.shape}")
    out = np.sqrt(np.sum(matrix * matrix, axis=(-2, -1)))
    return float(out) if out.ndim == 0 else out


def _check_same_shape(*vectors: np.ndarray) -> tuple[np.ndarray, ...]:
    arrays = tuple(np.asarray(v, dtype=float) for v in vectors)
    shape = arrays[0].shape
    for a in arrays[1:]:
        if a.shape != shape:
            raise ValueError(f"dimension mismatch: {a.shape} vs {shape}")
    if arrays[0].ndim < 1:
        raise ValueError("identity arguments must be vectors, got scalars")
    return arrays


def gstability_identity_one(u1, u2):
    """Both sides of the one-step energy identity.

    Returns ``(lhs, rhs)`` with

        lhs = 2 <u2 - u1, u2>
        rhs = |u2|^2 - |u1|^2 + |u2 - u1|^2.

    The two agree exactly in real arithmetic; floating-point evaluation
    leaves a relative gap on the order of machine precision.  Inputs are
    vectors of equal shape ``(..., m)``; the inner product runs over the
    last axis, so batches of tuples can be checked in one call.
    """
    u1, u2 = _check_same_shape(u1, u2)
    diff = u2 - u1
    lhs = 2.0 * np.sum(diff * u2, axis=-1)
    rhs = np.sum(u2 * u2, axis=-1) - np.sum(u1 * u1, axis=-1) + np.sum(diff * diff, axis=-1)
    if lhs.ndim == 0:
        return float(lhs), float(rhs)
    return lhs, rhs


def gstability_identity_two(u1, u2, u3):
    """Both sides of the two-step energy identity.

    Returns ``(lhs, rhs)`` with

        lhs = 4 <3/2 u3 - 2 u2 + 1/2 u1, u3>
        rhs = |u3|^2 - |u2|^2 + |2 u3 - u2|^2 - |2 u2 - u1|^2
              + |u3 - 2 u2 + u1|^2.

    This is the G-stability relation underpinning the two-step scheme's
    energy estimates; it holds for arbitrary real vectors of equal length.
    """
    u1, u2, u3 = _check_same_shape(u1, u2, u3)

    def sq(v):
        return np.sum(v * v, axis=-1)

    lhs = 4.0 * np.sum((1.5 * u3 - 2.0 * u2 + 0.5 * u1) * u3, axis=-1)
    rhs = (
        sq(u3)
        - sq(u2)
        + sq(2.0 * u3 - u2)
        - sq(2.0 * u2 - u1)
        + sq(u3 - 2.0 * u2 + u1)
    )
    if lhs.ndim == 0:
        return float(lhs), float(rhs)
    return lhs, rhs
