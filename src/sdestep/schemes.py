"""Time steppers for stiff monotone SDEs and the implicit solves behind them.

The drift-implicit one-step scheme and the two-step backward
differentiation scheme both reduce each step to a root problem

    x - h * beta * f(x) = R,

where R aggregates everything already known (old states, explicit drift
terms, noise terms).  For monotone drifts this equation has a unique
solution whenever ``h * beta * L < 1``.  Every implicit solve checks that
bound once, when it is set up (:func:`_solve_core`), for each ``beta`` a
run will use.  The set-up returns ``solve(R)``, a function of R alone: a
model-supplied closed form or a fixed number of Newton iterations started
from R.  A singular Newton linearization of a single state raises
:class:`SolverSingularError`; :func:`integrate` attaches the failing step.

All steppers are vectorized over leading axes: states may be ``(m,)`` or
``(B, m)`` and keep that shape, which is what makes the Monte Carlo
harness fast without a second code path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import BACKWARD_EULER, BDF2, GridFunction, SchemeCoefficients, SdeModel, TimeGrid
from .core import _require_count
from .brownian import IncrementTable

__all__ = [
    "StepSizeError",
    "SolverSingularError",
    "ImplicitSolverConfig",
    "closed_form_32vol",
    "solve_implicit",
    "step_explicit_euler",
    "step_bem",
    "step_bdf2",
    "step_lmm",
    "integrate",
]

_SINGULAR_TOL = 1e-14


class StepSizeError(ValueError):
    """Raised when an implicit solve is asked to run with h outside its bound."""


class SolverSingularError(RuntimeError):
    """Raised when a Newton linearization is numerically singular.

    ``step_index`` identifies the failing step when the error surfaces
    from an integration loop (it is None for bare solver calls).
    """

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index


@dataclass(frozen=True)
class ImplicitSolverConfig:
    """How to solve the per-step root problem x - h*beta*f(x) = R.

    mode
        "closed_form" uses the model's exact solve (a model without one is
        a configuration error), "newton" runs the damped-free Newton
        iteration, "auto" (default) picks closed_form when the model
        provides one and newton otherwise.  Newton always starts from R
        itself, the Euler-style predictor already in hand.
    newton_iterations
        Exact number of Newton updates; there is no early exit, so every
        row of a batch ends where solving it alone would.
    enforce_step_bound
        The one switch of the well-posedness bound h*beta*L < 1, checked
        for every implicit solve: the recursion's, the drift-implicit
        Euler starter's and each bare ``solve_implicit``.  When False the
        bound is skipped (h must still be a positive finite real).
        Outside it uniqueness (and Newton invertibility) is lost; this
        exists for deliberate what-happens-if runs, not production.
    """

    mode: str = "auto"
    newton_iterations: int = 5
    enforce_step_bound: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("auto", "closed_form", "newton"):
            raise ValueError(f"unknown solver mode {self.mode!r}")
        _require_count(1, newton_iterations=self.newton_iterations)


def _stability_warnings(model: SdeModel, coeffs: SchemeCoefficients, h: float) -> None:
    """Warn (never reject) when h exceeds the stricter mean-square bounds.

    The literature states two inequivalent step-size restrictions for each
    scheme family; neither affects well-posedness, so both candidates are
    reported and the run proceeds.
    """
    if not coeffs.implicit:
        return
    L = model.L
    if coeffs.k == 1:
        candidates = (1.0 / max(4.0 * L, 2.0), 1.0 / (2.0 * (4.0 * L + 1.0)))
    elif coeffs.k == 2:
        candidates = (1.0 / (2.0 * (4.0 * L + 1.0)), 1.0 / max(8.0 * L, 2.0))
    else:
        return
    if h > min(candidates):
        warnings.warn(
            f"h={h} exceeds the stricter mean-square stability candidates "
            f"{min(candidates):g} / {max(candidates):g} for the {coeffs.k}-step scheme; "
            "error bounds may not apply",
            RuntimeWarning,
            stacklevel=4,
        )


def _apply_noise(g: np.ndarray, dW: np.ndarray) -> np.ndarray:
    """Matrix-vector product g @ dW over the trailing axes, batch friendly.

    ``g`` has shape (..., m, d) and ``dW`` shape (..., d); the result has
    shape (..., m).  d = 1 and d = 2 are unrolled so the summation order
    is fixed (and fast); larger d falls back to einsum.
    """
    d = g.shape[-1]
    if dW.shape[-1] != d:
        raise ValueError(f"noise dimension mismatch: matrix has d={d}, increment {dW.shape[-1]}")
    if d == 1:
        return g[..., 0] * dW
    if d == 2:
        return g[..., 0] * dW[..., 0:1] + g[..., 1] * dW[..., 1:2]
    return np.einsum("...md,...d->...m", g, dW)


def closed_form_32vol(lam: float, sigma: float, beta: float, h: float, R):
    """Exact drift-implicit solve for the 3/2-volatility family.

    Solves ``x - beta*h*(x - lam*x*|x|) = R`` for scalar states.  On each
    sign branch the equation is a quadratic with non-negative discriminant;
    the root that depends continuously on R is returned.  The formula is
    evaluated in rationalized form,

        x = sign(R) * a / (c + sqrt(c*c + a)),
        a = |R| / (beta*h*lam),  c = (1 - beta*h) / (2*beta*h*lam),

    which avoids the catastrophic cancellation of the textbook
    ``-c + sqrt(c^2 + a)`` expression when ``a`` is tiny.  When ``c*c``
    overflows (beta*h*lam below about 1e-154) the root is divided through
    by ``c``: ``x = sign(R) * q / (1 + sqrt(1 + q/c))`` with
    ``q = a/c = 2|R| / (1 - beta*h)``.  A ``c`` that is itself infinite
    (beta*h*lam below about 3e-309) is a ``ValueError`` naming ``h``.
    ``sigma`` is accepted for signature symmetry with the model family
    but plays no role: the diffusion is handled explicitly by the schemes.

    Works elementwise on arrays; scalar input yields a float.
    """
    bh = beta * h
    if not (bh * lam > 0.0):
        raise ValueError(f"need beta*h*lam > 0, got beta*h={bh}, lam={lam}")
    R = np.asarray(R, dtype=float)
    c = float((1.0 - bh) / (2.0 * bh * lam))
    if not math.isfinite(c):
        raise ValueError(
            f"step size h={h} is too small for the closed-form solve: "
            f"(1 - beta*h)/(2*beta*h*lam) overflows at beta*h*lam={bh * lam}"
        )
    if math.isfinite(c * c):
        a = np.abs(R) / (bh * lam)
        x = np.sign(R) * (a / (c + np.sqrt(c * c + a)))
    else:
        q = 2.0 * np.abs(R) / (1.0 - bh)
        x = np.sign(R) * (q / (1.0 + np.sqrt(1.0 + q / c)))
    return float(x) if x.ndim == 0 else x


def _solve_linear(A: np.ndarray, b: np.ndarray):
    """Solve A x = b for one (m, m) system or a (..., m, m) batch.

    Each size has one body for any leading shape: m = 1 divides, m = 2
    applies the adjugate, written by component into one preallocated
    array, and larger m goes through partial-pivot LU (numpy).  One check
    follows the determinant: a magnitude below 1e-14 raises
    :class:`SolverSingularError` for a single system (``b`` of
    shape ``(m,)``); in a batch the offending rows come back NaN, without
    a warning, so that one bad sample cannot abort its whole batch (the
    harness counts it as exploded).
    """
    m = A.shape[-1]
    if m == 1:
        det = A[..., 0, 0]
    elif m == 2:
        a11, a12, a21, a22 = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
        det = a11 * a22 - a12 * a21
    else:
        det = np.linalg.det(A)
    bad = np.abs(det) < _SINGULAR_TOL
    if bad.any():
        if b.ndim == 1:
            raise SolverSingularError(f"singular Newton linearization (|det|={abs(float(det)):.3e})")
        # a bad row gets a NaN right-hand side (and, for LU, the identity): it solves to NaN
        b = np.where(bad[..., None], np.nan, b)
        A = np.where(bad[..., None, None], np.eye(m), A)
    if m == 1:
        return b / det[..., None]
    if m == 2:
        x = np.empty(b.shape)
        x[..., 0] = (a22 * b[..., 0] - a12 * b[..., 1]) / det
        x[..., 1] = (a11 * b[..., 1] - a21 * b[..., 0]) / det
        return x
    return np.linalg.solve(A, b[..., None])[..., 0]


def _newton_solve(drift, jacobian, eye: np.ndarray, bh: float, iterations: int, R: np.ndarray):
    """Exactly ``iterations`` Newton updates for x - bh*f(x) = R, started from R.

    :func:`_solve_core` binds f, its Jacobian and the identity once.  Each update
    makes one call of each and of :func:`_solve_linear`: most of a Newton study's time.
    """
    x = R
    for _ in range(iterations):
        phi = x - bh * drift(x) - R
        x = x - _solve_linear(eye - bh * jacobian(x), phi)
    return x


def _solve_core(model: SdeModel, beta: float, h: float, cfg: ImplicitSolverConfig):
    """Check the step equation x - h*beta*f(x) = R once and return ``solve(R)``.

    Raises for ``beta <= 0``, an ``h`` that is not a positive finite real,
    a violated step bound h*beta*L < 1 (unless ``cfg.enforce_step_bound``
    is off) and a solver mode the model cannot serve.  This is the only
    check of the step bound.  The returned ``solve(R)`` takes a float array
    R of shape ``(m,)`` or ``(B, m)``.  One whole-array finiteness test
    settles the common case; otherwise only the finite rows reach the
    closed form or Newton, and the others (or a single non-finite state)
    come back NaN.
    """
    if not (beta > 0.0):
        raise ValueError(f"implicit solve needs beta > 0, got {beta}")
    if not (h > 0.0 and math.isfinite(h)):
        raise StepSizeError(f"step size must be a positive finite real, got {h}")
    if cfg.enforce_step_bound and not (h * beta * model.L < 1.0):
        raise StepSizeError(
            f"h*beta*L = {h * beta * model.L} outside (0, 1); the implicit step is not"
            " guaranteed well-posed (turn off enforce_step_bound to run anyway)"
        )
    mode = cfg.mode
    if mode == "auto":
        mode = "closed_form" if model.closed_form_implicit is not None else "newton"
    if mode == "closed_form" and model.closed_form_implicit is None:
        raise ValueError("solver mode 'closed_form' needs a model with a closed-form implicit solve")

    if mode == "closed_form":
        core = partial(model.closed_form_implicit, beta, h)
    elif model.drift_jacobian is None:
        raise ValueError("Newton solve requires the model to provide drift_jacobian")
    else:
        core = partial(_newton_solve, model.drift, model.drift_jacobian,
                       np.eye(model.state_dim), beta * h, cfg.newton_iterations)

    def solve(R: np.ndarray) -> np.ndarray:
        if np.isfinite(R).all():
            return core(R)
        finite = np.isfinite(R).all(axis=-1)
        out = np.full_like(R, np.nan)
        if R.ndim > 1 and finite.any():
            out[finite] = core(R[finite])
        return out

    return solve


def solve_implicit(model: SdeModel, beta: float, h: float, R, cfg: ImplicitSolverConfig):
    """Solve the implicit step equation x - h*beta*f(x) = R.

    Requires ``0 < h*beta*L < 1`` unless ``cfg.enforce_step_bound`` is off.
    Non-finite rows of R propagate as NaN without touching the solver — an
    exploded sample is data, not an error.  Newton starts from R.
    """
    return _solve_core(model, beta, h, cfg)(np.asarray(R, dtype=float))


def step_explicit_euler(model: SdeModel, x_prev, h: float, dW):
    """One classical Euler-Maruyama step: x + h f(x) + g(x) dW.

    Never solves an equation, and happily produces non-finite output when
    the dynamics run away — that behaviour is the point of keeping this
    scheme around as a comparison baseline.
    """
    x_prev = np.asarray(x_prev, dtype=float)
    dW = np.asarray(dW, dtype=float)
    return x_prev + h * model.drift(x_prev) + _apply_noise(model.diffusion(x_prev), dW)


def _rhs_terms(coeffs: SchemeCoefficients, h: float) -> tuple:
    """The right-hand side R of a k-step recursion as per-state operand lists.

    Entry i belongs to the old state U_i (oldest first), whose history
    entry is ``(U_i, n_i, f_i)`` with the noise product ``n_i = g(U_i) dW``
    and ``f_i = f(U_i)``.  It is ``(a, rest)``: the factor ``-alpha_i`` on
    U_i, then ``(slot, factor)`` pairs for ``h beta_i`` on f_i and
    ``gamma_i`` on n_i where those are non-zero.  A factor of exactly 1 is
    stored as None and not multiplied, since ``x * 1.0 == x`` bit for bit.
    """

    def factor(value: float):
        return None if value == 1.0 else value

    terms = []
    for i in range(coeffs.k):
        rest = []
        if coeffs.beta[i] != 0.0:
            rest.append((2, factor(h * coeffs.beta[i])))
        if coeffs.gamma[i] != 0.0:
            rest.append((1, factor(coeffs.gamma[i])))
        terms.append((factor(-coeffs.alpha[i]), tuple(rest)))
    return tuple(terms)


def _assemble(terms: tuple, history) -> np.ndarray:
    """R from :func:`_rhs_terms` and the history entries ``(U_i, n_i, f_i)``, oldest first.

    Each state's contribution is formed in full before it is added to R;
    every stepper sums in this one order, so they agree bit for bit.
    """
    R = None
    for (a, rest), entry in zip(terms, history):
        c = entry[0] if a is None else a * entry[0]
        for slot, b in rest:
            c = c + (entry[slot] if b is None else b * entry[slot])
        R = c if R is None else R + c
    return R


def _lmm_rhs(model: SdeModel, coeffs: SchemeCoefficients, h: float, states, drifts, increments):
    """R of one step from its k old states, their drifts and increments, oldest first.

    The diffusion is evaluated only for states whose gamma is non-zero.
    """
    history = []
    for x, f, dW, gamma in zip(states, drifts, increments, coeffs.gamma):
        x = np.asarray(x, dtype=float)
        noise = None
        if gamma != 0.0:
            noise = _apply_noise(model.diffusion(x), np.asarray(dW, dtype=float))
        history.append((x, noise, None if f is None else np.asarray(f, dtype=float)))
    return _assemble(_rhs_terms(coeffs, h), history)


def step_bem(model: SdeModel, cfg: ImplicitSolverConfig, x_prev, h: float, dW):
    """One drift-implicit Euler-Maruyama step.

    Assembles R = x_prev + g(x_prev) dW and solves x - h f(x) = R.
    """
    R = _lmm_rhs(model, BACKWARD_EULER, h, [x_prev], [None], [dW])
    return solve_implicit(model, 1.0, h, R, cfg)


def step_bdf2(
    model: SdeModel,
    cfg: ImplicitSolverConfig,
    x_prev,
    x_prev2,
    h: float,
    dW_cur,
    dW_prev,
):
    """One two-step backward-differentiation step (normalized form).

    Assembles
        R = (-1/3 x_prev2 - 1/3 g(x_prev2) dW_prev) + (4/3 x_prev + g(x_prev) dW_cur)
    and solves x - (2/3) h f(x) = R.
    """
    R = _lmm_rhs(model, BDF2, h, [x_prev2, x_prev], [None, None], [dW_prev, dW_cur])
    return solve_implicit(model, 2.0 / 3.0, h, R, cfg)


def step_lmm(
    model: SdeModel,
    cfg: ImplicitSolverConfig,
    coeffs: SchemeCoefficients,
    state_history,
    drift_history,
    increment_history,
    h: float,
):
    """One step of a general k-step recursion given its coefficient tuples.

    Histories are ordered oldest first and have length k:
    ``state_history[i] = U^{j-k+i}``, ``drift_history[i] = f(state_history[i])``,
    ``increment_history[i] = dW^{j-k+1+i}`` (so the newest increment pairs with
    the newest old state).  Returns ``(x_next, f_next)`` so the caller can
    maintain the drift history without re-evaluating f.
    """
    k = coeffs.k
    if not (len(state_history) == len(drift_history) == len(increment_history) == k):
        raise ValueError(
            f"histories must all have length k={k}, got "
            f"{len(state_history)}/{len(drift_history)}/{len(increment_history)}"
        )
    R = _lmm_rhs(model, coeffs, h, state_history, drift_history, increment_history)
    x_next = solve_implicit(model, coeffs.beta[k], h, R, cfg) if coeffs.implicit else R
    f_next = model.drift(x_next)
    return x_next, f_next


class _Stepper:
    """Advances one k-step recursion over a state ``(m,)`` or a batch ``(B, m)``.

    What does not change from step to step is settled at construction:
    each implicit solve that will run (with its step bound), the stability
    warning, and R as per-state operand lists (:func:`_rhs_terms`).  The
    history keeps, per old state, the state, its noise product g(U) dW
    and, only when some beta_i (i < k) is non-zero, its drift; so each
    step evaluates the diffusion once and BDF2 evaluates no history drift.
    The first k-1 calls of :meth:`advance` fill the starting values (one
    drift-implicit Euler step each with ``second_init="bem"``, or copies of
    x0 with ``"copy"``); after them it runs the recursion.
    """

    def __init__(
        self,
        model: SdeModel,
        coeffs: SchemeCoefficients,
        solver_cfg: ImplicitSolverConfig,
        h: float,
        x0,
        second_init: str = "bem",
    ):
        if second_init not in ("bem", "copy"):
            raise ValueError(f"second_init must be 'bem' or 'copy', got {second_init!r}")
        k = coeffs.k
        self._solve = _solve_core(model, coeffs.beta[k], h, solver_cfg) if coeffs.implicit else None
        self._start_solve = None
        if k >= 2 and second_init == "bem":
            self._start_solve = _solve_core(model, 1.0, h, solver_cfg)
        _stability_warnings(model, coeffs, h)
        self._drift = model.drift
        self._diffusion = model.diffusion
        self._keep_drift = any(b != 0.0 for b in coeffs.beta[:k])
        self._terms = _rhs_terms(coeffs, h)
        self._start_terms = _rhs_terms(BACKWARD_EULER, h)
        self._k = k
        self._history = []
        self.x = np.array(x0, dtype=float)
        self.advance = self._start if k >= 2 else self._recur

    def _push(self, x: np.ndarray, dW: np.ndarray) -> None:
        f = self._drift(x) if self._keep_drift else None
        self._history.append((x, _apply_noise(self._diffusion(x), dW), f))

    def _start(self, dW: np.ndarray) -> np.ndarray:
        x = self.x
        self._push(x, dW)
        if self._start_solve is None:
            self.x = x.copy()
        else:
            R = _assemble(self._start_terms, self._history[-1:])
            self.x = self._start_solve(R)
        if len(self._history) == self._k - 1:
            self.advance = self._recur
        return self.x

    def _recur(self, dW: np.ndarray) -> np.ndarray:
        history = self._history
        self._push(self.x, dW)
        R = _assemble(self._terms, history)
        del history[0]
        self.x = R if self._solve is None else self._solve(R)
        return self.x


def integrate(
    model: SdeModel,
    coeffs: SchemeCoefficients,
    solver_cfg: ImplicitSolverConfig,
    grid: TimeGrid,
    increments: IncrementTable,
    x0,
    second_init: str = "bem",
) -> GridFunction:
    """Run a k-step recursion across the whole grid and return the trajectory.

    ``states[0]`` is the initial condition; for k >= 2 the remaining
    starting values are chained implicit Euler steps (``second_init="bem"``)
    or copies of x0 (``"copy"``).  Each step evaluates the diffusion once;
    the drift is evaluated inside the implicit solve and, only for tuples
    with some beta_i != 0 (i < k), once more for the history.  Non-finite
    states propagate silently — explosion is recorded data, not an error —
    but a singular Newton linearization aborts with the failing step index
    attached.
    """
    if increments.grid != grid:
        raise ValueError("increment table grid does not match the integration grid")
    if increments.noise_dim != model.noise_dim:
        raise ValueError(
            f"increment table has d={increments.noise_dim}, model expects {model.noise_dim}"
        )
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.state_dim,):
        raise ValueError(f"x0 must have shape ({model.state_dim},), got {x0.shape}")
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0}")
    stepper = _Stepper(model, coeffs, solver_cfg, grid.h, x0, second_init)
    inc = increments.increments
    states = np.empty((grid.N + 1, model.state_dim), dtype=float)
    states[0] = x0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(1, grid.N + 1):
            try:
                states[j] = stepper.advance(inc[j - 1])
            except SolverSingularError as err:
                raise SolverSingularError(
                    f"implicit solve failed at step {j}: {err}", step_index=j
                ) from err
    return GridFunction(grid=grid, states=states)
