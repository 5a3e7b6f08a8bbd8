"""Time steppers for stiff monotone SDEs and the implicit solves behind them.

The drift-implicit one-step scheme and the two-step backward
differentiation scheme both reduce each step to a root problem

    x - h * beta * f(x) = R,

where R aggregates everything already known (old states, explicit drift
terms, noise terms).  For monotone drifts this equation has a unique
solution whenever ``h * beta * L < 1``.  Every implicit solve checks that
bound once, when it is set up (:func:`_solve_core`), for each ``beta`` a
run will use.  The set-up returns ``solve(R)``, a function of R alone that
the model picks: its closed form (``SdeModel.closed_form_implicit``; this
module holds no model's code) when it has one, else a fixed number of
Newton iterations started from R.  A non-finite row of R runs through the
same arithmetic and comes back non-finite.  A singular Newton linearization
of a single state raises :class:`SolverSingularError`; :func:`integrate`
attaches the failing step.

All steppers are vectorized over leading axes: states may be ``(m,)`` or
``(B, m)`` and keep that shape, which is what makes the Monte Carlo
harness fast without a second code path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .core import BACKWARD_EULER, BDF2, GridFunction, SchemeCoefficients, SdeModel, TimeGrid
from .core import EXPLICIT_EULER, _const, _require_count, _require_positive_finite
from .core import _require_state
from .brownian import IncrementTable

__all__ = [
    "StepSizeError",
    "SolverSingularError",
    "ImplicitSolverConfig",
    "solve_implicit",
    "step_explicit_euler",
    "step_bem",
    "step_bdf2",
    "step_lmm",
    "integrate",
]

_SINGULAR_TOL = 1e-14
# how a multistep scheme may obtain its starting values
_SECOND_INITS = ("bem", "copy")


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

    Which solve runs is the model's: its ``closed_form_implicit`` when it
    has one, the damped-free Newton iteration otherwise (replace that field
    with None to run Newton on a model with a closed form).

    newton_iterations
        Exact number of Newton updates, started from R itself, the
        Euler-style predictor already in hand; there is no early exit, so
        every row of a batch ends where solving it alone would.
    enforce_step_bound
        The one switch of the well-posedness bound h*beta*L < 1, checked
        for every implicit solve: the recursion's, the drift-implicit
        Euler starter's and each bare ``solve_implicit``.  When False the
        bound is skipped (h must still be a positive finite real).
        Outside it uniqueness (and Newton invertibility) is lost; this
        exists for deliberate what-happens-if runs, not production.
    """

    newton_iterations: int = 5
    enforce_step_bound: bool = True

    def __post_init__(self) -> None:
        _require_count(1, newton_iterations=self.newton_iterations)


def _stability_warnings(model: SdeModel, coeffs: SchemeCoefficients, h: float) -> None:
    """Warn (never reject) when h exceeds the stricter mean-square bounds.

    The literature states two inequivalent step-size restrictions for each
    scheme family; neither affects well-posedness, so both candidates are
    reported and the run proceeds.  Callers warn once per run, before they
    step, so the warning points at their own caller.
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
            stacklevel=3,
        )


def _noise_product(d: int):
    """g @ dW over the trailing axes for noise dimension ``d``, chosen once.

    ``g`` has shape (..., m, d) and ``dW`` shape (..., d); the result has
    shape (..., m).  d = 1 and d = 2 are unrolled so the summation order
    is fixed (and fast); larger d falls back to einsum.
    """
    if d == 1:
        return lambda g, dW: g[..., 0] * dW
    if d == 2:
        return _noise_product_2
    return partial(np.einsum, "...md,...d->...m")


def _noise_product_2(g: np.ndarray, dW: np.ndarray) -> np.ndarray:
    """g @ dW for d = 2, one output component at a time from 1-d views,
    ``g[..., i, 0] * dW[..., 0] + g[..., i, 1] * dW[..., 1]``: each operation
    loops once over all rows, where a broadcast ``dW[..., 0:1]`` operand
    makes numpy loop over each row's m entries on their own."""
    out = np.empty(g.shape[:-1])
    dW0, dW1 = dW[..., 0], dW[..., 1]
    for i in range(g.shape[-2]):
        out[..., i] = g[..., i, 0] * dW0 + g[..., i, 1] * dW1
    return out


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
    if np.count_nonzero(bad):
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


def _newton_solve(drift, jacobian, eye: np.ndarray, bh: np.ndarray, bh_jacobian: np.ndarray,
                  iterations: int, R: np.ndarray):
    """Exactly ``iterations`` Newton updates for x - bh*f(x) = R, started from R.

    :func:`_solve_core` binds f, its Jacobian, the identity and beta*h once:
    ``bh`` multiplies f(x), ``bh_jacobian`` the Jacobian and ``eye`` is the
    identity of every row, as per-row operands shaped like each; R may be
    their first ``len(R)`` rows.  Each update makes one call of f, of its
    Jacobian and of :func:`_solve_linear`: most of a Newton study's time.
    """
    rows = len(R)
    eye, bh, bh_jacobian = eye[:rows], bh[:rows], bh_jacobian[:rows]
    x = R
    for _ in range(iterations):
        phi = x - bh * drift(x) - R
        x = x - _solve_linear(eye - bh_jacobian * jacobian(x), phi)
    return x


def _solve_blocks(solves: tuple, block_rows: int, R: np.ndarray) -> np.ndarray:
    """Each block of ``block_rows`` rows of R through its own solve, for the blocks R holds."""
    x = np.empty(R.shape)
    for i in range(0, len(R), block_rows):
        x[i:i + block_rows] = solves[i // block_rows](R[i:i + block_rows])
    return x


def _per_row(values: tuple, shape: tuple) -> np.ndarray:
    """An array of ``shape`` whose rows split evenly into ``len(values)`` blocks,
    ``values[i]`` on every element of block i."""
    values = np.asarray(values, dtype=float)
    return np.repeat(values, math.prod(shape) // len(values)).reshape(shape)


def _solve_core(model: SdeModel, beta: float, h: tuple, cfg: ImplicitSolverConfig,
                shape: tuple):
    """Check the step equation x - h*beta*f(x) = R once and return ``solve(R)``.

    ``h`` holds one step size per block of equally many consecutive rows of
    a state of ``shape``, ``(m,)`` or ``(B, m)``; a single state or a plain
    batch is one block.  Raises for ``beta <= 0``, a step size that is not
    a positive finite real, a violated step bound h*beta*L < 1 (unless
    ``cfg.enforce_step_bound`` is off) and a model with neither a closed
    form nor a Jacobian.  This is the only check of the step bound.

    ``solve(R)`` takes R of ``shape`` or its rows of a prefix of whole
    blocks.  A model's closed form, when it has one, is settled here, one
    ``closed_form_implicit(beta, h)`` call per block, and each settled solve
    runs on its block's rows (one block is that solve itself); Newton
    (:func:`_newton_solve`) runs once over all rows, with beta*h as per-row
    operands of the shapes of f, ``shape``, and of its Jacobian, and the
    identity as a per-row operand too (a broadcast ``(m, m)`` one makes numpy
    loop over each row's m*m entries on their own).  A non-finite row (or
    single state) runs through its arithmetic and comes back non-finite;
    rows are independent, so the others keep their bits.
    """
    _require_positive_finite(beta=beta)
    for step in h:
        if not (step > 0.0 and math.isfinite(step)):
            raise StepSizeError(f"step size must be a positive finite real, got {step}")
        if cfg.enforce_step_bound and not (step * beta * model.L < 1.0):
            raise StepSizeError(
                f"h*beta*L = {step * beta * model.L} outside (0, 1); the implicit step is not"
                " guaranteed well-posed (turn off enforce_step_bound to run anyway)"
            )
    if model.closed_form_implicit is not None:
        solves = tuple(model.closed_form_implicit(beta, step) for step in h)
        if len(solves) == 1:
            return solves[0]
        return partial(_solve_blocks, solves, shape[0] // len(h))
    if model.drift_jacobian is None:
        raise ValueError("Newton solve requires the model to provide drift_jacobian")
    m = model.state_dim
    bh = tuple(beta * step for step in h)
    return partial(_newton_solve, model.drift, model.drift_jacobian,
                   np.tile(np.eye(m), shape[:-1] + (1, 1)), _per_row(bh, shape),
                   _per_row(bh, shape + (m,)), cfg.newton_iterations)


def solve_implicit(model: SdeModel, beta: float, h: float, R, cfg: ImplicitSolverConfig):
    """Solve the implicit step equation x - h*beta*f(x) = R.

    Requires ``0 < h*beta*L < 1`` unless ``cfg.enforce_step_bound`` is off.
    Non-finite rows of R go through the solve and come back non-finite,
    without a floating-point warning — an exploded sample is data, not an
    error.  Newton starts from R.  R must have shape ``(m,)`` or ``(B, m)``
    with ``m = model.state_dim``.
    """
    R = np.asarray(R, dtype=float)
    m = model.state_dim
    if R.ndim not in (1, 2) or R.shape[-1] != m:
        raise ValueError(f"R must have shape ({m},) or (B, {m}), got {R.shape}")
    solve = _solve_core(model, beta, (h,), cfg, R.shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return solve(R)


@lru_cache
def _rhs_form(coeffs: SchemeCoefficients):
    """The sum R of ``coeffs``, written out as one expression and compiled
    once per coefficient tuple, with its constant factors settled.

    Entry i of the history belongs to the old state U_i (oldest first) and
    is ``(U_i, n_i, f_i)``, with the noise product ``n_i = g(U_i) dW`` and
    ``f_i = f(U_i)``.  U_i contributes ``-alpha_i U_i``, then ``h beta_i f_i``
    and ``gamma_i n_i`` where those factors are non-zero; each state's sum is
    formed in full before it is added to R, and every stepper sums in this
    one order, so they agree bit for bit.  For BDF2 the expression is
    ``(c0 * history[0][0] + c1 * history[0][1]) + (c2 * history[1][0] + history[1][1])``.
    The constants ``c0, c1, ...`` (-alpha_i and gamma_i) are read-only 0-d
    float64 arrays (:func:`core._const`); one of exactly 1 is not
    multiplied, since ``x * 1.0 == x`` bit for bit.

    Returns ``form(*h_factors)``: it takes the per-row operands ``h beta_i``
    for each non-zero beta_i (i < k), oldest first, and returns R as a
    function of the history.  The constants are ``form.args``.
    """
    constants, h_names, sums = [], [], []

    def times(factor, term):
        if factor == 1.0:
            return term
        constants.append(_const(factor))
        return f"c{len(constants) - 1} * {term}"

    for i in range(coeffs.k):
        terms = [times(-coeffs.alpha[i], f"history[{i}][0]")]
        if coeffs.beta[i] != 0.0:
            h_names.append(f"b{len(h_names)}")
            terms.append(f"{h_names[-1]} * history[{i}][2]")
        if coeffs.gamma[i] != 0.0:
            terms.append(times(coeffs.gamma[i], f"history[{i}][1]"))
        sums.append("(" + " + ".join(terms) + ")")
    names = ", ".join([f"c{j}" for j in range(len(constants))] + h_names)
    return partial(eval(f"lambda {names}: lambda history: {' + '.join(sums)}"), *constants)


def _step(model: SdeModel, cfg: ImplicitSolverConfig, coeffs: SchemeCoefficients, h: float,
          states, increments, names: tuple):
    """One bare step of ``coeffs``: a :class:`_Stepper` over the k old
    states, started with copies, set to each in turn, oldest first, and
    advanced with its increment.  The first k-1 advances only fill the
    history and the last is the recursion step, so R, the noise products,
    the history's drift and the solve are the stepper's own, under the
    ``np.errstate`` of :func:`integrate` (a non-finite row is silent).

    ``names`` holds the parameter names of the states, then of the
    increments: a state that is not of one shared shape ``(m,)`` or
    ``(B, m)``, or an increment not of that shape with d for m, is a
    ``ValueError`` that names it.
    """
    m, d = model.state_dim, model.noise_dim
    states = [np.asarray(x, dtype=float) for x in states]
    shape = states[0].shape
    for x, name in zip(states, names):
        if x.ndim not in (1, 2) or x.shape[-1] != m:
            raise ValueError(f"{name} must have shape ({m},) or (B, {m}), got {x.shape}")
        if x.shape != shape:
            raise ValueError(f"{name} must have the shape {shape} of {names[0]}, got {x.shape}")
    increments = [np.asarray(dW, dtype=float) for dW in increments]
    for dW, name in zip(increments, names[len(states):]):
        if dW.shape != shape[:-1] + (d,):
            raise ValueError(f"{name} must have shape {shape[:-1] + (d,)}, got {dW.shape}")
    stepper = _Stepper(model, coeffs, cfg, (h,), states[0], "copy")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for x, dW in zip(states, increments):
            stepper.x = x
            x_next = stepper.advance(dW)
    return x_next


def step_explicit_euler(model: SdeModel, x_prev, h: float, dW):
    """One classical Euler-Maruyama step: x + h f(x) + g(x) dW.

    Never solves an equation, and happily produces non-finite output when
    the dynamics run away — that behaviour is the point of keeping this
    scheme around as a comparison baseline.
    """
    return _step(model, None, EXPLICIT_EULER, h, [x_prev], [dW], ("x_prev", "dW"))


def step_bem(model: SdeModel, cfg: ImplicitSolverConfig, x_prev, h: float, dW):
    """One drift-implicit Euler-Maruyama step.

    Assembles R = x_prev + g(x_prev) dW and solves x - h f(x) = R.
    """
    return _step(model, cfg, BACKWARD_EULER, h, [x_prev], [dW], ("x_prev", "dW"))


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
    return _step(model, cfg, BDF2, h, [x_prev2, x_prev], [dW_prev, dW_cur],
                 ("x_prev2", "x_prev", "dW_prev", "dW_cur"))


def step_lmm(
    model: SdeModel,
    cfg: ImplicitSolverConfig,
    coeffs: SchemeCoefficients,
    state_history,
    increment_history,
    h: float,
):
    """One step of a general k-step recursion given its coefficient tuples.

    Histories are ordered oldest first and have length k:
    ``state_history[i] = U^{j-k+i}`` and ``increment_history[i] = dW^{j-k+1+i}``
    (so the newest increment pairs with the newest old state).  Returns
    ``x_next``; the stepper (:func:`_step`) evaluates f on the old states itself.
    """
    k = coeffs.k
    if not (len(state_history) == len(increment_history) == k):
        raise ValueError(
            f"histories must all have length k={k}, got "
            f"{len(state_history)}/{len(increment_history)}"
        )
    names = [f"{history}[{i}]" for history in ("state_history", "increment_history")
             for i in range(k)]
    return _step(model, cfg, coeffs, h, state_history, increment_history, names)


class _Stepper:
    """Advances one k-step recursion over a state ``(m,)`` or a batch ``(B, m)``.

    What does not change from step to step is settled at construction:
    each implicit solve that will run (with its step bound), the noise
    product for the model's noise dimension (:func:`_noise_product`) and R
    as one callable of the history (:func:`_rhs_form`, bound to the per-row
    ``h beta_i`` operands).  The history keeps, per old state, the state,
    its noise product g(U) dW and, only when some beta_i (i < k) is
    non-zero, its drift; so each step evaluates the diffusion once and BDF2
    evaluates no history drift.  Each call of :meth:`advance` pushes the
    current state's entry; while the history holds fewer than k entries
    the next state is a starting value (one drift-implicit Euler step from
    the newest entry with ``second_init="bem"``, a copy with ``"copy"``),
    and from then on R is formed, the oldest entry dropped and R solved.

    ``h`` is a tuple with one step size per block of equally many
    consecutive rows of x0; a single state or a plain batch is one block,
    ``(h,)``.  Each block runs at its own step size, with h-dependent
    factors as per-row operands, and :meth:`narrow` drops trailing blocks.
    Rows are independent, so a block's bits are those of a stepper over
    that block alone.
    """

    def __init__(
        self,
        model: SdeModel,
        coeffs: SchemeCoefficients,
        solver_cfg: ImplicitSolverConfig,
        h: tuple,
        x0,
        second_init: str = "bem",
    ):
        if second_init not in _SECOND_INITS:
            choices = " or ".join(map(repr, _SECOND_INITS))
            raise ValueError(f"second_init must be {choices}, got {second_init!r}")
        k = coeffs.k
        self.x = np.array(x0, dtype=float)
        shape = self.x.shape
        self._solve = None
        if coeffs.implicit:
            self._solve = _solve_core(model, coeffs.beta[k], h, solver_cfg, shape)
        self._start_solve = None
        if k >= 2 and second_init == "bem":
            self._start_solve = _solve_core(model, 1.0, h, solver_cfg, shape)
            self._start_rhs = _rhs_form(BACKWARD_EULER)()
        betas = [b for b in coeffs.beta[:k] if b != 0.0]
        self._drift = model.drift if betas else None
        self._diffusion = model.diffusion
        self._noise = _noise_product(model.noise_dim)
        self._form = _rhs_form(coeffs)
        self._h_factors = tuple(_per_row(tuple(step * b for step in h), shape) for b in betas)
        self._rhs = self._form(*self._h_factors)
        self._k = k
        self._history = []

    def narrow(self, rows: int) -> None:
        """Keep the first ``rows`` rows, whole blocks: x, the history and the
        ``h beta_i`` operands become views of them, and R is bound to those.
        The solves take any such prefix, and the starter's R holds no per-row
        operand."""
        self.x = self.x[:rows]
        self._history = [tuple(None if v is None else v[:rows] for v in entry)
                         for entry in self._history]
        self._h_factors = tuple(factor[:rows] for factor in self._h_factors)
        self._rhs = self._form(*self._h_factors)

    def advance(self, dW: np.ndarray) -> np.ndarray:
        x = self.x
        history = self._history
        f = None if self._drift is None else self._drift(x)
        history.append((x, self._noise(self._diffusion(x), dW), f))
        if len(history) < self._k:
            start = self._start_solve
            self.x = x.copy() if start is None else start(self._start_rhs(history[-1:]))
        else:
            R = self._rhs(history)
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
    table = increments.grid
    # a loaded table's T is h*N rounded (at most eps off), and each h = T/N rounds once more
    tol = 2.0 * np.finfo(float).eps * max(table.h, grid.h)
    if table.N != grid.N or abs(table.h - grid.h) > tol:
        raise ValueError(
            f"increment table grid (N, h) = ({table.N}, {table.h}) does not match the"
            f" integration grid ({grid.N}, {grid.h})"
        )
    if increments.noise_dim != model.noise_dim:
        raise ValueError(
            f"increment table has d={increments.noise_dim}, model expects {model.noise_dim}"
        )
    x0 = np.array(_require_state(x0, model.state_dim))
    stepper = _Stepper(model, coeffs, solver_cfg, (grid.h,), x0, second_init)
    _stability_warnings(model, coeffs, grid.h)
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
