"""Strong-error convergence studies with coupled reference solutions.

The workflow mirrors the classical measurement protocol for strong
convergence rates: per Monte Carlo sample, draw one fine Brownian
increment table, integrate a high-resolution reference trajectory with a
robust implicit scheme, then rerun every (scheme, step size) combination
on *coarsened* versions of the same increments and record the maximal
mean-square deviation over the coarse grid points,

    error(h) = max_n ( 1/M * sum_m |X_ref^{(m)}(t_n) - X_h^{n,(m)}|^2 )^{1/2}.

Reproducibility rules baked in here:

* every sample's noise comes from its own counter-based stream keyed by
  ``(base_seed, sample_index)``;
* samples are reduced in fixed contiguous batches whose partial sums
  are merged in batch order with compensated (Kahan) summation, so the
  output is bitwise identical for any number of worker threads;
* stepping runs in passes of whole consecutive batches (up to 1024 rows,
  or one batch if that is larger).  A sample's trajectory depends only
  on its own noise, so a pass steps its rows together and then reduces
  each batch's rows on their own: the partials do not depend on how
  batches are grouped into passes;
* within a pass each scheme steps every level in lockstep, as one stepper
  over all levels' rows (longest level first, one step size per level)
  that is narrowed to the levels still running as the coarse ones finish;
  rows never mix, so each level keeps the bits of a run of its own;
* a sample with anything non-finite in its squared norms counts as
  exploded (exploded = samples - valid) and adds zeros; a table number is
  the largest root-mean-square over the grid points (NaN without a valid
  sample), and a cell is rendered "-" once at least 0.1% of samples
  exploded.  The study, the residual estimate and :func:`strong_error`
  share this one reduction.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .brownian import SeedSpec, _coarse_chunks, generate_increments
from .core import (
    BACKWARD_EULER,
    BDF2,
    EXPLICIT_EULER,
    GridFunction,
    SdeModel,
    TimeGrid,
    _require_count,
    _require_positive_finite,
    _require_sequence,
)
from .schemes import (  # noqa: F401  (perfbench's trace patches step_* here by name)
    _SECOND_INITS,
    ImplicitSolverConfig,
    _apply_noise,
    _stability_warnings,
    _Stepper,
    integrate,
    step_bdf2,
    step_bem,
    step_explicit_euler,
)

__all__ = [
    "ExperimentConfig",
    "SchemeCell",
    "LevelRow",
    "ErrorTable",
    "ResidualReport",
    "eoc",
    "cfl_indicator",
    "reference_trajectory",
    "strong_error",
    "run_convergence_study",
    "residual_defects",
    "estimate_residuals",
    "write_csv",
]

SCHEME_COEFFS = {"eulm": EXPLICIT_EULER, "bem": BACKWARD_EULER, "bdf2": BDF2}
# the schemes a study may integrate its fine reference with: the implicit ones
_REFERENCE_SCHEMES = tuple(name for name, coeffs in SCHEME_COEFFS.items() if coeffs.implicit)

#: Fraction of exploded samples at which a table cell is rendered "-".
EXPLOSION_RENDER_THRESHOLD = 1e-3

_DEFAULT_LEVELS = tuple(25 * 2**k for k in range(8))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a convergence or residual study needs, seeds included.

    ``levels`` are the coarse step counts (ascending); ``ref_steps`` is the
    reference resolution and must be divisible by every level.  The
    reference is integrated with ``reference_scheme`` (the two-step method
    by default) using the ``second_init`` starting policy ("bem" advances
    one drift-implicit Euler step, "copy" repeats x0).  ``batch_size``
    fixes the partition of the samples into the batches whose partial sums
    are merged, and is therefore part of the reproducibility contract.
    Stepping runs in passes of whole consecutive batches (up to 1024 rows,
    or one batch if that is larger); ``threads`` only distributes the
    passes, and neither the passes nor ``threads`` change results.
    """

    model: SdeModel
    x0: tuple[float, ...]
    T: float = 1.0
    schemes: tuple[str, ...] = tuple(SCHEME_COEFFS)
    levels: tuple[int, ...] = _DEFAULT_LEVELS
    samples: int = 10_000
    ref_steps: int = 25 * 2**12
    base_seed: int = 0
    threads: int = 1
    second_init: str = "bem"
    solver: ImplicitSolverConfig = ImplicitSolverConfig()
    reference_scheme: str = "bdf2"
    batch_size: int = 1024

    def __post_init__(self) -> None:
        try:
            x0 = np.asarray(self.x0, dtype=float)
        except (TypeError, ValueError):  # a complex, a string that is no number, a ragged list
            x0 = None
        if x0 is None or x0.ndim > 1:
            raise ValueError(f"x0 must be a real or a flat sequence of reals, got {self.x0!r}")
        object.__setattr__(self, "x0", tuple(float(v) for v in np.atleast_1d(x0)))
        for name in ("schemes", "levels"):
            object.__setattr__(self, name, _require_sequence(name, getattr(self, name)))
        for n in self.levels:
            _require_count(1, levels=n)
        object.__setattr__(self, "levels", tuple(int(n) for n in self.levels))
        if len(self.x0) != self.model.state_dim:
            raise ValueError(
                f"x0 has dimension {len(self.x0)}, model expects {self.model.state_dim}"
            )
        if not all(math.isfinite(v) for v in self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")
        _require_positive_finite(horizon=self.T)
        if not self.schemes:
            raise ValueError("need at least one scheme")
        for s in self.schemes:
            if not isinstance(s, str):
                raise ValueError(f"schemes must be a sequence of names, got {self.schemes!r}")
            if s not in SCHEME_COEFFS:
                raise ValueError(f"unknown scheme {s!r}; available: {sorted(SCHEME_COEFFS)}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ValueError("schemes must be unique")
        if not self.levels:
            raise ValueError("need at least one level")
        _require_count(1, ref_steps=self.ref_steps, samples=self.samples, threads=self.threads,
                       batch_size=self.batch_size)
        _require_count(0, base_seed=self.base_seed)
        if list(self.levels) != sorted(set(self.levels)):
            raise ValueError("levels must be strictly ascending")
        for n in self.levels:
            if self.ref_steps % n != 0:
                raise ValueError(f"ref_steps={self.ref_steps} not divisible by level N={n}")
        if not self.base_seed < 2**64:
            raise ValueError("base_seed must fit in 64 bits")
        if self.second_init not in _SECOND_INITS:
            choices = " or ".join(map(repr, _SECOND_INITS))
            raise ValueError(f"second_init must be {choices}, got {self.second_init!r}")
        if self.reference_scheme not in _REFERENCE_SCHEMES:
            raise ValueError(f"reference scheme must be one of {list(_REFERENCE_SCHEMES)}, "
                             f"got {self.reference_scheme!r}")

    @property
    def fine_grid(self) -> TimeGrid:
        return TimeGrid(T=self.T, N=self.ref_steps)

    def level_grid(self, n: int) -> TimeGrid:
        return TimeGrid(T=self.T, N=n)


def eoc(error_prev: float, error_cur: float, h_prev: float, h_cur: float) -> Optional[float]:
    """Estimated order of convergence between two (h, error) measurements.

    Returns ``(log e_cur - log e_prev) / (log h_cur - log h_prev)``, or
    None when undefined (non-finite or zero errors, equal step sizes).
    """
    if not (h_prev > 0 and h_cur > 0) or h_prev == h_cur:
        return None
    if not (np.isfinite(error_prev) and np.isfinite(error_cur)):
        return None
    if error_prev <= 0.0 or error_cur <= 0.0:
        return None
    return float(
        (math.log(error_cur) - math.log(error_prev)) / (math.log(h_cur) - math.log(h_prev))
    )


def cfl_indicator(lam: float, h: float) -> bool:
    """Whether the scalar stiff test multiplier survives explicit stepping: |1 - lam*h| < 1."""
    return bool(abs(1.0 - lam * h) < 1.0)


def reference_trajectory(config: ExperimentConfig, sample_index: int) -> GridFunction:
    """The fine reference trajectory for one sample of a study."""
    seed = SeedSpec(config.base_seed, sample_index)
    table = generate_increments(config.fine_grid, config.model.noise_dim, seed)
    return integrate(config.model, SCHEME_COEFFS[config.reference_scheme], config.solver,
                     table.grid, table, config.x0, second_init=config.second_init)


def _masked_sums(*squares: np.ndarray) -> tuple[tuple[np.ndarray, ...], int]:
    """``(column sums, valid count)`` of per-sample rows; a sample with anything
    non-finite in any of its rows is exploded and its rows are zeroed in place."""
    valid = np.logical_and.reduce([np.isfinite(sq).all(axis=1) for sq in squares])
    for sq in squares:
        sq[~valid] = 0.0
    return tuple(sq.sum(axis=0) for sq in squares), int(valid.sum())


def _kahan_merge(partials: Sequence[dict]) -> dict:
    """Kahan-merge ``{key: (sums, valid)}`` partials in list order (batch order)
    into ``{key: (totals, valid)}``; the result depends only on that order.  A
    total that overflows reads inf (or NaN), silently, like the sums it merges."""
    merged = {}
    for part in partials:
        for key, (sums, valid) in part.items():
            if key not in merged:
                zeros = [np.zeros_like(v) for v in sums]
                merged[key] = (zeros, [z.copy() for z in zeros], 0)
            totals, comps, count = merged[key]
            with np.errstate(over="ignore", invalid="ignore"):
                for total, comp, value in zip(totals, comps, sums):
                    y = value - comp
                    t = total + y
                    comp[:] = (t - total) - y
                    total[:] = t
            merged[key] = (totals, comps, count + valid)
    return {key: (tuple(totals), count) for key, (totals, _comps, count) in merged.items()}


def _rms_max(total: np.ndarray, valid: int) -> float:
    """``sqrt(max(total / valid))``; NaN with no valid sample or no grid point."""
    if valid == 0 or total.size == 0:
        return float("nan")
    return float(np.sqrt(np.max(total / valid)))


def strong_error(
    config: ExperimentConfig,
    scheme: str,
    n_steps: int,
    references: Sequence[GridFunction],
) -> tuple[float, int]:
    """Strong error of one scheme at one level against supplied references.

    ``references[i]`` must be the fine-grid reference of sample index i
    (same base seed); the sample's noise is regenerated here and coarsened
    onto the level grid by the study's own chunked draw
    (:func:`brownian._coarse_chunks`), so scheme and reference see the same
    Brownian path.  All samples are stepped together as one batch, so a sample
    whose Newton linearization turns singular counts as exploded, as in
    the study.  Each sample is one partial of the shared reduction, merged
    in sample order.  Returns ``(error, exploded_count)``; the error is NaN
    when every sample exploded or ``references`` is empty.
    """
    if scheme not in SCHEME_COEFFS:
        raise ValueError(f"unknown scheme {scheme!r}")
    _require_count(1, n_steps=n_steps)
    if config.ref_steps % n_steps != 0:
        raise ValueError(f"level N={n_steps} does not divide ref_steps={config.ref_steps}")
    for idx, ref in enumerate(references):
        if ref.grid != config.fine_grid:
            raise ValueError(f"reference {idx} lives on {ref.grid}, expected {config.fine_grid}")
    if not references:
        return float("nan"), 0
    factor = config.ref_steps // n_steps
    gens = [SeedSpec(config.base_seed, idx).generator() for idx in range(len(references))]
    increments = np.concatenate([sums[factor] for _start, _fine, sums in _coarse_chunks(
        gens, config.fine_grid.h, config.ref_steps, config.model.noise_dim, (factor,))])
    ref_states = np.stack([ref.states[::factor] for ref in references], axis=1)
    _stability_warnings(config.model, SCHEME_COEFFS[scheme], config.level_grid(n_steps).h)
    devsq = _level_deviations(config, scheme, {n_steps: increments}, {n_steps: ref_states})[n_steps]
    partials = [{n_steps: _masked_sums(devsq[i:i + 1])} for i in range(len(references))]
    (total,), valid = _kahan_merge(partials)[n_steps]
    return _rms_max(total, valid), len(references) - valid


@dataclass(frozen=True)
class SchemeCell:
    """One (level, scheme) table entry."""

    error: float
    eoc: Optional[float]
    exploded: int
    samples: int

    @property
    def is_exploded(self) -> bool:
        return _renders_exploded(self.error, self.exploded, self.samples)


def _renders_exploded(error: float, exploded: int, samples: int) -> bool:
    """Whether a cell renders "-": no samples, a non-finite error or too many explosions."""
    if samples == 0 or not np.isfinite(error):
        return True
    return exploded / samples >= EXPLOSION_RENDER_THRESHOLD


@dataclass(frozen=True)
class LevelRow:
    n_steps: int
    h: float
    cells: dict[str, SchemeCell]


@dataclass(frozen=True)
class ErrorTable:
    """Convergence-study result: one row per level, one cell per scheme."""

    schemes: tuple[str, ...]
    rows: tuple[LevelRow, ...]
    samples: int

    def cell(self, n_steps: int, scheme: str) -> SchemeCell:
        for row in self.rows:
            if row.n_steps == n_steps:
                return row.cells[scheme]
        raise KeyError(f"no level with N={n_steps}")

    def render_csv(self) -> str:
        """CSV text: N, h, then (error, eoc, exploded) per scheme.

        Errors carry 6 significant digits, orders two decimals; an
        exploded cell renders "-" with its EOC left blank, as does the EOC
        of the following row (no finite predecessor).  Ends with a newline.
        """
        header = "N,h" + "".join(
            f",{s}_error,{s}_eoc,{s}_exploded" for s in self.schemes
        )
        lines = [header]
        for row in self.rows:
            parts = [str(row.n_steps), f"{row.h:g}"]
            for s in self.schemes:
                cell = row.cells[s]
                if cell.is_exploded:
                    parts.append("-")
                else:
                    parts.append(f"{cell.error:.6g}")
                parts.append("" if cell.eoc is None else f"{cell.eoc:.2f}")
                parts.append(str(cell.exploded))
            lines.append(",".join(parts))
        return "\n".join(lines) + "\n"


def write_csv(table: ErrorTable, path) -> None:
    """Write a rendered error table to ``path`` (UTF-8)."""
    text = table.render_csv()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Batched study engine
# ---------------------------------------------------------------------------


#: Rows stepped together in one pass: whole consecutive batches, at most
#: ``max(batch_size, _PASS_ROWS)`` rows, the size of one default batch.
_PASS_ROWS = 1024


def _map_batches(config: ExperimentConfig, squares_fn) -> dict:
    """Merged sums ``{key: (totals, valid)}`` of ``squares_fn``'s squares over all samples.

    Consecutive fixed batches are grouped into passes of at most
    ``max(batch_size, _PASS_ROWS)`` rows, and :func:`_run_pass` returns one
    partial per batch of a pass.  ``threads`` only spreads the passes over
    workers; the partials are Kahan-merged in batch order either way.
    """
    n, size = config.samples, config.batch_size
    ranges = [(lo, min(lo + size, n)) for lo in range(0, n, size)]
    per_pass = max(1, _PASS_ROWS // size)
    passes = [ranges[i:i + per_pass] for i in range(0, len(ranges), per_pass)]
    run = functools.partial(_run_pass, config, squares_fn)
    if config.threads > 1 and len(passes) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(run, passes))
    else:
        results = map(run, passes)
    return _kahan_merge([part for parts in results for part in parts])


def _run_pass(config: ExperimentConfig, squares_fn, batches: Sequence[tuple[int, int]]) -> list:
    """Per-batch partials ``{key: (sums, valid)}`` of one pass of ``(lo, hi)`` batch ranges.

    The reference runs once over all rows of the pass; ``squares_fn(config,
    snapshots, coarse_incs)`` yields ``(key, squares)``, a tuple of per-sample
    ``(B, columns)`` arrays, whose rows each batch reduces on its own.
    """
    lo, hi = batches[0][0], batches[-1][1]
    snapshots, coarse_incs = _reference_pass(config, lo, hi)
    out = [{} for _ in batches]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for key, squares in squares_fn(config, snapshots, coarse_incs):
            for part, (blo, bhi) in zip(out, batches):
                part[key] = _masked_sums(*(sq[blo - lo:bhi - lo] for sq in squares))
    return out


def _reference_pass(config: ExperimentConfig, lo: int, hi: int):
    """Integrate the fine reference for samples [lo, hi) in time chunks.

    Returns ``(snapshots, coarse_incs)``, per level and both time-major: the
    reference states on the level grid, shape (N_l+1, B, m), so the
    reference rows of one step are one contiguous block, and the coarsened
    increments, shape (N_l, B, d), from :func:`brownian._coarse_chunks`.
    The reference is written every gcd of the coarsening factors fine steps
    into one ``(ref_steps // gcd + 1, B, m)`` array whose strided views are
    every level's snapshots: the finest level's grid on a nested ladder,
    the grid of ``lcm(levels)`` steps otherwise.
    """
    model = config.model
    B = hi - lo
    h_fine = config.fine_grid.h
    factors = {n: config.ref_steps // n for n in config.levels}
    gcd = math.gcd(*factors.values())
    ref = np.empty((config.ref_steps // gcd + 1, B, model.state_dim))
    ref[0] = config.x0
    snapshots = {n: ref[::f // gcd] for n, f in factors.items()}
    coarse_incs = {n: np.empty((n, B, model.noise_dim)) for n in config.levels}
    gens = [SeedSpec(config.base_seed, idx).generator() for idx in range(lo, hi)]
    stepper = _Stepper(model, SCHEME_COEFFS[config.reference_scheme], config.solver, (h_fine,),
                       ref[0], config.second_init)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start, fine, sums in _coarse_chunks(gens, h_fine, config.ref_steps,
                                                model.noise_dim, factors.values()):
            for n, f in factors.items():
                coarse_incs[n][start // f:(start + len(fine)) // f] = sums[f]
            for t in range(0, len(fine), gcd):
                for dW in fine[t:t + gcd]:
                    x = stepper.advance(dW)
                ref[(start + t) // gcd + 1] = x
    return snapshots, coarse_incs


#: Lockstep steps whose states are kept at once before their deviations are taken.
_SPAN_STEPS = 32


def _level_deviations(config: ExperimentConfig, scheme: str, coarse_incs: dict,
                      snapshots: dict) -> dict:
    """Squared deviations ``{n: (B, n+1)}`` of one scheme from the reference at each level.

    ``coarse_incs[n]`` are a level's increments, time-major (n, B, d), and
    ``snapshots[n]`` the reference on its grid, time-major (n+1, B, m).
    One stepper runs every level's rows, stacked level-major with the
    longest level first, each block at its own step size and starting from
    ``config.x0``: one ``advance`` moves every level still running.  When a
    level ends, the stepper is narrowed to the rows of the levels still
    running.  States are kept for spans of at most ``_SPAN_STEPS`` steps
    and turned into deviations span by span.  Column j of a level's array
    is ``|x_j - ref_j|^2``, column 0 included.
    """
    levels = sorted(coarse_incs, reverse=True)
    B = coarse_incs[levels[0]].shape[1]
    m = config.model.state_dim
    x0 = np.broadcast_to(np.asarray(config.x0, dtype=float), (len(levels) * B, m))
    h = tuple(config.level_grid(n).h for n in levels)
    stepper = _Stepper(config.model, SCHEME_COEFFS[scheme], config.solver, h, x0,
                       config.second_init)
    devsq = {n: np.empty((B, n + 1)) for n in levels}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in levels:
            dev = x0[:B] - snapshots[n][0]
            devsq[n][:, 0] = np.sum(dev * dev, axis=-1)
        done = 0
        for running in range(len(levels), 0, -1):
            if running < len(levels):
                stepper.narrow(running * B)
            end = levels[running - 1]  # the shortest running level ends here
            for lo in range(done, end, _SPAN_STEPS):
                hi = min(lo + _SPAN_STEPS, end)
                dW = np.concatenate([coarse_incs[n][lo:hi] for n in levels[:running]], axis=1)
                states = np.empty((hi - lo,) + stepper.x.shape)
                for t, dw in enumerate(dW):
                    states[t] = stepper.advance(dw)
                for i, n in enumerate(levels[:running]):
                    states[:, i * B:(i + 1) * B] -= snapshots[n][lo + 1:hi + 1]
                sq = np.sum(np.multiply(states, states, out=states), axis=-1)
                for i, n in enumerate(levels[:running]):
                    devsq[n][:, lo + 1:hi + 1] = sq[:, i * B:(i + 1) * B].T
            done = end
    return devsq


def _study_squares(config: ExperimentConfig, snapshots: dict, coarse_incs: dict):
    """Yield ``((n, scheme), (devsq,))`` per level and scheme, one scheme's
    :func:`_level_deviations` alive at a time."""
    for scheme in config.schemes:
        for n, devsq in _level_deviations(config, scheme, coarse_incs, snapshots).items():
            yield (n, scheme), (devsq,)


def run_convergence_study(config: ExperimentConfig) -> ErrorTable:
    """Run the full coupled-reference study and return the error table.

    Samples are split into fixed contiguous batches, and consecutive
    batches are stepped together in passes; each pass integrates its
    reference and all (level, scheme) combinations against the same
    coarsened noise.  The per-gridpoint squared deviations are summed per
    batch and merged across batches with compensated summation in batch
    order.  The result is a deterministic function of the config alone —
    thread count only spreads passes over workers.  Each (scheme, step size)
    above the stricter stability bounds, the reference's included, warns
    once, before the first pass.
    """
    for scheme, n in dict.fromkeys([(config.reference_scheme, config.ref_steps),
                                    *((s, n) for n in config.levels for s in config.schemes)]):
        _stability_warnings(config.model, SCHEME_COEFFS[scheme], config.level_grid(n).h)
    merged = _map_batches(config, _study_squares)

    rows = []
    prev: dict[str, tuple[float, float] | None] = {s: None for s in config.schemes}
    for n in config.levels:
        h = config.level_grid(n).h
        cells = {}
        for s in config.schemes:
            (total,), valid = merged[(n, s)]
            error = _rms_max(total, valid)
            exploded = config.samples - valid
            cell_exploded = _renders_exploded(error, exploded, config.samples)
            order = None
            if not cell_exploded and prev[s] is not None:
                order = eoc(prev[s][0], error, prev[s][1], h)
            cells[s] = SchemeCell(error=error, eoc=order, exploded=exploded, samples=config.samples)
            prev[s] = None if cell_exploded else (error, h)
        rows.append(LevelRow(n_steps=n, h=h, cells=cells))
    return ErrorTable(schemes=config.schemes, rows=tuple(rows), samples=config.samples)


# ---------------------------------------------------------------------------
# Residual diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    """Per-level maxima of the Monte Carlo L2 norms of local defects.

    For the reference path restricted to each level grid, two defects
    are measured per step j: the one-step (drift-implicit Euler) defect

        rho^j = h f(V^j) + g(V^{j-1}) dW^j - V^j + V^{j-1},

    which is also the first defect term of the two-step scheme, and the
    sum of the two extra terms the two-step form introduces
    (a trapezoidal drift correction and the shifted-noise correction).
    ``ratios`` divide each level's maximum by the next finer one; values
    near 2 indicate the defect shrinks linearly with h.
    """

    levels: tuple[int, ...]
    h: tuple[float, ...]
    samples: int
    bem_defect: tuple[float, ...]
    bdf2_pair_defect: tuple[float, ...]

    @staticmethod
    def _ratios(values: Sequence[float]) -> tuple[float, ...]:
        out = []
        for prev_v, cur_v in zip(values, values[1:]):
            out.append(prev_v / cur_v if cur_v > 0 else float("nan"))
        return tuple(out)

    @property
    def bem_ratios(self) -> tuple[float, ...]:
        return self._ratios(self.bem_defect)

    @property
    def bdf2_pair_ratios(self) -> tuple[float, ...]:
        return self._ratios(self.bdf2_pair_defect)


def residual_defects(model: SdeModel, states: np.ndarray, increments: np.ndarray, h: float):
    """Local defects of a discrete path inserted into the scheme recursions.

    ``states`` has shape (..., N+1, m) and ``increments`` (..., N, d).
    Returns ``(one, pair)``: the one-step defect

        one[j-1] = h f(V^j) + g(V^{j-1}) dW^j - V^j + V^{j-1},   j = 1..N,

    with shape (..., N, m), and the sum of the two extra defect terms of
    the two-step scheme (trapezoidal drift correction plus shifted-noise
    correction), shape (..., N-1, m), defined for j = 2..N.
    """
    V = np.asarray(states, dtype=float)
    dW = np.asarray(increments, dtype=float)
    fV = model.drift(V)
    gV = model.diffusion(V)
    noise = _apply_noise(gV[..., :-1, :, :], dW)  # g(V^{j-1}) dW^j, j = 1..N
    one = h * fV[..., 1:, :] + noise - V[..., 1:, :] + V[..., :-1, :]
    # trapezoidal drift correction (j = 2..N) ...
    half = 0.5 * (h * fV[..., :-1, :] + noise - V[..., 1:, :] + V[..., :-1, :])
    # ... plus the shifted-noise correction, minus half the one-step defect of step j-1
    pair = half[..., 1:, :] - 0.5 * one[..., :-1, :]
    return one, pair


def _residual_squares(config: ExperimentConfig, snapshots: dict, coarse_incs: dict):
    """Yield ``(n, (one_sq, pair_sq))``: each level's squared defect norms of the reference."""
    for n in config.levels:
        states = np.ascontiguousarray(snapshots[n].swapaxes(0, 1))
        increments = np.ascontiguousarray(coarse_incs[n].swapaxes(0, 1))
        one, pair = residual_defects(config.model, states, increments, config.level_grid(n).h)
        yield n, (np.sum(one * one, axis=-1), np.sum(pair * pair, axis=-1))


def estimate_residuals(config: ExperimentConfig) -> ResidualReport:
    """Measure how the reference path's local defects scale across levels.

    Integrates the fine reference per sample, restricts it to each level
    grid, and evaluates the per-step defect formulas above under the
    coarsened noise.  A sample whose defects are not all finite is left
    out; a level with a single step has no pair defect (NaN).
    """
    if config.samples < 100:
        raise ValueError(
            "residual estimation needs at least 100 samples for a stable "
            f"Monte Carlo norm, got {config.samples}"
        )
    _stability_warnings(config.model, SCHEME_COEFFS[config.reference_scheme], config.fine_grid.h)
    merged = _map_batches(config, _residual_squares)

    bem_max, pair_max, hs = [], [], []
    for n in config.levels:
        (one_total, pair_total), valid = merged[n]
        bem_max.append(_rms_max(one_total, valid))
        pair_max.append(_rms_max(pair_total, valid))
        hs.append(config.level_grid(n).h)
    return ResidualReport(
        levels=config.levels,
        h=tuple(hs),
        samples=config.samples,
        bem_defect=tuple(bem_max),
        bdf2_pair_defect=tuple(pair_max),
    )
