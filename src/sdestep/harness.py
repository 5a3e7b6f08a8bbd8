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
* a sample with anything non-finite in its squared norms counts as
  exploded (exploded = samples - valid) and adds zeros; a table number is
  the largest root-mean-square over the grid points (NaN without a valid
  sample), and a cell is rendered "-" once at least 0.1% of samples
  exploded.  The study, the residual estimate and :func:`strong_error`
  share this one reduction.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# the study engine draws and coarsens through these module names, where a trace can patch them
from .brownian import SeedSpec, _coarsen_rows, _draw_rows, coarsen, generate_increments
from .core import (
    BACKWARD_EULER,
    BDF2,
    EXPLICIT_EULER,
    GridFunction,
    SdeModel,
    TimeGrid,
    _require_count,
)
from .schemes import (  # noqa: F401  (perfbench's trace patches step_* here by name)
    ImplicitSolverConfig,
    _apply_noise,
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
        object.__setattr__(self, "x0", tuple(float(v) for v in np.atleast_1d(self.x0)))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        for n in self.levels:
            _require_count(1, levels=n)
        object.__setattr__(self, "levels", tuple(int(n) for n in self.levels))
        if len(self.x0) != self.model.state_dim:
            raise ValueError(
                f"x0 has dimension {len(self.x0)}, model expects {self.model.state_dim}"
            )
        if not all(math.isfinite(v) for v in self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError(f"horizon must be a positive finite real, got {self.T}")
        if not self.schemes:
            raise ValueError("need at least one scheme")
        for s in self.schemes:
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
        if self.ref_steps < max(self.levels):
            raise ValueError("ref_steps must be at least the finest level")
        for n in self.levels:
            if self.ref_steps % n != 0:
                raise ValueError(f"ref_steps={self.ref_steps} not divisible by level N={n}")
        if not self.base_seed < 2**64:
            raise ValueError("base_seed must fit in 64 bits")
        if self.second_init not in ("bem", "copy"):
            raise ValueError(f"second_init must be 'bem' or 'copy', got {self.second_init!r}")
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
    into ``{key: (totals, valid)}``; the result depends only on that order."""
    merged = {}
    for part in partials:
        for key, (sums, valid) in part.items():
            if key not in merged:
                zeros = [np.zeros_like(v) for v in sums]
                merged[key] = (zeros, [z.copy() for z in zeros], 0)
            totals, comps, count = merged[key]
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
    onto the level grid, so scheme and reference see the same Brownian
    path.  All samples are stepped together as one batch, so a sample
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
    d = config.model.noise_dim
    increments = np.stack([
        coarsen(generate_increments(config.fine_grid, d, SeedSpec(config.base_seed, idx)),
                factor).increments
        for idx in range(len(references))
    ], axis=1)
    ref_states = np.stack([ref.states[::factor] for ref in references])
    devsq = _deviations(config, scheme, increments, ref_states)
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


def _map_batches(config: ExperimentConfig, pass_fn) -> list:
    """Per-batch partials of the fixed contiguous batches, in batch order.

    Consecutive batches are grouped into passes of at most
    ``max(batch_size, _PASS_ROWS)`` rows; ``pass_fn(config, batches)`` steps
    the rows of one pass, a list of ``(lo, hi)`` batch ranges, together and
    returns one partial per batch.  ``threads`` only spreads the passes
    over workers; the partials come back in batch order either way, so
    merging them is deterministic.
    """
    n, size = config.samples, config.batch_size
    ranges = [(lo, min(lo + size, n)) for lo in range(0, n, size)]
    per_pass = max(1, _PASS_ROWS // size)
    passes = [ranges[i:i + per_pass] for i in range(0, len(ranges), per_pass)]
    if config.threads > 1 and len(passes) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(lambda batches: pass_fn(config, batches), passes))
    else:
        results = [pass_fn(config, batches) for batches in passes]
    return [part for parts in results for part in parts]


def _reference_pass(config: ExperimentConfig, lo: int, hi: int):
    """Integrate the fine reference for samples [lo, hi) in time chunks.

    Returns ``(snapshots, coarse_incs)``: per level, the reference states
    restricted to the level grid, shape (B, N_l+1, m), and the coarsened
    increments, time-major with shape (N_l, B, d).  A chunk is the lcm of
    the coarsening factors, which divides ``ref_steps``, so every chunk
    coarsens whole.  Noise is drawn and coarsened by the bodies
    :func:`brownian.generate_increments` and :func:`brownian.coarsen` use:
    each chunk is drawn into the same two buffers, and the factors are
    coarsened in ascending order, each from the sums of its largest
    divisor among the smaller factors.  Steps run in groups of the gcd of
    the factors, the spacing of the snapshot positions.
    """
    model = config.model
    B = hi - lo
    d = model.noise_dim
    m = model.state_dim
    ref_steps = config.ref_steps
    h_fine = config.fine_grid.h
    factors = {n: ref_steps // n for n in config.levels}
    gcd_all = math.gcd(*factors.values())
    chunk = math.lcm(*factors.values())

    gens = [SeedSpec(config.base_seed, idx).generator() for idx in range(lo, hi)]
    x0 = np.repeat(np.asarray(config.x0, dtype=float)[None, :], B, axis=0)

    snapshots = {n: np.empty((B, n + 1, m)) for n in config.levels}
    coarse_incs = {n: np.empty((n, B, d)) for n in config.levels}
    for n in config.levels:
        snapshots[n][:, 0, :] = x0
    # each factor continues from the sums of its largest divisor among the smaller factors
    level_of = {f: n for n, f in factors.items()}
    divisor = {f: max((g for g in level_of if g < f and f % g == 0), default=None)
               for f in sorted(level_of)}
    blocks = np.empty((B, chunk, d))
    fine_chunk = np.empty((chunk, B, d))

    coeffs = SCHEME_COEFFS[config.reference_scheme]
    stepper = _Stepper(model, coeffs, config.solver, h_fine, x0, config.second_init)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for consumed in range(0, ref_steps, chunk):
            _draw_rows(gens, blocks, fine_chunk, h_fine)
            sums = {}
            for f, g in divisor.items():
                sums[f] = _coarsen_rows(fine_chunk, f, sums.get(g))
                coarse_incs[level_of[f]][consumed // f:(consumed + chunk) // f] = sums[f]
            for t in range(0, chunk, gcd_all):
                for dW in fine_chunk[t:t + gcd_all]:
                    x = stepper.advance(dW)
                g_step = consumed + t + gcd_all
                for n, f in factors.items():
                    if g_step % f == 0:
                        snapshots[n][:, g_step // f, :] = x
    return snapshots, coarse_incs


def _deviations(config: ExperimentConfig, scheme: str, increments: np.ndarray,
                ref_states: np.ndarray) -> np.ndarray:
    """Squared deviations ``(B, n+1)`` of a scheme from reference states ``(B, n+1, m)``.

    The scheme starts every row from ``config.x0`` and steps the time-major
    increments ``(n, B, d)`` on the grid of n steps; column j is
    ``|x_j - ref_states[:, j]|^2``, column 0 included.
    """
    n, B, _ = increments.shape
    x0 = np.broadcast_to(np.asarray(config.x0), (B, config.model.state_dim))
    stepper = _Stepper(config.model, SCHEME_COEFFS[scheme], config.solver,
                       config.level_grid(n).h, x0, config.second_init)
    devsq = np.empty((B, n + 1))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dev = x0 - ref_states[:, 0, :]
        devsq[:, 0] = np.sum(dev * dev, axis=-1)
        for j, dW in enumerate(increments, 1):
            dev = stepper.advance(dW) - ref_states[:, j, :]
            devsq[:, j] = np.sum(dev * dev, axis=-1)
    return devsq


def _study_pass(config: ExperimentConfig, batches: Sequence[tuple[int, int]]) -> list:
    """Per-batch partials ``{(level, scheme): (sums, valid)}`` of the squared deviations.

    The reference and every (level, scheme) stepper run once over all rows
    of the pass; each batch's rows are then reduced on their own.
    """
    lo, hi = batches[0][0], batches[-1][1]
    snapshots, coarse_incs = _reference_pass(config, lo, hi)

    out = [{} for _ in batches]
    for n in config.levels:
        for scheme in config.schemes:
            devsq = _deviations(config, scheme, coarse_incs[n], snapshots[n])
            for part, (blo, bhi) in zip(out, batches):
                part[(n, scheme)] = _masked_sums(devsq[blo - lo:bhi - lo])
    return out


def run_convergence_study(config: ExperimentConfig) -> ErrorTable:
    """Run the full coupled-reference study and return the error table.

    Samples are split into fixed contiguous batches, and consecutive
    batches are stepped together in passes; each pass integrates its
    reference and all (level, scheme) combinations against the same
    coarsened noise.  The per-gridpoint squared deviations are summed per
    batch and merged across batches with compensated summation in batch
    order.  The result is a deterministic function of the config alone —
    thread count only spreads passes over workers.
    """
    merged = _kahan_merge(_map_batches(config, _study_pass))

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
    # ... plus the shifted-noise correction, built from its own stencil
    shifted = -0.5 * (
        h * fV[..., 1:-1, :] + noise[..., :-1, :] - V[..., 1:-1, :] + V[..., :-2, :]
    )
    pair = half[..., 1:, :] + shifted
    return one, pair


def _residual_pass(config: ExperimentConfig, batches: Sequence[tuple[int, int]]) -> list:
    """Per-batch partials ``{level: ((one sums, pair sums), valid)}`` of the squared defects,
    from one reference pass over all rows of the pass."""
    model = config.model
    lo, hi = batches[0][0], batches[-1][1]
    snapshots, coarse_incs = _reference_pass(config, lo, hi)
    out = [{} for _ in batches]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in config.levels:
            h = config.level_grid(n).h
            increments = np.ascontiguousarray(coarse_incs[n].swapaxes(0, 1))
            one, pair = residual_defects(model, snapshots[n], increments, h)
            one_sq, pair_sq = np.sum(one * one, axis=-1), np.sum(pair * pair, axis=-1)
            for part, (blo, bhi) in zip(out, batches):
                rows = slice(blo - lo, bhi - lo)
                part[n] = _masked_sums(one_sq[rows], pair_sq[rows])
    return out


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
    merged = _kahan_merge(_map_batches(config, _residual_pass))

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
