"""Command line front end: convergence studies, single paths, model checks.

Four subcommands, all fully seeded (no hidden entropy):

* ``converge``   — coupled-reference strong-error study, CSV output
* ``simulate``   — one trajectory of one scheme, CSV (t, state) output
* ``check-model``— monotonicity / coercivity / Lipschitz condition scan
* ``residuals``  — defect-scaling diagnostic across step sizes

Exit codes: 0 success, 2 bad arguments or configuration (a count too
large to allocate among them), 3 when an implicit solve hit a singular
Newton linearization.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys

import numpy as np

from .brownian import SeedSpec, generate_increments
from .core import TimeGrid
from .harness import (
    _REFERENCE_SCHEMES,
    SCHEME_COEFFS,
    ExperimentConfig,
    estimate_residuals,
    run_convergence_study,
)
from .models import MODEL_DEFAULTS, make_model
from .models import check_coercivity, check_local_lipschitz_f, check_monotonicity
from .schemes import _SECOND_INITS, ImplicitSolverConfig, SolverSingularError, integrate

_LEVELS_PATTERN = re.compile(r"^(\d+)x(\d+)\^(\d+)\.\.(\d+)$")
_MAX_LEVEL = 2**63 - 1


def parse_levels(text: str) -> tuple[int, ...]:
    """Parse a level list: either ``25x2^0..7`` or a comma list like ``25,50,100``."""
    text = text.strip()
    m = _LEVELS_PATTERN.match(text)
    if m:
        base, factor, lo, hi = (int(g) for g in m.groups())
        if hi < lo:
            raise ValueError(f"empty exponent range in levels spec {text!r}")
        # Bound the spec before building it: factor**64 > _MAX_LEVEL for any
        # factor >= 2 (base 0 counts as 1 here), and ascending levels up to
        # _MAX_LEVEL number at most 63, whatever the factor.
        if max(base, 1) * factor ** min(hi, 64) > _MAX_LEVEL:
            raise ValueError(f"levels spec {text!r} reaches past 2**63 - 1")
        if hi - lo >= 64:
            raise ValueError(f"levels spec {text!r} has more than 64 levels")
        return tuple(base * factor**k for k in range(lo, hi + 1))
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"cannot parse levels {text!r}; expected e.g. '25x2^0..7' or '25,50,100'"
        ) from None


def _parse_x0(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _add_model_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, choices=sorted(MODEL_DEFAULTS))
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="stiffness parameter (model default if omitted)")
    p.add_argument("--sigma", type=float, default=None,
                   help="noise intensity (model default if omitted)")
    p.add_argument("--x0", type=_parse_x0, default=None,
                   help="initial state, comma separated (model default if omitted)")
    p.add_argument("--horizon", type=float, default=1.0, help="final time T")
    p.add_argument("--seed", type=int, default=0, help="base seed for all randomness")


def _add_solver_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--solver", choices=("auto", "closed_form", "newton"), default="auto")
    p.add_argument("--newton-iters", type=int, default=5)
    p.add_argument("--second-init", choices=_SECOND_INITS, default="bem",
                   help="how multistep schemes obtain their second starting value")


def _add_study_arguments(p: argparse.ArgumentParser, samples: int) -> None:
    p.add_argument("--levels", default="25x2^0..7")
    p.add_argument("--samples", type=int, default=samples)
    p.add_argument("--ref-steps", type=int, default=25 * 2**12)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--reference", choices=_REFERENCE_SCHEMES, default="bdf2")
    p.add_argument("--batch-size", type=int, default=1024)


def _resolve_model(args):
    params, model = make_model(args.model, lam=args.lam, sigma=args.sigma)
    x0 = args.x0 if args.x0 is not None else MODEL_DEFAULTS[args.model]["x0"]
    if len(x0) != model.state_dim:
        raise ValueError(f"x0 must have {model.state_dim} components, got {len(x0)}")
    return params, model, tuple(float(v) for v in x0)


def _solver(args, model, force_step: bool = False) -> tuple:
    """``(model, config)`` as the solver options ask: ``--solver newton`` drops the
    model's closed form, ``closed_form`` needs one and ``auto`` keeps the model."""
    if args.solver == "newton":
        model = dataclasses.replace(model, closed_form_implicit=None)
    elif args.solver == "closed_form" and model.closed_form_implicit is None:
        raise ValueError("solver mode 'closed_form' needs a model with a closed-form implicit solve")
    return model, ImplicitSolverConfig(newton_iterations=args.newton_iters,
                                       enforce_step_bound=not force_step)


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _check_out(out: str | None) -> None:
    """Reject an ``--out`` that :func:`_emit` could not write, before any work is done."""
    if out is None or out == "-":
        return
    if not out:
        raise ValueError(f"--out {out!r} is empty")
    if os.path.isdir(out):
        raise ValueError(f"--out {out!r} is a directory")
    folder = os.path.dirname(out) or "."
    if not os.path.isdir(folder):
        raise ValueError(f"--out {out!r}: directory {folder!r} does not exist")
    if not os.access(folder, os.W_OK):
        raise ValueError(f"--out {out!r}: directory {folder!r} is not writable")


def _study_config(args, **fields) -> ExperimentConfig:
    _params, model, x0 = _resolve_model(args)
    model, solver = _solver(args, model)
    return ExperimentConfig(
        model=model,
        x0=x0,
        T=args.horizon,
        levels=parse_levels(args.levels),
        samples=args.samples,
        ref_steps=args.ref_steps,
        base_seed=args.seed,
        threads=args.threads,
        second_init=args.second_init,
        solver=solver,
        reference_scheme=args.reference,
        batch_size=args.batch_size,
        **fields,
    )


def _cmd_converge(args) -> int:
    table = run_convergence_study(_study_config(args, schemes=tuple(args.schemes.split(","))))
    _emit(table.render_csv(), args.out)
    return 0


def _cmd_simulate(args) -> int:
    _params, model, x0 = _resolve_model(args)
    grid = TimeGrid(T=args.horizon, N=args.steps)
    table = generate_increments(grid, model.noise_dim, SeedSpec(args.seed, 0))
    model, solver = _solver(args, model, args.force_step)
    traj = integrate(
        model,
        SCHEME_COEFFS[args.scheme],
        solver,
        grid,
        table,
        np.asarray(x0),
        second_init=args.second_init,
    )
    cols = ",".join(f"x{i + 1}" for i in range(model.state_dim))
    parts = [f"t,{cols}\n"]
    row = "%.10g" + ",%.10g" * model.state_dim + "\n"
    rows = np.column_stack((grid.times(), traj.states))
    # 1024 rows at a time: .tolist() of a whole long path holds all its Python floats at once
    for lo in range(0, len(rows), 1024):
        chunk = rows[lo:lo + 1024]
        parts.append(row * len(chunk) % tuple(chunk.ravel().tolist()))
    _emit("".join(parts), args.out)
    return 0


def _cmd_check_model(args) -> int:
    if args.eta is not None and args.condition != "monotonicity":
        raise ValueError(f"--eta weights only --condition monotonicity, not {args.condition}")
    if args.show < 0:
        raise ValueError(f"--show must be >= 0, got {args.show}")
    params, model, _x0 = _resolve_model(args)
    eta = args.eta if args.eta is not None else params.eta
    common = dict(box=args.radius, seed=args.seed, state_dim=model.state_dim)
    if args.condition == "monotonicity":
        report = check_monotonicity(
            model.drift, model.diffusion, eta=eta, L=args.L, n_pairs=args.pairs, **common
        )
    elif args.condition == "coercivity":
        report = check_coercivity(
            model.drift, model.diffusion, L=args.L, q=model.q, n_points=args.pairs, **common
        )
    else:
        report = check_local_lipschitz_f(
            model.drift, L=args.L, q=model.q, n_pairs=args.pairs, **common
        )
    lines = [
        f"model: {args.model} (lambda={params.lam:g}, sigma={params.sigma:g})",
        f"condition: {args.condition}",
        f"L: {args.L:g}",
    ]
    if args.condition == "monotonicity":
        lines.append(f"eta: {eta:g}")
    lines += [
        f"pairs tested: {report.pairs_tested}",
        f"violations: {report.violation_count}",
        f"max slack: {report.max_slack:.6g}",
    ]
    for v in report.violations[: args.show]:
        lines.append(f"  violation: {v}")
    lines.append("status: " + ("SATISFIED" if report.ok else "VIOLATED"))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_residuals(args) -> int:
    report = estimate_residuals(_study_config(args))
    lines = ["N,h,one_step_defect,two_step_pair_defect"]
    for i, n in enumerate(report.levels):
        lines.append(
            f"{n},{report.h[i]:g},{report.bem_defect[i]:.6g},{report.bdf2_pair_defect[i]:.6g}"
        )
    ratios = ",".join(f"{r:.3f}" for r in report.bem_ratios)
    pair_ratios = ",".join(f"{r:.3f}" for r in report.bdf2_pair_ratios)
    lines.append(f"# one-step defect ratios: {ratios}")
    lines.append(f"# pair defect ratios: {pair_ratios}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdestep",
        description="Implicit multistep integrators and convergence studies for monotone SDEs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("converge", help="coupled-reference strong-error study (CSV)")
    _add_model_arguments(p)
    _add_solver_arguments(p)
    p.add_argument("--schemes", default=",".join(SCHEME_COEFFS),
                   help="comma list drawn from " + ",".join(SCHEME_COEFFS))
    _add_study_arguments(p, samples=10_000)
    p.add_argument("--out", default=None, help="CSV path ('-' or omitted: stdout)")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("simulate", help="integrate one path and emit t,state CSV")
    _add_model_arguments(p)
    _add_solver_arguments(p)
    p.add_argument("--scheme", choices=sorted(SCHEME_COEFFS), default="bdf2")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--force-step", action="store_true",
                   help="skip the well-posedness step bound h*beta*L < 1 (at your own risk)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("check-model", help="scan a structural condition for violations")
    _add_model_arguments(p)
    p.add_argument("--condition", required=True,
                   choices=("monotonicity", "coercivity", "lipschitz"))
    p.add_argument("--eta", type=float, default=None,
                   help="monotonicity weight (model's declared value if omitted)")
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=10.0)
    p.add_argument("--pairs", type=int, default=100_000)
    p.add_argument("--show", type=int, default=3, help="violations to print")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check_model)

    p = sub.add_parser("residuals", help="defect norms of the reference path per level")
    _add_model_arguments(p)
    _add_solver_arguments(p)
    _add_study_arguments(p, samples=1000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_residuals)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except SolverSingularError as err:
        print(f"error: singular implicit solve: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
