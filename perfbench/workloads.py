"""The benchmark's workloads: inputs from a seed, the public call, output checks.

Each workload is driven only through sdestep's public entry points
(``run_convergence_study`` and ``cli.main``).  The shapes are sized so one
repetition takes a few seconds on a 2-vCPU box: a run then holds several
repetitions and reports their median, which is what keeps the figures
steady on a machine whose speed swings by tens of percent over seconds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

LEVELS = (25, 50, 100, 200, 400, 800)
SCHEMES = ("eulm", "bem", "bdf2")
#: Share of exploded samples at which sdestep renders a cell "-".
RENDER_THRESHOLD = 1e-3


@dataclass(frozen=True)
class Study:
    """A coupled-reference strong-error study; the seed is its base seed."""

    name: str
    model: str
    lam: float
    sigma: float
    x0: tuple[float, ...]
    samples: int
    batch_size: int
    ref_steps: int
    threads: int
    T: float = 1.0
    levels: tuple[int, ...] = LEVELS
    schemes: tuple[str, ...] = SCHEMES

    @property
    def sample_steps(self) -> int:
        return self.samples * (self.ref_steps + sum(self.levels) * len(self.schemes))

    root_span = "harness.study"

    @property
    def fine_h(self) -> float:
        return self.T / self.ref_steps

    def prepare(self, seed: int, tmp: str, tracer=None):
        """The study's config; with a tracer the model's callables are spans."""
        from sdestep import ExperimentConfig, make_model

        from spans import traced_model

        _params, model = make_model(self.model, lam=self.lam, sigma=self.sigma)
        if tracer is not None:
            model = traced_model(tracer, model)
        return ExperimentConfig(
            model=model,
            x0=self.x0,
            T=self.T,
            schemes=self.schemes,
            levels=self.levels,
            samples=self.samples,
            ref_steps=self.ref_steps,
            base_seed=seed,
            threads=self.threads,
            batch_size=self.batch_size,
        )

    def run(self, config) -> str:
        """Run the study and render its table (the timed call)."""
        from sdestep import run_convergence_study

        return run_convergence_study(config).render_csv()

    def output(self, config, result: str) -> bytes:
        return result.encode("utf-8")

    def check(self, output: bytes, seed: int) -> list[str]:
        return check_study_csv(output, self)


@dataclass(frozen=True)
class Path:
    """``sdestep simulate`` of one BDF2 path of the vol32 model, written to a file."""

    name: str
    steps: int
    lam: float = 4.0
    sigma: float = 1.0
    x0: float = 1.0
    T: float = 1.0

    @property
    def sample_steps(self) -> int:
        return self.steps

    root_span = "cli.main"
    fine_h = None
    threads = 1

    def prepare(self, seed: int, tmp: str, tracer=None) -> list[str]:
        """The command line; a traced run swaps ``cli.make_model`` instead."""
        import sdestep.cli  # noqa: F401  (the import is part of set-up)

        out_file = os.path.join(tmp, f"path-{os.getpid()}.csv")
        return [
            "simulate", "--model", "vol32", "--lambda", repr(self.lam), "--sigma", repr(self.sigma),
            "--x0", repr(self.x0), "--horizon", repr(self.T), "--scheme", "bdf2",
            "--steps", str(self.steps), "--seed", str(seed), "--out", out_file,
        ]

    def run(self, argv: list[str]) -> int:
        """Call ``cli.main`` (the timed call); it writes the path file."""
        from sdestep import cli

        return cli.main(argv)

    def output(self, argv: list[str], code: int) -> bytes:
        if code != 0:
            raise RuntimeError(f"sdestep simulate exited with {code}")
        with open(argv[-1], "rb") as fh:
            data = fh.read()
        os.remove(argv[-1])
        return data

    def check(self, output: bytes, seed: int) -> list[str]:
        return check_path_csv(output, self, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Study("vol32_study", "vol32", 4.0, 1.0, (1.0,),
              samples=128, batch_size=64, ref_steps=25_600, threads=2),
        Study("toy2d_newton", "toy2d", 96.0, 1.0, (2.0, 3.0),
              samples=256, batch_size=256, ref_steps=3_200, threads=1),
        Path("vol32_path", steps=20_000),
    )
}


def check_study_csv(output: bytes, study: Study) -> list[str]:
    """Structural and arithmetic checks of a rendered error table, for any seed.

    Rows and columns as configured, ``h = T/N``, exploded counts in
    ``[0, M]``, a cell is "-" exactly when its exploded share reaches the
    render threshold, errors are finite and non-negative, and every EOC agrees
    with the rendered errors it was computed from.
    """
    try:
        lines = output.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return ["table is not UTF-8"]
    header = "N,h" + "".join(f",{s}_error,{s}_eoc,{s}_exploded" for s in study.schemes)
    if lines[-1] != "":
        return ["table does not end with a newline"]
    lines = lines[:-1]
    if not lines or lines[0] != header:
        return [f"header {lines[:1]} != {header!r}"]
    if len(lines) - 1 != len(study.levels):
        return [f"{len(lines) - 1} rows, expected {len(study.levels)}"]
    problems = []
    prev = {s: None for s in study.schemes}
    for n, line in zip(study.levels, lines[1:]):
        parts = line.split(",")
        if len(parts) != 2 + 3 * len(study.schemes):
            problems.append(f"N={n}: {len(parts)} columns")
            continue
        h = study.T / n
        if parts[0] != str(n) or parts[1] != f"{h:g}":
            problems.append(f"row {parts[:2]} != N={n}, h={h:g}")
        for i, s in enumerate(study.schemes):
            err_txt, eoc_txt, expl_txt = parts[2 + 3 * i : 5 + 3 * i]
            where = f"N={n} {s}"
            if not expl_txt.isdigit() or int(expl_txt) > study.samples:
                problems.append(f"{where}: exploded {expl_txt!r} not in [0, {study.samples}]")
                prev[s] = None
                continue
            should_dash = int(expl_txt) / study.samples >= RENDER_THRESHOLD
            if err_txt == "-":
                if not should_dash:
                    problems.append(f"{where}: '-' with only {expl_txt} exploded")
                if eoc_txt:
                    problems.append(f"{where}: EOC next to '-'")
                prev[s] = None
                continue
            if should_dash:
                problems.append(f"{where}: {expl_txt} exploded but error shown")
            try:
                err = float(err_txt)
            except ValueError:
                problems.append(f"{where}: error {err_txt!r}")
                prev[s] = None
                continue
            if not (math.isfinite(err) and err >= 0.0):
                problems.append(f"{where}: error {err_txt}")
                prev[s] = None
                continue
            if prev[s] is None or prev[s][0] == 0.0 or err == 0.0:
                if eoc_txt:
                    problems.append(f"{where}: EOC without two positive errors")
            else:
                e0, h0 = prev[s]
                want = math.log(err / e0) / math.log(h / h0)
                # errors carry 6 significant digits, so the recomputed order
                # may differ from the printed one by a little over rounding
                try:
                    off = abs(float(eoc_txt) - want)
                except ValueError:
                    off = math.inf
                if off > 0.005 + 1e-4:
                    problems.append(f"{where}: EOC {eoc_txt!r}, errors give {want:.4f}")
            prev[s] = (err, h)
    return problems


def reference_path(path: Path, seed: int) -> list[float]:
    """Independent scalar BDF2 (with one implicit-Euler starter) for the vol32 path.

    Noise is drawn the way sdestep documents it: Philox keyed by
    ``[seed, 0]``, N(0, 1) rows scaled by sqrt(h).  Each implicit step uses
    the closed-form root of ``x - b*h*(x - lam*x|x|) = R``.
    """
    n, lam, sigma = path.steps, path.lam, path.sigma
    h = path.T / n
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    dw = (rng.standard_normal((n, 1))[:, 0] * math.sqrt(h)).tolist()

    def g(x):
        ax = abs(x)
        return sigma * ax * math.sqrt(ax)

    def solve(beta, r):
        bh = beta * h
        c = (1.0 - bh) / (2.0 * bh * lam)
        a = abs(r) / (bh * lam)
        return math.copysign(a / (c + math.sqrt(c * c + a)), r) if r else 0.0

    xs = [path.x0, solve(1.0, path.x0 + g(path.x0) * dw[0])]
    third = 1.0 / 3.0
    for j in range(2, n + 1):
        x2, x1 = xs[-2], xs[-1]
        r = (-third * x2 + -third * (g(x2) * dw[j - 2])) + (4.0 / 3.0 * x1 + g(x1) * dw[j - 1])
        xs.append(solve(2.0 / 3.0, r))
    return xs


def check_path_csv(output: bytes, path: Path, seed: int) -> list[str]:
    """Rows, times and an all-finite path that matches :func:`reference_path`."""
    try:
        lines = output.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return ["path file is not UTF-8"]
    if lines[-1] != "":
        return ["path file does not end with a newline"]
    lines = lines[:-1]
    if not lines or lines[0] != "t,x1":
        return [f"header {lines[:1]} != 't,x1'"]
    if len(lines) != path.steps + 2:
        return [f"{len(lines) - 1} rows, expected {path.steps + 1}"]
    want = reference_path(path, seed)
    h = path.T / path.steps
    problems = []
    for j, line in enumerate(lines[1:]):
        t_txt, _, x_txt = line.partition(",")
        try:
            x = float(x_txt)
        except ValueError:
            x = math.nan
        if t_txt != f"{j * h:.10g}":
            problems.append(f"row {j}: t={t_txt!r}")
        elif not math.isfinite(x):
            problems.append(f"row {j}: x1={x_txt!r} is not finite")
        elif abs(x - want[j]) > 1e-9 * max(1.0, abs(want[j])):
            problems.append(f"row {j}: x1={x_txt} but the reference gives {want[j]:.10g}")
        if len(problems) >= 5:
            break
    return problems
