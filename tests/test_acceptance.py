"""Acceptance sweep: one test per headline claim, each printing PASS or FAIL.

The module reruns the benchmark studies end to end and compares against the
reference digit tables (printed at six decimals, hence the half-quantum
absolute slack next to the 3% relative tolerance).  Criteria 3-5 are
Monte Carlo studies at M = 10^4 / 512 samples and dominate the runtime;
expect roughly five minutes for the whole file.  Run with ``pytest -s``
to see one status line per criterion.
"""

import numpy as np
import pytest

from sdestep import (
    BACKWARD_EULER,
    BDF2,
    EXPLICIT_EULER,
    ExperimentConfig,
    ImplicitSolverConfig,
    check_coercivity,
    check_monotonicity,
    closed_form_32vol,
    estimate_residuals,
    gstability_identity_one,
    gstability_identity_two,
    make_model,
    run_convergence_study,
    solve_implicit,
    step_bdf2,
    step_bem,
    step_explicit_euler,
    step_lmm,
)

LEVELS8 = (25, 50, 100, 200, 400, 800, 1600, 3200)
REF_FINE = 25 * 2**12

# reference digits for the noise-free studies (error columns print 6 decimals)
LAM4_BEM_ERR = (0.020186, 0.010528, 0.005388, 0.002726, 0.001371, 0.000688, 0.000344, 0.000172)
LAM4_BEM_EOC = (0.94, 0.97, 0.98, 0.99, 1.00, 1.00, 1.00)
LAM4_BDF2_ERR = (0.010594, 0.003739, 0.001134, 0.000325, 0.000088, 0.000023, 0.000006, 0.000002)
LAM4_BDF2_EOC = (1.50, 1.72, 1.80, 1.89, 1.93, 1.96, 1.98)
LAM25_BEM_ERR = (0.114050, 0.067366, 0.038126, 0.020389, 0.010594, 0.005404, 0.002730, 0.001372)


def _finish(name: str, failures: list) -> None:
    print(f"{name}: {'FAIL' if failures else 'PASS'}")
    assert not failures, f"{name}: " + "; ".join(failures)


def _error_cell_ok(computed: float, printed: float) -> bool:
    # 3% relative, or half of the 1e-6 print quantum for cells that round hard
    return abs(computed - printed) <= max(0.03 * printed, 5e-7)


def test_criterion_01_deterministic_nonstiff_error_table():
    _, model = make_model("vol32", 4.0, 0.0)
    cfg = ExperimentConfig(
        model=model, x0=(1.0,), schemes=("bem", "bdf2"), levels=LEVELS8,
        samples=1, ref_steps=REF_FINE, base_seed=0,
    )
    table = run_convergence_study(cfg)
    failures = []
    for scheme, errs, eocs in (
        ("bem", LAM4_BEM_ERR, LAM4_BEM_EOC),
        ("bdf2", LAM4_BDF2_ERR, LAM4_BDF2_EOC),
    ):
        for i, n in enumerate(LEVELS8):
            cell = table.cell(n, scheme)
            if not _error_cell_ok(cell.error, errs[i]):
                failures.append(f"{scheme} N={n}: {cell.error:.6g} vs {errs[i]:.6f}")
            if i > 0 and abs(cell.eoc - eocs[i - 1]) > 0.03:
                failures.append(f"{scheme} N={n} EOC: {cell.eoc:.3f} vs {eocs[i - 1]:.2f}")
    _finish("criterion 01 (noise-free, lambda=4 table)", failures)


def test_criterion_02_deterministic_stiff_error_table():
    _, model = make_model("vol32", 25.0, 0.0)
    cfg = ExperimentConfig(
        model=model, x0=(1.0,), schemes=("bem", "bdf2"), levels=LEVELS8,
        samples=1, ref_steps=REF_FINE, base_seed=0,
    )
    table = run_convergence_study(cfg)
    failures = []
    for i, n in enumerate(LEVELS8):
        cell = table.cell(n, "bem")
        if not _error_cell_ok(cell.error, LAM25_BEM_ERR[i]):
            failures.append(f"bem N={n}: {cell.error:.6g} vs {LAM25_BEM_ERR[i]:.6f}")
    # both schemes share the drift-implicit Euler first step, so at N=25
    # the two-step table entry is the same number, bit for bit
    if table.cell(25, "bdf2").error != table.cell(25, "bem").error:
        failures.append(
            f"N=25 cells differ: bdf2 {table.cell(25, 'bdf2').error!r} "
            f"vs bem {table.cell(25, 'bem').error!r}"
        )
    _finish("criterion 02 (noise-free, lambda=25 table)", failures)


def test_criterion_03_noisy_asymptotic_order_one_half():
    _, model = make_model("vol32", 4.0, 1.0)
    cfg = ExperimentConfig(
        model=model, x0=(1.0,), schemes=("bem", "bdf2"),
        levels=(25, 50, 100, 200, 400, 800), samples=10_000,
        ref_steps=REF_FINE, base_seed=2024, threads=4,
    )
    table = run_convergence_study(cfg)
    failures = []
    for scheme in ("bem", "bdf2"):
        tail = [table.cell(n, scheme).eoc for n in (200, 400, 800)]
        mean = float(np.mean(tail))
        if not 0.40 <= mean <= 0.65:
            failures.append(f"{scheme} mean tail EOC {mean:.4f} outside [0.40, 0.65]")
    _finish("criterion 03 (strong order 1/2 window)", failures)


def test_criterion_04_small_noise_two_step_advantage():
    _, model = make_model("vol32", 4.0, 1.0 / 3.0)
    cfg = ExperimentConfig(
        model=model, x0=(1.0,), schemes=("bem", "bdf2"),
        levels=(25, 50, 100, 200, 400), samples=10_000,
        ref_steps=REF_FINE, base_seed=2024, threads=4, batch_size=2500,
    )
    table = run_convergence_study(cfg)
    failures = []
    for n in cfg.levels:
        bem = table.cell(n, "bem").error
        bdf2 = table.cell(n, "bdf2").error
        if not bdf2 < bem:
            failures.append(f"N={n}: two-step error {bdf2:.6g} not below {bem:.6g}")
    ratio = table.cell(100, "bem").error / table.cell(100, "bdf2").error
    if not ratio >= 1.5:
        failures.append(f"N=100 advantage factor {ratio:.3f} < 1.5")
    _finish("criterion 04 (small-noise two-step advantage)", failures)


def test_criterion_05_stiff_planar_explosion_pattern():
    levels = (25, 50, 100, 200, 400, 800)
    tables = {}
    for sigma, samples in ((0.0, 1), (0.47, 512), (1.0, 512)):
        _, model = make_model("toy2d", 96.0, sigma)
        cfg = ExperimentConfig(
            model=model, x0=(2.0, 3.0), schemes=("eulm", "bem", "bdf2"),
            levels=levels, samples=samples, ref_steps=25 * 2**9,
            base_seed=77, threads=4,
        )
        tables[sigma] = run_convergence_study(cfg)

    failures = []
    for sigma in (0.0, 0.47):
        if not tables[sigma].cell(25, "eulm").is_exploded:
            failures.append(f"sigma={sigma}: explicit Euler at N=25 did not explode")
    for sigma in (0.0, 0.47, 1.0):
        for scheme in ("bem", "bdf2"):
            for n in levels:
                cell = tables[sigma].cell(n, scheme)
                if cell.is_exploded or not np.isfinite(cell.error):
                    failures.append(f"sigma={sigma} {scheme} N={n} not finite")
    for n in levels:
        if not tables[1.0].cell(n, "eulm").is_exploded:
            failures.append(f"sigma=1 explicit Euler N={n} did not explode")
    for scheme in ("bem", "bdf2"):
        for n in (200, 400):
            value = tables[1.0].cell(n, scheme).eoc
            if value is None or abs(value - 0.9) > 0.15:
                shown = "None" if value is None else f"{value:.3f}"
                failures.append(f"sigma=1 {scheme} N={n} EOC {shown} not near 0.9")
    _finish("criterion 05 (stiff planar explosion pattern)", failures)


def test_criterion_06_energy_identities():
    rng = np.random.default_rng(2718)
    failures = []
    for dim in (1, 2, 5):
        u = rng.uniform(-10.0, 10.0, size=(3, 100_000, dim))
        lhs1, rhs1 = gstability_identity_one(u[0], u[1])
        lhs2, rhs2 = gstability_identity_two(u[0], u[1], u[2])
        for tag, lhs, rhs, base in (
            ("one-step", lhs1, rhs1, u[:2]),
            ("two-step", lhs2, rhs2, u),
        ):
            scale_lhs = 1.0 + np.abs(lhs)
            scale_mag = 1.0 + np.sum(base * base, axis=(0, -1))
            gap = np.abs(lhs - rhs)
            if not np.all(gap <= 1e-12 * scale_lhs):
                failures.append(f"{tag} dim={dim}: gap vs lhs scale {np.max(gap / scale_lhs):.3g}")
            if not np.all(gap <= 1e-12 * scale_mag):
                failures.append(f"{tag} dim={dim}: gap vs magnitude scale {np.max(gap / scale_mag):.3g}")
    _finish("criterion 06 (energy identities)", failures)


def test_criterion_07_implicit_solver_contracts():
    failures = []
    rng = np.random.default_rng(1234)
    n = 100_000
    lam = rng.uniform(0.5, 30.0, size=n)
    beta = rng.choice([1.0, 2.0 / 3.0], size=n)
    h = rng.uniform(1e-4, 0.999, size=n) / beta  # keep beta*h*L < 1 (L = 1)
    R = rng.uniform(-20.0, 20.0, size=n)
    worst = 0.0
    for i in range(n):
        x = closed_form_32vol(lam[i], 1.0, beta[i], h[i], R[i])
        resid = abs(x - beta[i] * h[i] * (x - lam[i] * x * abs(x)) - R[i])
        worst = max(worst, resid / (1.0 + abs(R[i])))
    if worst > 1e-12:
        failures.append(f"closed-form residual {worst:.3g} > 1e-12")

    _, toy = make_model("toy2d", 96.0, 0.47)
    cfg = ImplicitSolverConfig(newton_iterations=5)
    worst = 0.0
    for _ in range(1000):
        hh = rng.uniform(1e-3, 0.5)
        Rv = rng.uniform(-3.0, 3.0, size=2)
        got = solve_implicit(toy, 2.0 / 3.0, hh, Rv, cfg)
        # independent update: five damped steps with the adjugate 2x2 inverse
        x = Rv.copy()
        for _ in range(5):
            J = toy.drift_jacobian(x)
            A = np.eye(2) - hh * (2.0 / 3.0) * J
            det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
            phi = x - hh * (2.0 / 3.0) * toy.drift(x) - Rv
            x = x - np.array(
                [A[1, 1] * phi[0] - A[0, 1] * phi[1], A[0, 0] * phi[1] - A[1, 0] * phi[0]]
            ) / det
        worst = max(worst, float(np.max(np.abs(got - x))) / (1.0 + float(np.linalg.norm(Rv))))
    if worst > 1e-12:
        failures.append(f"newton vs 2x2 oracle gap {worst:.3g} > 1e-12")
    _finish("criterion 07 (implicit-solve contracts)", failures)


def test_criterion_08_generic_stepper_equivalence():
    _, model = make_model("vol32", 4.0, 1.0)
    cfg = ImplicitSolverConfig()
    rng = np.random.default_rng(88)
    failures = []
    h = 0.02
    for _ in range(100):
        x1 = np.array([rng.uniform(-2.0, 2.0)])
        x2 = np.array([rng.uniform(-2.0, 2.0)])
        dw1 = np.array([rng.normal() * np.sqrt(h)])
        dw0 = np.array([rng.normal() * np.sqrt(h)])
        pairs = (
            ("bem", step_bem(model, cfg, x1, h, dw1),
             step_lmm(model, cfg, BACKWARD_EULER, [x1], [dw1], h)),
            ("eulm", step_explicit_euler(model, x1, h, dw1),
             step_lmm(model, cfg, EXPLICIT_EULER, [x1], [dw1], h)),
            ("bdf2", step_bdf2(model, cfg, x1, x2, h, dw1, dw0),
             step_lmm(model, cfg, BDF2, [x2, x1], [dw0, dw1], h)),
        )
        for tag, direct, generic in pairs:
            if np.any(np.abs(direct - generic) > 1e-14 * (1.0 + np.abs(direct))):
                failures.append(f"{tag}: |{direct} - {generic}|")
    _finish("criterion 08 (generic stepper equivalence)", failures)


def test_criterion_09_condition_checker_verdicts():
    failures = []
    clean_sets = [
        ("vol32", 4.0, 0.0), ("vol32", 4.0, 1.0 / 3.0), ("vol32", 4.0, 1.0),
        ("vol32", 25.0, 0.0), ("vol32", 25.0, 1.0 / 3.0), ("vol32", 25.0, 1.0),
        ("toy2d", 96.0, 0.0), ("toy2d", 96.0, 0.47),
    ]
    for name, lam, sigma in clean_sets:
        params, model = make_model(name, lam, sigma)
        mono = check_monotonicity(
            model.drift, model.diffusion, eta=params.eta, L=1.0,
            n_pairs=100_000, seed=0, state_dim=model.state_dim,
        )
        coer = check_coercivity(
            model.drift, model.diffusion, L=1.0, q=model.q,
            n_points=100_000, seed=0, state_dim=model.state_dim,
        )
        if not mono.ok:
            failures.append(f"{name}({lam},{sigma}): {mono.violation_count} monotonicity violations")
        if not coer.ok:
            failures.append(f"{name}({lam},{sigma}): {coer.violation_count} coercivity violations")

    def on_quarter_lattice(x):
        return bool(np.all(x * 4.0 == np.round(x * 4.0)))

    _, weak = make_model("vol32", 1.0, 1.0)
    coer = check_coercivity(weak.drift, weak.diffusion, L=1.0, q=2.0, n_points=100_000, seed=0)
    if coer.ok:
        failures.append("lambda=1, sigma=1 coercivity scan found no violation")
    elif not on_quarter_lattice(coer.violations[0][0]):
        failures.append("first coercivity violation not from the lattice pass")
    mono = check_monotonicity(weak.drift, weak.diffusion, eta=2.0, L=1.0, n_pairs=100_000, seed=0)
    if mono.ok:
        failures.append("overweighted monotonicity scan found no violation")
    elif not (on_quarter_lattice(mono.violations[0][0]) and on_quarter_lattice(mono.violations[0][1])):
        failures.append("first monotonicity violation not from the lattice pass")
    _finish("criterion 09 (condition checker verdicts)", failures)


def test_criterion_10_defect_scaling():
    _, model = make_model("vol32", 4.0, 1.0)
    cfg = ExperimentConfig(
        model=model, x0=(1.0,), schemes=("bem",), levels=(100, 200, 400, 800),
        samples=1000, ref_steps=3200, base_seed=7,
    )
    report = estimate_residuals(cfg)
    failures = []
    for i, ratio in enumerate(report.bem_ratios):
        if not 1.7 <= ratio <= 2.3:
            failures.append(
                f"defect ratio {report.levels[i]}->{report.levels[i + 1]}: "
                f"{ratio:.3f} outside [1.7, 2.3]"
            )
    _finish("criterion 10 (defect halves with the step)", failures)


def test_criterion_11_thread_reproducibility():
    _, model = make_model("vol32", 4.0, 1.0)
    base = dict(
        model=model, x0=(1.0,), schemes=("eulm", "bem", "bdf2"),
        levels=(25, 50, 100), samples=512, ref_steps=800,
        base_seed=11, batch_size=64,
    )
    serial = run_convergence_study(ExperimentConfig(**base, threads=1)).render_csv()
    pooled = run_convergence_study(ExperimentConfig(**base, threads=8)).render_csv()
    again = run_convergence_study(ExperimentConfig(**base, threads=8)).render_csv()
    failures = []
    if serial != pooled:
        failures.append("1-thread and 8-thread CSVs differ")
    if pooled != again:
        failures.append("identical rerun produced a different CSV")
    _finish("criterion 11 (bitwise thread reproducibility)", failures)
