"""End-to-end tests of the command line interface."""

import hashlib
import re
import subprocess
import sys

import pytest

from sdestep.cli import build_parser, main, parse_levels


def test_parse_levels_geometric_spec():
    assert parse_levels("25x2^0..7") == (25, 50, 100, 200, 400, 800, 1600, 3200)
    assert parse_levels("4x3^1..2") == (12, 36)
    assert parse_levels("100x2^0..0") == (100,)


def test_parse_levels_comma_list():
    assert parse_levels("25,50,100") == (25, 50, 100)
    assert parse_levels(" 25,50 ") == (25, 50)


def test_parse_levels_rejects_garbage():
    for text in ("abc", "25;50", "25x2^3..1", "", "25x2"):
        with pytest.raises(ValueError):
            parse_levels(text)


def test_parse_levels_rejects_specs_past_int64_before_building_them():
    for text in ("25x2^0..1000000", "25x2^0..59", "0x2^1000000000..1000000000"):
        with pytest.raises(ValueError, match=re.escape(f"levels spec {text!r} reaches past 2**63 - 1")):
            parse_levels(text)
    with pytest.raises(ValueError, match="more than 64 levels"):
        parse_levels("25x1^0..1000000000")
    assert max(parse_levels("25x2^0..58")) == 25 * 2**58  # the largest that fits


def test_converge_small_study_to_stdout(capsys):
    rc = main([
        "converge", "--model", "vol32", "--schemes", "bem",
        "--levels", "25,50", "--samples", "8", "--ref-steps", "400",
        "--seed", "1",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.splitlines()
    assert lines[0] == "N,h,bem_error,bem_eoc,bem_exploded"
    assert lines[1] == "25,0.04,0.0937913,,0"
    assert lines[2].startswith("50,0.02,")
    assert len(lines) == 3


def test_converge_writes_csv_file(tmp_path, capsys):
    out = tmp_path / "study.csv"
    rc = main([
        "converge", "--model", "vol32", "--schemes", "bem,bdf2",
        "--levels", "25,50", "--samples", "8", "--ref-steps", "400",
        "--seed", "1", "--out", str(out),
    ])
    assert rc == 0
    assert capsys.readouterr().out == ""
    text = out.read_text()
    assert text.startswith("N,h,bem_error,bem_eoc,bem_exploded,bdf2_error,")
    assert text.endswith("\n")


def test_simulate_emits_time_state_csv(capsys):
    rc = main([
        "simulate", "--model", "vol32", "--sigma", "0",
        "--scheme", "bem", "--steps", "10", "--seed", "0",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,x1"
    assert lines[1] == "0,1"
    assert lines[2].startswith("0.1,")
    assert len(lines) == 12


def test_simulate_multidimensional_header_and_file_output(tmp_path, capsys):
    args = [
        "simulate", "--model", "toy2d", "--scheme", "bdf2",
        "--steps", "50", "--seed", "3",
    ]
    rc = main(args)
    stdout_text = capsys.readouterr().out
    assert rc == 0
    assert stdout_text.splitlines()[0] == "t,x1,x2"
    assert stdout_text.splitlines()[1] == "0,2,3"

    out = tmp_path / "path.csv"
    rc = main(args + ["--out", str(out)])
    assert rc == 0
    assert out.read_text() == stdout_text  # same seed, same path


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv,digest",
    [
        (["--model", "vol32", "--scheme", "bdf2", "--steps", "400", "--seed", "7"],
         "8ddf667a7a881d1a87937f86567d001c064760065b320d13bae1fba8faded0d0"),
        (["--model", "vol32", "--scheme", "bdf2", "--second-init", "copy", "--steps", "400",
          "--seed", "7"],
         "74f6f643d121da1ccfcc080114e493c64ce2a9e25c2f66191d6538365a4bc828"),
        (["--model", "toy2d", "--scheme", "bdf2", "--solver", "newton", "--steps", "400",
          "--seed", "77"],
         "414225534443b8c7c51b5b3db34e35d3a3c96395b3feed5c0dff5702892a8056"),
        (["--model", "vol32", "--scheme", "eulm", "--steps", "300", "--seed", "3"],
         "febba9941c9f7be32885c7ccdc70a8a500af24d03c6103ef3ea12745b26dc8ea"),
    ],
    ids=["vol32-bdf2", "vol32-bdf2-copy", "toy2d-bdf2-newton", "vol32-eulm"],
)
def test_simulate_paths_are_pinned(argv, digest, tmp_path):
    """The rendered paths of four small runs, pinned by SHA-256: their digits move only on purpose."""
    out = tmp_path / "path.csv"
    assert main(["simulate", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_check_model_reports_satisfied(capsys):
    rc = main([
        "check-model", "--model", "vol32", "--condition", "monotonicity",
        "--pairs", "20000",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "condition: monotonicity" in out
    assert "eta: 2" in out
    assert "violations: 0" in out
    assert out.rstrip().endswith("status: SATISFIED")


def test_check_model_reports_violations(capsys):
    rc = main([
        "check-model", "--model", "vol32", "--lambda", "1", "--sigma", "1",
        "--condition", "coercivity", "--pairs", "20000", "--show", "2",
    ])
    out = capsys.readouterr().out
    assert rc == 0  # a violated condition is a finding, not a failure
    assert "status: VIOLATED" in out
    assert out.count("  violation:") == 2


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--condition", "monotonicity", "--L", "nan"], "L"),
        (["--condition", "coercivity", "--L", "inf"], "L"),
        (["--condition", "lipschitz", "--L", "-1"], "L"),
        (["--condition", "monotonicity", "--radius", "nan"], "box"),
        (["--condition", "lipschitz", "--radius", "0"], "box"),
        (["--condition", "monotonicity", "--eta", "inf"], "eta"),
    ],
)
def test_check_model_rejects_bad_scan_arguments(argv, name, capsys):
    rc = main(["check-model", "--model", "vol32", "--pairs", "100", *argv])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {name} must be a positive finite real")


@pytest.mark.parametrize("condition", ["coercivity", "lipschitz"])
@pytest.mark.parametrize("eta", ["inf", "nan", "2"])
def test_check_model_rejects_eta_for_conditions_without_a_weight(condition, eta, capsys):
    rc = main(["check-model", "--model", "vol32", "--pairs", "100",
               "--condition", condition, "--eta", eta])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --eta weights only --condition monotonicity")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--condition", "monotonicity", "--pairs", "-5"], "n_pairs must be >= 0, got -5"),
        (["--condition", "lipschitz", "--pairs", "-5"], "n_pairs must be >= 0, got -5"),
        (["--condition", "coercivity", "--pairs", "-5"], "n_points must be >= 0, got -5"),
        (["--condition", "coercivity", "--show", "-1"], "--show must be >= 0, got -1"),
    ],
)
def test_check_model_rejects_negative_counts_by_name(argv, message, capsys):
    rc = main(["check-model", "--model", "vol32", "--lambda", "1", "--sigma", "1", *argv])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_check_model_show_prints_at_most_the_recorded_violations(capsys):
    argv = ["check-model", "--model", "vol32", "--lambda", "1", "--sigma", "1",
            "--condition", "coercivity", "--pairs", "20000"]
    for show, printed in (("0", 0), ("4", 4), ("1000", 50)):  # 50 are recorded
        assert main([*argv, "--show", show]) == 0
        assert capsys.readouterr().out.count("  violation:") == printed


def test_residuals_table_and_ratio_lines(capsys):
    rc = main([
        "residuals", "--model", "vol32", "--levels", "25,50,100",
        "--samples", "100", "--ref-steps", "400", "--seed", "2",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "N,h,one_step_defect,two_step_pair_defect"
    assert lines[1].startswith("25,0.04,")
    assert len(lines) == 6
    assert lines[4].startswith("# one-step defect ratios: ")
    assert lines[5].startswith("# pair defect ratios: ")
    assert len(lines[4].split(": ")[1].split(",")) == 2  # three levels, two ratios


def test_bad_configuration_exits_two(capsys):
    rc = main([
        "converge", "--model", "vol32", "--x0", "1,2",
        "--levels", "25", "--samples", "1", "--ref-steps", "100",
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    rc = main([
        "converge", "--model", "vol32", "--levels", "25,30",
        "--samples", "1", "--ref-steps", "400",
    ])
    assert rc == 2

    rc = main([
        "residuals", "--model", "vol32", "--levels", "25",
        "--samples", "10", "--ref-steps", "100",
    ])
    assert rc == 2  # too few samples for a defect estimate


@pytest.mark.parametrize(
    "argv,name",
    [
        (["converge", "--model", "vol32", "--lambda", "inf"], "lam"),
        (["converge", "--model", "vol32", "--x0", "nan"], "x0"),
        (["converge", "--model", "vol32", "--sigma", "nan"], "sigma"),
        (["simulate", "--model", "toy2d", "--lambda", "nan", "--steps", "10"], "lam"),
    ],
    ids=["converge-lambda-inf", "converge-x0-nan", "converge-sigma-nan", "simulate-lambda-nan"],
)
def test_non_finite_model_input_exits_two(argv, name, capsys):
    study = ["--levels", "25", "--samples", "2", "--ref-steps", "100"] if argv[0] == "converge" else []
    rc = main(argv + study)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name} must be")


@pytest.mark.parametrize("sigma", ["1e-200", "1e-160"])
@pytest.mark.parametrize("model", ["vol32", "toy2d"])
def test_tiny_sigma_is_rejected_by_name(model, sigma, capsys):
    # sigma**2 underflows to 0 (1e-200) or is subnormal (1e-160), so eta is unusable
    rc = main(["simulate", "--model", model, "--sigma", sigma, "--steps", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: sigma")


def test_closed_form_solver_without_a_closed_form_exits_two(capsys):
    rc = main(["simulate", "--model", "toy2d", "--solver", "closed_form", "--steps", "10"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "closed-form" in captured.err


@pytest.mark.parametrize("solver", ["auto", "newton"])
def test_a_tiny_horizon_keeps_the_closed_form_path_at_x0(solver, capsys):
    # h = 2.5e-161: the closed form's c*c overflows, its answer must not
    rc = main([
        "simulate", "--model", "vol32", "--horizon", "1e-160", "--steps", "4",
        "--scheme", "bem", "--solver", solver,
    ])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert [line.split(",")[1] for line in lines[1:]] == ["1"] * 5


def test_a_step_too_small_for_the_closed_form_exits_two(capsys):
    rc = main([
        "converge", "--model", "vol32", "--horizon", "1e-320", "--levels", "25,50",
        "--samples", "10", "--ref-steps", "100",
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: step size h=")


def test_study_commands_share_their_study_options():
    parser = build_parser()
    converge = vars(parser.parse_args(["converge", "--model", "vol32"]))
    residuals = vars(parser.parse_args(["residuals", "--model", "vol32"]))
    study = ("levels", "samples", "ref_steps", "threads", "reference", "batch_size")
    assert [converge[k] for k in study] == ["25x2^0..7", 10_000, 25 * 2**12, 1, "bdf2", 1024]
    assert [residuals[k] for k in study] == ["25x2^0..7", 1000, 25 * 2**12, 1, "bdf2", 1024]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_singular_solve_exits_three(capsys):
    rc = main([
        "simulate", "--model", "vol32", "--sigma", "0", "--x0", "0",
        "--steps", "1", "--scheme", "bem", "--solver", "newton",
        "--force-step",
    ])
    assert rc == 3
    assert "singular" in capsys.readouterr().err


def test_argparse_rejections_exit_two():
    for argv in (
        ["frobnicate"],
        ["simulate", "--model", "vol32"],            # --steps missing
        ["simulate", "--model", "vol32", "--steps", "4", "--scheme", "rk4"],
        ["check-model", "--model", "vol32"],         # --condition missing
        [],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sdestep", "simulate", "--model", "vol32",
         "--sigma", "0", "--scheme", "bem", "--steps", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "t,x1"
