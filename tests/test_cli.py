import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import udleak
from udleak import cli
from udleak.cli import (CSV_HEADER, CliError, main, parse_args, run_plan)


def _run(argv):
    buf = io.StringIO()
    plan = parse_args(argv)
    code = run_plan(plan, out=buf)
    return code, buf.getvalue()


BASE = ["--mode", "eternal", "--delta-e", "1", "--alpha", "0.70710678118654752",
        "--coupling-a", "0.1", "--coupling-b", "0.1"]


def test_single_point_eternal_csv():
    code, text = _run(BASE)
    lines = text.strip().split("\n")
    assert code == 0
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    cells = lines[1].split(",")
    header = CSV_HEADER.split(",")
    row = dict(zip(header, cells))
    assert row["mode"] == "eternal"
    assert float(row["negativity_rate"]) == pytest.approx(0.005 / (2 * math.pi))
    assert float(row["concurrence_rate"]) == pytest.approx(0.01 / (2 * math.pi))
    # finite measures and sigma are inapplicable in eternal mode
    assert row["negativity"] == "" and row["concurrence"] == "" and row["sigma"] == ""
    assert row["perturbative_ok"] == "true"


def test_rerun_byte_identical():
    a = _run(BASE + ["--sweep", "mass=0:0.9:4"])
    b = _run(BASE + ["--sweep", "mass=0:0.9:4"])
    assert a == b


def test_mass_sweep_hits_threshold():
    code, text = _run(BASE + ["--sweep", "mass=0:1:11"])
    lines = text.strip().split("\n")
    assert code == 0
    assert len(lines) == 12
    last = dict(zip(CSV_HEADER.split(","), lines[-1].split(",")))
    assert float(last["mass"]) == 1.0
    assert float(last["negativity_rate"]) == 0.0
    assert float(last["concurrence_rate"]) == 0.0


def test_distance_sweep_rates_constant():
    code, text = _run(BASE + ["--sweep", "distance=0:3:7"])
    rows = [dict(zip(CSV_HEADER.split(","), l.split(",")))
            for l in text.strip().split("\n")[1:]]
    rates = {r["negativity_rate"] for r in rows}
    assert len(rates) == 1


def test_cartesian_sweep_order():
    code, text = _run(BASE + ["--sweep", "mass=0:0.5:2",
                              "--sweep", "distance=0:1:2"])
    rows = [l.split(",") for l in text.strip().split("\n")[1:]]
    assert len(rows) == 4
    # first declared sweep varies slowest
    masses = [float(r[2]) for r in rows]
    dists = [float(r[4]) for r in rows]
    assert masses == [0.0, 0.0, 0.5, 0.5]
    assert dists == [0.0, 1.0, 0.0, 1.0]


def test_shield_halves_negativity_rate():
    _, both = _run(BASE)
    _, shielded = _run(BASE + ["--shield-b"])
    key = CSV_HEADER.split(",")
    rb = dict(zip(key, both.strip().split("\n")[1].split(",")))
    rs = dict(zip(key, shielded.strip().split("\n")[1].split(",")))
    ratio = float(rs["negativity_rate"]) / float(rb["negativity_rate"])
    assert ratio == pytest.approx(0.5, abs=1e-12)
    assert float(rs["coupling_b"]) == 0.0


def test_gaussian_fills_measures_not_rates():
    # massive: a massless point's entries are closed, with no quadrature error
    code, text = _run(["--mode", "gaussian", "--sigma", "2", "--delta-e", "1",
                       "--alpha", "0.70710678118654752", "--coupling-a", "0.1",
                       "--coupling-b", "0.1", "--distance", "0.5", "--mass", "0.4"])
    assert code == 0
    row = dict(zip(CSV_HEADER.split(","),
                   text.strip().split("\n")[1].split(",")))
    assert row["negativity_rate"] == "" and row["concurrence_rate"] == ""
    assert 0.0 < float(row["negativity"]) < 0.5
    assert 0.0 < float(row["concurrence"]) < 1.0
    assert float(row["sigma"]) == 2.0
    assert float(row["max_quad_error"]) > 0.0


def test_json_format_nests_integrals():
    code, text = _run(BASE + ["--format", "json"])
    records = json.loads(text)
    assert len(records) == 1
    rec = records[0]
    assert rec["params"]["mode"] == "eternal"
    assert rec["integrals"]["P''_A"]["re"] == pytest.approx(0.5)
    assert rec["integrals"]["P''_A"]["delta0_power"] == 1
    assert len(rec["report"]["pt_eigenvalues_numeric"]) == 4
    assert len(rec["report"]["wootters_numeric"]) == 4


def test_validate_passes_on_clean_run():
    code, _ = _run(BASE + ["--validate", "--sweep", "mass=0:0.5:3"])
    assert code == 0


def test_validate_passes_at_small_couplings():
    # lambda'_3 ~ 1.3e-8 here: the spin-flip values are singular values, so
    # no square root of an eigenvalue blows solver noise up to that size
    assert main(["--validate", "--coupling-a", "1e-3", "--coupling-b", "1e-3",
                 "--distance", "0.5", "--alpha", "0.6"]) == 0


@pytest.mark.parametrize("argv, x_ab", [
    (["--mode", "gaussian", "--sigma", "1", "--distance", "1e4"], 5.8550e-10),
    (["--mode", "gaussian", "--sigma", "3", "--delta-e", "0.3",
      "--distance", "1e6"], 6.3721e-13),
], ids=["d=1e4", "d=1e6"])
def test_massless_gaussian_at_large_separation(argv, x_ab):
    # sinc(p d) turns over thousands of times below p_max; the massless
    # entries are closed, so no panel rule has to resolve it
    assert _run(argv)[0] == 0
    code, text = _run(argv + ["--format", "json"])
    assert code == 0
    got = json.loads(text)[0]["integrals"]["X_AB"]["re"]
    assert got == pytest.approx(x_ab, rel=1e-3)


def test_unknown_flag_exits_1():
    assert main(["--frobnicate"]) == 1


def test_malformed_sweep_named():
    with pytest.raises(CliError, match="bogus"):
        parse_args(BASE + ["--sweep", "bogus"])
    with pytest.raises(CliError, match="steps"):
        parse_args(BASE + ["--sweep", "mass=0:1:0"])
    with pytest.raises(CliError, match="start"):
        parse_args(BASE + ["--sweep", "mass=2:1:3"])
    with pytest.raises(CliError, match="coupling_c"):
        parse_args(BASE + ["--sweep", "coupling_c=0:1:3"])


def test_gaussian_without_sigma_names_sigma():
    with pytest.raises(CliError, match="sigma"):
        parse_args(["--mode", "gaussian", "--delta-e", "1"])


@pytest.mark.parametrize("argv, message", [
    (["--mode", "eternal", "--sweep", "mass=0:0.5:2", "--sweep", "mass=0:1:3"],
     "sweep parameter 'mass' is swept twice"),
    (["--mode", "eternal", "--sweep", "sigma=1:2:2"],
     "sweep parameter 'sigma' needs --mode gaussian"),
    (["--mode", "eternal", "--shield-b", "--sweep", "coupling_b=0:1:3"],
     "sweep parameter 'coupling_b' is held at 0 by --shield-b"),
], ids=["swept-twice", "eternal-sigma", "shielded-coupling-b"])
def test_sweep_that_adds_no_grid_axis_exits_1(tmp_path, capsys, argv, message):
    # would print repeated rows; a sweep from the config file counts too
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sweep = {argv[-1]}\n")
    for args in (argv, argv[:-2] + ["--config", str(cfg)]):
        assert main(args) == 1
        assert capsys.readouterr() == ("", f"udleak: error: {message}\n")


@pytest.mark.parametrize("sigma", ["1", "-1"])
def test_sigma_outside_gaussian_mode_exits_1(tmp_path, capsys, sigma):
    # no window would use it; a config line counts too
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sigma = {sigma}\n")
    for args in (["--mode", "eternal", "--sigma", sigma], ["--config", str(cfg)],
                 ["--config", str(cfg), "--mode", "eternal"]):
        assert main(args) == 1
        assert capsys.readouterr() == ("", "udleak: error: --sigma needs --mode gaussian\n")


def test_invalid_scenario_exits_1(capsys):
    assert main(["--delta-e", "-1"]) == 1
    assert "delta_e" in capsys.readouterr().err


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comparison run\n"
        "mode = eternal\n"
        "delta_e = 2.0\n"
        "mass = 1.0   # below threshold is fine too\n"
        "coupling_a = 0.1\n"
        "coupling_b = 0.1\n"
        "alpha = 0.70710678118654752\n"
    )
    code, text = _run(["--config", str(cfg)])
    row = dict(zip(CSV_HEADER.split(","), text.strip().split("\n")[1].split(",")))
    assert code == 0
    assert float(row["delta_e"]) == 2.0
    assert float(row["mass"]) == 1.0


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta_e = 2.0\nmass = 0.5\n")
    code, text = _run(["--config", str(cfg), "--delta-e", "3.0"])
    row = dict(zip(CSV_HEADER.split(","), text.strip().split("\n")[1].split(",")))
    assert float(row["delta_e"]) == 3.0
    assert float(row["mass"]) == 0.5


def test_config_bad_key_and_value(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("frobnicate = 1\n")
    with pytest.raises(CliError, match="frobnicate"):
        parse_args(["--config", str(bad_key)])
    bad_val = tmp_path / "b.cfg"
    bad_val.write_text("mass = lots\n")
    with pytest.raises(CliError, match="mass"):
        parse_args(["--config", str(bad_val)])


def test_output_file(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(BASE + ["--output", str(out)])
    assert code == 0
    assert out.read_text().startswith(CSV_HEADER)


def test_strict_trips_on_nonperturbative(capsys):
    code = main(["--mode", "eternal", "--delta-e", "1",
                 "--alpha", "0.70710678118654752",
                 "--coupling-a", "12", "--coupling-b", "12", "--strict"])
    assert code == 3
    assert "perturbative" in capsys.readouterr().err


def test_warning_without_strict_still_succeeds(capsys):
    code = main(["--mode", "eternal", "--delta-e", "1",
                 "--alpha", "0.70710678118654752",
                 "--coupling-a", "12", "--coupling-b", "12"])
    assert code == 0
    assert "warning" in capsys.readouterr().err


GAUSSIAN_BASE = ["--mode", "gaussian", "--sigma", "1", "--delta-e", "1",
                 "--alpha", "0.70710678118654752", "--coupling-a", "0.1",
                 "--coupling-b", "0.1", "--distance", "0.5"]

BAD_VALUES = [
    (["--mass", "nan"], "field.mass"),
    (["--distance", "inf"], "pair.distance"),
    (["--coupling-a", "nan"], "pair.coupling_a"),
    (["--sweep", "mass=0:inf:3"], "mass=0:inf:3"),
    (["--epsilon", "1e-9"], "--epsilon"),
    (["--epsilon", "0"], "--epsilon"),
    (["--epsilon", "nan"], "--epsilon"),
    (["--p-max", "inf"], "--p-max"),
    (["--p-max", "-2"], "--p-max"),
    (["--quad-tol", "-1"], "--quad-tol"),
    (["--epsilon", "1e308"], "overflowed"),
    (["--p-max", "1e308"], "overflowed"),
    (["--delta-e", "1e300"], "overflowed"),
    (["--sigma", "1e-300"], "overflowed"),
    (["--c-light", "1e-300", "--distance", "0"], "overflowed"),
    (["--mode", "eternal", "--c-light", "1e-300"], "overflowed"),
    (["--mode", "eternal", "--c-light", "1e-300", "--sweep", "alpha=0:1:3"],
     "alpha=0.0"),
    (["--mode", "eternal", "--sweep", "coupling_a=0:1e200:3"], "coupling_a=5e+199"),
    (["--mode", "eternal", "--sweep", "alpha=0:1e200:3"],
     "alpha^2 + gamma^2 = inf at alpha=5e+199"),
]


@pytest.mark.parametrize("extra, named", BAD_VALUES,
                         ids=[" ".join(extra) for extra, _ in BAD_VALUES])
def test_bad_value_exits_1_with_one_line(capsys, extra, named):
    # an eternal case gives its own --mode, and eternal mode rejects --sigma
    base = GAUSSIAN_BASE[4:] if "eternal" in extra else GAUSSIAN_BASE
    assert main(base + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1


CHECK_FAILURES = [
    # the trace is 2.4e-7 away from 1: the second-order terms, of order the
    # coupling squared (1e10), cancel in the trace only up to rounding
    (["--mode", "gaussian", "--sigma", "1", "--coupling-a", "1e5",
      "--coupling-b", "1e5", "--distance", "0.5"], "coupling_a=100000.0"),
    (["--coupling-a", "1e150", "--coupling-b", "0"], "coupling_a=1e+150"),
    # only the second point of the sweep fails
    (["--mode", "gaussian", "--sigma", "1", "--coupling-a", "1e5",
      "--distance", "0.5", "--sweep", "coupling_b=0:1e5:2"],
     "coupling_b=100000.0"),
    # Im Y_AB ~ 1/d puts entries near 1e298 into the partial transpose,
    # where LAPACK's eigh does not converge
    (["--mode", "gaussian", "--sigma", "1", "--distance", "1e-300"],
     "mass=0.0, distance=1e-300"),
    (["--mode", "gaussian", "--sigma", "1", "--distance", "1e-300", "--mass", "0.3"],
     "mass=0.3, distance=1e-300"),
]


@pytest.mark.parametrize("argv, named", CHECK_FAILURES,
                         ids=["gaussian-trace", "huge-coupling", "sweep-point",
                              "lapack-massless", "lapack-massive"])
def test_failed_matrix_check_exits_2_naming_the_point(capsys, argv, named):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("udleak: numeric check failed: ")
    assert f"{named}, " in captured.err


def test_coincident_gaussian_trace_holds_at_large_coupling(capsys):
    # Re Y_AB = P'_AB: the trace identity holds at d = 0 as well
    assert main(["--mode", "gaussian", "--sigma", "1", "--coupling-a", "0.5",
                 "--coupling-b", "0.5", "--distance", "0"]) == 0
    assert capsys.readouterr().err == ""


# the first failing point in grid order reports, whichever stage fails it
FIRST_FAILURES = {
    "invalid-sweep-point": (
        ["--sweep", "delta_e=1:2:2", "--sweep", "alpha=0.5:1.5:3"], 1,
        "udleak: invalid scenario: state amplitudes not normalized: "
        "alpha^2 + gamma^2 = 2.25 at delta_e=1.0, alpha=1.5"),
    # P'' overflows at the second point, before the alpha = 2 points
    "overflow-before-invalid": (
        ["--sweep", "alpha=0:2:3", "--sweep", "delta_e=1:1e300:2"], 1,
        "udleak: computation overflowed at delta_e=1e+300, mass=0.0, "
        "distance=0.0, coupling_a=0.1, coupling_b=0.1, alpha=0.0: "
        "P'' = inf is not finite"),
    "invalid-before-overflow": (
        ["--sweep", "delta_e=1:1e300:2", "--sweep", "alpha=0:2:3"], 1,
        "udleak: invalid scenario: state amplitudes not normalized: "
        "alpha^2 + gamma^2 = 4.0 at delta_e=1.0, alpha=2.0"),
    # the massive point 10^4 widths apart is the first of the grid to fail
    "nonconvergence-before-invalid": (
        ["--mode", "gaussian", "--sigma", "1", "--distance", "1e4",
         "--sweep", "alpha=0:2:3", "--sweep", "mass=0:0.4:2"], 2,
        "udleak: quadrature non-convergence: entry X_AB error estimate "
        "1.187e-07 exceeds tol 1.000e-08 at alpha=0.0, mass=0.4"),
    # the density matrix of the first point fails its Hermiticity check
    # (the couplings squared, 1e10, times rounding) before the second point
    # is found invalid
    "check-before-invalid": (
        ["--mode", "gaussian", "--sigma", "1", "--coupling-a", "1e5",
         "--coupling-b", "1e5", "--distance", "0.5", "--sweep", "alpha=0.5:1.5:2"], 2,
        "udleak: numeric check failed: |m - m^dagger| = 2.384e-07 exceeds tol "
        "1.000e-08 at delta_e=1.0, mass=0.0, distance=0.5, coupling_a=100000.0, "
        "coupling_b=100000.0, alpha=0.5, sigma=1.0"),
    # both points fail the check; the first reports, not the worst
    "first-check-not-worst": (
        ["--mode", "gaussian", "--sigma", "1", "--coupling-a", "1e5",
         "--distance", "0.5", "--sweep", "coupling_b=1e5:2e5:2"], 2,
        "udleak: numeric check failed: |m - m^dagger| = 2.384e-07 exceeds tol "
        "1.000e-08 at delta_e=1.0, mass=0.0, distance=0.5, coupling_a=100000.0, "
        "coupling_b=100000.0, alpha=0.7071067811865475, sigma=1.0"),
    "check-before-nonconvergence": (
        ["--mode", "gaussian", "--sigma", "1", "--coupling-a", "1e5",
         "--coupling-b", "1e5", "--distance", "1e4", "--sweep", "mass=0:0.4:2"], 2,
        "udleak: numeric check failed: |m - m^dagger| = 5.960e-08 exceeds tol "
        "1.000e-08 at delta_e=1.0, mass=0.0, distance=10000.0, coupling_a=100000.0, "
        "coupling_b=100000.0, alpha=0.7071067811865475, sigma=1.0"),
}


@pytest.mark.parametrize("name", sorted(FIRST_FAILURES))
def test_first_failing_point_reports(capsys, name):
    argv, code, line = FIRST_FAILURES[name]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


def test_batch_failure_no_point_repeats_still_reports(monkeypatch, capsys):
    # a failure of the whole sweep that no point repeats alone keeps its
    # exit code and line, with no point named
    analyze = cli.analyze

    def batch_fails(grid, *args, **kwargs):
        if len(grid.state.alpha) > 1:
            raise udleak.linalg.NotHermitian("|m - m^dagger| = nan exceeds tol 1e-10")
        return analyze(grid, *args, **kwargs)

    monkeypatch.setattr(cli, "analyze", batch_fails)
    assert main(BASE + ["--sweep", "alpha=0:1:3"]) == 2
    assert capsys.readouterr() == (
        "", "udleak: numeric check failed: |m - m^dagger| = nan exceeds tol 1e-10\n")


def test_failing_sweep_point_found_in_log_n_batch_passes(monkeypatch, capsys):
    # 1,000 points, the first 960 valid: the batch, a galloping and
    # bisecting search over blocks, and the found point alone
    computed, calls = cli._computed, []

    def counted(plan, params, settings):
        calls.append(len(params["alpha"]))
        return computed(plan, params, settings)

    monkeypatch.setattr(cli, "_computed", counted)
    assert main(["--sweep", "alpha=0:1.001:25", "--sweep", "mass=0:1:40"]) == 1
    assert capsys.readouterr() == (
        "", "udleak: invalid scenario: state amplitudes not normalized: "
        "alpha^2 + gamma^2 = 1.0020009999999997 at alpha=1.001, mass=0.0\n")
    assert calls[0] == 1000 and calls[-1] == 1
    assert len(calls) <= 2 * math.ceil(math.log2(1000)) + 2


@pytest.mark.parametrize("argv, blocks", [
    # one point: the batch is the point alone
    (["--delta-e", "1e300"], [1]),
    # the first point fails in the first block of the search
    (["--sweep", "alpha=1.5:2:2"], [2, 1]),
    # the third of six: blocks [0, 1), [1, 2), [2, 4), then [2, 3) alone
    (FIRST_FAILURES["invalid-sweep-point"][0], [6, 1, 1, 2, 1]),
])
def test_found_point_runs_alone_once(monkeypatch, capsys, argv, blocks):
    # a pass of the search over the failing point alone gives its own
    # exception; it is not run again
    computed, calls = cli._computed, []

    def counted(plan, params, settings):
        calls.append(len(params["alpha"]))
        return computed(plan, params, settings)

    monkeypatch.setattr(cli, "_computed", counted)
    assert main(argv) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert calls == blocks


@pytest.mark.parametrize("solver", ["eigh", "svd"])
def test_linalg_error_exits_2_with_one_line(monkeypatch, capsys, solver):
    def fails(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{solver} did not converge")

    monkeypatch.setattr(np.linalg, solver, fails)
    assert main(BASE + ["--sweep", "alpha=0:1:3"]) == 2
    assert capsys.readouterr() == (
        "", f"udleak: numeric check failed: LAPACK {solver} failed: {solver} did "
        "not converge at delta_e=1.0, mass=0.0, distance=0.0, coupling_a=0.1, "
        "coupling_b=0.1, alpha=0.0\n")


def test_overflowing_square_stays_silent(capsys):
    # m c^2 squares to inf under over="ignore", with no numpy warning
    argv = ["--mode", "eternal", "--sweep", "mass=0:1e300:3"]
    code, text = _run(argv)
    assert code == 0
    assert capsys.readouterr().err == ""
    rows = text.splitlines()[1:]
    alone = [_run(["--mode", "eternal", "--mass", m])[1].splitlines()[1]
             for m in ("0", "5e299", "1e300")]
    assert rows == alone


def test_overflowing_square_names_the_ufunc(capsys):
    # analyze runs under np.errstate(over="raise"): C_A^2 overflows
    assert main(["--mode", "eternal", "--coupling-a", "1e160"]) == 1
    assert capsys.readouterr() == ("", (
        "udleak: computation overflowed at delta_e=1.0, mass=0.0, distance=0.0, "
        "coupling_a=1e+160, coupling_b=0.1, alpha=0.7071067811865475: "
        "overflow encountered in square\n"))


def test_overflow_names_the_point(capsys):
    assert main(GAUSSIAN_BASE + ["--sigma", "1e-300"]) == 1
    err = capsys.readouterr().err
    assert "sigma=1e-300" in err and "delta_e=1.0" in err


@pytest.mark.parametrize("extra, code", [
    (["--delta-e", "-1"], 1),
    (["--validate"], 2),
], ids=["invalid-scenario", "validate-breach"])
def test_failed_run_leaves_output_untouched(tmp_path, monkeypatch, extra, code):
    # no clean point breaches --validate, so a zero tolerance makes one
    monkeypatch.setattr(cli, "_validate_tolerance", lambda mode, report: 0.0)
    out = tmp_path / "rows.csv"
    out.write_bytes(b"previous run\n")
    assert main(BASE + ["--distance", "0.5", "--output", str(out)] + extra) == code
    assert out.read_bytes() == b"previous run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


def test_output_replaces_existing_file(tmp_path):
    out = tmp_path / "rows.csv"
    out.write_text("previous run\n")
    assert main(BASE + ["--output", str(out)]) == 0
    assert out.read_text() == _run(BASE)[1]


def test_warning_names_the_sweep_point(capsys):
    code = main(BASE + ["--sweep", "coupling_a=0.1:2:2"])
    assert code == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert "warning: perturbative indicator" in lines[0]
    assert lines[0].endswith(" at coupling_a=2.0")


def _run_process(argv):
    """udleak in a child process, so that its warnings reach stderr as a
    user sees them and a crash fails one test instead of the whole run."""
    return _run_python(["-m", "udleak.cli", *argv])


def _run_python(args):
    src = str(pathlib.Path(udleak.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("extra, line", [
    # sinc(p d) turns over too often below p_max for the massive panels
    (["--mass", "0.4", "--distance", "1e4"],
     "udleak: quadrature non-convergence: entry X_AB"),
    # at d = 0 the regulated kernel is NaN: the integrand stops it
    (["--mass", "1e150", "--distance", "0"],
     "udleak: quadrature non-convergence: entry Y_AB integrand is nan"),
    # P scales as 1/c^3 and really overflows
    (["--c-light", "1e-300"], "udleak: computation overflowed"),
    # 1/x overflows in Im Y_AB, closed (m = 0) or on the panel rule
    (["--distance", "1e-310"], "udleak: computation overflowed"),
    (["--mass", "0.4", "--distance", "1e-310"], "udleak: computation overflowed"),
], ids=["far-massive", "huge-mass-coincident", "tiny-c", "subnormal-distance",
        "subnormal-distance-massive"])
def test_failing_gaussian_point_prints_one_line(extra, line):
    proc = _run_process(["--mode", "gaussian", "--sigma", "1",
                         "--distance", "0.5", *extra])
    assert proc.returncode == (2 if "non-convergence" in line else 1), proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(line), proc.stderr
    if "1e-310" in extra:
        assert lines[0].endswith(": Im Y_AB = -inf is not finite")


@pytest.mark.parametrize("argv", [
    # m c^2 sigma = 3.6e3: thousands of periods of the J_1 form of the kernel
    ["--sigma", "7.23", "--mass", "292", "--distance", "0.0671",
     "--delta-e", "0.242", "--c-light", "1.3"],
    # x^2 underflows, (x t)^2 does not
    ["--sigma", "1", "--mass", "0.4", "--distance", "1e-170"],
    # the integrand peaks at e^{-x mu}, which underflows: Im Y_AB = 0
    ["--sigma", "1", "--mass", "1e150", "--distance", "0.5"],
    # m c^2 overflows to inf: still 0, not a NaN from inf/inf
    ["--sigma", "1", "--mass", "1e300", "--distance", "0.5", "--c-light", "1e5"],
], ids=["heavy-wide-window", "tiny-distance", "huge-mass", "overflowing-mass"])
def test_extreme_massive_gaussian_point_exits_0(capsys, argv):
    assert main(["--mode", "gaussian", *argv]) == 0
    assert "non-convergence" not in capsys.readouterr().err


def test_eternal_and_massless_gaussian_runs_skip_scipy_integrate():
    # scipy is most of the import time: an eternal run loads none of it,
    # and no Gaussian run at d > 0 needs quad, massless or massive
    script = ("import contextlib, io, sys\n"
              "from udleak.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert main(['--mode', 'eternal']) == 0\n"
              "print('scipy' in sys.modules)\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert main(['--mode', 'gaussian', '--sigma', '1',\n"
              "                 '--distance', '0.5']) == 0\n"
              "    assert main(['--mode', 'gaussian', '--sigma', '1',\n"
              "                 '--mass', '0.4', '--distance', '0.5']) == 0\n"
              "print('scipy.integrate' in sys.modules)\n")
    proc = _run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\nFalse\n"


def test_massless_oracle_skips_scipy_integrate():
    # the oracle's time ordering is its own lag sums (numpy FFT
    # correlations), not scipy.integrate's cumulative_simpson
    script = ("import sys\n"
              "from udleak.integrals import oracle_quadrature\n"
              "from udleak.model import (GAUSSIAN, DetectorPairConfig, FieldSpec,\n"
              "                          SwitchingSpec, bell_state, validate_config)\n"
              "sc = validate_config(\n"
              "    DetectorPairConfig(delta_e=1.0, coupling_a=0.1, coupling_b=0.1,\n"
              "                       distance=0.5),\n"
              "    FieldSpec(mass=0.0), bell_state(),\n"
              "    SwitchingSpec(kind=GAUSSIAN, sigma=1.0))\n"
              "for entry in ('M', 'Y_AB'):\n"
              "    oracle_quadrature(entry, sc, window=7.0, p_max=8.0, epsilon=1e-6,\n"
              "                      n_time=801, n_p=48)\n"
              "print('scipy.integrate' in sys.modules)\n")
    proc = _run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_scipy_warning_is_one_line_naming_the_point(capsys):
    # the regulated d = 0 Y_AB warns at a very wide window, and still passes
    code = main(["--mode", "gaussian", "--sigma", "1", "--distance", "0",
                 "--sweep", "sigma=300:300:1"])
    assert code == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == ("udleak: warning: The integral is probably divergent, "
                        "or slowly convergent. at sigma=300.0")
    assert all(line.startswith("udleak: warning: ") for line in lines)


WRITER_PLANS = {
    "eternal-sweep": ["--mode", "eternal", "--format", "json", "--sweep",
                      "mass=0:1:3", "--sweep", "distance=0:2:2"],
    "eternal-point": ["--mode", "eternal", "--format", "json"],
    "gaussian-sweep": ["--mode", "gaussian", "--format", "json", "--sweep",
                       "sigma=1:2:2", "--sweep", "distance=0.5:1:2"],
    "one-point": ["--mode", "gaussian", "--sigma", "1", "--distance", "0.5",
                  "--format", "json"],
    "d0-shielded": ["--mode", "gaussian", "--sigma", "1", "--distance", "0",
                    "--shield-b", "--format", "json"],
    # the plan of tests/golden/gaussian_massless_massive.json
    "gaussian-golden": ["--mode", "gaussian", "--format", "json", "--validate",
                        "--delta-e", "1", "--alpha", "0.7", "--sigma", "1",
                        "--coupling-a", "0.1", "--coupling-b", "0.12",
                        "--sweep", "mass=0:0.4:2", "--sweep", "distance=0.5:1.5:2"],
}


@pytest.mark.parametrize("name", sorted(WRITER_PLANS))
def test_json_output_is_its_indent_2_encoding(name):
    code, text = _run(WRITER_PLANS[name])
    assert code == 0
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def _on_arrays(record, f):
    """The record with f applied to each array leaf."""
    if isinstance(record, np.ndarray):
        return f(record)
    if isinstance(record, dict):
        return {k: _on_arrays(v, f) for k, v in record.items()}
    if isinstance(record, (list, tuple)):
        return type(record)(_on_arrays(v, f) for v in record)
    return record


def _columns(values):
    """The record of columns over the points whose records are `values`:
    dicts and lists by key and position, a leaf as an object array."""
    first = values[0]
    if isinstance(first, dict):
        return {k: _columns([v[k] for v in values]) for k in first}
    if isinstance(first, list):
        return [_columns([v[i] for v in values]) for i in range(len(first))]
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


@pytest.mark.parametrize("name", ["eternal_mass_alpha.json",
                                  "gaussian_massless_massive.json"])
def test_json_writer_matches_json_on_goldens(name):
    golden = pathlib.Path(__file__).parent / "golden" / name
    rows = json.loads(golden.read_text())
    text = cli._json_text(_columns(rows), len(rows))
    assert text == json.dumps(rows, indent=2) + "\n"


def test_json_writer_matches_json_on_every_leaf_kind():
    # each kind of leaf as one value shared by every point and as a column
    # over the points (an (n, k) array is a k-element list per point)
    shared = [math.nan, math.inf, -math.inf, None, -0.0, 5e-324, 1e308, 0.1,
              True, False, 0, -7, 2**70, "gaussian", "a%s\0\"\u00e9, b"]
    columns = [
        np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1, 1.0]),
        np.array([True, False] * 4),
        np.array([0, -7, 2**62, -1, 3, 4, 5, 6]),
        np.array([None, 2**70, "gaussian", "a%s\0\"\u00e9, b", True, 0.5, -0.0,
                  None], dtype=object),
        np.arange(24.0).reshape(8, 3) / 7 - 1,
    ]
    record = {"params": {"%d": columns[0], "x": [columns[1], (columns[2], "%s")],
                         "shared": shared, "e": {}, "l": [], "t": ((),)},
              "report": {"k": columns[3], "pairs": columns[4], "%s": None}}
    for n in (1, 2, 8):
        cut = _on_arrays(record, lambda a: a[:n])
        rows = [_on_arrays(cut, lambda a: a.tolist()[i]) for i in range(n)]
        assert cli._json_text(cut, n) == json.dumps(rows, indent=2) + "\n"


def _csv_by_cell(record, n):
    """The CSV of a record, each cell of each row formatted on its own."""
    columns = (list(record["params"].values())
               + [record["report"][name] for name in CSV_HEADER.split(",")[10:]])

    def cell(v, i):
        if isinstance(v, np.ndarray):
            v = v[i].item()
        return ("" if v is None else v if isinstance(v, str)
                else "true" if v is True else "false" if v is False
                else "%.17g" % v)

    return CSV_HEADER + "\n" + "".join(",".join(cell(v, i) for v in columns) + "\n"
                                       for i in range(n))


def test_csv_writer_formats_each_cell_as_alone():
    # -0.0 and 0.0 share a value but not a bit pattern; the extremes, a
    # shared scalar, a None and a bool column sit beside repeated values
    n = 8
    signed_zeros = np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.0, -0.0])
    extremes = np.array([5e-324, 1.7976931348623157e308, -5e-324, 0.1,
                         5e-324, 0.1, -1.7976931348623157e308, 0.1])
    repeated = np.repeat([0.25, 1 / 3], 4)
    params = dict.fromkeys(CSV_HEADER.split(",")[:10], repeated)
    params.update(mode="eternal", delta_e=signed_zeros, mass=extremes, c=299792458.0,
                  distance=np.arange(n) % 3 / 7, sigma=None)
    report = dict.fromkeys(CSV_HEADER.split(",")[10:], extremes[::-1].copy())
    report.update(negativity=None, concurrence=-0.0,
                  perturbative_ok=np.array([True, False, True, True] * 2),
                  max_quad_error=np.zeros(n))
    record = {"params": params, "report": report}
    for k in (1, 3, n):
        cut = _on_arrays(record, lambda a: a[:k])
        assert cli._csv_text(cut, k) == _csv_by_cell(cut, k)
    assert ",-0," in cli._csv_text(record, n)


# each kind of RunPlan field: config lines, the same settings as flags, and
# flags that override them, given before or after --config
CONFIG_KINDS = {
    "float": ("mass = 0.3\ndelta-e = 2\n", ["--mass", "0.3", "--delta-e", "2"],
              ["--mass", "0.4"]),
    "optional-float": ("mode = gaussian\nsigma = 2\np_max = 20\n",
                       ["--mode", "gaussian", "--sigma", "2", "--p-max", "20"],
                       ["--sigma", "3"]),
    "choice": ("gamma_sign = -\nformat = json\n",
               ["--gamma-sign", "-", "--format", "json"], ["--gamma-sign", "+"]),
    "bool-true": ("validate = yes\nshield-b = ON\n", ["--validate", "--shield-b"],
                  ["--validate"]),
    "bool-false": ("strict = off\nvalidate = 1\nvalidate = no\n", [], ["--strict"]),
    "repeated-sweep": ("sweep = mass=0:1:3\nsweep = alpha=0:1:2\n",
                       ["--sweep", "mass=0:1:3", "--sweep", "alpha=0:1:2"],
                       ["--sweep", "distance=0:1:2"]),
    "string": ("output = rows.csv\n", ["--output", "rows.csv"],
               ["--output", "other.csv"]),
}


@pytest.mark.parametrize("kind", sorted(CONFIG_KINDS))
def test_config_equals_flags(tmp_path, kind):
    text, flags, override = CONFIG_KINDS[kind]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert parse_args(["--config", str(cfg)]) == parse_args(flags)
    assert (parse_args(["--config", str(cfg)] + override)
            == parse_args(override + ["--config", str(cfg)])
            == parse_args(flags + override))


@pytest.mark.parametrize("line, key", [
    ("mass = lots", "mass"),
    ("mode = bogus", "mode"),
    ("gamma_sign = x", "gamma-sign"),
    ("validate = maybe", "validate"),
    ("frobnicate = 1", "frobnicate"),
    ("config = x.cfg", "config"),
    ("mass 0.5", "mass"),
])
def test_config_error_names_line_and_key(tmp_path, capsys, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# comparison run\ndelta_e = 2\n{line}\n")
    assert main(["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"udleak: error: {cfg}:3: ")
    assert key in captured.err
