"""Command-line checks: exit codes 0 (success), 2 (bad input) and 3 (not converged)."""

import json

import numpy as np
import scipy

from latinpgd import cli
from latinpgd.material import reference_concrete, released_energy


def write(path, text):
    path.write_text(text)
    return str(path)


def test_matpoint_writes_the_unclipped_released_energy(tmp_path):
    t = np.linspace(0.01, 1.0, 40)
    eps_x = 2e-4 * np.sin(np.pi * t)
    signal = write(tmp_path / "signal.csv",
                   "t,eps_x\n" + "".join("%.17g,%.17g\n" % row for row in zip(t, eps_x)))
    out = tmp_path / "out"
    assert cli.main(["matpoint", "--signal", signal, "--out-dir", str(out)]) == cli.EXIT_OK

    table = np.loadtxt(out / "matpoint.csv", delimiter=",", skiprows=1)
    assert table.shape == (t.size, 6)
    eps_v = np.zeros((t.size, 6))
    eps_v[:, 0] = eps_x
    Y = released_energy(eps_v, reference_concrete().hooke())
    assert np.array_equal(table[:, 5], Y)
    Y0 = reference_concrete().Y0
    assert np.any((Y > 0.0) & (Y < Y0)) and np.any(Y > Y0)


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = write(tmp_path / "run.cfg", "[solver]\nN_T = 10\nmodes = 1\n")
    code = cli.main(["run-latin", "--preset", "mono_sine", "--config", config,
                     "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_INPUT
    assert "%s:3: unknown key 'modes'" % config in capsys.readouterr().err


def test_signal_with_wrong_column_count_exits_2(tmp_path, capsys):
    signal = write(tmp_path / "signal.csv", "t,eps_x,eps_y\n0.1,1e-5,0\n0.2,2e-5,0\n")
    code = cli.main(["matpoint", "--signal", signal, "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_INPUT
    assert "two columns" in capsys.readouterr().err


def tiny_overlay(tmp_path):
    """mono_sine on a 4x2x2 mesh over 0.5 s, N_T = 10, a budget of 1 mode."""
    return write(tmp_path / "tiny.cfg",
                 "[mesh]\nnx = 4\nny = 2\nnz = 2\n"
                 "[load]\nT = 0.5\n"
                 "[solver]\nN_T = 10\nmax_modes = 1\n")


def assert_step_log_corrects_every_step(path):
    """Every step corrects and passes at least once; returns the log rows."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert path.read_text().startswith("step,t,iterations,passes\n")
    assert rows.shape == (20, 4)            # 2 * N_T steps
    assert rows[:, 2].min() >= 1
    assert rows[:, 3].min() >= 1
    return rows


def test_run_newmark_exits_0_with_a_step_log(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["run-newmark", "--preset", "mono_sine",
                     "--config", tiny_overlay(tmp_path), "--out-dir", str(out)])
    assert code == cli.EXIT_OK
    rows = assert_step_log_corrects_every_step(out / "step_log.csv")
    manifest = json.loads((out / "manifest.json").read_text())
    assert 0.0 <= manifest["max_damage"] <= 1.0
    # one factorization serves the march; the totals are the step log's
    assert manifest["factorizations"] == 1
    assert manifest["corrections"] == rows[:, 2].sum()
    assert manifest["passes"] == rows[:, 3].sum()


def test_step_log_counts_every_stagger_pass(tmp_path, monkeypatch):
    # each stagger pass of a damaging march ends in one damage update
    from latinpgd import newmark

    calls = []
    advance = newmark._advance_damage

    def counted(*args):
        calls.append(1)
        return advance(*args)

    monkeypatch.setattr(newmark, "_advance_damage", counted)
    out = tmp_path / "out"
    code = cli.main(["run-newmark", "--preset", "mono_sine",
                     "--config", tiny_overlay(tmp_path), "--out-dir", str(out)])
    assert code == cli.EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["max_damage"] > 0.0
    rows = assert_step_log_corrects_every_step(out / "step_log.csv")
    assert rows[:, 3].sum() == len(calls)
    assert rows[:, 3].max() > 1             # damage made some step stagger


def test_compare_writes_one_finite_comparison_row(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["compare", "--preset", "mono_sine",
                     "--config", tiny_overlay(tmp_path), "--out-dir", str(out)])
    # a spent mode budget exits 3, a converged run 0; both write outputs
    assert code in (cli.EXIT_OK, cli.EXIT_NONCONVERGED)
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == ("eps_percent,latin_modes,latin_xi,latin_converged,"
                        "d_latin,d_newmark,d_gap_percent")
    assert len(lines) == 2
    row = np.array([float(x) for x in lines[1].split(",")])
    assert row.size == 7 and np.all(np.isfinite(row))
    assert row[3] == (code == cli.EXIT_OK)
    assert_step_log_corrects_every_step(out / "newmark" / "step_log.csv")


def test_spent_mode_budget_exits_3_with_outputs(tmp_path):
    overlay = tiny_overlay(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["run-latin", "--preset", "mono_sine", "--config", overlay,
                     "--out-dir", str(out)])
    assert code == cli.EXIT_NONCONVERGED
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["converged"] is False and manifest["modes"] == 1
    assert manifest["xi"] > 5e-4
    # the elastic march's K_eff and at least one space operator of the mode
    assert isinstance(manifest["factorizations"], int)
    assert manifest["factorizations"] >= 2
    assert (out / "convergence_log.csv").is_file()
    # run environment and cost
    assert isinstance(manifest["threads"], int) and manifest["threads"] >= 1
    assert manifest["numpy_version"] == np.__version__
    assert manifest["scipy_version"] == scipy.__version__
    assert manifest["peak_rss_mb"] > 0.0
    # the elastic start is part of the run: no longer than the whole log
    last = (out / "convergence_log.csv").read_text().splitlines()[-1]
    assert 0.0 < manifest["elastic_seconds"] <= float(last.split(",")[-1]) + 1e-6


def test_calibrate_rows_match_direct_runs(tmp_path):
    # calibrate assembles once and scales only the load; each row must be
    # what a Newmark run on a freshly built problem gives at that scale
    from latinpgd.config import parse_config, preset
    from latinpgd.newmark import LoadCase, newmark_quasi_newton

    overlay = tiny_overlay(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["calibrate", "--preset", "mono_sine", "--config", overlay,
                     "--bisections", "1", "--out-dir", str(out)])
    assert code == cli.EXIT_NONCONVERGED
    lines = (out / "calibration.csv").read_text().splitlines()
    assert lines[0] == "scale,amplitudes,d_max"
    conf = parse_config(overlay, base=preset("mono_sine"))
    times = conf.solver.newmark_times(conf.load.T)
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) >= 3                   # start, bracket, one bisection
    for scale, amplitudes, d_max in rows:
        _, params, system, load = cli._build_problem(conf)
        amplitudes = np.array([float(a) for a in amplitudes.split(";")])
        assert np.array_equal(amplitudes, load.amplitudes * float(scale))
        res = newmark_quasi_newton(system, params,
                                   LoadCase(amplitudes, load.frequencies), times,
                                   tol=conf.solver.newmark_tol)
        assert float(d_max) == res["d"].max()


def test_calibrate_that_misses_the_target_names_its_bracket(tmp_path, capsys):
    # One bisection leaves the tiny overlay's closest row at d_max = 0, far
    # from the target: the run fails and prints the bracket it ended with.
    code = cli.main(["calibrate", "--preset", "mono_sine",
                     "--config", tiny_overlay(tmp_path), "--bisections", "1",
                     "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_NONCONVERGED
    assert "missed the target d_max 0.4200" in err
    assert "d_max=0.0000" in err
    assert "final bracket (lo, d_lo) = (0.510204, 0.0000), (hi, d_hi) = (0.612245, " in err
