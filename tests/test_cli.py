"""Command-line checks: exit codes 0 (success), 2 (bad input) and 3 (not converged)."""

import json

import numpy as np

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


def test_spent_mode_budget_exits_3_with_outputs(tmp_path):
    overlay = write(tmp_path / "tiny.cfg",
                    "[mesh]\nnx = 4\nny = 2\nnz = 2\n"
                    "[load]\nT = 0.5\n"
                    "[solver]\nN_T = 10\nmax_modes = 1\n")
    out = tmp_path / "out"
    code = cli.main(["run-latin", "--preset", "mono_sine", "--config", overlay,
                     "--out-dir", str(out)])
    assert code == cli.EXIT_NONCONVERGED
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["converged"] is False and manifest["modes"] == 1
    assert manifest["xi"] > 5e-4
    assert (out / "convergence_log.csv").is_file()
