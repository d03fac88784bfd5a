"""Command-line checks: exit codes 0 (success), 2 (bad input or a failed
solve) and 3 (not converged), the table writer and the manifest."""

import hashlib
import json

import numpy as np
import pytest
import scipy

from latinpgd import assembly, cli, config
from latinpgd.material import reference_concrete, released_energy

from conftest import TINY_OVERLAY


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


@pytest.mark.parametrize("times, words", [
    ("0, 0.3, 0.2, 0.1, 0.4", "times[2] = 0.2 after times[1] = 0.3"),
    ("-0.1, 0.1, 0.2, 0.3, 0.4", "times[0] = -0.1"),
    ("0, 0.1, nan, 0.3, 0.4", "times[2] = nan"),
])
def test_signal_with_a_broken_time_axis_exits_2(tmp_path, capsys, times, words):
    rows = "".join("%s,1e-4\n" % t for t in times.split(", "))
    signal = write(tmp_path / "signal.csv", "t,eps_x\n" + rows)
    out = tmp_path / "out"
    code = cli.main(["matpoint", "--signal", signal, "--out-dir", str(out)])
    assert code == cli.EXIT_INPUT
    assert words in capsys.readouterr().err
    assert not (out / "matpoint.csv").exists()


@pytest.mark.parametrize("strain", ["nan", "inf", "-inf"])
def test_signal_with_a_non_finite_strain_exits_2(tmp_path, capsys, strain):
    rows = "0,1e-4\n0.01,2e-4\n0.02,%s\n0.03,1e-4\n" % strain
    signal = write(tmp_path / "signal.csv", "t,eps_x\n" + rows)
    out = tmp_path / "out"
    code = cli.main(["matpoint", "--signal", signal, "--out-dir", str(out)])
    assert code == cli.EXIT_INPUT
    assert "eps_x[2] = %s at t = 0.02" % strain in capsys.readouterr().err
    assert not (out / "matpoint.csv").exists()


def test_snapshot_after_the_horizon_exits_2(tmp_path, capsys):
    overlay = write(tmp_path / "late.cfg", "[load]\nT = 0.5\n"
                                           "[output]\nvtk = on\nsnapshots = 3.0\n")
    out = tmp_path / "out"
    code = cli.main(["run-latin", "--preset", "mono_sine", "--config", overlay,
                     "--out-dir", str(out)])
    assert code == cli.EXIT_INPUT
    assert "snapshots must lie in [0, T] = [0, 0.5], got 3" in capsys.readouterr().err
    assert not out.exists()


def test_an_odd_nz_the_config_refuses_leaves_no_directory(tmp_path, capsys):
    overlay = write(tmp_path / "odd.cfg", "[mesh]\nnz = 3\n")
    out = tmp_path / "out"
    code = cli.main(["run-latin", "--preset", "mono_sine", "--config", overlay,
                     "--out-dir", str(out)])
    assert code == cli.EXIT_INPUT
    assert "the line supports need an even nz" in capsys.readouterr().err
    assert not out.exists()


def test_a_run_without_preset_or_config_exits_2_before_any_directory(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run-latin", "--out-dir", str(out)])
    assert code == cli.EXIT_INPUT
    assert "provide --preset, --config, or both" in capsys.readouterr().err
    assert not out.exists()


def test_an_unknown_preset_exits_2_listing_the_presets(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run-latin", "--preset", "foo", "--out-dir", str(out)])
    assert code == cli.EXIT_INPUT
    assert ("unknown preset 'foo'; available: elastic, mono_sine, multi_sine"
            in capsys.readouterr().err)
    assert not out.exists()


def test_modal_rejects_a_zero_count_before_any_directory(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["modal", "--preset", "mono_sine", "--count", "0",
                     "--out-dir", str(out)])
    assert code == cli.EXIT_INPUT
    assert "--count must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_a_solve_that_cannot_go_on_exits_2_naming_its_step(tmp_path, capsys):
    # a load far beyond the beam's strength: the equilibrium loop diverges
    overlay = write(tmp_path / "hard.cfg",
                    "[mesh]\nnx = 4\nny = 2\nnz = 2\n"
                    "[load]\nT = 0.5\namplitudes = 0.0414\nfrequencies = 6\n"
                    "[solver]\nN_T = 10\n")
    code = cli.main(["run-newmark", "--preset", "mono_sine", "--config", overlay,
                     "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith(
        "error: equilibrium loop failed to converge at step 3")
    assert not (tmp_path / "out").exists()


def test_modal_refuses_more_modes_than_dofs_and_leaves_no_directory(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["modal", "--preset", "mono_sine", "--config", tiny_overlay(tmp_path),
                     "--count", "100000", "--out-dir", str(out)])
    assert code == cli.EXIT_INPUT
    assert "cannot extract 100000 modes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand, head", [
    ("run-latin", "error: LATIN elastic start: operator "),
    ("compare", "error: LATIN elastic start: operator "),
    ("run-newmark", "error: operator "),
])
def test_a_failed_factorization_names_its_stage_and_leaves_no_directory(
        tmp_path, capsys, monkeypatch, subcommand, head):
    def refused(self, ca, cc, ck):
        raise RuntimeError("not positive definite: banded Cholesky stopped at pivot 7")

    monkeypatch.setattr(assembly.SpatialSystem, "_banded_cholesky", refused)
    out = tmp_path / "out"
    code = cli.main([subcommand, "--preset", "mono_sine",
                     "--config", tiny_overlay(tmp_path), "--out-dir", str(out)])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(head)
    assert "on the free DOFs: not positive definite" in err
    assert not out.exists()


def test_a_run_without_modes_writes_no_mode_directory(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["run-latin", "--preset", "elastic",
                     "--config", tiny_overlay(tmp_path), "--out-dir", str(out)])
    assert code == cli.EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["modes"] == 0
    assert (out / "convergence_log.csv").is_file()
    assert not (out / "modes").exists()


def test_the_manifest_reads_the_thread_count_from_the_environment(
        tmp_path, monkeypatch):
    for name in cli._THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    out = tmp_path / "out"
    code = cli.main(["modal", "--preset", "mono_sine", "--config", tiny_overlay(tmp_path),
                     "--count", "1", "--out-dir", str(out)])
    assert code == cli.EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["threads"] == 3


def test_write_table_round_trips_floats_and_prints_integers_bare(tmp_path):
    rng = np.random.default_rng(7)
    floats = rng.normal(size=(3, 50)) * 10.0 ** rng.integers(-300, 300, size=(3, 50))
    path = tmp_path / "table.csv"
    cli._write_table(path, "k,a,b,c", "%d,%.17g,%.17g,%.17g",
                     [np.arange(50), *floats])
    lines = path.read_text().splitlines()
    assert lines[0] == "k,a,b,c" and len(lines) == 51
    assert [line.split(",")[0] for line in lines[1:]] == [str(k) for k in range(50)]
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 1:].T, floats)


def tiny_overlay(tmp_path):
    """mono_sine on a 4x2x2 mesh over 0.5 s, N_T = 10 (`TINY_OVERLAY`), a
    budget of 1 mode."""
    return write(tmp_path / "tiny.cfg", TINY_OVERLAY + "max_modes = 1\n")


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


def test_manifest_counts_the_steps_committed_undamaged(tmp_path):
    # The tiny overlay damages from step 1 on; the elastic preset on the
    # same mesh stays below the threshold, so every step is undamaged.
    counts = {}
    for preset in ("mono_sine", "elastic"):
        out = tmp_path / preset
        code = cli.main(["run-newmark", "--preset", preset,
                         "--config", tiny_overlay(tmp_path), "--out-dir", str(out)])
        assert code == cli.EXIT_OK
        assert_step_log_corrects_every_step(out / "step_log.csv")
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["max_damage"] > 0.0) == (preset == "mono_sine")
        counts[preset] = manifest["undamaged_steps"]
    assert counts == {"mono_sine": 0, "elastic": 20}


def test_step_log_counts_every_stagger_pass(tmp_path, monkeypatch):
    # each stagger pass of a damaging march ends in one damage update, a
    # `local_stage` call over the step; a run with no quiet step makes no
    # other stage call
    from latinpgd import newmark

    calls = []
    stage = newmark.local_stage

    def counted(*args, **kwargs):
        calls.append(1)
        return stage(*args, **kwargs)

    monkeypatch.setattr(newmark, "local_stage", counted)
    out = tmp_path / "out"
    code = cli.main(["run-newmark", "--preset", "mono_sine",
                     "--config", tiny_overlay(tmp_path), "--out-dir", str(out)])
    assert code == cli.EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["max_damage"] > 0.0 and manifest["undamaged_steps"] == 0
    rows = assert_step_log_corrects_every_step(out / "step_log.csv")
    assert rows[:, 3].sum() == len(calls)
    assert rows[:, 3].max() > 1             # damage made some step stagger


def test_compare_writes_one_finite_comparison_row(tmp_path, monkeypatch):
    # both solvers run on one assembled beam
    assembled = []
    for name in ("assemble_mass", "assemble_stiffness"):
        def counted(*args, _name=name, _assemble=getattr(assembly, name)):
            assembled.append(_name)
            return _assemble(*args)
        monkeypatch.setattr(assembly, name, counted)
    out = tmp_path / "out"
    code = cli.main(["compare", "--preset", "mono_sine",
                     "--config", tiny_overlay(tmp_path), "--out-dir", str(out)])
    # a spent mode budget exits 3, a converged run 0; both write outputs
    assert code in (cli.EXIT_OK, cli.EXIT_NONCONVERGED)
    assert sorted(assembled) == ["assemble_mass", "assemble_stiffness"]
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == ("eps_percent,latin_modes,latin_xi,latin_converged,"
                        "d_latin,d_newmark,d_gap_percent")
    assert len(lines) == 2
    row = np.array([float(x) for x in lines[1].split(",")])
    assert row.size == 7 and np.all(np.isfinite(row))
    assert row[3] == (code == cli.EXIT_OK)
    steps = assert_step_log_corrects_every_step(out / "newmark" / "step_log.csv")
    # both solvers' work, under the keys run-latin and run-newmark record
    manifest = json.loads((out / "manifest.json").read_text())
    assert isinstance(manifest["latin"]["factorizations"], int)
    assert manifest["latin"]["factorizations"] >= 2
    assert_enrichment_histories(manifest["latin"], row[1])
    assert (out / "latin" / "modes").is_dir()
    assert not (out / "latin" / "modes" / "manifest.json").exists()
    # damage starts at step 1, so no step is committed in a block
    assert manifest["newmark"] == {"factorizations": 1,
                                   "corrections": steps[:, 2].sum(),
                                   "passes": steps[:, 3].sum(),
                                   "undamaged_steps": 0}


@pytest.mark.parametrize("d_latin, d_newmark, gap", [
    (0.3, 0.0, np.inf), (0.0, 0.0, 0.0), (0.75, 0.5, 50.0), (0.0, 0.5, 100.0)])
def test_damage_gap_is_zero_only_when_both_peaks_are(monkeypatch, d_latin, d_newmark,
                                                     gap):
    from types import SimpleNamespace

    from latinpgd import newmark

    monkeypatch.setattr(newmark, "resample_fields_to_gauss", lambda grid, res: (0, 0))
    monkeypatch.setattr(newmark, "compare_error", lambda *fields: 1.0)
    state = SimpleNamespace(solution=SimpleNamespace(fields=lambda: (0, 0, 0)),
                            damage=np.array([[0.0, d_latin]]), n_modes=1, xi=0.1,
                            converged=False)
    row = cli._compare(None, state, {"d": np.array([[d_newmark, 0.0]])})
    assert (row["d_latin"], row["d_newmark"]) == (d_latin, d_newmark)
    assert row["d_gap_percent"] == gap


def assert_enrichment_histories(record, modes):
    """One c_c and one stagnation history per enrichment, one entry per sweep."""
    c_c, zeta = record["c_c_history"], record["zeta_history"]
    assert len(c_c) == len(zeta) == modes
    for a, b in zip(c_c, zeta):
        assert len(a) == len(b) >= 1
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))


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
    assert_enrichment_histories(manifest, 1)
    # one manifest per run: the mode directory holds only the mode CSVs
    assert sorted(p.name for p in (out / "modes").iterdir()) == [
        "mode_000_space.csv", "mode_000_time.csv"]
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
    from latinpgd.config import canonical, parse_config, preset
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
        params, system, load, _ = cli._build_problem(conf)
        amplitudes = np.array([float(a) for a in amplitudes.split(";")])
        assert np.array_equal(amplitudes, load.amplitudes * float(scale))
        res = newmark_quasi_newton(system, params,
                                   LoadCase(amplitudes, load.frequencies), times,
                                   tol=conf.solver.newmark_tol)
        assert float(d_max) == res["d"].max()
    # the manifest traces the closest row to this configuration
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "calibrate"
    assert manifest["config_sha256"] == hashlib.sha256(canonical(conf).encode()).hexdigest()
    assert manifest["rows"] == len(rows) and manifest["bisections"] == 1
    best = min(rows, key=lambda row: abs(float(row[2]) - manifest["target"]))
    assert manifest["scale"] == float(best[0]) and manifest["d_max"] == float(best[2])
    assert manifest["amplitudes"] == [float(a) for a in best[1].split(";")]
    assert manifest["met"] is False


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
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["target"] == 0.42 and manifest["met"] is False


def test_calibrate_that_meets_the_target_exits_0(tmp_path, capsys):
    # The tiny overlay peaks at d_max 0.991 at scale 1 and 0.966 at 1/1.4:
    # the second row crosses 0.97 and lies within the tolerance of it.
    out = tmp_path / "out"
    code = cli.main(["calibrate", "--preset", "mono_sine",
                     "--config", tiny_overlay(tmp_path), "--target", "0.97",
                     "--bisections", "0", "--out-dir", str(out)])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("calibrated scale 0.714286 -> amplitudes ")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["met"] is True and manifest["rows"] == 2
    assert manifest["scale"] == 1.0 / 1.4


def test_calibrate_whose_expansion_never_crosses_the_target_exits_3(tmp_path, capsys):
    # The elastic load grown 1.4^11-fold still damages no point of the tiny mesh.
    out = tmp_path / "out"
    code = cli.main(["calibrate", "--preset", "elastic",
                     "--config", tiny_overlay(tmp_path), "--bisections", "0",
                     "--out-dir", str(out)])
    assert code == cli.EXIT_NONCONVERGED
    assert ("the %d-row expansion never crossed it" % cli._CALIBRATE_ROWS
            in capsys.readouterr().err)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["met"] is False and manifest["rows"] == cli._CALIBRATE_ROWS
    assert manifest["d_max"] == 0.0


@pytest.mark.parametrize("flag, value", [("--target", "nan"), ("--target", "-0.2"),
                                         ("--target", "0"), ("--target", "1.5"),
                                         ("--target", "inf"), ("--bisections", "-3")])
def test_calibrate_rejects_an_impossible_request_before_any_march(
        tmp_path, capsys, monkeypatch, flag, value):
    from latinpgd import newmark

    marches = []
    monkeypatch.setattr(newmark, "newmark_quasi_newton",
                        lambda *args, **kwargs: marches.append(1))
    code = cli.main(["calibrate", "--preset", "mono_sine",
                     "--config", tiny_overlay(tmp_path), flag, value,
                     "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_INPUT
    assert flag in capsys.readouterr().err
    assert marches == []
    assert not (tmp_path / "out").exists()


def test_seed_comes_from_the_config_alone(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as stop:
        cli.main(["modal", "--preset", "mono_sine", "--config", tiny_overlay(tmp_path),
                  "--seed", "3", "--out-dir", str(out)])
    assert stop.value.code == cli.EXIT_INPUT
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    overlay = write(tmp_path / "seeded.cfg", "[mesh]\nnx = 4\nny = 2\nnz = 2\n"
                                             "[solver]\nseed = 3\n")
    code = cli.main(["modal", "--preset", "mono_sine", "--config", overlay,
                     "--count", "1", "--out-dir", str(out)])
    assert code == cli.EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["seed"] == 3


def read_vtk_data(path):
    """Counts of the POINT_DATA / CELL_DATA sections and their named arrays."""
    lines = path.read_text().splitlines()
    counts, arrays = {}, {}
    i = next(k for k, line in enumerate(lines) if line.startswith("POINT_DATA"))
    while i < len(lines):
        head = lines[i].split()
        i += 1
        if head[0] in ("POINT_DATA", "CELL_DATA"):
            section, n = head[0], int(head[1])
            counts[section] = n
        elif head[0] in ("VECTORS", "SCALARS"):
            if head[0] == "SCALARS":
                assert lines[i] == "LOOKUP_TABLE default"
                i += 1
            arrays[(section, head[1])] = np.loadtxt(lines[i:i + n], ndmin=1)
            i += n
    return counts, arrays


@pytest.mark.parametrize("subcommand", ["run-latin", "run-newmark"])
def test_vtk_snapshots_hold_displacement_damage_and_stress(tmp_path, subcommand):
    with open(tiny_overlay(tmp_path)) as fh:
        overlay = write(tmp_path / "vtk.cfg",
                        fh.read() + "[output]\nvtk = on\nsnapshots = 0.25, 0.5\n")
    out = tmp_path / "out"
    code = cli.main([subcommand, "--preset", "mono_sine", "--config", overlay,
                     "--out-dir", str(out)])
    assert code in (cli.EXIT_OK, cli.EXIT_NONCONVERGED)
    paths = sorted(out.glob("field_t*.vtk"))
    assert [p.name for p in paths] == ["field_t0.25.vtk", "field_t0.5.vtk"]
    # the title states the sample written: LATIN's nearest Gauss time,
    # Newmark's node, which falls on the instant asked for
    conf = config.parse_config(overlay, base=config.preset("mono_sine"))
    gauss = conf.solver.build_grid(conf.load.T).all_gauss_times
    for t_star, path in zip((0.25, 0.5), paths):
        t = gauss[np.abs(gauss - t_star).argmin()] if subcommand == "run-latin" else t_star
        assert path.read_text().splitlines()[1] == "hexahedral box mesh at t = %.17g s" % t
    n_nodes, n_elements = 5 * 3 * 3, 4 * 2 * 2
    for path in paths:
        counts, arrays = read_vtk_data(path)
        assert counts == {"POINT_DATA": n_nodes, "CELL_DATA": n_elements}
        assert sorted(arrays) == [("CELL_DATA", "damage"), ("CELL_DATA", "stress_mag"),
                                  ("POINT_DATA", "u")]
        assert arrays[("POINT_DATA", "u")].shape == (n_nodes, 3)
        damage = arrays[("CELL_DATA", "damage")]
        assert damage.shape == (n_elements,)
        assert damage.min() >= 0.0 and damage.max() <= 1.0
        stress = arrays[("CELL_DATA", "stress_mag")]
        assert stress.shape == (n_elements,) and np.all(np.isfinite(stress))
