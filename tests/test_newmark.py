"""Marching-solver checks: load signals, elastic limits, damage, comparison."""

from dataclasses import replace

import numpy as np
import pytest

from latinpgd import cli, material, newmark, timegrid
from latinpgd.assembly import (SpatialSystem, assemble_mass, assemble_stiffness,
                               internal_force, modal_analysis, rayleigh_coeffs,
                               strain_at_gauss)
from latinpgd.config import preset
from latinpgd.latin import elastic_solution
from latinpgd.material import (DamageCorrection, DamageState, integrate_delay,
                               reference_concrete, released_energy,
                               static_damage, total_stress)
from latinpgd.mesh import generate_box_mesh
from latinpgd.newmark import (LoadCase, compare_error, newmark_quasi_newton,
                              resample_fields_to_gauss)
from latinpgd.timegrid import TimeGrid, quad_resample_blocks, spatial_blocks

from conftest import tiny_config

PARAMS = reference_concrete()
HOOKE = PARAMS.hooke()


def build_system(mesh, damping=False):
    M = assemble_mass(mesh, PARAMS.rho)
    K = assemble_stiffness(mesh, HOOKE)
    C = None
    if damping:
        alpha, beta = rayleigh_coeffs(PARAMS.xi, 8.99, 45.8)
        C = alpha * M + beta * K
    return SpatialSystem(mesh, M, K, C)


def cube_system():
    return build_system(generate_box_mesh(1.0, 1.0, 1.0, 2, 2, 2))


def desk_system():
    return build_system(generate_box_mesh(8.0, 0.3, 0.3, 16, 2, 2), damping=True)


class SmoothStep:
    """Support motion g = A/2 (1 - cos(pi t / t_b)) up to t_b, then A.

    A C^1 alternative to the sine signal; also exercises the duck-typed
    load protocol (anything with prescribed_motion works).
    """

    def __init__(self, amp, t_b):
        self.amp, self.t_b = amp, t_b

    def prescribed_motion(self, mesh, times):
        t = np.asarray(times, dtype=float)
        w = np.pi / self.t_b
        ramp = t < self.t_b
        g = np.where(ramp, 0.5 * self.amp * (1.0 - np.cos(w * t)), self.amp)
        gd = np.where(ramp, 0.5 * self.amp * w * np.sin(w * t), 0.0)
        gdd = np.where(ramp, 0.5 * self.amp * w * w * np.cos(w * t), 0.0)
        vertical = mesh.prescribed_dofs % 3 == 2
        out = []
        for s in (g, gd, gdd):
            f = np.zeros((mesh.prescribed_dofs.size, t.size))
            f[vertical] = s
            out.append(f)
        return tuple(out)


class TestLoadCase:
    def test_signal_closed_forms_match_finite_differences(self):
        rng = np.random.default_rng(11)
        t = np.linspace(0.0, 3.0, 2001)
        h = t[1] - t[0]
        for _ in range(20):
            n = rng.integers(1, 4)
            load = LoadCase(rng.uniform(0.1, 2.0, n), rng.uniform(0.2, 4.0, n))
            g, gd, gdd = load.signal(t)
            assert np.allclose(np.gradient(g, h)[2:-2], gd[2:-2],
                               atol=1e-3 * np.abs(gd).max())
            assert np.allclose(np.gradient(gd, h)[2:-2], gdd[2:-2],
                               atol=1e-3 * np.abs(gdd).max())

    def test_signal_at_zero(self):
        load = LoadCase(np.array([0.3, 0.1]), np.array([1.0, 5.0]))
        g, gd, gdd = load.signal(np.array([0.0]))
        assert g[0] == 0.0
        assert gd[0] == pytest.approx(2 * np.pi * (0.3 * 1.0 + 0.1 * 5.0))
        assert gdd[0] == 0.0

    def test_rejects_mismatched_components(self):
        for amplitudes, frequencies in (([1.0, 2.0], [1.0]), ([1.0], []), ([], [])):
            with pytest.raises(ValueError, match="non-empty matching 1d lists"):
                LoadCase(np.array(amplitudes), np.array(frequencies))

    def test_rejects_nonpositive_frequency(self):
        for f in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match=r"frequencies\[1\] must be finite and "
                                                 r"positive, got %g" % f):
                LoadCase(np.array([1.0, 1.0]), np.array([2.0, f]))

    def test_rejects_non_finite_amplitude(self):
        for a in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError,
                               match=r"amplitudes\[1\] must be finite, got %g" % a):
                LoadCase(np.array([1.0, a]), np.array([2.0, 3.0]))

    def test_prescribed_motion_moves_vertical_rows_only(self):
        mesh = generate_box_mesh(1.0, 1.0, 1.0, 2, 2, 2)
        load = LoadCase(np.array([1e-3]), np.array([2.0]))
        t = np.linspace(0.0, 1.0, 11)
        u_p, v_p, a_p = load.prescribed_motion(mesh, t)
        assert u_p.shape == (mesh.prescribed_dofs.size, t.size)
        vertical = mesh.prescribed_dofs % 3 == 2
        assert np.all(u_p[~vertical] == 0.0)
        assert np.all(v_p[~vertical] == 0.0)
        g, gd, _ = load.signal(t)
        assert np.allclose(u_p[vertical], g)
        assert np.allclose(v_p[vertical], gd)
        assert np.allclose(a_p[vertical][:, 0], 0.0)


class TestElasticLimits:
    def test_quasi_static_limit_matches_static_solve(self):
        # forcing period 20 s vs cube first period ~1.4 ms: evaluate at the
        # signal peak (quarter period) against the static elastic solve
        system = cube_system()
        mesh = system.mesh
        f_slow, amp = 0.05, 1e-4
        times = np.linspace(0.0, 5.0, 2001)
        res = newmark_quasi_newton(system, PARAMS,
                                   LoadCase(np.array([amp]), np.array([f_slow])),
                                   times, damage=False)
        u_p = np.zeros(mesh.prescribed_dofs.size)
        u_p[mesh.prescribed_dofs % 3 == 2] = amp * np.sin(2 * np.pi * f_slow * 5.0)
        u_stat = system.solve_free(0.0, 0.0, 1.0, -system.Kfp @ u_p)
        gap = (np.linalg.norm(res["u"][mesh.free_dofs, -1] - u_stat)
               / np.linalg.norm(u_stat))
        assert gap < 5e-4  # measured 6.55e-5

    def test_energy_conserved_through_ringdown(self):
        # smooth support step, then free vibration: with no damping the
        # discrete energy must drift by far less than 0.1% over ten periods
        system = cube_system()
        f1 = modal_analysis(system.Mff, system.Kff, 1)[0][0]
        t_b = 2.0 / f1
        T = t_b + 10.0 / f1
        n = int(round(T * f1 * 40))
        times = np.linspace(0.0, T, n + 1)
        res = newmark_quasi_newton(system, PARAMS, SmoothStep(1e-4, t_b), times,
                                   damage=False)
        M, K = system.M.toarray(), system.K.toarray()
        energy = (0.5 * np.einsum("it,ij,jt->t", res["v"], M, res["v"])
                  + 0.5 * np.einsum("it,ij,jt->t", res["u"], K, res["u"]))
        ring = energy[times >= t_b]
        assert np.ptp(ring) / ring.mean() < 1e-3  # measured ~1e-11

    def test_elastic_steps_need_one_correction(self):
        system = cube_system()
        times = np.linspace(0.0, 0.01, 41)
        res = newmark_quasi_newton(system, PARAMS,
                                   LoadCase(np.array([1e-7]), np.array([100.0])),
                                   times, damage=False)
        assert res["info"]["iterations"].max() == 1
        assert res["info"]["factorizations"] == 1

    def test_histories_are_step_major_views(self):
        # u, v and a of a step are contiguous rows of the march's buffers;
        # the results are their (n_dofs, n_t) transposes.
        system = cube_system()
        times = np.linspace(0.0, 0.01, 41)
        load = LoadCase(np.array([1e-7]), np.array([100.0]))
        for damage in (True, False):
            res = newmark_quasi_newton(system, PARAMS, load, times, damage=damage)
            for field in "uva":
                assert res[field].shape == (system.mesh.n_dofs, times.size)
                assert res[field].T.flags.c_contiguous

    def test_initial_fields_match_initial_support_position(self):
        system = cube_system()
        times = np.linspace(0.0, 0.01, 11)
        load = LoadCase(np.array([1e-6]), np.array([50.0]))
        res = newmark_quasi_newton(system, PARAMS, load, times, damage=False)
        # sine starts at zero support displacement and the body at rest
        assert np.all(res["u"][:, 0] == 0.0)
        # the Gauss-point fields come from a sub-threshold damaging run
        on = newmark_quasi_newton(system, PARAMS, load, times, damage=True)
        assert on["d"].max() == 0.0
        assert np.all(on["u"][:, 0] == 0.0)
        assert np.all(on["eps"][:, 0] == 0.0)
        assert np.all(on["sig"][:, 0] == 0.0)

    def test_elastic_march_does_no_gauss_point_work(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("Gauss-point work in the elastic march")

        for name in ("strain_at_gauss", "total_stress", "internal_force",
                     "local_stage"):
            monkeypatch.setattr(newmark, name, forbidden)
        system = build_system(cube_system().mesh, damping=True)
        times = np.linspace(0.0, 0.01, 41)
        res = newmark_quasi_newton(system, PARAMS,
                                   LoadCase(np.array([1e-7]), np.array([100.0])),
                                   times, damage=False)
        assert np.all(np.isfinite(res["u"])) and np.abs(res["u"]).max() > 0.0
        assert not {"eps", "sig", "d"} & set(res)
        assert res["info"]["iterations"].min() >= 1
        assert np.all(res["info"]["passes"] == 1)


def test_elastic_march_matches_a_dense_reference_march():
    # The same recurrence with dense matrices: u = pred_u - K_eff^-1 h,
    # h = K pred_u + C pred_v + f_sup, then a and v from u.
    system = build_system(cube_system().mesh, damping=True)
    mesh = system.mesh
    free, presc = mesh.free_dofs, mesh.prescribed_dofs
    times = np.linspace(0.0, 0.01, 41)
    load = LoadCase(np.array([1e-7]), np.array([100.0]))
    res = newmark_quasi_newton(system, PARAMS, load, times, damage=False)

    dt = times[1] - times[0]
    beta, gamma = newmark.NEWMARK_BETA, newmark.NEWMARK_GAMMA
    ca, cc = 1.0 / (beta * dt * dt), gamma / (beta * dt)
    M, C, K = (A.toarray() for A in (system.M, system.C, system.K))
    ff, fp = np.ix_(free, free), np.ix_(free, presc)
    K_eff = ca * M[ff] + cc * C[ff] + K[ff]
    u_p, v_p, a_p = load.prescribed_motion(mesh, times)
    f_sup = M[fp] @ a_p + C[fp] @ v_p + K[fp] @ u_p
    ref = {name: np.zeros((mesh.n_dofs, times.size)) for name in "uva"}
    for name, prescribed in zip("uva", (u_p, v_p, a_p)):
        ref[name][presc] = prescribed
    u_f, v_f, a_f = (np.zeros(free.size) for _ in range(3))
    for k in range(1, times.size):
        pred_u = u_f + dt * v_f + dt * dt * (0.5 - beta) * a_f
        pred_v = v_f + dt * (1.0 - gamma) * a_f
        h = K[ff] @ pred_u + C[ff] @ pred_v + f_sup[:, k]
        u_f = pred_u - np.linalg.solve(K_eff, h)
        a_f = ca * (u_f - pred_u)
        v_f = pred_v + gamma * dt * a_f
        for name, value in zip("uva", (u_f, v_f, a_f)):
            ref[name][free, k] = value
    assert np.abs(ref["u"]).max() > 0.0
    for name in "uva":
        assert (np.linalg.norm(res[name] - ref[name])
                <= 1e-12 * np.linalg.norm(ref[name])), name


def test_elastic_march_converges_at_second_order_in_dt():
    # mono_sine on a 4x2x2 mesh over 0.5 s, N_T = 100, 200, 400, 800 (the
    # step is T / (2 N_T)): the relative gap in u between successive
    # halvings, at the coarse run's nodes, falls by about 4 each time
    # (measured 2.23e-2, 6.08e-3, 1.53e-3: ratios 3.67 and 3.97).
    conf = preset("mono_sine")
    conf = replace(conf, mesh=replace(conf.mesh, nx=4, ny=2, nz=2),
                   load=replace(conf.load, T=0.5))
    params, system, load, _ = cli._build_problem(conf)
    runs = [newmark_quasi_newton(system, params, load,
                                 np.linspace(0.0, conf.load.T, 2 * n + 1),
                                 damage=False, tol=1e-9)["u"]
            for n in (100, 200, 400, 800)]
    gaps = [np.linalg.norm(coarse - fine[:, ::2]) / np.linalg.norm(fine[:, ::2])
            for coarse, fine in zip(runs, runs[1:])]
    assert gaps[0] / gaps[1] >= 3.4
    assert gaps[1] / gaps[2] >= 3.4


def assert_gauss_fields_of_elastic_march(res, mesh):
    """eps is the strain of u and sig = E : eps at every node of a run.

    Holds for a damaging run that stayed below the threshold; compares the
    per-node strain within round-off (it is sampled per step, not batched)
    and the stress bit for bit.
    """
    eps_u = strain_at_gauss(mesh, res["u"])
    np.testing.assert_allclose(res["eps"], eps_u, rtol=0.0,
                               atol=1e-12 * np.abs(eps_u).max())
    for k in range(res["times"].size):
        assert np.array_equal(res["sig"][:, k], HOOKE.apply(res["eps"][:, k]))


class TestDamageCommitment:
    def test_sub_threshold_run_is_bitwise_elastic(self):
        # strains stay below the damage threshold for the whole realized
        # trajectory, so the damage machinery must not alter a single bit --
        # in particular no equilibrium iterate may bootstrap a spurious
        # damaged solution branch (amplitude chosen just under the onset).
        # Every step is quiet; a march of one step is a run of one quiet
        # step, whose stress must also be E : eps of its strain bit for bit.
        system = desk_system()
        load = LoadCase(np.array([0.0070]), np.array([3.0]))
        for n_t in (201, 2):
            times = np.linspace(0.0, 0.01 * (n_t - 1), n_t)
            on = newmark_quasi_newton(system, PARAMS, load, times, damage=True)
            off = newmark_quasi_newton(system, PARAMS, load, times, damage=False)
            assert on["d"].max() == 0.0
            for field in ("u", "v", "a"):
                assert np.array_equal(on[field], off[field])
            assert np.array_equal(on["info"]["iterations"],
                                  off["info"]["iterations"])
            assert_gauss_fields_of_elastic_march(on, system.mesh)

    def test_sub_threshold_bit_identity_on_cube(self):
        # a long run of quiet steps and a run of one
        system = cube_system()
        load = LoadCase(np.array([1e-7]), np.array([100.0]))
        for n_t in (41, 2):
            times = np.linspace(0.0, 2.5e-4 * (n_t - 1), n_t)
            on = newmark_quasi_newton(system, PARAMS, load, times, damage=True)
            off = newmark_quasi_newton(system, PARAMS, load, times, damage=False)
            assert on["d"].max() == 0.0
            for field in ("u", "v", "a"):
                assert np.array_equal(on[field], off[field])
            assert_gauss_fields_of_elastic_march(on, system.mesh)

    def test_sub_threshold_run_integrates_no_delay_law(self, monkeypatch):
        # no target and no damage anywhere: d stays exactly zero without
        # integrating the delay law
        def no_delay(*args, **kwargs):
            raise AssertionError("delay law integrated without damage")

        system = cube_system()
        times = np.linspace(0.0, 0.01, 41)
        load = LoadCase(np.array([1e-7]), np.array([100.0]))
        ref = newmark_quasi_newton(system, PARAMS, load, times, damage=True)
        monkeypatch.setattr(material, "integrate_delay", no_delay)
        res = newmark_quasi_newton(system, PARAMS, load, times, damage=True)
        assert not res["d"].any()
        for field in ("u", "eps", "sig", "d"):
            assert np.array_equal(res[field], ref[field])

    def test_first_pass_corrects_before_testing(self):
        # Under a loose tolerance the first step's trial point (the body at
        # rest) already passes the residual test: |f_sup| at t = dt is about
        # 0.16 of its largest value.  The step must still be solved.
        system = cube_system()
        times = np.linspace(0.0, 0.01, 41)
        load = LoadCase(np.array([1e-7]), np.array([100.0]))
        loose = newmark_quasi_newton(system, PARAMS, load, times, tol=0.2)
        assert loose["info"]["iterations"].min() >= 1
        # one correction of the elastic operator solves an undamaged step
        # exactly, so the loose run is the tight run
        tight = newmark_quasi_newton(system, PARAMS, load, times)
        np.testing.assert_allclose(loose["u"], tight["u"], rtol=0.0,
                                   atol=1e-12 * np.abs(tight["u"]).max())

    def test_one_strain_per_pass(self, monkeypatch):
        # At a damaged state every residual samples the strain of its trial
        # displacement, and the pass's last one is its converged strain; a
        # staggered pass at an undamaged state samples it once after
        # converging, and a step's first pass there is sampled by the onset
        # test.  Damage starts at step 1 here, so no step is quiet, and no
        # solve is spent on a step the march does not keep.
        conf = tiny_config()
        params, system, load, _ = cli._build_problem(conf)
        events = []

        def spy(name, fn, record):
            def wrapped(*args, **kwargs):
                events.append(record(*args, **kwargs))
                return fn(*args, **kwargs)
            monkeypatch.setattr(newmark, name, wrapped)

        spy("strain_at_gauss", newmark.strain_at_gauss, lambda mesh, u: "strain")
        spy("_free_force", newmark._free_force,
            lambda system, f_p, eps, correction:
            "residual" if correction is None else "damaged residual")
        spy("local_stage", newmark.local_stage, lambda *a, **kw: "pass end")
        solve = system.solve_free
        solves = []

        def counted_solve(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(system, "solve_free", counted_solve)
        res = newmark_quasi_newton(system, params, load,
                                   conf.solver.newmark_times(conf.load.T),
                                   tol=conf.solver.newmark_tol)
        assert res["d"].max() > 0.1
        passes = " ".join(events).split("pass end")[:-1]
        undamaged = sum("damaged residual" not in p for p in passes)
        damaged = events.count("damaged residual")
        assert len(passes) == res["info"]["passes"].sum()
        assert undamaged > 0 and damaged > 0
        assert res["info"]["undamaged_steps"] == 0
        assert len(solves) == res["info"]["iterations"].sum()
        # the pass residuals, plus the t = 0 sample
        assert events.count("strain") == damaged + undamaged + 1

    def test_damage_starts_at_the_first_step_whose_own_strain_sets_a_target(self):
        # A support sine at the desk beam's first natural frequency builds
        # up until damage starts after a long run of quiet steps.  The march
        # tests each step's own strain, so the first damaged step is the
        # first whose stored strain sets a target, and every step before it
        # is quiet: elastic fields, stress written in one batch.
        system = desk_system()
        f1 = modal_analysis(system.Mff, system.Kff, 1)[0][0]
        times = np.linspace(0.0, 0.3, 61)
        load = LoadCase(np.array([4e-4]), np.array([f1]))
        res = newmark_quasi_newton(system, PARAMS, load, times)
        onset = int(np.flatnonzero(res["d"].any(axis=0))[0])
        assert 2 < onset < times.size - 1
        assert res["info"]["undamaged_steps"] == onset - 1
        targets = [static_damage(released_energy(res["eps"][:, k], HOOKE, PARAMS.Y0),
                                 PARAMS).any() for k in range(onset + 1)]
        assert targets.index(True) == onset
        assert res["info"]["passes"][onset - 1] > 1
        quiet = {key: res[key][:, :onset] for key in ("u", "eps", "sig")}
        assert_gauss_fields_of_elastic_march(dict(quiet, times=times[:onset]),
                                             system.mesh)
        # The onset step's stress comes from its stored strain, its damage
        # and the tension peaks replayed on the stored strains: the earliest
        # strict maximum of tr eps since the start, where it is positive.
        eps = res["eps"][:, 1:onset + 1]
        tr = eps[..., :3].sum(axis=-1)
        top = tr.argmax(axis=1)
        points = np.arange(tr.shape[0])
        tr_max = np.maximum(tr[points, top], 0.0)
        eps_max = np.where((tr_max > 0.0)[:, None], eps[points, top], 0.0)
        correction = DamageCorrection(res["d"][:, onset], tr_max,
                                      lambda flat: eps_max[flat], PARAMS, HOOKE)
        assert np.array_equal(res["sig"][:, onset],
                              total_stress(res["eps"][:, onset], HOOKE, correction))

    @pytest.mark.parametrize("name, pinned", [("mono_sine", 0.423366),
                                              ("multi_sine", 0.420903)],
                             ids=["mono_sine", "multi_sine"])
    def test_calibrated_run_lands_in_damage_band(self, name, pinned):
        # The preset's support signal at its calibrated amplitudes
        # (config.MONO_SINE_AMPLITUDE, config.MULTI_SINE_AMPLITUDE) on its
        # Newmark time nodes: the largest damage on the desk mesh must sit
        # in the 0.40-0.45 band.  The pinned value is the one `latinpgd
        # calibrate --preset <name>` reports at the calibrated scale
        # (calibration.csv: d_max = 0.42336609776512463 for mono_sine at
        # scale 1, 0.42090280955165998 for multi_sine at 0.554847).
        conf = preset(name)
        times = conf.solver.newmark_times(conf.load.T)
        load = LoadCase(np.array(conf.load.amplitudes),
                        np.array(conf.load.frequencies))
        res = newmark_quasi_newton(desk_system(), PARAMS, load, times,
                                   tol=conf.solver.newmark_tol)
        d = res["d"]
        assert d.max() == pytest.approx(pinned, abs=1e-4)
        assert 0.40 <= d.max() <= 0.45
        assert res["info"]["factorizations"] == 1
        # damage is a non-decreasing, bounded history at every point
        assert np.all(np.diff(d, axis=1) >= 0.0)
        assert d.min() >= 0.0 and d.max() <= 1.0
        # the pinned damage is the material law's answer on the committed
        # strain, not an artifact of the stagger loop: integrating the delay
        # law one node pair at a time from d = 0, towards the quasi-static
        # damage of the stored strain, reproduces it to round-off
        dbar = static_damage(released_energy(res["eps"], HOOKE), PARAMS)
        dt = times[1] - times[0]
        replay = np.zeros_like(d)
        for k in range(1, times.size):
            replay[:, k] = integrate_delay(np.array([0.0, dt]),
                                           dbar[:, k - 1:k + 1],
                                           replay[:, k - 1], PARAMS)[:, 1]
        np.testing.assert_allclose(replay, d, rtol=0.0, atol=1e-12)

    def test_nonconvergence_reports_step(self, monkeypatch):
        system = desk_system()
        times = np.linspace(0.0, 2.0, 201)
        load = LoadCase(np.array([0.02]), np.array([3.0]))
        monkeypatch.setattr(newmark, "_MAX_ITER", 4)
        with pytest.raises(RuntimeError, match="step 4"):
            newmark_quasi_newton(system, PARAMS, load, times)


class TestSplitForce:
    """The residual's internal force: K u plus a damaged-element correction."""

    @staticmethod
    def random_state(mesh, rng):
        """Random strain-scale displacement and a frozen damage state.

        Half of the elements carry damage; inside them d mixes 0 and (0, 1].
        """
        full = rng.normal(size=mesh.n_dofs) * 1e-5
        d = rng.uniform(0.0, 1.0, mesh.gp_weights.shape)
        d[rng.random(d.shape) < 0.5] = 0.0
        d[rng.permutation(mesh.n_elements)[: mesh.n_elements // 2]] = 0.0
        d = d.ravel()
        d[:3] = (1.0, 0.5, 1e-9)           # the ends of (0, 1] and a tiny value
        eps_max = rng.normal(size=(mesh.n_gauss, 6)) * 1e-4
        eps_max[:, :3] = np.abs(eps_max[:, :3])      # tr(eps_max) > 0: a history
        eps_max[1] = 0.0                             # damaged, no tension history
        return full, DamageState(d, np.zeros_like(d), eps_max, eps_max[:, :3].sum(axis=-1))

    @staticmethod
    def correction(state):
        """The kernel the march builds for `state` (None without damage)."""
        return state.correction(PARAMS, HOOKE)

    def test_equals_integrated_total_stress(self):
        system = build_system(generate_box_mesh(2.0, 0.5, 0.5, 4, 2, 2))
        mesh, free, presc = system.mesh, system.free, system.prescribed
        full, state = self.random_state(mesh, np.random.default_rng(11))
        damaged = state.d.reshape(mesh.n_elements, -1).any(axis=1)
        assert 0 < damaged.sum() < mesh.n_elements
        correction = self.correction(state)
        assert isinstance(correction, DamageCorrection)
        f = system.Kff @ full[free] + newmark._free_force(
            system, system.Kfp @ full[presc], strain_at_gauss(mesh, full), correction)
        sig = total_stress(strain_at_gauss(mesh, full), HOOKE, correction)
        ref = internal_force(mesh, sig)[free]
        np.testing.assert_allclose(f, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())

    def test_is_bitwise_stiffness_product_without_damage(self):
        # without damage nothing is added to the elastic force K u
        system = build_system(generate_box_mesh(2.0, 0.5, 0.5, 4, 2, 2))
        mesh, free, presc = system.mesh, system.free, system.prescribed
        full, state = self.random_state(mesh, np.random.default_rng(12))
        state.d[:] = 0.0
        assert self.correction(state) is None
        f_p = system.Kfp @ full[presc]
        f = system.Kff @ full[free] + newmark._free_force(system, f_p, None,
                                                          self.correction(state))
        assert np.array_equal(f, system.Kff @ full[free] + f_p)

    def test_one_operator_residual_equals_the_three_matrix_form(self):
        # K_eff (u - pred_u) + h with h built once per step is the residual
        # force M a + C v + K u + f_sup plus the damage correction, for the
        # a and v that the average-acceleration scheme ties to u; and the
        # first correction from the predictor, pred_u - K_eff^-1 F(u), is
        # u + K_eff^-1 r0 with r0 the negated residual force at u.
        system = build_system(generate_box_mesh(1.0, 1.0, 1.0, 2, 2, 2),
                              damping=True)
        mesh, free = system.mesh, system.free
        rng = np.random.default_rng(13)
        full, state = self.random_state(mesh, rng)
        assert state.d.any()
        u = full[free]
        pred_u = u + rng.normal(size=u.size) * 1e-6
        pred_v = rng.normal(size=u.size) * 1e-3
        f_sup = rng.normal(size=u.size) * 1e3
        dt = 1e-3
        ca = 1.0 / (newmark.NEWMARK_BETA * dt * dt)
        cc = newmark.NEWMARK_GAMMA / (newmark.NEWMARK_BETA * dt)
        a = ca * (u - pred_u)
        v = pred_v + newmark.NEWMARK_GAMMA * dt * a
        eps = strain_at_gauss(mesh, full)
        correction = self.correction(state)
        sig = total_stress(eps, HOOKE, correction)
        ref = (system.Mff @ a + system.Cff @ v + system.Kff @ u + f_sup
               + internal_force(mesh, sig - HOOKE.apply(eps))[free])
        h = system.Kff @ pred_u + f_sup + system.Cff @ pred_v
        force = newmark._free_force(system, h, eps, correction)
        got = system.operator(ca, cc, 1.0) @ (u - pred_u) + force
        np.testing.assert_allclose(got, ref, rtol=0.0,
                                   atol=1e-12 * np.abs(ref).max())
        from_predictor = pred_u - system.solve_free(ca, cc, 1.0, force)
        from_u = u + system.solve_free(ca, cc, 1.0, -got)
        np.testing.assert_allclose(from_predictor, from_u, rtol=0.0,
                                   atol=1e-12 * np.abs(from_u).max())

    def test_undamaged_marches_integrate_no_full_mesh_force(self, monkeypatch):
        # The elastic part of the residual comes from K; the Gauss points are
        # integrated only once a point is damaged.  An elastic march and a
        # sub-threshold damaging one must never integrate an internal force.
        def no_force(mesh, sig):
            raise AssertionError("internal force integrated in an undamaged march")

        monkeypatch.setattr(newmark, "internal_force", no_force)
        system = cube_system()
        times = np.linspace(0.0, 0.01, 41)
        load = LoadCase(np.array([1e-7]), np.array([100.0]))
        off = newmark_quasi_newton(system, PARAMS, load, times, damage=False)
        on = newmark_quasi_newton(system, PARAMS, load, times, damage=True)
        assert on["d"].max() == 0.0
        assert np.array_equal(on["u"], off["u"])


class TestValidation:
    def test_rejects_nonzero_start(self):
        system = cube_system()
        with pytest.raises(ValueError):
            newmark_quasi_newton(system, PARAMS,
                                 LoadCase(np.array([1e-6]), np.array([1.0])),
                                 np.linspace(0.5, 1.0, 11))

    def test_rejects_nonuniform_times(self):
        system = cube_system()
        times = np.array([0.0, 0.1, 0.25, 0.3])
        with pytest.raises(ValueError):
            newmark_quasi_newton(system, PARAMS,
                                 LoadCase(np.array([1e-6]), np.array([1.0])),
                                 times)

    def test_rejects_single_node(self):
        system = cube_system()
        with pytest.raises(ValueError):
            newmark_quasi_newton(system, PARAMS,
                                 LoadCase(np.array([1e-6]), np.array([1.0])),
                                 np.array([0.0]))

    @pytest.mark.parametrize("tol", [0.0, -1e-4, np.nan, np.inf])
    def test_rejects_a_tolerance_that_is_not_finite_and_positive(self, tol):
        system = cube_system()
        with pytest.raises(ValueError, match="tol"):
            newmark_quasi_newton(system, PARAMS,
                                 LoadCase(np.array([1e-6]), np.array([1.0])),
                                 np.linspace(0.0, 0.01, 11), tol=tol)


class TestResample:
    def test_shapes_and_constant_fields(self):
        system = cube_system()
        grid = TimeGrid(0.02, 5)
        times = np.linspace(0.0, 0.02, 11)
        res = newmark_quasi_newton(system, PARAMS,
                                   LoadCase(np.array([1e-7]), np.array([10.0])),
                                   times, damage=True)
        assert res["d"].max() == 0.0
        eps_g, sig_g = resample_fields_to_gauss(grid, res)
        assert eps_g.shape == (system.mesh.n_gauss, grid.n_gauss, 6)
        assert sig_g.shape == eps_g.shape
        # a time-constant history resamples exactly (cubic fit of a constant)
        res_const = dict(res)
        res_const["eps"] = np.repeat(res["eps"][:, :1], times.size, axis=1)
        res_const["sig"] = np.repeat(res["sig"][:, :1], times.size, axis=1)
        eps_c, _ = resample_fields_to_gauss(grid, res_const)
        assert np.allclose(eps_c[:], res["eps"][:, :1], atol=1e-14)

    def test_rejects_mismatched_grid(self):
        system = cube_system()
        times = np.linspace(0.0, 0.02, 11)
        res = newmark_quasi_newton(system, PARAMS,
                                   LoadCase(np.array([1e-7]), np.array([10.0])),
                                   times, damage=True)
        with pytest.raises(ValueError, match="nodes"):
            resample_fields_to_gauss(TimeGrid(0.02, 4), res)
        with pytest.raises(ValueError, match="nodes"):
            resample_fields_to_gauss(TimeGrid(0.04, 5), res)

    def test_rejects_an_elastic_march(self):
        # the elastic march stores no Gauss-point fields to resample
        system = cube_system()
        times = np.linspace(0.0, 0.02, 11)
        res = newmark_quasi_newton(system, PARAMS,
                                   LoadCase(np.array([1e-7]), np.array([10.0])),
                                   times, damage=False)
        with pytest.raises(ValueError, match="no Gauss-point fields"):
            resample_fields_to_gauss(TimeGrid(0.02, 5), res)


@pytest.fixture(scope="module")
def tiny_reference():
    """mono_sine on a 4x2x2 mesh over 0.5 s with N_T = 10 (`TINY_OVERLAY`):
    the damaging reference run, its grid and LATIN's elastic start
    (eps, sig) on it."""
    conf = tiny_config()
    params, system, load, grid = cli._build_problem(conf)
    res = newmark_quasi_newton(system, params, load,
                               conf.solver.newmark_times(conf.load.T),
                               tol=conf.solver.newmark_tol)
    el = elastic_solution(system, params, load, grid)
    return grid, res, el["eps"], el["sig"]


def eager_compare(eps_ref, sig_ref, eps, sig):
    """compare_error's sums over whole arrays, block by block in order."""
    den_e = den_s = num_e = num_s = 0.0
    for s in spatial_blocks(eps_ref):
        den_e += np.vdot(eps_ref[s], eps_ref[s])
        den_s += np.vdot(sig_ref[s], sig_ref[s])
        num_e += np.vdot(eps[s] - eps_ref[s], eps[s] - eps_ref[s])
        num_s += np.vdot(sig[s] - sig_ref[s], sig[s] - sig_ref[s])
    return 100.0 * np.sqrt(num_s / den_s + num_e / den_e)


class TestStreamedComparison:
    def test_views_are_the_eager_resample_bit_for_bit(self, tiny_reference,
                                                      monkeypatch):
        grid, res, eps, sig = tiny_reference
        assert res["d"].max() > 0.1
        eps_g = quad_resample_blocks(grid, res["eps"])
        sig_g = quad_resample_blocks(grid, res["sig"])
        eps_v, sig_v = resample_fields_to_gauss(grid, res)
        assert eps_v.shape == sig_v.shape == eps_g.shape == eps.shape
        assert len(eps_v) == len(sig_v) == len(eps_g)
        assert np.array_equal(eps_v[:], eps_g) and np.array_equal(sig_v[:], sig_g)
        want = eager_compare(eps_g, sig_g, eps, sig)
        assert np.isfinite(want) and want > 0.0
        assert compare_error(eps_v, sig_v, eps, sig) == want
        # Small blocks: the field spans many of them, each resampled alone.
        monkeypatch.setattr(timegrid, "_BLOCK_BYTES", 1 << 13)
        blocks = spatial_blocks(eps)
        assert len(blocks) > 10
        for s in blocks:
            assert np.array_equal(eps_v[s], eps_g[s])
            assert np.array_equal(sig_v[s], sig_g[s])
        assert (compare_error(eps_v, sig_v, eps, sig)
                == eager_compare(eps_g, sig_g, eps, sig))

    def test_a_nan_in_the_reference_gives_a_non_finite_error(self, tiny_reference):
        grid, res, eps, sig = tiny_reference
        broken = dict(res, eps=res["eps"].copy())
        broken["eps"][50, 7, 2] = np.nan
        assert not np.isfinite(
            compare_error(*resample_fields_to_gauss(grid, broken), eps, sig))

    def test_no_whole_reference_field_is_formed(self, tiny_reference, monkeypatch):
        # Blocks are shrunk so the tiny field spans many of them, as a large
        # field does at the default sizes.  The tracemalloc peak is a few
        # blocks (one block's four sums' operands next to the next block's
        # resampling): measured 0.259 of one reference field, against 2.11
        # when both reference fields were resampled whole.
        import tracemalloc

        grid, res, eps, sig = tiny_reference
        monkeypatch.setattr(timegrid, "_BLOCK_BYTES", 1 << 13)
        field = eps.nbytes
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            err = compare_error(*resample_fields_to_gauss(grid, res), eps, sig)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(err)
        assert (peak - start) / field <= 0.3

    def test_a_view_is_read_by_spatial_slices_only(self, tiny_reference):
        grid, res, _, _ = tiny_reference
        view = resample_fields_to_gauss(grid, res)[0]
        for key in (0, np.int64(3), np.arange(3), [0, 1],
                    (slice(None), 0), Ellipsis):
            with pytest.raises(TypeError, match="spatial slices"):
                view[key]
        with pytest.raises(TypeError, match="not formed whole"):
            np.asarray(view)
        assert view[2:5].shape == (3,) + view.shape[1:]


class TestCompareError:
    def test_identical_fields_give_zero(self):
        rng = np.random.default_rng(3)
        e = rng.normal(size=(10, 7, 6))
        s = rng.normal(size=(10, 7, 6))
        assert compare_error(e, s, e, s) == 0.0

    def test_uniform_one_percent_scale(self):
        # fields at 1.01x the reference: 100 * sqrt(2) * 0.01 / 1.01
        rng = np.random.default_rng(4)
        e = rng.normal(size=(40, 16, 6))
        s = rng.normal(size=(40, 16, 6))
        err = compare_error(1.01 * e, 1.01 * s, e, s)
        assert err == pytest.approx(1.400211447894155, rel=1e-12)
        assert err == pytest.approx(100.0 * np.sqrt(2) * 0.01 / 1.01, rel=1e-3)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        e_ref = rng.normal(size=(8, 5, 6))
        s_ref = rng.normal(size=(8, 5, 6))
        e = e_ref + 0.01 * rng.normal(size=e_ref.shape)
        s = s_ref + 0.01 * rng.normal(size=s_ref.shape)
        base = compare_error(e_ref, s_ref, e, s)
        for c in (1e-6, 3.7, 1e6):
            scaled = compare_error(c * e_ref, c * s_ref, c * e, c * s)
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_rejects_shape_mismatch(self):
        a = np.zeros((4, 3, 6))
        b = np.zeros((4, 2, 6))
        with pytest.raises(ValueError):
            compare_error(a, a, b, np.zeros((4, 2, 6)))

    def test_rejects_vanishing_reference(self):
        z = np.zeros((4, 3, 6))
        with pytest.raises(ValueError):
            compare_error(z, z, z, z)
