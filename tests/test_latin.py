"""LATIN driver checks: manifold distance, its norms, the logged CRE, the
fields the state holds, and argument validation."""

from dataclasses import replace

import numpy as np
import pytest

from scipy.linalg import eigh

from latinpgd import cli, config, latin, material
from latinpgd.assembly import strain_at_gauss
from latinpgd.latin import elastic_solution, latin_error, run_latin
from latinpgd.material import (integrate_delay, reference_concrete,
                               released_energy, static_damage,
                               tension_peak_history)
from latinpgd.mesh import generate_box_mesh
from latinpgd.newmark import (LoadCase, compare_error, newmark_quasi_newton,
                              resample_fields_to_gauss)
from latinpgd.pgd import PgdMode, PgdSolution, compute_delta, mode_products
from latinpgd.timegrid import (TimeFunction, TimeGrid, quad_resample_blocks,
                               tdgm_march)

from test_material import assert_bitwise, closed_form_stress, delay_from_rest
from test_newmark import desk_system

HOOKE = reference_concrete().hooke()


@pytest.fixture(scope="module")
def setup():
    mesh = generate_box_mesh(2.0, 1.0, 0.5, 2, 1, 2)
    grid = TimeGrid(0.5, 3)
    return mesh, grid


def random_field(setup, seed):
    mesh, grid = setup
    rng = np.random.default_rng(seed)
    return rng.normal(size=(mesh.n_gauss, grid.n_gauss, 6))


def test_solution_norms_of_constant_field_are_contraction_times_measure(setup):
    mesh, grid = setup
    v = np.array([1.0, -2.0, 3.0, 0.5, -1.0, 2.0])
    field = np.broadcast_to(v, (mesh.n_gauss, grid.n_gauss, 6))
    measure = 1.0 * 0.5            # box volume 1.0 m^3 times horizon 0.5 s
    normal = 1.0 + 4.0 + 9.0
    shear = 0.25 + 1.0 + 4.0
    norm_sig, norm_eps = global_norms(mesh, grid, field, field)
    assert norm_sig == pytest.approx((normal + 2.0 * shear) * measure, rel=1e-12)
    assert norm_eps == pytest.approx((normal + 0.5 * shear) * measure, rel=1e-12)


def random_mode(setup, seed):
    """A mode with a random spatial strain and time function (lam = mu)."""
    mesh, grid = setup
    rng = np.random.default_rng(seed)
    eps_bar = rng.normal(size=(mesh.n_gauss, 6))
    lam = TimeFunction(grid, rng.normal(size=(grid.n_elements, 4)))
    return PgdMode(np.zeros(mesh.n_dofs), eps_bar, np.zeros_like(eps_bar), lam, lam)


def mode_field(mode):
    """Dense space-time strain eps_bar lam of a mode (n_gauss, n_t, 6)."""
    return mode.eps_bar[:, None, :] * mode.lam.values_at_gauss()[None, :, None]


def dense_xi(mesh, grid, sig, sig_hat, eps, eps_hat):
    """The two-field manifold distance with both gaps formed as fields."""
    num_s, num_e = global_norms(mesh, grid, sig - sig_hat, eps - eps_hat)
    den_s, den_e = global_norms(mesh, grid, sig, eps)
    return np.sqrt(num_s / den_s + num_e / den_e)


def global_norms(mesh, grid, sig, eps):
    """(|sig|^2, |eps|^2), as `run_latin` forms them (`PgdSolution.norms`)."""
    return PgdSolution(grid, None, eps, sig).norms(mesh)


def gap_norm2(delta, mesh, grid):
    """|Delta|^2 of a given gap, as `compute_delta` forms it (Delta - 0 is Delta)."""
    return compute_delta(delta, np.zeros_like(delta), mesh, grid, HOOKE)[1]


def xi_before(delta, sig, eps, mesh, grid):
    """latin_error of the gap a local stage left on (sig, eps), as run_latin forms it."""
    gap2 = gap_norm2(delta, mesh, grid)
    return latin_error(gap2, global_norms(mesh, grid, sig, eps), mesh, grid)


def xi_after(delta, mode, sig, eps, mesh, grid):
    """latin_error once `mode` has been added: (sig, eps) hold it, delta does not."""
    gap2 = gap_norm2(delta, mesh, grid)
    return latin_error(gap2, global_norms(mesh, grid, sig, eps), mesh, grid, mode,
                       mode_products(delta, mode, mesh, HOOKE))


def test_latin_error_is_zero_for_identical_pairs(setup):
    mesh, grid = setup
    sig, eps = random_field(setup, 1), random_field(setup, 2)
    assert xi_before(sig - sig, sig, eps, mesh, grid) == 0.0


def test_latin_error_adds_relative_gaps_in_quadrature(setup):
    mesh, grid = setup
    sig = random_field(setup, 3)
    mode = random_mode(setup, 4)
    eps = 5.0 * mode_field(mode)     # the mode is a fifth of the strain
    xi = xi_after(sig - 0.9 * sig, mode, sig, eps, mesh, grid)
    assert xi == pytest.approx(np.hypot(0.1, 0.2), rel=1e-12)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_latin_error_with_mode_matches_dense_two_field_formula(setup, seed):
    # The local stage ran on eps_hat; eps is eps_hat plus the new mode.
    mesh, grid = setup
    sig, sig_hat = random_field(setup, seed), random_field(setup, seed + 10)
    eps_hat = random_field(setup, seed + 20)
    mode = random_mode(setup, seed + 30)
    eps = eps_hat + mode_field(mode)
    delta = sig - sig_hat
    xi = xi_after(delta, mode, sig, eps, mesh, grid)
    assert xi == pytest.approx(dense_xi(mesh, grid, sig, sig_hat, eps, eps_hat),
                               rel=1e-12, abs=0.0)
    assert xi_before(delta, sig, eps_hat, mesh, grid) == pytest.approx(
        dense_xi(mesh, grid, sig, sig_hat, eps_hat, eps_hat), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_separated_xi_after_a_stress_mode_matches_dense(setup, seed):
    # A mode with a stress part moves sig to sig + sig_bar mu; the separated
    # gap norm reads only the gap before it and one product.
    mesh, grid = setup
    rng = np.random.default_rng(seed + 40)
    sig, sig_hat = random_field(setup, seed), random_field(setup, seed + 10)
    eps_hat = random_field(setup, seed + 20)
    base = random_mode(setup, seed + 30)
    mode = PgdMode(base.u_bar, base.eps_bar, rng.normal(size=base.eps_bar.shape),
                   base.lam, TimeFunction(grid, rng.normal(size=(grid.n_elements, 4))))
    delta = sig - sig_hat
    sig_after = sig + mode.sig_bar[:, None, :] * mode.mu.values_at_gauss()[None, :, None]
    eps = eps_hat + mode_field(mode)
    xi = xi_after(delta, mode, sig_after, eps, mesh, grid)
    assert xi == pytest.approx(dense_xi(mesh, grid, sig_after, sig_hat, eps, eps_hat),
                               rel=1e-12, abs=0.0)


@pytest.mark.parametrize("vanishing", ["sig", "eps"])
def test_latin_error_rejects_vanishing_global_fields(setup, vanishing):
    mesh, grid = setup
    fields = {"sig": random_field(setup, 5), "eps": random_field(setup, 6)}
    fields[vanishing] = np.zeros_like(fields[vanishing])
    sig, eps = fields["sig"], fields["eps"]
    with pytest.raises(ValueError, match="vanishes"):
        xi_before(sig - (sig + 1.0), sig, eps, mesh, grid)
    with pytest.raises(ValueError, match="vanishes"):
        xi_after(sig - (sig + 1.0), random_mode(setup, 6), sig, eps,
                 mesh, grid)


def tiny_damaging_problem():
    """mono_sine on a 4x2x2 mesh over 0.5 s with N_T = 10."""
    conf = config.preset("mono_sine")
    conf = replace(conf, mesh=replace(conf.mesh, nx=4, ny=2, nz=2),
                   load=replace(conf.load, T=0.5),
                   solver=replace(conf.solver, N_T=10))
    params, system, load, grid = cli._build_problem(conf)
    return conf, system.mesh, params, system, load, grid


def controls(solver, **override):
    """run_latin's controls as a SolverConfig sets them, with overrides."""
    return dict(dict(zeta_stop=solver.xi_stop, max_modes=solver.max_modes,
                     omega=solver.omega, seed=solver.seed,
                     enrich_zeta=solver.zeta_stop), **override)


def run_tiny(zeta_stop, max_modes=150):
    conf, mesh, params, system, load, grid = tiny_damaging_problem()
    state = run_latin(system, params, load, grid,
                      **controls(conf.solver, zeta_stop=zeta_stop, max_modes=max_modes))
    return mesh, grid, params, state


@pytest.fixture(scope="module")
def damaging_run():
    """The tiny damaging problem, seed 0, converged at the start of its
    second iteration, after a local stage and before any enrichment.

    No threshold reaches that path on this problem: the xi before the
    second enrichment (0.335) lies above the xi before the first (0.295).
    So a spy on `latin.latin_error` reads 0 for the second test before an
    enrichment (the call without a mode) and passes every other call on.
    """
    error = latin.latin_error
    tests_before_enrichment = []

    def spy(gap2, norms, mesh, grid, *mode):
        xi = error(gap2, norms, mesh, grid, *mode)
        if not mode:
            tests_before_enrichment.append(xi)
            if len(tests_before_enrichment) == 2:
                return 0.0
        return xi

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(latin, "latin_error", spy)
        return run_tiny(config.preset("mono_sine").solver.xi_stop)


@pytest.fixture(scope="module")
def budget_run():
    """The tiny damaging problem held to 2 modes: it stops right after the
    second enrichment, so its last log row is a post-enrichment one."""
    return run_tiny(1e-6, max_modes=2)


def test_separated_xi_and_cre_match_the_dense_formulas(budget_run):
    mesh, grid, params, state = budget_run
    assert not state.converged and state.n_modes == 2
    assert state.damage.max() > 0.1
    hooke = params.hooke()
    _, eps, sig = state.solution.fields()
    mode = state.solution.modes[-1]
    # the local stage ran on eps_hat = eps - eps_bar lam, the fields before the mode
    strain_gap = mode.eps_bar[:, None, :] * mode.lam.values_at_gauss()[None, :, None]
    delta = sig - state.hat["sig"]
    xi = dense_xi(mesh, grid, sig, state.hat["sig"], eps, eps - strain_gap)
    assert state.xi == pytest.approx(xi, rel=1e-10, abs=0.0)
    # R = Delta_before + sig_bar mu - E:eps_bar lam = Delta_after - E:eps_bar lam
    resid = delta - hooke.apply(strain_gap)
    sq = np.einsum("gtv,gtv->gt", resid, hooke.apply_inverse(resid))
    cre = mesh.gp_weights.ravel() @ sq @ grid.all_gauss_weights
    assert state.log[-1]["cre"] == pytest.approx(cre, rel=1e-10, abs=0.0)


def test_transient_memory_of_a_later_iteration(monkeypatch):
    # Peak of the memory the second iteration allocates beyond what it
    # started with, in units of one space-time field (n_sp, n_t, 6) of
    # float64.  Blocks and chunks are shrunk so that the tiny field spans
    # many of them, as a large field does at the default sizes.  The
    # iteration's peak is the sparse factorization of an enrichment's space
    # problem, which does not scale with the field: bound 1.35, measured
    # 1.27.  The local stage's own peak is its output d next to the
    # previous one, plus what its active rows need: bound 0.5, measured
    # 0.44 (1.05 when it formed its targets, screens and tension-peak index
    # on the whole field).
    import tracemalloc

    from latinpgd import timegrid

    monkeypatch.setattr(timegrid, "_BLOCK_BYTES", 1 << 13)
    monkeypatch.setattr(material, "_CHUNK", 64)
    conf, mesh, params, system, load, grid = tiny_damaging_problem()
    field = mesh.n_gauss * grid.n_gauss * 6 * 8
    stage = latin.local_stage
    start = []
    stage_peak = []

    def mark(*args, **kwargs):
        if len(start) < 2:
            tracemalloc.reset_peak()
            start.append(tracemalloc.get_traced_memory()[0])
        result = stage(*args, **kwargs)
        if len(stage_peak) < 2:
            stage_peak.append(tracemalloc.get_traced_memory()[1])
        return result

    monkeypatch.setattr(latin, "local_stage", mark)
    tracemalloc.start()
    try:
        state = run_latin(system, params, load, grid,
                          **controls(conf.solver, zeta_stop=1e-6, max_modes=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.n_modes == 2 and len(start) == 2 and state.damage.max() > 0.1
    assert (stage_peak[1] - start[1]) / field <= 0.5
    assert (peak - start[1]) / field <= 1.35


def test_converged_row_logs_the_cre_of_the_current_gap(damaging_run):
    mesh, grid, params, state = damaging_run
    assert state.converged and state.damage.max() > 0.1
    assert [row["modes"] for row in state.log] == [1, 1]
    _, _, sig = state.solution.fields()
    _, _, cre = compute_delta(sig, state.hat["sig"], mesh, grid, params.hooke())
    assert state.log[-1]["cre"] == pytest.approx(cre, rel=1e-12)


def elastic_desk_run(monkeypatch=None):
    """The damped desk beam far below the damage threshold, over 0.1 s.

    With `monkeypatch`, a spy on `latin.compute_delta` records its calls;
    returns (mesh, grid, state, calls).
    """
    system = desk_system()
    grid = TimeGrid(0.1, 10)
    load = LoadCase(np.array([2e-3]), np.array([3.0]))
    calls = []
    if monkeypatch is not None:
        delta = latin.compute_delta

        def spy(*args, **kwargs):
            calls.append(1)
            return delta(*args, **kwargs)

        monkeypatch.setattr(latin, "compute_delta", spy)
    state = run_latin(system, reference_concrete(), load, grid,
                      **controls(config.preset("mono_sine").solver))
    return system.mesh, grid, state, calls


def test_state_holds_each_space_time_field_once(damaging_run):
    # A damaging run holds u, eps, sig, sig_hat and d; an elastic one holds
    # no sig_hat: its local stage hands the running sig back.
    mesh, grid, _, damaging = damaging_run
    elastic_mesh, elastic_grid, elastic, _ = elastic_desk_run()
    assert elastic.n_modes == 0 and not elastic.damage.any()
    for mesh, grid, state, stress_fields in ((mesh, grid, damaging, 3),
                                             (elastic_mesh, elastic_grid, elastic, 2)):
        n_t = grid.n_gauss
        scalar = mesh.n_gauss * n_t * 8
        budget = mesh.n_dofs * n_t * 8 + stress_fields * 6 * scalar + scalar
        held = [v for v in vars(state.solution).values() if isinstance(v, np.ndarray)]
        held += [v for v in state.hat.values() if isinstance(v, np.ndarray)]
        held = {id(a): a for a in held}.values()
        assert sum(a.nbytes for a in held) <= budget


def virgin_stage(eps, times, params):
    """The update stage from a virgin state, every law evaluated everywhere.

    With no softening or target damage carried in (Z = 0, d_bar = 0), the
    threshold test Y > Y0 + Z refreshes d_bar = static_damage(Y) wherever
    Y > Y0 and keeps 0 elsewhere.
    """
    Y = released_energy(eps, params.hooke())
    dbar = np.where(Y > params.Y0, static_damage(Y, params), 0.0)
    d = delay_from_rest(times, dbar, params)
    idx, _ = tension_peak_history(eps[..., :3].sum(axis=-1))
    eps_max = np.take_along_axis(eps, idx[..., None], axis=-2)
    return {"sig": closed_form_stress(eps, eps_max, d), "d": d}


def test_every_local_stage_is_a_pure_map_of_its_strain(monkeypatch):
    # No constitutive state passes between iterations: each local stage of
    # a damaging run starts from rest and returns what a fresh call on the
    # same strain returns, which is the update stage from a virgin state.
    # A stage that carried its target damage over would differ from the
    # second call on.
    stage = latin.local_stage
    calls = []

    def record(eps, times, params, hooke, out=None, elastic=None, start=None):
        assert start is None
        got = stage(eps, times, params, hooke, out=out, elastic=elastic, start=start)
        calls.append((eps.copy(), times, {k: v if k == "end" else v.copy()
                                          for k, v in got.items()}))
        return got

    monkeypatch.setattr(latin, "local_stage", record)
    _, _, params, state = run_tiny(1e-6, max_modes=2)
    assert len(calls) == 2 and state.damage.max() > 0.1
    for eps, times, got in calls:
        assert sorted(got) == ["d", "end", "sig"]
        assert_bitwise(got["d"], material.local_stage(eps, times, params,
                                                      params.hooke())["d"])
        want = virgin_stage(eps, times, params)
        assert_bitwise(got["sig"], want["sig"])
        assert_bitwise(got["d"], want["d"])


@pytest.mark.parametrize("n_t", [10, 12])
def test_local_stage_replays_the_newmark_march(n_t):
    # One damage law on both sides: the update stage run over the strain
    # history a Newmark march stored, on its node times, gives back the
    # march's damage and stress.  The march steps by times[1] - times[0],
    # the stage by the node differences, which match it up to round-off.
    # N_T = 10 and 12 are two node spacings; the exact delay step takes no
    # substeps, so neither spacing is a special case of the law.
    conf, _, params, system, load, _ = tiny_damaging_problem()
    times = replace(conf.solver, N_T=n_t).newmark_times(conf.load.T)
    res = newmark_quasi_newton(system, params, load, times)
    assert res["d"].max() > 0.1
    got = material.local_stage(res["eps"], times, params, params.hooke())
    np.testing.assert_allclose(got["d"], res["d"], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(got["sig"], res["sig"], rtol=0.0,
                               atol=1e-12 * np.abs(res["sig"]).max())


def test_one_delay_law_call_per_stagger_pass(monkeypatch):
    # Every staggered pass of the reference march here advances the damage
    # through one `local_stage` call from the committed state, and so
    # through one `integrate_delay` call over the step [0, dt], at the name
    # the stage looks up; the benchmark counts the passes off these calls.
    conf, _, params, system, load, _ = tiny_damaging_problem()
    times = conf.solver.newmark_times(conf.load.T)
    spans = []

    def spy(t, dbar, d_init, params):
        spans.append(t)
        return integrate_delay(t, dbar, d_init, params)

    monkeypatch.setattr(material, "integrate_delay", spy)
    res = newmark_quasi_newton(system, params, load, times,
                               tol=conf.solver.newmark_tol)
    assert res["info"]["undamaged_steps"] == 0
    assert len(spans) == res["info"]["passes"].sum() > times.size - 1
    for t in spans:
        assert_bitwise(t, np.array([0.0, times[1] - times[0]]))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the global stage's fixed point is "
                          "the elastic start, 24.73 % from the exact answer")
def test_linear_softening_lands_on_the_modal_oracle(monkeypatch):
    # Linear oracle: the local stage returns sig_hat = (1 - s) E:eps, so the
    # exact answer is u = u_el + delta with
    #     M delta'' + C delta' + (1 - s) K delta = s (K u_el)_free
    # from rest, solved by a dense eigh(K_ff, M_ff) and one TDGM march per
    # eigenmode (C is diagonal in that basis).  compare_error against it
    # then measures the iteration alone; a Newmark reference would add its
    # own time discretisation error (3.66 % on this case).
    s = 0.02

    def softened(eps, times, params, hooke, out=None, elastic=None):
        sig = hooke.apply(eps, out=out)
        sig *= 1.0 - s
        return {"sig": sig, "d": np.zeros(eps.shape[:2])}

    conf = config.preset("mono_sine")
    conf = replace(conf, load=replace(conf.load, T=0.5),
                   solver=replace(conf.solver, N_T=100))
    params, system, load, grid = cli._build_problem(conf)
    mesh = system.mesh
    monkeypatch.setattr(latin, "local_stage", softened)
    state = run_latin(system, params, load, grid, **controls(conf.solver))
    assert state.converged

    u = elastic_solution(system, params, load, grid)["u"]
    free = system.free
    w2, phi = eigh(system.Kff.toarray(), system.Mff.toarray())
    damping = np.einsum("ij,ij->j", phi, system.Cff @ phi)
    force = phi.T @ (s * (system.K @ u)[free])
    q = np.array([tdgm_march(grid, 1.0, c, (1.0 - s) * k,
                             grid.rows(f)).values_at_gauss()
                  for k, c, f in zip(w2, damping, force)])
    u[free] += phi @ q
    eps_ref = strain_at_gauss(mesh, u)
    _, eps, sig = state.solution.fields()
    gap = compare_error(eps_ref, (1.0 - s) * params.hooke().apply(eps_ref), eps, sig)
    assert gap <= 1.0


@pytest.mark.parametrize("zeta_stop", [0.0, -1e-3])
def test_run_latin_rejects_nonpositive_threshold(zeta_stop):
    with pytest.raises(ValueError, match="zeta_stop"):
        run_latin(None, None, None, None,
                  **controls(config.preset("mono_sine").solver, zeta_stop=zeta_stop))


@pytest.mark.parametrize("override, name", [({"zeta_stop": np.nan}, "zeta_stop"),
                                            ({"max_modes": np.nan}, "max_modes"),
                                            ({"max_modes": 0}, "max_modes")])
def test_run_latin_rejects_bad_controls_before_the_elastic_start(
        monkeypatch, override, name):
    monkeypatch.setattr(latin, "elastic_solution",
                        lambda *args: pytest.fail("the elastic start ran"))
    conf, mesh, params, system, load, grid = tiny_damaging_problem()
    with pytest.raises(ValueError, match="^%s must be" % name):
        run_latin(system, params, load, grid, **controls(conf.solver, **override))


class TwoPartError(RuntimeError):
    """A RuntimeError whose constructor takes two arguments."""

    def __init__(self, what, where):
        super().__init__("%s at %s" % (what, where))


def test_run_latin_names_a_failed_stage_in_its_own_family(monkeypatch):
    conf, mesh, params, system, load, grid = tiny_damaging_problem()
    run = dict(controls(conf.solver, zeta_stop=1e-6, max_modes=2))
    boom = RuntimeError("boom")

    def failed_enrichment(*args, **kwargs):
        raise boom

    with monkeypatch.context() as patch:
        patch.setattr(latin, "enrich", failed_enrichment)
        with pytest.raises(RuntimeError,
                           match=r"^LATIN iteration 1 \(0 modes\): boom$") as err:
            run_latin(system, params, load, grid, **run)
    assert type(err.value) is RuntimeError and err.value.__cause__ is boom

    for failure, family in ((TwoPartError("no pivot", "row 3"), RuntimeError),
                            (ValueError("bad load"), ValueError)):
        def failed_start(*args, _failure=failure):
            raise _failure

        with monkeypatch.context() as patch:
            patch.setattr(latin, "elastic_solution", failed_start)
            with pytest.raises(family,
                               match="^LATIN elastic start: %s$" % failure) as err:
                run_latin(system, params, load, grid, **run)
        assert type(err.value) is family and err.value.__cause__ is failure


def test_a_failing_iteration_names_itself(monkeypatch, tmp_path, capsys):
    # The second mode carries a NaN strain at spatial Gauss point 3: its xi
    # is NaN, and the run stops there, naming the iteration, not at the
    # next local stage's strain check.
    enrich = latin.enrich
    modes = []

    def poisoned(*args, **kwargs):
        mode, info = enrich(*args, **kwargs)
        modes.append(mode)
        if len(modes) == 2:
            eps_bar = mode.eps_bar.copy()
            eps_bar[3] = np.nan
            mode = PgdMode(mode.u_bar, eps_bar, mode.sig_bar, mode.lam, mode.mu)
        return mode, info

    monkeypatch.setattr(latin, "enrich", poisoned)
    conf, mesh, params, system, load, grid = tiny_damaging_problem()
    with pytest.raises(ValueError, match=r"^LATIN iteration 2 \(2 modes\): "
                                         r"non-finite manifold distance xi = nan") as err:
        run_latin(system, params, load, grid,
                  **controls(conf.solver, zeta_stop=1e-6, max_modes=3))
    assert isinstance(err.value.__cause__, ValueError) and len(modes) == 2

    modes.clear()
    overlay = tmp_path / "tiny.cfg"
    overlay.write_text("[mesh]\nnx = 4\nny = 2\nnz = 2\n[load]\nT = 0.5\n"
                       "[solver]\nN_T = 10\nxi_stop = 1e-6\nmax_modes = 3\n")
    code = cli.main(["run-latin", "--preset", "mono_sine", "--config", str(overlay),
                     "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_INPUT
    assert "error: LATIN iteration 2 (2 modes): " in capsys.readouterr().err


def test_elastic_start_is_the_resampled_elastic_march(monkeypatch):
    # Damped desk beam, short window, load far below the damage threshold.
    system = desk_system()
    params = reference_concrete()
    grid = TimeGrid(0.1, 10)
    load = LoadCase(np.array([2e-3]), np.array([3.0]))
    el = elastic_solution(system, params, load, grid)
    res = newmark_quasi_newton(system, params, load,
                               np.linspace(0.0, grid.T, 2 * grid.n_elements + 1),
                               damage=False)
    assert np.array_equal(el["u"], quad_resample_blocks(grid, res["u"][:, :, None])[:, :, 0])
    # strain of the resampled displacement == resampled strain of the march,
    # stored by a damaging march that stays below the threshold
    on = newmark_quasi_newton(system, params, load, res["times"], damage=True)
    assert on["d"].max() == 0.0 and np.array_equal(on["u"], res["u"])
    eps_ref = resample_fields_to_gauss(grid, on)[0][:]
    assert el["eps"].shape == eps_ref.shape
    np.testing.assert_allclose(el["eps"], eps_ref, rtol=1e-12,
                               atol=1e-12 * np.abs(eps_ref).max())
    assert np.array_equal(el["sig"], params.hooke().apply(el["eps"]))
    # so the local stage hands the elastic stress back as sig_hat, and the
    # stress gap, zero, is never formed
    _, _, state, delta_calls = elastic_desk_run(monkeypatch)
    assert state.converged and state.n_modes == 0 and state.xi == 0.0
    assert state.hat["sig"] is state.solution.fields()[2]
    assert delta_calls == []
    assert state.log[-1]["cre"] == 0.0
    assert not state.damage.any()
    assert state.elastic_seconds > 0.0
