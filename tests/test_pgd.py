"""Global-stage checks: space/time subproblems, enrichment, reconstruction, mode dump."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from latinpgd import pgd
from latinpgd.assembly import (SpatialSystem, assemble_mass,
                               assemble_stiffness, internal_force,
                               strain_at_gauss)
from latinpgd.material import reference_concrete
from latinpgd.mesh import generate_box_mesh
from latinpgd.pgd import (PgdMode, PgdSolution, compute_delta,
                          cre_functional, dump_modes, enrich, gap_norms,
                          mode_products, normalize_mode, relax_mode,
                          space_problem, stagnation, strain_norm,
                          stress_spatial, time_lambda, time_mu)
from latinpgd.timegrid import TimeFunction, TimeGrid, tdgm_march

P = reference_concrete()
HOOKE = P.hooke()
# Stagnation threshold of the enrichment fixed point in these checks.
ZETA_STOP = 1e-2


@pytest.fixture(scope="module")
def setup():
    mesh = generate_box_mesh(1.0, 1.0, 1.0, 2, 2, 2)
    system = SpatialSystem(mesh, assemble_mass(mesh, P.rho),
                           assemble_stiffness(mesh, HOOKE))
    grid = TimeGrid(0.5, 8)
    return mesh, system, grid


def random_mode_shape(mesh, system, rng, scale=1e-4):
    u = np.zeros(mesh.n_dofs)
    u[system.free] = rng.normal(size=system.n_free) * scale
    return u, strain_at_gauss(mesh, u)


def rank_one_delta(eps_w, gauss_signal):
    return HOOKE.apply(eps_w)[:, None, :] * gauss_signal[None, :, None]


# The subproblems take the reductions of Delta that `enrich` forms; these
# feed them the same reductions of a given Delta.

def space_of(lam, delta, system):
    """space_problem with <Delta lam>."""
    return space_problem(
        lam, pgd._time_weighted(delta, lam.values_at_gauss(), lam.grid), system)


def stress_of(eps_bar, lam, mu, delta, hooke, grid):
    """stress_spatial with <Delta mu>."""
    return stress_spatial(eps_bar, lam, mu,
                          pgd._time_weighted(delta, mu.values_at_gauss(), grid),
                          hooke, grid)


def lambda_of(u_bar, eps_bar, delta, system, grid, hooke):
    """time_lambda with the forcing int Delta : eps_bar."""
    forcing = pgd._space_weighted(delta, eps_bar[:, :, None], system.mesh)[0]
    return time_lambda(u_bar, eps_bar, forcing, system, grid, hooke)


def mu_of(sig_bar, eps_bar, lam, delta, hooke, grid, mesh):
    """time_mu with int E^-1:sig_bar . Delta."""
    sd = pgd._space_weighted(delta, hooke.apply_inverse(sig_bar)[:, :, None], mesh)[0]
    return time_mu(sig_bar, eps_bar, lam, sd, hooke, grid, mesh)


def cre(delta, mesh, grid, hooke, mode=None):
    """J(Delta), or J(Delta + sig_bar mu - E:eps_bar lam), as the driver forms it."""
    _, j_delta = gap_norms(delta, mesh, grid, hooke)
    if mode is None:
        return j_delta
    return cre_functional(j_delta, mode_products(delta, mode, mesh, hooke), mode,
                          mesh, grid, hooke)


class TestComputeDelta:
    def test_identical_fields(self, setup):
        mesh, system, grid = setup
        sig = np.ones((mesh.n_gauss, grid.n_gauss, 6))
        assert not compute_delta(sig, sig.copy()).any()

    def test_pointwise_subtraction(self, setup):
        mesh, system, grid = setup
        rng = np.random.default_rng(0)
        a = rng.normal(size=(mesh.n_gauss, grid.n_gauss, 6))
        b = rng.normal(size=(mesh.n_gauss, grid.n_gauss, 6))
        assert np.array_equal(compute_delta(a, b), a - b)

    def test_shape_mismatch(self, setup):
        mesh, system, grid = setup
        with pytest.raises(ValueError, match="mismatched"):
            compute_delta(np.zeros((4, 8, 6)), np.zeros((4, 9, 6)))


class TestSpaceProblem:
    def test_zero_delta(self, setup):
        mesh, system, grid = setup
        lam = TimeFunction(grid, np.ones((grid.n_elements, 4)))
        u, eps = space_of(lam, np.zeros((mesh.n_gauss, grid.n_gauss, 6)),
                          system)
        assert not u.any() and not eps.any()

    def test_static_oracle(self, setup):
        mesh, system, grid = setup
        rng = np.random.default_rng(3)
        lam = TimeFunction(grid, np.ones((grid.n_elements, 4)))
        delta = rng.normal(size=(mesh.n_gauss, grid.n_gauss, 6)) * 1e5
        u, _ = space_of(lam, delta, system)
        avg = np.einsum("gtv,t->gv", delta, grid.all_gauss_weights) / grid.T
        oracle = spla.spsolve(system.Kff.tocsc(),
                              internal_force(mesh, avg)[system.free])
        assert np.linalg.norm(u[system.free] - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_manufactured_solution(self, setup):
        # Delta = E:eps(w) * lam(t) with lam linear in t reproduces w
        mesh, system, grid = setup
        rng = np.random.default_rng(42)
        w, eps_w = random_mode_shape(mesh, system, rng)
        lam = TimeFunction(grid, grid.node_times.copy())
        u, eps = space_of(lam, rank_one_delta(eps_w, lam.values_at_gauss()),
                          system)
        assert np.linalg.norm(u - w) <= 1e-9 * np.linalg.norm(w)
        assert np.array_equal(eps, strain_at_gauss(mesh, u))

    def test_galerkin_residual(self, setup):
        mesh, system, grid = setup
        rng = np.random.default_rng(5)
        lam = TimeFunction(grid, rng.normal(size=(grid.n_elements, 4)))
        delta = rng.normal(size=(mesh.n_gauss, grid.n_gauss, 6)) * 1e4
        u, _ = space_of(lam, delta, system)
        lv = lam.values_at_gauss()
        ca = grid.inner(lam.values_at_gauss(2), lv)
        ck = grid.inner(lv, lv)
        rhs = internal_force(
            mesh, np.einsum("gtv,t->gv", delta, lv * grid.all_gauss_weights))
        resid = system.operator(ca, 0.0, ck) @ u[system.free] - rhs[system.free]
        assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(rhs[system.free])

    def test_zero_time_function_rejected(self, setup):
        mesh, system, grid = setup
        lam = TimeFunction(grid, np.zeros((grid.n_elements, 4)))
        with pytest.raises(ValueError, match="zero L2 norm"):
            space_of(lam, np.zeros((mesh.n_gauss, grid.n_gauss, 6)), system)

    def test_factorization_reuse(self, setup):
        mesh, system, grid = setup
        rng = np.random.default_rng(8)
        lam = TimeFunction(grid, rng.normal(size=(grid.n_elements, 4)))
        delta = rng.normal(size=(mesh.n_gauss, grid.n_gauss, 6))
        space_of(lam, delta, system)
        before = system.n_factorizations
        space_of(lam, 2.0 * delta, system)
        assert system.n_factorizations == before


class TestStressSpatial:
    def test_elastic_consistency(self, setup):
        mesh, system, grid = setup
        rng = np.random.default_rng(1)
        _, eps_bar = random_mode_shape(mesh, system, rng)
        lam = TimeFunction(grid, rng.normal(size=(grid.n_elements, 4)))
        sig = stress_of(eps_bar, lam, lam,
                        np.zeros((mesh.n_gauss, grid.n_gauss, 6)),
                        HOOKE, grid)
        assert np.allclose(sig, HOOKE.apply(eps_bar), rtol=1e-12)

    def test_zero_strain_branch(self, setup):
        mesh, system, grid = setup
        rng = np.random.default_rng(2)
        mu = TimeFunction(grid, rng.normal(size=(grid.n_elements, 4)))
        delta = rng.normal(size=(mesh.n_gauss, grid.n_gauss, 6))
        mv = mu.values_at_gauss()
        sig = stress_of(np.zeros((mesh.n_gauss, 6)), mu, mu, delta,
                        HOOKE, grid)
        wt = grid.all_gauss_weights
        oracle = -np.tensordot(delta, mv * wt, axes=([1], [0])) / ((mv ** 2) @ wt)
        assert np.allclose(sig, oracle, rtol=1e-12)

    def test_degenerate_mu_rejected(self, setup):
        mesh, system, grid = setup
        mu = TimeFunction(grid, np.zeros((grid.n_elements, 4)))
        with pytest.raises(ValueError, match="degenerate"):
            stress_of(np.zeros((mesh.n_gauss, 6)), mu, mu,
                      np.zeros((mesh.n_gauss, grid.n_gauss, 6)), HOOKE, grid)

    def test_minimizes_gap_functional(self, setup):
        # J is quadratic in sig_bar, so the formula must be its global minimum
        mesh, system, grid = setup
        rng = np.random.default_rng(6)
        _, eps_bar = random_mode_shape(mesh, system, rng)
        lam = TimeFunction(grid, rng.normal(size=(grid.n_elements, 4)))
        mu = TimeFunction(grid, rng.normal(size=(grid.n_elements, 4)))
        delta = rng.normal(size=(mesh.n_gauss, grid.n_gauss, 6)) * 1e3
        sig = stress_of(eps_bar, lam, mu, delta, HOOKE, grid)
        j_min = cre(delta, mesh, grid, HOOKE,
                    PgdMode(None, eps_bar, sig, lam, mu))
        for _ in range(5):
            pert = sig + rng.normal(size=sig.shape) * np.abs(sig).max() * 0.1
            j_pert = cre(delta, mesh, grid, HOOKE,
                         PgdMode(None, eps_bar, pert, lam, mu))
            assert j_pert >= j_min * (1.0 - 1e-12)


class TestTimeLambda:
    def test_zero_delta(self, setup):
        mesh, system, grid = setup
        rng = np.random.default_rng(4)
        u, eps = random_mode_shape(mesh, system, rng)
        lam = lambda_of(u, eps, np.zeros((mesh.n_gauss, grid.n_gauss, 6)),
                        system, grid, HOOKE)
        assert not lam.coeffs.any()

    def test_wiring_matches_direct_march(self, setup):
        mesh, system, grid = setup
        rng = np.random.default_rng(9)
        u, eps = random_mode_shape(mesh, system, rng)
        delta = rng.normal(size=(mesh.n_gauss, grid.n_gauss, 6)) * 1e4
        lam = lambda_of(u, eps, delta, system, grid, HOOKE)
        wg = mesh.gp_weights.ravel()
        a = float(u @ (system.M @ u))
        b = float(wg @ np.einsum("gv,gv->g", eps, HOOKE.apply(eps)))
        f = np.einsum("gtv,gv->t", delta * wg[:, None, None], eps)
        oracle, _ = tdgm_march(grid, a, 0.0, b, f.reshape(grid.n_elements, 4))
        assert a > 0.0 and b > 0.0
        gap = np.abs(lam.coeffs - oracle.coeffs).max()
        assert gap <= 1e-9 * np.abs(oracle.coeffs).max()

    def test_zero_mode_rejected(self, setup):
        mesh, system, grid = setup
        with pytest.raises(ValueError, match="degenerate"):
            lambda_of(np.zeros(mesh.n_dofs), np.zeros((mesh.n_gauss, 6)),
                      np.zeros((mesh.n_gauss, grid.n_gauss, 6)),
                      system, grid, HOOKE)


class TestTimeMu:
    def test_exact_compensation(self, setup):
        # Delta = 0 and sig_bar = E:eps_bar force mu = lam
        mesh, system, grid = setup
        rng = np.random.default_rng(10)
        _, eps_bar = random_mode_shape(mesh, system, rng)
        lam = TimeFunction(grid, rng.normal(size=(grid.n_elements, 4)))
        mu = mu_of(HOOKE.apply(eps_bar), eps_bar, lam,
                   np.zeros((mesh.n_gauss, grid.n_gauss, 6)),
                   HOOKE, grid, mesh)
        assert np.allclose(mu.coeffs, lam.coeffs, rtol=1e-12)

    def test_orthogonal_stress_gives_zero(self, setup):
        mesh, system, grid = setup
        rng = np.random.default_rng(11)
        _, eps_bar = random_mode_shape(mesh, system, rng)
        pattern = HOOKE.apply(rng.normal(size=(mesh.n_gauss, 6)) * 1e-4)
        delta = pattern[:, None, :] * rng.normal(size=grid.n_gauss)[None, :, None]
        lam = TimeFunction(grid, np.ones((grid.n_elements, 4)))
        wg = mesh.gp_weights.ravel()
        sig = HOOKE.apply(rng.normal(size=(mesh.n_gauss, 6)) * 1e-4)
        mu_ref = mu_of(sig, eps_bar, lam, delta, HOOKE, grid, mesh)

        # Gram-Schmidt sig_bar against E:eps_bar and the Delta pattern
        def against(s, other_stress):
            inner = wg @ np.einsum("gv,gv->g", HOOKE.apply_inverse(s), other_stress)
            norm = wg @ np.einsum("gv,gv->g",
                                  HOOKE.apply_inverse(other_stress), other_stress)
            return s - (inner / norm) * other_stress

        base1 = HOOKE.apply(eps_bar)
        base2 = against(pattern, base1)
        for _ in range(2):
            sig = against(against(sig, base1), base2)
        mu = mu_of(sig, eps_bar, lam, delta, HOOKE, grid, mesh)
        ref = np.abs(mu_ref.values_at_gauss()).max()
        assert np.abs(mu.values_at_gauss()).max() <= 1e-10 * ref

    def test_matches_dense_normal_equations(self, setup):
        mesh, system, grid = setup
        rng = np.random.default_rng(12)
        sig_b = rng.normal(size=(mesh.n_gauss, 6)) * 1e5
        eps_b = rng.normal(size=(mesh.n_gauss, 6)) * 1e-5
        lam = TimeFunction(grid, rng.normal(size=(grid.n_elements, 4)))
        delta = rng.normal(size=(mesh.n_gauss, grid.n_gauss, 6)) * 1e5
        mu = mu_of(sig_b, eps_b, lam, delta, HOOKE, grid, mesh)
        wg = mesh.gp_weights.ravel()
        den = wg @ np.einsum("gv,gv->g", HOOKE.apply_inverse(sig_b), sig_b)
        se = wg @ np.einsum("gv,gv->g", sig_b, eps_b)
        sd = np.einsum("gv,gtv,g->t", HOOKE.apply_inverse(sig_b), delta, wg)
        num = se * lam.values_at_gauss() - sd
        wloc = grid.gauss_weights_local * grid.h
        block = den * (grid.N * wloc[:, None]).T @ grid.N
        dense = np.empty((grid.n_elements, 4))
        for k in range(grid.n_elements):
            dense[k] = np.linalg.solve(
                block, (grid.N * wloc[:, None]).T @ num[4 * k:4 * k + 4])
        err = np.abs(mu.coeffs - dense).max() / np.abs(dense).max()
        assert err <= 1e-8      # acceptance bound
        assert err <= 1e-12     # regression margin

    def test_degenerate_stress_rejected(self, setup):
        mesh, system, grid = setup
        lam = TimeFunction(grid, np.ones((grid.n_elements, 4)))
        with pytest.raises(ValueError, match="degenerate"):
            mu_of(np.zeros((mesh.n_gauss, 6)), np.zeros((mesh.n_gauss, 6)),
                  lam, np.zeros((mesh.n_gauss, grid.n_gauss, 6)),
                  HOOKE, grid, mesh)


class TestNormalizeAndStagnation:
    def make_mode(self, setup, seed=13):
        mesh, system, grid = setup
        rng = np.random.default_rng(seed)
        u, eps = random_mode_shape(mesh, system, rng)
        return PgdMode(u, eps, HOOKE.apply(eps),
                       TimeFunction(grid, rng.normal(size=(grid.n_elements, 4))),
                       TimeFunction(grid, rng.normal(size=(grid.n_elements, 4))))

    def test_unit_strain_norm(self, setup):
        mesh, _, _ = setup
        c_c, mode = normalize_mode(self.make_mode(setup), mesh)
        assert strain_norm(mode.eps_bar, mesh) == pytest.approx(1.0, rel=1e-12)
        assert c_c > 0.0

    def test_idempotent(self, setup):
        mesh, _, _ = setup
        _, mode = normalize_mode(self.make_mode(setup), mesh)
        c2, again = normalize_mode(mode, mesh)
        assert c2 == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(again.u_bar, mode.u_bar, rtol=1e-12)
        assert np.allclose(again.lam.coeffs, mode.lam.coeffs, rtol=1e-12)

    def test_homogeneity(self, setup):
        mesh, _, _ = setup
        mode = self.make_mode(setup)
        scaled = PgdMode(mode.u_bar * 7.0, mode.eps_bar * 7.0, mode.sig_bar * 7.0,
                         mode.lam, mode.mu)
        c1, _ = normalize_mode(mode, mesh)
        c7, _ = normalize_mode(scaled, mesh)
        assert c7 == pytest.approx(7.0 * c1, rel=1e-12)

    def test_products_invariant(self, setup):
        mesh, system, grid = setup
        mode = self.make_mode(setup)
        _, norm = normalize_mode(mode, mesh)
        before = mode.eps_bar[:, None, :] * mode.lam.values_at_gauss()[None, :, None]
        after = norm.eps_bar[:, None, :] * norm.lam.values_at_gauss()[None, :, None]
        assert np.allclose(after, before, rtol=1e-12)

    def test_zero_strain_rejected(self, setup):
        mesh, _, grid = setup
        mode = PgdMode(np.zeros(mesh.n_dofs), np.zeros((mesh.n_gauss, 6)),
                       np.zeros((mesh.n_gauss, 6)),
                       TimeFunction(grid, np.ones((grid.n_elements, 4))),
                       TimeFunction(grid, np.ones((grid.n_elements, 4))))
        with pytest.raises(ValueError, match="degenerate"):
            normalize_mode(mode, mesh)

    def test_stagnation_cases(self, setup):
        _, _, grid = setup
        rng = np.random.default_rng(14)
        lam = TimeFunction(grid, rng.normal(size=(grid.n_elements, 4)))
        zero = TimeFunction(grid, np.zeros((grid.n_elements, 4)))
        assert stagnation(lam, lam.scale(1.0)) == 0.0
        assert stagnation(lam, lam.scale(-1.0)) == 0.0
        assert stagnation(lam, zero) == pytest.approx(1.0, rel=1e-12)
        assert stagnation(zero, zero.scale(1.0)) == 0.0

    def test_stagnation_grid_mismatch(self, setup):
        _, _, grid = setup
        other = TimeGrid(grid.T, grid.n_elements)
        with pytest.raises(ValueError, match="different time grids"):
            stagnation(TimeFunction(grid, np.ones((grid.n_elements, 4))),
                       TimeFunction(other, np.ones((other.n_elements, 4))))


class TestReductions:
    """The space-time reductions equal plain loops over points and instants."""

    @staticmethod
    def fields(setup, seed):
        mesh, system, grid = setup
        rng = np.random.default_rng(seed)
        delta = rng.normal(size=(mesh.n_gauss, grid.n_gauss, 6)) * 1e4
        return rng, delta, mesh.gp_weights.ravel(), grid.all_gauss_weights

    @staticmethod
    def assert_close(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @staticmethod
    def random_mode(setup, rng):
        mesh, system, grid = setup
        _, eps_bar = random_mode_shape(mesh, system, rng)
        sig_bar = rng.normal(size=(mesh.n_gauss, 6)) * 1e4
        lam = TimeFunction(grid, rng.normal(size=(grid.n_elements, 4)))
        mu = TimeFunction(grid, rng.normal(size=(grid.n_elements, 4)))
        return PgdMode(None, eps_bar, sig_bar, lam, mu)

    def test_time_weighted(self, setup):
        mesh, system, grid = setup
        rng, delta, _, wt = self.fields(setup, 30)
        samples = rng.normal(size=(2, grid.n_gauss))
        want = np.zeros((mesh.n_gauss, 2, 6))
        for g in range(mesh.n_gauss):
            for t in range(grid.n_gauss):
                for v in range(6):
                    want[g, :, v] += delta[g, t, v] * samples[:, t] * wt[t]
        self.assert_close(pgd._time_weighted(delta, samples[0], grid), want[:, 0])
        # both time functions of a sweep from one product
        self.assert_close(pgd._time_weighted(delta, samples, grid), want)

    def test_time_lambda_forcing(self, setup, monkeypatch):
        # the forcing enrich hands to time_lambda is int Delta : eps_bar
        mesh, system, grid = setup
        rng, delta, wg, _ = self.fields(setup, 31)
        seen = []

        def spy(u_bar, eps_bar, forcing, *args):
            seen.append((eps_bar, forcing))
            return time_lambda(u_bar, eps_bar, forcing, *args)

        monkeypatch.setattr(pgd, "time_lambda", spy)
        enrich(delta, system, grid, HOOKE, rng, ZETA_STOP)
        eps, got = seen[0]
        want = np.zeros(grid.n_gauss)
        for t in range(grid.n_gauss):
            for g in range(mesh.n_gauss):
                for v in range(6):
                    want[t] += delta[g, t, v] * eps[g, v] * wg[g]
        self.assert_close(got, want)

    def test_time_mu_samples(self, setup, monkeypatch):
        # the samples enrich's time_mu fits, with its int E^-1:sig_bar . Delta
        mesh, system, grid = setup
        rng, delta, wg, _ = self.fields(setup, 33)
        args, seen = [], []

        def spy(sig_bar, eps_bar, lam, sd, *rest):
            args.append((sig_bar, eps_bar, lam))
            return time_mu(sig_bar, eps_bar, lam, sd, *rest)

        def fit(grid, samples):
            seen.append(samples)
            return TimeFunction(grid, np.ones((grid.n_elements, 4)))

        monkeypatch.setattr(pgd, "time_mu", spy)
        monkeypatch.setattr(pgd, "l2_fit", fit)
        enrich(delta, system, grid, HOOKE, rng, ZETA_STOP)
        sig_bar, eps_bar, lam = args[0]
        comp = sig_bar @ HOOKE.inverse.T
        den = se = 0.0
        sd = np.zeros(grid.n_gauss)
        for g in range(mesh.n_gauss):
            den += wg[g] * (comp[g] @ sig_bar[g])
            se += wg[g] * (sig_bar[g] @ eps_bar[g])
            for t in range(grid.n_gauss):
                for v in range(6):
                    sd[t] += comp[g, v] * delta[g, t, v] * wg[g]
        self.assert_close(seen[0], (se * lam.values_at_gauss() - sd) / den)

    def test_gap_norms(self, setup):
        mesh, system, grid = setup
        _, delta, wg, wt = self.fields(setup, 34)
        c = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        want = 0.0
        for g in range(mesh.n_gauss):
            for t in range(grid.n_gauss):
                want += wg[g] * wt[t] * (delta[g, t] ** 2 @ c)
        self.assert_close(gap_norms(delta, mesh, grid, HOOKE)[0], want)

    def test_mode_products(self, setup):
        mesh, system, grid = setup
        rng, delta, wg, _ = self.fields(setup, 35)
        mode = self.random_mode(setup, rng)
        c = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        rows = (mode.sig_bar * c, mode.sig_bar @ HOOKE.inverse.T, mode.eps_bar)
        want = np.zeros((3, grid.n_gauss))
        for i, x in enumerate(rows):
            for t in range(grid.n_gauss):
                for g in range(mesh.n_gauss):
                    want[i, t] += wg[g] * (delta[g, t] @ x[g])
        self.assert_close(mode_products(delta, mode, mesh, HOOKE), want)

    @pytest.mark.parametrize("with_mode", [False, True])
    def test_cre_functional(self, setup, with_mode):
        mesh, system, grid = setup
        rng, delta, wg, wt = self.fields(setup, 32)
        resid = delta.copy()
        mode = None
        if with_mode:
            mode = self.random_mode(setup, rng)
            lv, mv = mode.lam.values_at_gauss(), mode.mu.values_at_gauss()
            e_bar = HOOKE.apply(mode.eps_bar)
            for g in range(mesh.n_gauss):
                for t in range(grid.n_gauss):
                    resid[g, t] += mode.sig_bar[g] * mv[t] - e_bar[g] * lv[t]
        want = 0.0
        for g in range(mesh.n_gauss):
            for t in range(grid.n_gauss):
                r = resid[g, t]
                want += wg[g] * wt[t] * (r @ HOOKE.inverse @ r)
        self.assert_close(cre(delta, mesh, grid, HOOKE, mode), want)


class TestEnrich:
    def test_zero_delta_no_enrichment(self, setup):
        mesh, system, grid = setup
        mode, info = enrich(np.zeros((mesh.n_gauss, grid.n_gauss, 6)), system,
                            grid, HOOKE, np.random.default_rng(0), ZETA_STOP)
        assert mode is None and info["iterations"] == 0

    def test_manufactured_rank_one(self, setup):
        mesh, system, grid = setup
        rng = np.random.default_rng(42)
        _, eps_w = random_mode_shape(mesh, system, rng)
        g = np.sin(2 * np.pi * 3.0 * grid.all_gauss_times)
        delta = rank_one_delta(eps_w, g)
        j0 = cre(delta, mesh, grid, HOOKE)
        mode, info = enrich(delta, system, grid, HOOKE, np.random.default_rng(7),
                            ZETA_STOP)
        j1 = cre(delta, mesh, grid, HOOKE, mode)
        assert j1 <= 1e-3 * j0     # acceptance bound
        assert j1 <= 1e-6 * j0     # regression margin (measured ~3e-12 of j0)
        assert info["zeta"][-1] < 1e-2

    def test_gap_functional_never_increases(self, setup):
        mesh, system, grid = setup
        rng = np.random.default_rng(3)
        delta = rng.normal(size=(mesh.n_gauss, grid.n_gauss, 6)) * 1e4
        j0 = cre(delta, mesh, grid, HOOKE)
        mode, _ = enrich(delta, system, grid, HOOKE, np.random.default_rng(11),
                         ZETA_STOP)
        j1 = cre(delta, mesh, grid, HOOKE, mode)
        assert j1 <= j0 * (1.0 + 1e-9)

    def test_deterministic_under_fixed_seed(self, setup):
        mesh, system, grid = setup
        rng = np.random.default_rng(3)
        delta = rng.normal(size=(mesh.n_gauss, grid.n_gauss, 6)) * 1e4
        m1, i1 = enrich(delta, system, grid, HOOKE, np.random.default_rng(11),
                        ZETA_STOP)
        m2, i2 = enrich(delta, system, grid, HOOKE, np.random.default_rng(11),
                        ZETA_STOP)
        assert np.array_equal(m1.u_bar, m2.u_bar)
        assert np.array_equal(m1.sig_bar, m2.sig_bar)
        assert np.array_equal(m1.lam.coeffs, m2.lam.coeffs)
        assert np.array_equal(m1.mu.coeffs, m2.mu.coeffs)
        assert i1["zeta"] == i2["zeta"]

    def test_normalized_output(self, setup):
        mesh, system, grid = setup
        rng = np.random.default_rng(3)
        delta = rng.normal(size=(mesh.n_gauss, grid.n_gauss, 6)) * 1e4
        mode, _ = enrich(delta, system, grid, HOOKE, np.random.default_rng(1),
                         ZETA_STOP)
        assert strain_norm(mode.eps_bar, mesh) == pytest.approx(1.0, rel=1e-12)
        assert np.array_equal(mode.eps_bar, strain_at_gauss(mesh, mode.u_bar))


class TestRelaxMode:
    def make_mode(self, setup):
        mesh, system, grid = setup
        rng = np.random.default_rng(20)
        u, eps = random_mode_shape(mesh, system, rng)
        return PgdMode(u, eps, HOOKE.apply(eps),
                       TimeFunction(grid, rng.normal(size=(grid.n_elements, 4))),
                       TimeFunction(grid, rng.normal(size=(grid.n_elements, 4))))

    def test_identity_at_one(self, setup):
        mode = self.make_mode(setup)
        assert relax_mode(mode, 1.0) is mode

    def test_exact_scaling(self, setup):
        mode = self.make_mode(setup)
        relaxed = relax_mode(mode, 0.4)
        assert np.array_equal(relaxed.lam.coeffs, 0.4 * mode.lam.coeffs)
        assert np.array_equal(relaxed.mu.coeffs, 0.4 * mode.mu.coeffs)
        assert relaxed.u_bar is mode.u_bar

    def test_field_level_blend(self, setup):
        # adding the relaxed mode equals blending the two reconstructions
        mesh, system, grid = setup
        rng = np.random.default_rng(21)
        elastic = (rng.normal(size=(mesh.n_dofs, grid.n_gauss)),
                   rng.normal(size=(mesh.n_gauss, grid.n_gauss, 6)),
                   rng.normal(size=(mesh.n_gauss, grid.n_gauss, 6)))
        base = PgdSolution(grid, *elastic)
        mode = self.make_mode(setup)
        # each solution owns its arrays, so the other two get copies
        with_full = PgdSolution(grid, *(f.copy() for f in elastic))
        with_full.add_mode(mode)
        blended = PgdSolution(grid, *(f.copy() for f in elastic))
        blended.add_mode(relax_mode(mode, 0.4))
        for got, prev, full in zip(blended.fields(), base.fields(),
                                   with_full.fields()):
            assert np.allclose(got, 0.6 * prev + 0.4 * full, rtol=1e-12)

    @pytest.mark.parametrize("omega", [0.0, -0.5, 1.5])
    def test_invalid_omega(self, setup, omega):
        with pytest.raises(ValueError, match="relaxation factor"):
            relax_mode(self.make_mode(setup), omega)


class TestSolutionReconstruct:
    def elastic(self, setup, seed=30):
        """Random elastic fields (u, eps, sig) and a solution owning copies."""
        mesh, system, grid = setup
        rng = np.random.default_rng(seed)
        fields = (rng.normal(size=(mesh.n_dofs, grid.n_gauss)),
                  rng.normal(size=(mesh.n_gauss, grid.n_gauss, 6)),
                  rng.normal(size=(mesh.n_gauss, grid.n_gauss, 6)))
        return fields, PgdSolution(grid, *(f.copy() for f in fields))

    def test_zero_modes(self, setup):
        (u_el, eps_el, sig_el), sol = self.elastic(setup)
        u, eps, sig = sol.fields()
        assert np.array_equal(u, u_el)
        assert np.array_equal(eps, eps_el)
        assert np.array_equal(sig, sig_el)

    def test_fields_are_the_given_arrays(self, setup):
        given, _ = self.elastic(setup)
        sol = PgdSolution(setup[2], *given)
        assert all(got is want for got, want in zip(sol.fields(), given))

    def test_single_product_by_hand(self, setup):
        mesh, system, grid = setup
        (_, eps_el, sig_el), sol = self.elastic(setup)
        rng = np.random.default_rng(31)
        u, eps = random_mode_shape(mesh, system, rng)
        mode = PgdMode(u, eps, HOOKE.apply(eps),
                       TimeFunction(grid, rng.normal(size=(grid.n_elements, 4))),
                       TimeFunction(grid, rng.normal(size=(grid.n_elements, 4))))
        sol.add_mode(mode)
        _, eps_f, sig_f = sol.fields()
        g, t = 17, 5
        lam_t = mode.lam.values_at_gauss()[t]
        mu_t = mode.mu.values_at_gauss()[t]
        assert eps_f[g, t] == pytest.approx(
            eps_el[g, t] + mode.eps_bar[g] * lam_t, rel=1e-12)
        assert sig_f[g, t] == pytest.approx(
            sig_el[g, t] + mode.sig_bar[g] * mu_t, rel=1e-12)

    def test_dense_accumulation_oracle(self, setup):
        mesh, system, grid = setup
        (u_el, eps_el, sig_el), sol = self.elastic(setup)
        rng = np.random.default_rng(32)
        for _ in range(2):
            u, eps = random_mode_shape(mesh, system, rng)
            sol.add_mode(PgdMode(
                u, eps, HOOKE.apply(eps) * rng.uniform(0.5, 2.0),
                TimeFunction(grid, rng.normal(size=(grid.n_elements, 4))),
                TimeFunction(grid, rng.normal(size=(grid.n_elements, 4)))))
        u_f, eps_f, sig_f = sol.fields()
        eps_dense = eps_el.copy()
        sig_dense = sig_el.copy()
        u_dense = u_el.copy()
        for m in sol.modes:
            lv, mv = m.lam.values_at_gauss(), m.mu.values_at_gauss()
            for t in range(grid.n_gauss):
                eps_dense[:, t] += m.eps_bar * lv[t]
                sig_dense[:, t] += m.sig_bar * mv[t]
                u_dense[:, t] += m.u_bar * lv[t]
        assert np.allclose(eps_f, eps_dense, rtol=1e-12)
        assert np.allclose(sig_f, sig_dense, rtol=1e-12)
        assert np.allclose(u_f, u_dense, rtol=1e-12)


def normalized_solution(setup, n, seed=40):
    """Zero elastic fields plus n random normalized modes."""
    mesh, system, grid = setup
    sol = PgdSolution(grid,
                      np.zeros((mesh.n_dofs, grid.n_gauss)),
                      np.zeros((mesh.n_gauss, grid.n_gauss, 6)),
                      np.zeros((mesh.n_gauss, grid.n_gauss, 6)))
    rng = np.random.default_rng(seed)
    for _ in range(n):
        u, eps = random_mode_shape(mesh, system, rng)
        mode = PgdMode(u, eps, HOOKE.apply(eps) * rng.uniform(0.5, 2.0),
                       TimeFunction(grid, rng.normal(size=(grid.n_elements, 4))),
                       TimeFunction(grid, rng.normal(size=(grid.n_elements, 4))))
        _, mode = normalize_mode(mode, mesh)
        sol.add_mode(mode)
    return sol


class TestDumpModes:
    def test_csv_pair_layout(self, setup, tmp_path):
        mesh, system, grid = setup
        sol = normalized_solution(setup, n=2)
        paths = dump_modes(sol, str(tmp_path))
        assert len(paths) == 4
        space = (tmp_path / "mode_000_space.csv").read_text().splitlines()
        assert space[0] == "node,ux,uy,uz"
        assert len(space) == 1 + mesh.n_nodes
        time = (tmp_path / "mode_001_time.csv").read_text().splitlines()
        assert time[0] == "element,local_node,t,lam,mu"
        first = time[1].split(",")
        assert float(first[2]) == 0.0
        assert float(first[3]) == pytest.approx(sol.modes[1].lam.coeffs[0, 0])
