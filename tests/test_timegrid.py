"""Time-DG grid checks: inner products, fits, the element march, resampling."""

import numpy as np
import pytest

from scipy.linalg import lu_factor, lu_solve

from latinpgd.timegrid import (_GW, _GX, TimeFunction, TimeGrid, _basis, l2_fit,
                               quad_resample_blocks, tdgm_march)


class TestTimeGrid:
    def test_dof_count(self):
        g = TimeGrid(2.0, 100)
        assert g.node_times.size == 4 * 100
        assert g.n_gauss == 4 * 100

    def test_partition_of_unity_at_gauss_points(self):
        g = TimeGrid(1.7, 13)
        assert np.allclose(g.N.sum(axis=1), 1.0, atol=1e-14)
        assert np.allclose(g.dN.sum(axis=1), 0.0, atol=1e-12)

    def test_gauss_weights_sum_to_horizon(self):
        g = TimeGrid(2.0, 100)
        assert g.all_gauss_weights.sum() == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("T,n", [(0.0, 4), (-1.0, 4), (1.0, 0), (np.nan, 4),
                                     (np.inf, 4), (1.0, np.nan), (0.5, 10.5)])
    def test_invalid_grid_rejected(self, T, n):
        with pytest.raises(ValueError):
            TimeGrid(T, n)


class TestStInner:
    def test_constant_pair(self):
        g = TimeGrid(2.0, 25)
        one = l2_fit(g, np.ones(g.n_gauss))
        assert g.inner(one.values_at_gauss(), one.values_at_gauss()) == pytest.approx(
            2.0, rel=1e-14)

    def test_linear_against_constant(self):
        g = TimeGrid(1.0, 10)
        t = l2_fit(g, g.all_gauss_times)
        one = l2_fit(g, np.ones(g.n_gauss))
        assert g.inner(t.values_at_gauss(), one.values_at_gauss()) == pytest.approx(
            0.5, rel=1e-13)

    def test_random_cubic_pair_matches_trapezoid_oracle(self):
        rng = np.random.default_rng(21)
        g = TimeGrid(2.0, 8)
        pa = rng.normal(size=4)
        pb = rng.normal(size=4)
        f = l2_fit(g, np.polyval(pa, g.all_gauss_times))
        h = l2_fit(g, np.polyval(pb, g.all_gauss_times))
        tt = np.linspace(0.0, 2.0, 200001)
        oracle = np.trapezoid(np.polyval(pa, tt) * np.polyval(pb, tt), tt)
        assert g.inner(f.values_at_gauss(), h.values_at_gauss()) == pytest.approx(
            oracle, rel=1e-10)

    def test_grid_mismatch_rejected(self):
        # samples of two grids with different element counts do not pair up
        g1, g2 = TimeGrid(1.0, 4), TimeGrid(1.0, 5)
        f = TimeFunction(g1, np.zeros((4, 4)))
        h = TimeFunction(g2, np.zeros((5, 4)))
        with pytest.raises(ValueError):
            g1.inner(f.values_at_gauss(), h.values_at_gauss())


class TestL2Fit:
    def test_constant_samples(self):
        g = TimeGrid(3.0, 6)
        f = l2_fit(g, np.full(g.n_gauss, 4.25))
        assert np.allclose(f.coeffs, 4.25, atol=1e-13)

    def test_cubic_reproduced_exactly(self):
        g = TimeGrid(1.0, 1)
        f = l2_fit(g, g.all_gauss_times ** 3)
        assert np.allclose(f.coeffs[0], np.array([0.0, 1.0, 2.0, 3.0]) ** 3 / 27.0,
                           atol=1e-14)

    def test_sine_fit_below_interpolation_bound(self):
        # cubic interpolation error bound: max|f''''|/4! * max|prod(t - t_gauss)|
        g = TimeGrid(2.0, 20)
        f = l2_fit(g, np.sin(g.all_gauss_times))
        tau = np.linspace(0.0, 1.0, 2001)
        w = np.abs(np.prod(tau[:, None] - _GX[None, :], axis=1)).max()
        bound = g.h ** 4 * w / 24.0
        # exact at the Gauss samples it fits; within the bound at the nodal
        # values, which sit between them and at the element ends
        assert np.allclose(f.values_at_gauss(), np.sin(g.all_gauss_times),
                           rtol=0.0, atol=1e-14)
        err = np.abs(f.coeffs - np.sin(g.node_times)).max()
        assert 0.0 < err < bound


class TestTimeFunction:
    def test_shape_validation(self):
        g = TimeGrid(1.0, 3)
        with pytest.raises(ValueError):
            TimeFunction(g, np.zeros((2, 4)))


class TestMarch:
    def test_nonpositive_mass_coefficient_rejected(self):
        g = TimeGrid(1.0, 4)
        for a in (0.0, -1.0):
            with pytest.raises(ValueError, match="coefficient a"):
                tdgm_march(g, a, 0.5, 2.0, g.rows(np.ones(g.n_gauss)))

    def test_forced_oscillator_oracle(self):
        # a lam'' + omega^2 lam = sin(Omega t), lam(0) = lam'(0) = 0:
        # lam = (sin(Omega t) - (Omega/omega) sin(omega t)) / (omega^2 - Omega^2)
        omega = 2.0 * np.pi * 0.7
        Omega = 2.0 * np.pi * 1.0
        g = TimeGrid(2.0, 80)  # 40 elements per forcing period
        t = g.all_gauss_times
        lam = tdgm_march(g, 1.0, 0.0, omega ** 2, g.rows(np.sin(Omega * t)))
        exact = (np.sin(Omega * t) - (Omega / omega) * np.sin(omega * t)) / (omega ** 2 - Omega ** 2)
        w = g.all_gauss_weights
        err = np.sqrt(w @ (lam.values_at_gauss() - exact) ** 2 / (w @ exact ** 2))
        assert err < 1e-2          # contract tolerance
        assert err <= 1e-5         # regression guard (measured 2.25e-7)

    def test_forced_oscillator_weak_continuity(self):
        omega = 2.0 * np.pi * 0.7
        Omega = 2.0 * np.pi * 1.0
        g = TimeGrid(2.0, 80)
        lam = tdgm_march(g, 1.0, 0.0, omega ** 2,
                         g.rows(np.sin(Omega * g.all_gauss_times)))
        # the value row makes lam(t_k+) = lam(t_k-) up to round-off
        jumps = np.abs(lam.coeffs[1:, 0] - lam.coeffs[:-1, 3])
        assert jumps.max() <= 1e-13 * np.abs(lam.coeffs).max()

    def test_convergence_under_refinement(self):
        omega = 2.0 * np.pi * 0.7
        Omega = 2.0 * np.pi * 1.0
        errs = []
        for n in (20, 40, 80):
            g = TimeGrid(2.0, n)
            t = g.all_gauss_times
            lam = tdgm_march(g, 1.0, 0.0, omega ** 2, g.rows(np.sin(Omega * t)))
            exact = (np.sin(Omega * t) - (Omega / omega) * np.sin(omega * t)) / (omega ** 2 - Omega ** 2)
            w = g.all_gauss_weights
            errs.append(np.sqrt(w @ (lam.values_at_gauss() - exact) ** 2 / (w @ exact ** 2)))
        # second-order convergence: each halving divides the error by ~4
        assert errs[1] < errs[0] / 3.4
        assert errs[2] < errs[1] / 3.4

    def test_fourth_order_in_l2_and_fifth_at_element_ends(self):
        # the forced oscillator above; measured ratios 16.4, 16.1 (L2) and
        # 32.2, 31.8 (element ends)
        omega = 2.0 * np.pi * 0.7
        Omega = 2.0 * np.pi * 1.0

        def exact(t):
            return ((np.sin(Omega * t) - (Omega / omega) * np.sin(omega * t))
                    / (omega ** 2 - Omega ** 2))

        l2, ends = [], []
        for n in (20, 40, 80):
            g = TimeGrid(2.0, n)
            t = g.all_gauss_times
            lam = tdgm_march(g, 1.0, 0.0, omega ** 2, g.rows(np.sin(Omega * t)))
            w = g.all_gauss_weights
            l2.append(np.sqrt(w @ (lam.values_at_gauss() - exact(t)) ** 2
                              / (w @ exact(t) ** 2)))
            end = exact(g.t_bounds[1:])
            ends.append(np.abs(lam.coeffs[:, 3] - end).max() / np.abs(end).max())
        assert l2[0] / l2[1] >= 12.0 and l2[1] / l2[2] >= 12.0
        assert ends[0] / ends[1] >= 24.0 and ends[1] / ends[2] >= 24.0

    @pytest.mark.parametrize("zeta", [0.0, 1.0, 6.5])
    def test_transfer_map_spectral_radius(self, zeta):
        # One element of unit length marched from unit (value, velocity)
        # starts gives the columns of the free transfer map of (end value,
        # end velocity); omega*h spans the resolved to the stiff limit.
        g = TimeGrid(1.0, 1)
        dN1 = _basis(1.0, 1)
        radii = []
        for wh in np.logspace(-2, 6, 81):
            columns = [tdgm_march(g, 1.0, 2.0 * zeta * wh, wh ** 2,
                                  g.rows(np.zeros(4)),
                                  lam_init=init[0], vel_init=init[1]).coeffs[0]
                       for init in ((1.0, 0.0), (0.0, 1.0))]
            T = np.array([[col[3], col @ dN1] for col in columns]).T
            radii.append(np.abs(np.linalg.eigvals(T)).max())
        if zeta == 0.0:
            assert max(radii) <= 1.0 + 1e-12      # measured 1 + 5.8e-15
        else:
            assert max(radii) < 1.0

    def test_cubic_solution_reproduced(self):
        g = TimeGrid(2.0, 8)
        t = g.all_gauss_times
        u = 1.0 - 2.0 * t + 3.0 * t ** 2 - 0.5 * t ** 3
        du = -2.0 + 6.0 * t - 1.5 * t ** 2
        d2u = 6.0 - 3.0 * t
        a, c, b = 2.0, 0.7, 3.0
        lam = tdgm_march(g, a, c, b, g.rows(a * d2u + c * du + b * u),
                         lam_init=1.0, vel_init=-2.0)
        assert np.abs(lam.values_at_gauss() - u).max() < 1e-10

    def test_stiff_mode_damped_not_amplified(self):
        # omega*h = 20: far above the grid resolution; the march must stay bounded
        g = TimeGrid(40.0, 40)
        lam = tdgm_march(g, 1.0, 0.0, 400.0, g.rows(np.zeros(g.n_gauss)), lam_init=1.0)
        assert np.all(np.isfinite(lam.coeffs))
        assert np.abs(lam.coeffs[-10:]).max() < 1.0

    def test_resolved_ringdown_keeps_amplitude(self):
        # 40 elements per period over 25 periods: amplitude loss ~0.04%/period
        omega = 2.0 * np.pi
        g = TimeGrid(25.0, 1000)
        lam = tdgm_march(g, 1.0, 0.0, omega ** 2, g.rows(np.zeros(g.n_gauss)),
                         lam_init=1.0, vel_init=0.0)
        amp = np.abs(lam.values_at_gauss()[-160:]).max()
        assert 0.98 < amp <= 1.0 + 1e-9

    def test_damped_oscillator_against_analytic(self):
        # underdamped free vibration with 5% damping ratio
        omega, xi = 2.0 * np.pi, 0.05
        omd = omega * np.sqrt(1.0 - xi ** 2)
        g = TimeGrid(3.0, 120)
        t = g.all_gauss_times
        lam = tdgm_march(g, 1.0, 2.0 * xi * omega, omega ** 2,
                         g.rows(np.zeros(g.n_gauss)), lam_init=1.0)
        exact = np.exp(-xi * omega * t) * (np.cos(omd * t)
                                           + xi * omega / omd * np.sin(omd * t))
        assert np.abs(lam.values_at_gauss() - exact).max() < 2e-2


def per_element_march(grid, a, c, b, f, lam_init=0.0, vel_init=0.0):
    """The march element by element: one LU solve per element, carrying the
    end value and end velocity into the next element's right-hand side.

    On element k, lam = e + x_1 N_1 + x_2 N_2 + x_3 N_3 with e the carried
    end value, and for w = tau^p, p = 1, 2, 3, the rows are the Gauss rule
    of int_0^1 w' (a lam'' + c lam' + b lam - f) dtau, plus (a / h) [lam']
    on the p = 1 row.  The operator is built from the grid's shape tables
    as the march builds it, so the two differ only in how they march.
    """
    g = grid
    f = np.asarray(f, dtype=float).reshape(g.n_elements, 4)
    x, w = _GX, _GW
    test = np.array([w * p * x ** (p - 1) for p in (1, 2, 3)])
    A = (test @ (a * g.d2N + c * g.dN + b * g.N))[:, 1:]
    A[0] += a / g.h * _basis(0.0, 1)[1:] / g.h
    lu = lu_factor(A)
    dN1 = _basis(1.0, 1)[1:] / g.h
    coeffs = np.empty((g.n_elements, 4))
    end, vel = lam_init, vel_init
    for k in range(g.n_elements):
        rhs = test @ f[k] - b * end
        rhs[0] += a / g.h * vel
        inc = lu_solve(lu, rhs)
        coeffs[k] = end + np.concatenate([[0.0], inc])
        end, vel = coeffs[k, 3], inc @ dN1
    return coeffs


class TestMarchSuperposition:
    @pytest.mark.parametrize("a,c,b", [(1.0, 0.0, 5000.0), (2.3, 0.4, 80.0),
                                       (1e-3, 1e-2, 30.0)])
    @pytest.mark.parametrize("init", [(0.0, 0.0), (0.3, -0.7)])
    def test_matches_the_per_element_march(self, a, c, b, init):
        g = TimeGrid(2.0, 400)
        f = np.random.default_rng(41).normal(size=g.n_gauss)
        lam = tdgm_march(g, a, c, b, g.rows(f), lam_init=init[0], vel_init=init[1])
        want = per_element_march(g, a, c, b, f, *init)
        assert np.abs(lam.coeffs - want).max() <= 1e-12 * np.abs(want).max()

    def test_non_finite_names_the_first_bad_element(self):
        g = TimeGrid(1.0, 12)
        f = np.ones(g.n_gauss)
        f[4 * 5 + 2] = np.nan
        with pytest.raises(ValueError, match="non-finite values in element 5$"):
            tdgm_march(g, 1.0, 0.1, 40.0, g.rows(f))


class TestRows:
    def test_rows_of_a_cubic_forcing_are_its_exact_integrals(self):
        # row k, column p - 1 is int_0^1 p tau^(p-1) f(t_k + h tau) dtau
        g = TimeGrid(1.5, 6)
        f = np.polynomial.Polynomial([0.7, -2.0, 3.0, 1.3])
        exact = np.empty((g.n_elements, 3))
        for k, t_k in enumerate(g.t_bounds[:-1]):
            local = f(np.polynomial.Polynomial([t_k, g.h]))
            for p in (1, 2, 3):
                w_prime = np.polynomial.Polynomial.basis(p - 1) * p
                exact[k, p - 1] = (w_prime * local).integ()(1.0)
        rows = g.rows(f(g.all_gauss_times))
        assert rows.shape == (g.n_elements, 3)
        # measured 2.2e-16
        assert np.abs(rows - exact).max() <= 1e-14 * np.abs(exact).max()

    def test_a_velocity_jump_is_a_row(self):
        # The w = tau row carries a w'(t_0+) [lam'(t_0)] = (a / h)(lam'(0+) - v):
        # a start at velocity v is a start from rest with (a / h) v added
        # to element 0's first row.
        g = TimeGrid(2.0, 50)
        a, c, b, v = 2.3, 0.4, 80.0, -0.7
        rows = g.rows(np.random.default_rng(5).normal(size=g.n_gauss))
        want = tdgm_march(g, a, c, b, rows, vel_init=v).coeffs
        jumped = rows.copy()
        jumped[0, 0] += a / g.h * v
        got = tdgm_march(g, a, c, b, jumped).coeffs
        # measured 2.4e-16
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_march_rejects_gauss_samples(self):
        g = TimeGrid(1.0, 4)
        with pytest.raises(ValueError, match=r"\(n_elements, 3\), got \(16,\)"):
            tdgm_march(g, 1.0, 0.1, 40.0, np.ones(g.n_gauss))


def per_element_quadratic(grid, hist):
    """Reference resampling of a time-last history (..., 2*N_T+1).

    Element k holds the samples s0, s1, s2 at local x = 0, 1/2, 1; their
    quadratic is s0 (2x-1)(x-1) - 4 s1 x(x-1) + s2 x(2x-1) at the Gauss x.
    """
    x = _GX
    out = np.empty(hist.shape[:-1] + (grid.n_gauss,))
    for k in range(grid.n_elements):
        s0, s1, s2 = (hist[..., 2 * k + j, None] for j in range(3))
        out[..., 4 * k:4 * k + 4] = (s0 * (2 * x - 1) * (x - 1)
                                     - 4 * s1 * x * (x - 1)
                                     + s2 * x * (2 * x - 1))
    return out


class TestQuadResample:
    def test_kernel_matches_per_element_formula_in_both_layouts(self):
        rng = np.random.default_rng(23)
        g = TimeGrid(1.5, 7)
        fields = rng.normal(size=(5, 2 * 7 + 1, 6))          # (n_gauss, n_t, 6)
        ref = np.moveaxis(per_element_quadratic(g, np.moveaxis(fields, 1, -1)), -1, 1)
        out = quad_resample_blocks(g, fields)
        assert out.shape == (5, g.n_gauss, 6)
        np.testing.assert_allclose(out, ref, rtol=0.0, atol=1e-14 * np.abs(ref).max())
        hist = rng.normal(size=(12, 2 * 7 + 1))              # time axis last
        ref = per_element_quadratic(g, hist)
        out = quad_resample_blocks(g, hist[:, :, None])[:, :, 0]
        assert out.shape == (12, g.n_gauss)
        np.testing.assert_allclose(out, ref, rtol=0.0, atol=1e-14 * np.abs(ref).max())

    def test_kernel_reproduces_piecewise_quadratics(self):
        # a global quadratic plus a different bubble on every element,
        # vanishing at the element ends: quadratic on each element
        g = TimeGrid(2.0, 6)
        rng = np.random.default_rng(29)
        amp = rng.normal(size=(4, g.n_elements))

        def history(t):
            k = np.clip(np.ceil(t / g.h).astype(int) - 1, 0, g.n_elements - 1)
            tl = t - g.t_bounds[k]
            return (0.5 + np.multiply.outer(np.arange(1, 5), t)
                    - 3.0 * t ** 2 + amp[:, k] * tl * (g.h - tl))

        steps = np.linspace(0.0, g.T, 2 * g.n_elements + 1)
        exact = history(g.all_gauss_times)
        out = quad_resample_blocks(g, history(steps)[:, :, None])[:, :, 0]
        np.testing.assert_allclose(out, exact, rtol=0.0, atol=1e-13 * np.abs(exact).max())

    def test_kernel_rejects_wrong_layout(self):
        g = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            quad_resample_blocks(g, np.zeros((3, 8, 6)))
        with pytest.raises(ValueError):
            quad_resample_blocks(g, np.zeros((3, 9)))

    def test_quadratic_history_exact(self):
        g = TimeGrid(2.0, 10)
        steps = np.linspace(0.0, 2.0, 2 * 10 + 1)
        vals = 3.0 * steps ** 2 - steps + 0.5
        out = quad_resample_blocks(g, vals[None, :, None])[0, :, 0]
        t = g.all_gauss_times
        assert np.allclose(out, 3.0 * t ** 2 - t + 0.5, atol=1e-12)

    def test_vector_valued_history(self):
        rng = np.random.default_rng(17)
        g = TimeGrid(1.0, 4)
        vals = rng.normal(size=(3, 2 * 4 + 1))
        out = quad_resample_blocks(g, vals[:, :, None])[:, :, 0]
        assert out.shape == (3, g.n_gauss)

    def test_wrong_sample_count_rejected(self):
        g = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            quad_resample_blocks(g, np.zeros((1, 8, 1)))
