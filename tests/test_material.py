"""Damage model checks: energy, softening pair, delay ODE, closure, update stage."""

import numpy as np
import pytest

from latinpgd import material
from latinpgd.material import (CLOSURE_TRACE_GUARD, MaterialParams,
                               crack_closure_stress, dual_softening,
                               integrate_delay, local_stage, matpoint_drive,
                               reference_concrete, released_energy,
                               static_damage, tension_peak_history,
                               total_stress)
from latinpgd.tensors import HookeTensor, matrix_to_voigt

from test_tensors import STRAINS

P = reference_concrete()
HOOKE = P.hooke()
C1111 = HOOKE.matrix[0, 0]
THRESHOLD_STRAIN = np.sqrt(2.0 * P.Y0 / C1111)   # 8.44e-5


def uniaxial(e):
    v = np.zeros(6)
    v[0] = e
    return v


class TestParams:
    def test_reference_values(self):
        assert (P.rho, P.E, P.nu) == (2550.0, 37.9e9, 0.2)
        assert (P.Y0, P.A_d, P.tau_c, P.a, P.a_c, P.xi) == (150.0, 8.0e-3, 0.05,
                                                            15.0, 9.0, 0.02)

    @pytest.mark.parametrize("field,value", [("rho", -1.0), ("E", 0.0),
                                             ("nu", 0.5), ("Y0", -5.0),
                                             ("tau_c", 0.0), ("xi", 1.0)])
    def test_invalid_rejected(self, field, value):
        kw = dict(rho=2550.0, E=37.9e9, nu=0.2, Y0=150.0, A_d=8e-3,
                  tau_c=0.05, a=15.0, a_c=9.0, xi=0.02)
        kw[field] = value
        with pytest.raises(ValueError):
            MaterialParams(**kw)


class TestReleasedEnergy:
    def test_zero_strain(self):
        assert released_energy(np.zeros(6), HOOKE) == 0.0

    def test_pure_compression(self):
        eps = matrix_to_voigt(-1e-4 * np.eye(3), "strain")
        assert released_energy(eps, HOOKE) == 0.0

    def test_uniaxial_closed_form_and_threshold(self):
        e = 2e-4
        Y = released_energy(uniaxial(e), HOOKE)
        assert Y == pytest.approx(0.5 * C1111 * e ** 2, rel=1e-12)
        assert THRESHOLD_STRAIN == pytest.approx(8.44e-5, abs=5e-8)
        assert released_energy(uniaxial(THRESHOLD_STRAIN), HOOKE) == pytest.approx(
            P.Y0, rel=1e-12)


class TestSofteningPair:
    def test_threshold_and_midpoint(self):
        assert static_damage(P.Y0, P) == 0.0
        assert static_damage(P.Y0 - 50.0, P) == 0.0
        assert static_damage(P.Y0 + 1.0 / P.A_d, P) == pytest.approx(0.5, rel=1e-14)
        assert static_damage(400.0, P) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_monotone_and_bounded(self):
        Y = np.linspace(0.0, 1e5, 500)
        d = static_damage(Y, P)
        assert np.all(np.diff(d) >= 0.0)
        assert d.min() == 0.0 and d.max() < 1.0

    def test_dual_values(self):
        assert dual_softening(0.0, P) == 0.0
        assert dual_softening(-0.5, P) == pytest.approx(125.0, rel=1e-14)

    def test_dual_rejects_saturated(self):
        with pytest.raises(ValueError):
            dual_softening(-1.0, P)

    def test_consistency_closes_threshold(self):
        rng = np.random.default_rng(12)
        Y = P.Y0 + rng.uniform(1.0, 5e3, size=50)
        Z = dual_softening(-static_damage(Y, P), P)
        assert np.allclose(Y - (P.Y0 + Z), 0.0, atol=1e-9 * Y.max())


class TestDelayIntegration:
    def test_equilibrium(self):
        t = np.linspace(0.01, 1.0, 40)
        d = integrate_delay(t, np.full((2, 40), 0.37), 0.37, P)
        assert np.allclose(d, 0.37, atol=1e-15)

    def test_step_initial_slope(self):
        t = np.array([1e-4, 2e-4])
        d = integrate_delay(t, np.ones((1, 2)), 0.0, P)
        slope = d[0, 0] / t[0]
        assert slope <= 1.0 / P.tau_c
        assert slope >= (1.0 / P.tau_c) * (1.0 - np.exp(-P.a)) * 0.99

    def test_constant_target_matches_closed_form(self):
        # dbar const: d = dbar - ln(1+(e^{a(dbar-d0)}-1)e^{-a t/tau})/a
        t = np.linspace(1e-3, 0.5, 400)
        d = integrate_delay(t, np.full((1, t.size), 0.6), 0.1, P)[0]
        gap0 = 0.6 - 0.1
        exact = 0.6 - np.log1p((np.exp(P.a * gap0) - 1.0)
                               * np.exp(-P.a * t / P.tau_c)) / P.a
        assert np.abs(d - exact).max() < 1e-4
        assert np.all(np.diff(d) >= 0.0)
        assert np.all(np.diff(0.6 - d) <= 0.0)   # gap decreasing

    def test_rate_bound(self):
        t = np.linspace(1e-3, 0.3, 300)
        dbar = np.clip(np.sin(20.0 * t), 0.0, 1.0)[None, :]
        d = integrate_delay(t, dbar, 0.0, P)[0]
        assert (np.diff(d) / np.diff(t)).max() <= 1.0 / P.tau_c + 1e-9

    def test_never_exceeds_target_sup(self):
        t = np.linspace(1e-3, 2.0, 800)
        dbar = np.full((1, t.size), 0.9)
        d = integrate_delay(t, dbar, 0.0, P)[0]
        assert d.max() <= 0.9 + 1e-12


class TestCrackClosure:
    def test_residual_at_peak(self):
        eps = uniaxial(2e-4)
        sig = crack_closure_stress(eps, eps, P, HOOKE)
        assert np.linalg.norm(sig) <= 2e-5 * np.linalg.norm(HOOKE.apply(eps))

    def test_deep_compression_recovers_elasticity(self):
        eps_max = uniaxial(2e-4)
        eps = uniaxial(-1e-3)          # tr ratio = -5
        sig = crack_closure_stress(eps, eps_max, P, HOOKE)
        assert np.allclose(sig, HOOKE.apply(eps), rtol=1e-14)

    def test_guard_rejected(self):
        with pytest.raises(ValueError):
            crack_closure_stress(uniaxial(1e-4), np.zeros(6), P, HOOKE)

    def test_total_stress_undamaged_is_elastic(self):
        rng = np.random.default_rng(3)
        eps = rng.normal(size=(10, 6)) * 1e-4
        sig = total_stress(eps, np.zeros((10, 6)), np.zeros(10), P, HOOKE)
        assert np.array_equal(sig, HOOKE.apply(eps))

    def test_total_stress_residual_at_zero_strain(self):
        eps_max = uniaxial(2e-4)
        d = 0.4
        sig = total_stress(np.zeros(6), eps_max, d, P, HOOKE)
        expect = -d * HOOKE.apply(eps_max) * np.log(2.0) / P.a_c
        assert np.allclose(sig, expect, rtol=1e-12)

    def test_total_stress_deep_compression_any_damage(self):
        eps_max = uniaxial(2e-4)
        eps = uniaxial(-2e-3)
        sig = total_stress(eps, eps_max, 0.5, P, HOOKE)
        assert np.allclose(sig, HOOKE.apply(eps), rtol=1e-2)


class TestTensionPeakHistory:
    def test_running_argmax(self):
        eps = np.zeros((1, 4, 6))
        eps[0, :, 0] = [1e-4, 3.0e-4, 2.0e-4, 2.9e-4]
        eps[0, :, 1] = [0.0, 1.0e-5, 2.0e-5, 2.0e-5]   # step 3 ties step 1
        em, trm = tension_peak_history(eps)
        assert np.allclose(trm[0], [1e-4, 3.1e-4, 3.1e-4, 3.1e-4])
        assert np.allclose(em[0, 2], eps[0, 1])
        assert np.allclose(em[0, 3], eps[0, 1])   # tie keeps earliest tensor
        assert np.all(np.diff(trm[0]) >= 0.0)


class TestLocalStage:
    def grid(self, n_t=60, T=1.0):
        return np.linspace(T / n_t, T, n_t)

    def test_all_elastic(self):
        t = self.grid()
        eps = np.zeros((3, t.size, 6))
        eps[:, :, 0] = 0.5 * THRESHOLD_STRAIN * np.sin(2 * np.pi * t)[None, :]
        zero = np.zeros((3, t.size))
        out = local_stage(eps, zero, zero, t, P, HOOKE)
        assert not out["d"].any()
        assert np.array_equal(out["sig"], HOOKE.apply(eps))

    def test_below_threshold_keeps_previous_variables(self):
        t = self.grid(10)
        eps = np.zeros((1, 10, 6))
        z_prev = np.full((1, 10), -0.3)
        Z_prev = np.full((1, 10), 5e3)  # large enough that f < 0 everywhere
        out = local_stage(eps, Z_prev, z_prev, t, P, HOOKE)
        assert np.array_equal(out["z"], z_prev)
        assert np.array_equal(out["Z"], Z_prev)
        assert np.allclose(out["dbar"], 0.3)

    def test_consistency_at_damaging_instants(self):
        t = self.grid()
        rng = np.random.default_rng(7)
        eps = rng.normal(size=(4, t.size, 6)) * 3e-4
        zero = np.zeros((4, t.size))
        out = local_stage(eps, zero, zero, t, P, HOOKE)
        damaging = out["Y"] > P.Y0
        f = out["Y"] - (P.Y0 + out["Z"])
        assert np.abs(f[damaging]).max() <= 1e-9 * out["Y"].max()

    def test_monotone_ramp_damage_below_static(self):
        t = self.grid(120, 2.0)
        eps = np.zeros((1, t.size, 6))
        eps[0, :, 0] = 3e-4 * t / 2.0
        zero = np.zeros((1, t.size))
        out = local_stage(eps, zero, zero, t, P, HOOKE)
        d = out["d"][0]
        assert np.all(np.diff(d) >= 0.0)
        assert np.all(d <= static_damage(out["Y"][0], P) + 1e-12)

    def test_point_order_invariance(self):
        t = self.grid()
        rng = np.random.default_rng(9)
        eps = rng.normal(size=(6, t.size, 6)) * 3e-4
        zero = np.zeros((6, t.size))
        out = local_stage(eps, zero, zero, t, P, HOOKE)
        perm = rng.permutation(6)
        out_p = local_stage(eps[perm], zero, zero, t, P, HOOKE)
        assert np.array_equal(out_p["sig"], out["sig"][perm])
        assert np.array_equal(out_p["d"], out["d"][perm])

    def test_nan_aborts_with_point_index(self):
        t = self.grid(5)
        eps = np.zeros((3, 5, 6))
        eps[1, 2, 0] = np.nan
        zero = np.zeros((3, 5))
        with pytest.raises(ValueError, match="point 1"):
            local_stage(eps, zero, zero, t, P, HOOKE)

    def test_matches_matpoint_drive_bitwise(self):
        t = self.grid(80)
        sig_x = 2e-4 * np.sin(2 * np.pi * 1.5 * t) * t
        eps = np.zeros((1, t.size, 6))
        eps[0, :, 0] = sig_x
        zero = np.zeros((1, t.size))
        out = local_stage(eps, zero, zero, t, P, HOOKE)
        drive = matpoint_drive(t, sig_x, P)
        assert np.array_equal(drive["sig_x"], out["sig"][0, :, 0])
        assert np.array_equal(drive["d"], out["d"][0])


class TestMatpointDrive:
    def test_subthreshold_is_linear(self):
        t = np.linspace(1e-3, 1.0, 200)
        e = 0.9 * THRESHOLD_STRAIN * np.sin(2 * np.pi * 2.0 * t)
        out = matpoint_drive(t, e, P)
        assert not out["d"].any()
        assert np.allclose(out["sig_x"], C1111 * e, rtol=1e-12)

    def test_growing_tension_loops(self):
        T, n = 7.0, 3000
        t = np.linspace(1e-3, T, n)
        env = np.interp(t, np.linspace(0.0, T, 8),
                        np.concatenate([[0.0], 2e-4 * (np.arange(7) + 1) / 7.0]))
        e = env * np.maximum(np.sin(2 * np.pi * t), 0.0)
        out = matpoint_drive(t, e, P)
        loop_max = np.array([out["d"][(t > k) & (t <= k + 1)].max()
                             for k in range(7)])
        assert np.all(np.diff(loop_max[3:]) > 0.0)   # growing once activated
        assert np.all(np.diff(out["d"]) >= 0.0)
        gap = out["dbar"] - out["d"]
        assert gap.max() > 0.01                       # delay visibly lags

    def test_slow_loading_closes_delay_gap(self):
        T, n = 700.0, 3000
        t = np.linspace(0.1, T, n)
        e = 2e-4 * np.clip(t / T, 0.0, 1.0)
        out = matpoint_drive(t, e, P)
        active = out["dbar"] > 0.05
        assert (out["dbar"] - out["d"])[active].max() < 5e-3

    def test_compression_secant_after_damage(self):
        t = np.linspace(1e-3, 2.0, 1500)
        e = np.where(t < 1.0, 2e-4 * np.sin(np.pi * t),
                     -6e-4 * np.sin(np.pi * (t - 1.0)))
        out = matpoint_drive(t, e, P)
        assert out["d"].max() > 0.5                   # damage happened
        deep = e < -4e-4
        secant = out["sig_x"][deep] / e[deep]
        assert np.allclose(secant, C1111, rtol=1e-2)

    def test_tension_softening_envelope(self):
        # quasi-static ramp: post-peak stress decreases along the envelope
        t = np.linspace(0.05, 50.0, 2000)
        e = 6e-4 * t / 50.0
        out = matpoint_drive(t, e, P)
        peak = out["sig_x"].argmax()
        post = out["sig_x"][peak:]
        assert post.size > 10
        assert np.all(np.diff(post) < 0.0)


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def unscreened_stress(eps, eps_max, d):
    """(1-d) E:eps + d E:F(eps) evaluated at every point, F = 0 without history."""
    d = np.asarray(d, dtype=float)
    elastic = HOOKE.apply(eps)
    closed = eps_max[..., :3].sum(axis=-1) > CLOSURE_TRACE_GUARD
    sig_cr = np.zeros_like(elastic)
    sig_cr[closed] = crack_closure_stress(eps[closed], eps_max[closed], P, HOOKE)
    return (1.0 - d)[..., None] * elastic + d[..., None] * sig_cr


class TestScreens:
    """The screened damage-law kernels equal their everywhere-evaluated forms bit for bit."""

    @pytest.mark.parametrize("floor", [0.0, P.Y0, 1e3 * P.Y0])
    @pytest.mark.parametrize("case", list(STRAINS) + ["tight_isotropic"])
    def test_released_energy_floor(self, case, floor):
        if case == "tight_isotropic":
            # e I has |eps|^2 = 3 e^2 and Y = B: the bound is attained here.
            e = np.sqrt(floor / (1.5 * (3.0 * HOOKE.lam + 2.0 * HOOKE.mu)))
            eps = e * np.eye(3)[None]
        else:
            eps = STRAINS[case]
        eps_v = matrix_to_voigt(eps, "strain")
        assert_bitwise(released_energy(eps_v, HOOKE, floor),
                       np.maximum(released_energy(eps_v, HOOKE), floor))

    @pytest.mark.parametrize("side", [1.0 - 1e-6, 1.0 + 1e-6])
    def test_released_energy_floor_with_negative_lame(self, side):
        # With lam < 0 the bound must use max(lam, 0): 1/2 (3 lam + 2 mu) e^2
        # lies below the uniaxial Y = 1/2 (lam + 2 mu) e^2.
        hooke = HookeTensor(P.E, -0.3)
        assert hooke.lam < 0.0
        e = side * np.sqrt(2.0 * P.Y0 / (hooke.lam + 2.0 * hooke.mu))
        eps_v = uniaxial(e)[None]
        Y = released_energy(eps_v, hooke)
        assert (Y[0] > P.Y0) == (side > 1.0)
        assert_bitwise(released_energy(eps_v, hooke, P.Y0), np.maximum(Y, P.Y0))

    @pytest.mark.parametrize("shape", [(200,), (10, 20)])
    def test_total_stress_matches_unscreened(self, shape):
        rng = np.random.default_rng(5)
        eps = rng.normal(size=shape + (6,)) * 1e-4
        eps_max = rng.normal(size=shape + (6,)) * 1e-4
        eps_max[..., :3] += 5e-5                 # mostly a tension history
        eps_max[rng.random(shape) < 0.2] = 0.0   # and some points without one
        d = np.where(rng.random(shape) < 0.5, rng.uniform(0.0, 1.0, shape), 0.0)
        d[rng.random(shape) < 0.05] = 1.0
        closed = eps_max[..., :3].sum(axis=-1) > CLOSURE_TRACE_GUARD
        damaged = d != 0.0
        assert np.any(damaged & closed) and np.any(damaged & ~closed)
        assert np.any(~damaged)
        assert_bitwise(total_stress(eps, eps_max, d, P, HOOKE),
                       unscreened_stress(eps, eps_max, d))
        for scalar in (0.0, 0.35):
            assert_bitwise(total_stress(eps, eps_max, scalar, P, HOOKE),
                           unscreened_stress(eps, eps_max, scalar))

    def test_local_stage_matches_unscreened_composition(self):
        t = np.linspace(1.0 / 60, 1.0, 60)
        rng = np.random.default_rng(21)
        n_sp = 12
        eps = rng.normal(size=(n_sp, t.size, 6)) * 6e-5
        eps[:4] *= 0.2                           # rows that never reach Y0
        dbar_prev = np.where(rng.random((n_sp, t.size)) < 0.3,
                             rng.uniform(0.05, 0.6, (n_sp, t.size)), 0.0)
        dbar_prev[:2] = 0.0                      # two rows stay virgin
        dbar_prev[3] *= 0.05                     # one carries a small old damage
        z_prev = -dbar_prev
        Z_prev = dual_softening(z_prev, P)
        out = local_stage(eps, Z_prev, z_prev, t, P, HOOKE)

        Y = released_energy(eps, HOOKE)
        assert np.any(Y > P.Y0 + Z_prev) and np.any((Y > P.Y0) & (Y <= P.Y0 + Z_prev))
        assert np.all(Y[:2] <= P.Y0)
        damaging = Y - (P.Y0 + Z_prev) > 0.0
        dbar = np.where(damaging, static_damage(Y, P), -z_prev)
        z = -dbar
        Z = np.where(damaging, dual_softening(z, P), Z_prev)
        d = integrate_delay(t, dbar, 0.0, P)
        eps_max, _ = tension_peak_history(eps)
        want = {"Y": np.maximum(Y, P.Y0), "dbar": dbar, "z": z, "Z": Z, "d": d,
                "sig": unscreened_stress(eps, eps_max, d)}
        for key, value in want.items():
            assert_bitwise(out[key], value)

    def test_local_stage_skips_tension_peak_without_damage(self, monkeypatch):
        def no_scan(eps_v):
            raise AssertionError("tension peak scanned on an undamaged field")

        monkeypatch.setattr(material, "tension_peak_history", no_scan)
        t = np.linspace(1.0 / 60, 1.0, 60)
        rng = np.random.default_rng(22)
        eps = rng.normal(size=(5, t.size, 6)) * 0.2 * THRESHOLD_STRAIN
        zero = np.zeros((5, t.size))
        out = local_stage(eps, zero, zero, t, P, HOOKE)
        assert not out["d"].any()
        assert_bitwise(out["sig"], HOOKE.apply(eps))
