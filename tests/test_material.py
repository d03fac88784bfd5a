"""Damage model checks: energy, static damage law, delay ODE, closure, update stage."""

import numpy as np
import pytest

from latinpgd import material
from latinpgd.material import (CLOSURE_TRACE_GUARD, DamageCorrection,
                               MaterialParams, integrate_delay, local_stage,
                               matpoint_drive, reference_concrete,
                               released_energy, static_damage,
                               tension_peak_history, total_stress)
from latinpgd.tensors import HookeTensor

from test_tensors import STRAINS, matrix_to_voigt

P = reference_concrete()
HOOKE = P.hooke()
C1111 = HOOKE.matrix[0, 0]
THRESHOLD_STRAIN = np.sqrt(2.0 * P.Y0 / C1111)   # 8.44e-5


def uniaxial(e):
    v = np.zeros(6)
    v[0] = e
    return v


def stress(eps, eps_max, d):
    """total_stress at the frozen state (eps_max, d), through its kernel.

    d may be a scalar: it is spread over the points of eps_max.
    """
    d = np.broadcast_to(np.asarray(d, dtype=float), np.shape(eps_max)[:-1])
    return total_stress(eps, HOOKE, kernel(eps_max, d))


def kernel(eps_max, d):
    """The DamageCorrection of the state (eps_max, d), eps_max given as a field."""
    eps_max = np.asarray(eps_max, dtype=float)
    flat = eps_max.reshape(-1, 6)
    return DamageCorrection(d, eps_max[..., :3].sum(axis=-1),
                            lambda points: HOOKE.apply(flat[points]), P, HOOKE)


def crack_closure_stress(eps_v, eps_max_v):
    """The paper's re-closure stress E : F(eps), F = eps - s eps_max.

    s = (1/a_c) log(1 + exp(a_c tr eps / tr eps_max)); needs a tension
    history, tr eps_max > CLOSURE_TRACE_GUARD.
    """
    tr_max = eps_max_v[..., :3].sum(axis=-1)
    assert np.all(tr_max > CLOSURE_TRACE_GUARD)
    s = np.logaddexp(0.0, P.a_c * eps_v[..., :3].sum(axis=-1) / tr_max) / P.a_c
    return HOOKE.apply(eps_v - s[..., None] * eps_max_v)


def blend_stress(eps, eps_max, d):
    """The paper's blend (1-d) E:eps + d E:F(eps) at every point, F = 0 without history."""
    d = np.broadcast_to(np.asarray(d, dtype=float), eps.shape[:-1])
    eps_max = np.broadcast_to(eps_max, eps.shape)
    elastic = HOOKE.apply(eps)
    closed = eps_max[..., :3].sum(axis=-1) > CLOSURE_TRACE_GUARD
    sig_cr = np.zeros_like(elastic)
    sig_cr[closed] = crack_closure_stress(eps[closed], eps_max[closed])
    return (1.0 - d)[..., None] * elastic + d[..., None] * sig_cr


def closed_form_stress(eps, eps_max, d):
    """E:eps - d s E:eps_max (or - d E:eps without history) at every point.

    The closed form of `blend_stress`, with the operations of the kernel in
    their order, so the screened kernel must match it bit for bit.
    """
    d = np.broadcast_to(np.asarray(d, dtype=float), eps.shape[:-1])
    eps_max = np.broadcast_to(eps_max, eps.shape)
    sig = HOOKE.apply(eps)
    tr_max = eps_max[..., :3].sum(axis=-1)
    peak = tr_max > CLOSURE_TRACE_GUARD
    scale = P.a_c / np.where(peak, tr_max, 1.0)
    s = np.logaddexp(0.0, scale * (eps[..., 0] + eps[..., 1] + eps[..., 2]))
    at_peak = ((-d / P.a_c) * s)[..., None] * HOOKE.apply(eps_max)
    return sig + np.where(peak[..., None], at_peak, -d[..., None] * sig)


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

    def test_empty_leading_span_takes_no_substep(self, monkeypatch):
        # The Newmark step calls with times = [0, dt]: the leading [0, 0]
        # span is empty and one substep (dt <= tau_c/20) covers [0, dt], so
        # the call is one classic 4-stage step, rate evaluations included.
        calls = []
        rate = material._delay_rate

        def counted(gap, params):
            calls.append(1)
            return rate(gap, params)

        monkeypatch.setattr(material, "_delay_rate", counted)
        dt = 0.002
        db0 = np.array([0.0, 0.3, 0.3, 0.7, 0.1])
        db1 = np.array([0.2, 0.3, 0.5, 0.6, 0.0])
        d0 = np.array([0.0, 0.1, 0.25, 0.2, 0.1])
        d = integrate_delay(np.array([0.0, dt]), np.stack([db0, db1], axis=-1), d0, P)
        assert len(calls) == 4
        assert_bitwise(d[:, 0], d0)

        def f(gap):
            return (1.0 - np.exp(-P.a * np.maximum(gap, 0.0))) / P.tau_c

        mid = db0 + (db1 - db0) * 0.5
        end = db0 + (db1 - db0)
        k1 = f(db0 - d0)
        k2 = f(mid - (d0 + 0.5 * dt * k1))
        k3 = f(mid - (d0 + 0.5 * dt * k2))
        k4 = f(end - (d0 + dt * k3))
        assert_bitwise(d[:, 1], d0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


class TestCrackClosure:
    def test_residual_at_peak(self):
        eps = uniaxial(2e-4)
        sig = stress(eps, eps, 1.0)          # d = 1: sigma = E:F(eps)
        assert np.linalg.norm(sig) <= 2e-5 * np.linalg.norm(HOOKE.apply(eps))

    def test_deep_compression_recovers_elasticity(self):
        eps_max = uniaxial(2e-4)
        eps = uniaxial(-1e-3)          # tr ratio = -5
        sig = stress(eps, eps_max, 1.0)
        assert np.allclose(sig, HOOKE.apply(eps), rtol=1e-14)

    def test_guard_rejected(self):
        # a tension history at or below the guard is no history: the point
        # takes the zero-history branch, sigma = (1 - d) E:eps, even in
        # compression, where a history just above the guard closes the crack
        eps = uniaxial(-1e-4)
        for eps_max in (np.zeros(6), uniaxial(CLOSURE_TRACE_GUARD)):
            np.testing.assert_allclose(stress(eps, eps_max, 0.4),
                                       0.6 * HOOKE.apply(eps), rtol=1e-15, atol=0.0)
        above = stress(eps, uniaxial(2.0 * CLOSURE_TRACE_GUARD), 0.4)
        np.testing.assert_allclose(above, HOOKE.apply(eps), rtol=1e-15, atol=0.0)

    def test_total_stress_undamaged_is_elastic(self):
        rng = np.random.default_rng(3)
        eps = rng.normal(size=(10, 6)) * 1e-4
        sig = stress(eps, np.zeros((10, 6)), np.zeros(10))
        assert np.array_equal(sig, HOOKE.apply(eps))
        assert np.array_equal(total_stress(eps, HOOKE, None), HOOKE.apply(eps))

    def test_total_stress_residual_at_zero_strain(self):
        eps_max = uniaxial(2e-4)
        d = 0.4
        sig = stress(np.zeros(6), eps_max, d)
        expect = -d * HOOKE.apply(eps_max) * np.log(2.0) / P.a_c
        assert np.allclose(sig, expect, rtol=1e-12)

    def test_total_stress_deep_compression_any_damage(self):
        eps_max = uniaxial(2e-4)
        eps = uniaxial(-2e-3)
        sig = stress(eps, eps_max, 0.5)
        assert np.allclose(sig, HOOKE.apply(eps), rtol=1e-2)


class TestTensionPeakHistory:
    def test_running_argmax(self):
        eps = np.zeros((1, 4, 6))
        eps[0, :, 0] = [1e-4, 3.0e-4, 2.0e-4, 2.9e-4]
        eps[0, :, 1] = [0.0, 1.0e-5, 2.0e-5, 2.0e-5]   # step 3 ties step 1
        idx, trm = tension_peak_history(eps[..., :3].sum(axis=-1))
        em = np.take_along_axis(eps, idx[..., None], axis=-2)
        assert np.array_equal(idx[0], [0, 1, 1, 1])
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
        out = local_stage(eps, t, P, HOOKE)
        assert not out["d"].any()
        assert np.array_equal(out["sig"], HOOKE.apply(eps))

    def test_consistency_at_damaging_instants(self, monkeypatch):
        # The delay law chases the instantaneous target static_damage(Y),
        # which falls back to zero wherever Y drops under the threshold.
        targets = []

        def spy(times, dbar, d_init, params):
            targets.append(dbar.copy())
            return integrate_delay(times, dbar, d_init, params)

        monkeypatch.setattr(material, "integrate_delay", spy)
        t = self.grid()
        rng = np.random.default_rng(7)
        eps = rng.normal(size=(4, t.size, 6)) * 3e-4
        out = local_stage(eps, t, P, HOOKE)
        Y = released_energy(eps, HOOKE)
        damaging = Y > P.Y0
        assert damaging.any() and not damaging.all()
        assert len(targets) == 1
        assert_bitwise(targets[0], static_damage(Y, P))
        assert np.all(targets[0][damaging] > 0.0) and not targets[0][~damaging].any()
        assert out["d"].max() > 0.0

    def test_monotone_ramp_damage_below_static(self):
        t = self.grid(120, 2.0)
        eps = np.zeros((1, t.size, 6))
        eps[0, :, 0] = 3e-4 * t / 2.0
        out = local_stage(eps, t, P, HOOKE)
        d = out["d"][0]
        assert np.all(np.diff(d) >= 0.0)
        Y = released_energy(eps[0], HOOKE, P.Y0)
        assert np.all(d <= static_damage(Y, P) + 1e-12)

    def test_point_order_invariance(self):
        t = self.grid()
        rng = np.random.default_rng(9)
        eps = rng.normal(size=(6, t.size, 6)) * 3e-4
        out = local_stage(eps, t, P, HOOKE)
        perm = rng.permutation(6)
        out_p = local_stage(eps[perm], t, P, HOOKE)
        assert np.array_equal(out_p["sig"], out["sig"][perm])
        assert np.array_equal(out_p["d"], out["d"][perm])

    def test_nan_aborts_with_point_index(self):
        t = self.grid(5)
        eps = np.zeros((3, 5, 6))
        eps[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="point 1"):
            local_stage(eps, t, P, HOOKE)

    def test_matches_matpoint_drive_bitwise(self):
        t = self.grid(80)
        sig_x = 2e-4 * np.sin(2 * np.pi * 1.5 * t) * t
        eps = np.zeros((1, t.size, 6))
        eps[0, :, 0] = sig_x
        out = local_stage(eps, t, P, HOOKE)
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
        T, n = 70.0, 300
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
        assert_bitwise(stress(eps, eps_max, d), closed_form_stress(eps, eps_max, d))
        for scalar in (0.0, 0.35):
            assert_bitwise(stress(eps, eps_max, scalar),
                           closed_form_stress(eps, eps_max, scalar))
        # the kernel's correction field is sigma - E:eps of the same state
        correction = kernel(eps_max, d)
        with pytest.raises(ValueError, match="tr_max has shape"):
            DamageCorrection(d, eps_max[..., :3], HOOKE.apply, P, HOOKE)
        np.testing.assert_allclose(
            HOOKE.apply(eps) + correction.field(eps), closed_form_stress(eps, eps_max, d),
            rtol=0.0, atol=4.0 * np.finfo(float).eps * np.abs(HOOKE.apply(eps)).max())

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_closed_form_matches_the_blend(self, seed):
        # sigma = (1-d) E:eps + d E:F(eps) regrouped as E:eps - d s E:eps_max
        # moves each point by a few ulp of its largest stress scale (at most
        # 4.3 ulp on these seeds)
        rng = np.random.default_rng(seed)
        shape = (4000,)
        eps = rng.normal(size=shape + (6,)) * 1e-4
        eps[::7] *= 1e-3                          # lightly strained points
        eps_max = rng.normal(size=shape + (6,)) * 1e-4
        eps_max[..., :3] += 5e-5
        eps_max[rng.random(shape) < 0.2] = 0.0
        d = rng.uniform(0.0, 1.0, shape)
        d[rng.random(shape) < 0.3] = rng.uniform(0.0, 1e-6, shape)[:1]
        d[rng.random(shape) < 0.05] = 1.0
        got = stress(eps, eps_max, d)
        want = blend_stress(eps, eps_max, d)
        scale = np.maximum(np.abs(HOOKE.apply(eps)).max(axis=-1),
                           np.abs(want).max(axis=-1))
        gap = np.abs(got - want).max(axis=-1)
        assert np.all(gap <= 8.0 * np.finfo(float).eps * scale)

    def test_local_stage_matches_unscreened_composition(self):
        t = np.linspace(1.0 / 60, 1.0, 60)
        rng = np.random.default_rng(21)
        n_sp = 12
        eps = rng.normal(size=(n_sp, t.size, 6)) * 6e-5
        eps[:4] *= 0.2                           # rows that never reach Y0
        out = local_stage(eps, t, P, HOOKE)
        assert sorted(out) == ["d", "sig"]

        Y = released_energy(eps, HOOKE)
        assert np.all(Y[:4] <= P.Y0)
        assert np.any(Y[4:] > P.Y0) and np.any(Y[4:] <= P.Y0)
        d = integrate_delay(t, static_damage(Y, P), 0.0, P)
        idx, _ = tension_peak_history(eps[..., :3].sum(axis=-1))
        eps_max = np.take_along_axis(eps, idx[..., None], axis=-2)
        want = {"d": d, "sig": closed_form_stress(eps, eps_max, d)}
        for key, value in want.items():
            assert_bitwise(out[key], value)

    def test_local_stage_skips_tension_peak_without_damage(self, monkeypatch):
        def no_scan(tr):
            raise AssertionError("tension peak scanned on an undamaged field")

        monkeypatch.setattr(material, "tension_peak_history", no_scan)
        t = np.linspace(1.0 / 60, 1.0, 60)
        rng = np.random.default_rng(22)
        eps = rng.normal(size=(5, t.size, 6)) * 0.2 * THRESHOLD_STRAIN
        out = local_stage(eps, t, P, HOOKE)
        assert not out["d"].any()
        assert_bitwise(out["sig"], HOOKE.apply(eps))
