"""Damage model checks: energy, static damage law, delay ODE, closure, update stage."""

from dataclasses import replace

import numpy as np
import pytest

from latinpgd import material
from latinpgd.material import (CLOSURE_TRACE_GUARD, DamageCorrection,
                               MaterialParams, integrate_delay, local_stage,
                               matpoint_drive, reference_concrete,
                               released_energy, static_damage,
                               tension_peak_history, total_stress)
from latinpgd.tensors import HookeTensor
from latinpgd.timegrid import TimeGrid

from conftest import tiny_config
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
    return DamageCorrection(d, eps_max[..., :3].sum(axis=-1), lambda points: flat[points],
                            P, HOOKE)


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
    sig = HOOKE.apply(eps)
    return sig + closed_form_correction(eps, eps_max, d, sig)


def closed_form_correction(eps, eps_max, d, sig=None):
    """The correction of `closed_form_stress`, sigma - E:eps, in its
    operations; sig is E:eps (formed here by default)."""
    d = np.broadcast_to(np.asarray(d, dtype=float), eps.shape[:-1])
    eps_max = np.broadcast_to(eps_max, eps.shape)
    sig = HOOKE.apply(eps) if sig is None else sig
    tr_max = eps_max[..., :3].sum(axis=-1)
    peak = tr_max > CLOSURE_TRACE_GUARD
    scale = P.a_c / np.where(peak, tr_max, 1.0)
    s = np.logaddexp(0.0, scale * (eps[..., 0] + eps[..., 1] + eps[..., 2]))
    at_peak = ((-d / P.a_c) * s)[..., None] * HOOKE.apply(eps_max)
    return np.where(peak[..., None], at_peak, -d[..., None] * sig)


def plain_delay_loop(times, dbar, d_init, params, refine=512):
    """The delay law as classic 4-stage steps on a refined axis: the oracle.

    Each sample span is cut into `refine` times as many substeps as tau_c/20
    takes, with linear targets, from d_init at times[0].  At 512 its
    own error is far below the 1e-6 it is held to; at 64 it reaches 2e-6
    on spans of 4 substeps of tau_c/20, at the kink of <.>+.
    """
    times = np.asarray(times, dtype=float)
    dbar = np.asarray(dbar, dtype=float)
    d = np.empty_like(dbar)
    cur = np.broadcast_to(np.asarray(d_init, dtype=float), dbar.shape[:-1]).copy()

    def rate(gap):
        return (1.0 - np.exp(-params.a * np.maximum(gap, 0.0))) / params.tau_c

    prev_t = times[0]
    prev_db = dbar[..., 0]
    for k in range(times.size):
        span = times[k] - prev_t
        db0, db1 = prev_db, dbar[..., k]
        n_sub = refine * int(np.ceil(span / (params.tau_c / 20.0) * (1.0 - 1e-9)))
        h = span / max(n_sub, 1)
        for s in range(n_sub):
            f0 = db0 + (db1 - db0) * (s / n_sub)
            fh = db0 + (db1 - db0) * ((s + 0.5) / n_sub)
            f1 = db0 + (db1 - db0) * ((s + 1.0) / n_sub)
            k1 = rate(f0 - cur)
            k2 = rate(fh - (cur + 0.5 * h * k1))
            k3 = rate(fh - (cur + 0.5 * h * k2))
            k4 = rate(f1 - (cur + h * k3))
            cur = cur + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        d[..., k] = cur
        prev_t = times[k]
        prev_db = db1
    return d


def delay_from_rest(times, dbar, params=P):
    """The delay law from rest, as `local_stage` runs it: d = 0 at t = 0 under
    the first sample's target, held flat up to the first sample (times[0] > 0)."""
    times = np.concatenate([[0.0], times])
    dbar = np.concatenate([dbar[..., :1], dbar], axis=-1)
    return integrate_delay(times, dbar, 0.0, params)[..., 1:]


def counted_steps(monkeypatch):
    """Count the exact steps `integrate_delay` takes."""
    calls = []
    step = material._delay_step

    def counted(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(material, "_delay_step", counted)
    return calls


def open_gap(z0, r, s):
    """d_bar - d after a time s with the gap open, from z0 = e^(a x0) - 1,
    under a target of slope r: z = z0 e^(kappa s) + a r (e^(kappa s) - 1)/kappa."""
    kappa = P.a * (r - 1.0 / P.tau_c)
    grow = np.expm1(kappa * s) / kappa if kappa else s
    return np.log1p(z0 * np.exp(kappa * s) + P.a * r * grow) / P.a


class TestParams:
    def test_reference_values(self):
        assert (P.rho, P.E, P.nu) == (2550.0, 37.9e9, 0.2)
        assert (P.Y0, P.A_d, P.tau_c, P.a, P.a_c, P.xi) == (150.0, 8.0e-3, 0.05,
                                                            15.0, 9.0, 0.02)

    @pytest.mark.parametrize("field,value", [("rho", -1.0), ("E", 0.0),
                                             ("nu", 0.5), ("Y0", -5.0),
                                             ("tau_c", 0.0), ("xi", 1.0),
                                             ("rho", np.nan), ("E", np.inf),
                                             ("nu", np.nan), ("Y0", np.nan),
                                             ("A_d", np.inf), ("A_d", np.nan),
                                             ("tau_c", np.nan), ("a", np.nan),
                                             ("a_c", np.inf), ("xi", np.nan)])
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
        t = np.array([0.0, 1e-4, 2e-4])
        d = integrate_delay(t, np.ones((1, 3)), 0.0, P)
        slope = d[0, 1] / t[1]
        assert slope <= 1.0 / P.tau_c
        assert slope >= (1.0 / P.tau_c) * (1.0 - np.exp(-P.a)) * 0.99

    def test_constant_target_matches_closed_form(self):
        # dbar const: d = dbar - ln(1+(e^{a(dbar-d0)}-1)e^{-a t/tau})/a
        t = np.linspace(1e-3, 0.5, 400)
        d = integrate_delay(np.concatenate([[0.0], t]), np.full((1, t.size + 1), 0.6),
                            0.1, P)[0, 1:]
        gap0 = 0.6 - 0.1
        exact = 0.6 - np.log1p((np.exp(P.a * gap0) - 1.0)
                               * np.exp(-P.a * t / P.tau_c)) / P.a
        assert np.abs(d - exact).max() < 1e-12
        assert np.all(np.diff(d) >= 0.0)
        assert np.all(np.diff(0.6 - d) <= 0.0)   # gap decreasing

    @pytest.mark.parametrize("slope", [-5.0, 0.0, 1.0 / P.tau_c, 60.0])
    def test_open_gap_matches_closed_form(self, slope):
        # The gap stays open over the step, under a falling, flat, rising
        # (kappa = 0) and steep (kappa > 0) target.
        dt, d0, db0 = 0.004, 0.2, 0.45
        db1 = db0 + slope * dt
        d = integrate_delay(np.array([0.0, dt]), np.array([[db0, db1]]), d0, P)[0]
        want = db1 - open_gap(np.expm1(P.a * (db0 - d0)), slope, dt)
        assert d[0] == d0
        assert abs(d[1] - want) <= 1e-14

    def test_frozen_row_enters_where_the_target_reaches_it(self):
        # d = 0.3 sits above the target 0.1 until s_e = (0.3 - 0.1)/r; from
        # there the gap opens from z0 = 0.
        dt, d0, db0, db1 = 0.01, 0.3, 0.1, 0.5
        r = (db1 - db0) / dt
        d = integrate_delay(np.array([0.0, dt]), np.array([[db0, db1]]), d0, P)[0]
        want = db1 - open_gap(0.0, r, dt - (d0 - db0) / r)
        assert abs(d[1] - want) <= 1e-14

    def test_falling_target_exits_and_keeps_its_value(self):
        # d chases the falling target until z reaches 0, at
        # e^(kappa s_x) = a r / (kappa z0 + a r), then keeps d_bar(s_x)
        # through the step and the later frozen ones.
        dt, d0, db0, db1 = 0.01, 0.3, 0.35, 0.05
        r = (db1 - db0) / dt
        z0 = np.expm1(P.a * (db0 - d0))
        kappa = P.a * (r - 1.0 / P.tau_c)
        s_x = np.log(P.a * r / (kappa * z0 + P.a * r)) / kappa
        assert 0.0 < s_x < dt
        t = np.array([0.0, dt, 2.0 * dt, 3.0 * dt])
        d = integrate_delay(t, np.array([[db0, db1, 0.0, 0.2]]), d0, P)[0]
        assert abs(d[1] - (db0 + r * s_x)) <= 1e-14
        assert d[0] == d0 and d[1] > d0 and d[3] == d[2] == d[1]

    def test_start_shock_stays_monotone_and_under_the_target(self):
        # The target jumps from 0 to 0.73 in one step, as on the first
        # damaging step of a run, then holds.
        t = np.linspace(0.0, 0.2, 41)
        dbar = np.full((1, t.size), 0.73)
        dbar[0, 0] = 0.0
        d = integrate_delay(t, dbar, 0.0, P)[0]
        assert np.all(np.diff(d) >= 0.0)
        assert d.max() <= 0.73
        assert np.abs(d - plain_delay_loop(t, dbar, 0.0, P)[0]).max() <= 1e-6

    def test_extreme_exponents_stay_finite(self):
        # a (d_bar - d) = 1800 and a span of 100 tau_c: e^(a x)
        # and e^(a t/tau_c) overflow, the scaled step does not.
        steep = replace(P, a=2000.0)
        d = integrate_delay(np.array([0.0, 0.002]), np.array([[0.0, 0.9]]), 0.0, steep)
        assert d[0, 1] == pytest.approx(0.002 / P.tau_c, abs=1e-3)
        d = integrate_delay(np.array([0.0, 5.0]), np.array([[0.5, 0.5]]), 0.1, P)
        assert d[0, 1] == 0.5

    def test_nan_target_propagates(self):
        t = np.array([0.0, 0.005, 0.01])
        dbar = np.array([[0.1, np.nan, 0.0], [0.1, 0.3, 0.0]])
        d = integrate_delay(t, dbar, 0.2, P)
        assert np.isnan(d[0, 1:]).all() and np.isfinite(d[1]).all()

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
        # The Newmark step calls with times = [0, dt]: d_init is d at the
        # first sample, bit for bit, and one exact step covers [0, dt].
        calls = counted_steps(monkeypatch)
        dt = 0.002
        db0 = np.array([0.0, 0.3, 0.3, 0.7, 0.1])
        db1 = np.array([0.2, 0.3, 0.5, 0.6, 0.0])
        d0 = np.array([0.0, 0.1, 0.25, 0.2, 0.1])
        dbar = np.stack([db0, db1], axis=-1)
        d = integrate_delay(np.array([0.0, dt]), dbar, d0, P)
        assert len(calls) == 1
        assert_bitwise(d[:, 0], d0)
        assert np.abs(d - plain_delay_loop(np.array([0.0, dt]), dbar, d0, P)).max() <= 1e-6

    def test_frozen_steps_make_no_rate_call(self, monkeypatch):
        # Every target at or below d on every row: no step is integrated
        # and d keeps every bit.
        calls = counted_steps(monkeypatch)
        rng = np.random.default_rng(3)
        d0 = np.array([0.0, 0.2, 0.35, 0.6])
        for t in (np.array([0.0, 0.002]),                # one Newmark step
                  np.cumsum(rng.uniform(0.5, 3.0, 30) * P.tau_c / 20.0)):
            dbar = d0[:, None] * rng.uniform(0.0, 1.0, (4, t.size))
            dbar[2, ::3] = d0[2]                         # targets equal to d
            d = integrate_delay(t, dbar, d0, P)
            assert not calls
            assert_bitwise(d, np.repeat(d0[:, None], t.size, axis=1))
        # A frozen row keeps every bit while another row moves.
        dbar[1, 5] = 0.5
        d = integrate_delay(t, dbar, d0, P)
        assert calls and d[1, -1] > d0[1]
        assert_bitwise(d[[0, 2, 3]], np.repeat(d0[[0, 2, 3], None], t.size, axis=1))

    @pytest.mark.parametrize("shape", ["pulses", "sine", "newmark_step", "single_row"])
    def test_matches_the_plain_substep_loop(self, shape, monkeypatch):
        # Rising and falling targets, spans of 0.1 to 4 substeps of tau_c/20,
        # and d_init > 0, against the refined oracle.
        rng = np.random.default_rng(["pulses", "sine", "newmark_step",
                                     "single_row"].index(shape))
        t = np.cumsum(rng.uniform(0.1, 4.0, 80) * P.tau_c / 20.0)
        d_init = rng.uniform(0.0, 0.3, 5)
        if shape == "pulses":
            dbar = np.clip(rng.normal(0.3, 0.35, (5, t.size)), 0.0, 0.95)
            dbar[rng.random(dbar.shape) < 0.5] = 0.0
        elif shape == "sine":
            dbar = np.clip(np.sin(40.0 * t), 0.0, None) * np.linspace(0.2, 0.9, 5)[:, None]
        elif shape == "newmark_step":
            t = np.array([0.0, 0.002])
            dbar = rng.uniform(0.0, 0.6, (5, 2))
        else:
            dbar = np.clip(0.9 * np.sin(4.0 * t), 0.0, None)
            d_init = 0.1
        calls = counted_steps(monkeypatch)
        got = integrate_delay(t, dbar, d_init, P)
        assert np.abs(got - plain_delay_loop(t, dbar, d_init, P)).max() <= 1e-6
        assert got.max() > np.max(d_init)
        if shape == "sine":
            # the target falls under d after each rise: most steps are frozen
            assert 0 < len(calls) < t.size / 2

    def test_two_samples_are_one_exact_step_on_the_rows_that_move(self):
        # The Newmark step's call: every row whose larger end target
        # exceeds d takes `_delay_step` over [0, dt] bit for bit, every
        # other row keeps each bit of d, and d[:, 0] is d_init.
        rng = np.random.default_rng(12)
        dt = 0.0025
        d0 = rng.uniform(0.0, 0.5, 40)
        dbar = rng.uniform(0.0, 0.7, (40, 2))
        dbar[::4] = 0.5 * d0[::4, None]                 # frozen rows
        d = integrate_delay(np.array([0.0, dt]), dbar, d0, P)
        moves = dbar.max(axis=1) > d0
        assert 0 < moves.sum() < moves.size
        assert_bitwise(d[:, 0], d0)
        assert_bitwise(d[moves, 1], material._delay_step(
            d0[moves], dbar[moves, 0], dbar[moves, 1], dt, P))
        assert_bitwise(d[~moves, 1], d0[~moves])

    def test_scalar_and_array_start_give_the_same_damage(self):
        t = np.array([0.0, 0.003, 0.007])
        dbar = np.random.default_rng(13).uniform(0.0, 0.8, (3, 4, t.size))
        start = np.full((3, 4), 0.25)
        held = start.copy()
        d = integrate_delay(t, dbar, start, P)
        assert_bitwise(d, integrate_delay(t, dbar, 0.25, P))
        assert_bitwise(d, integrate_delay(t, dbar, start[:, :1], P))
        assert_bitwise(d, integrate_delay(t, dbar, start[:, ::-1], P))
        assert_bitwise(start, held)                      # d_init is not written
        assert d.max() > 0.25

    def test_nan_target_of_a_step_propagates(self):
        dbar = np.array([[0.1, np.nan], [0.1, 0.3], [0.0, 0.0]])
        d = integrate_delay(np.array([0.0, 0.002]), dbar, 0.2, P)
        assert np.isnan(d[0, 1]) and np.isfinite(d[1:]).all()
        assert d[2, 1] == 0.2

    @pytest.mark.parametrize("times, bad", [
        ([0.0, 0.1, 0.05, 0.3], 2),                     # a backward step
        ([0.0, 0.1, 0.1, 0.3], 2),                      # a repeated time
        ([0.0, 0.1, np.nan, 0.3], 2),
        ([np.nan, 0.1], 0),
        ([-0.01, 0.1, 0.2], 0),                         # a negative start
        ([0.0, 0.1, np.inf], 2),
        ([0.0, np.inf, 0.3], 1),
    ])
    def test_malformed_time_axis_is_rejected_at_its_first_bad_index(self, times, bad):
        times = np.array(times)
        dbar = np.full((2, times.size), 0.5)
        with pytest.raises(ValueError, match=r"times\[%d\] = " % bad):
            integrate_delay(times, dbar, 0.0, P)

    def test_newmark_and_grid_axes_are_accepted(self):
        grid = TimeGrid(0.5, 10)
        for t in (np.array([0.0, 0.0025]), grid.all_gauss_times):
            d = integrate_delay(t, np.full((2, t.size), 0.5), 0.0, P)
            assert np.all(np.diff(d, axis=1) >= 0.0) and d[:, -1].min() > 0.0


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

    def test_given_elastic_stress_is_handed_back_or_corrected_bitwise(self):
        # Below the threshold the stage returns the array it was given; on
        # a damaging strain its stress and damage are the plain call's, and
        # the given array is left as it is.
        t = self.grid()
        rng = np.random.default_rng(7)
        eps = np.zeros((3, t.size, 6))
        eps[:, :, 0] = 0.5 * THRESHOLD_STRAIN * np.sin(2 * np.pi * t)[None, :]
        elastic = HOOKE.apply(eps)
        out = np.full_like(eps, 7.0)
        got = local_stage(eps, t, P, HOOKE, out=out, elastic=elastic)
        assert got["sig"] is elastic and not got["d"].any()
        assert np.all(out == 7.0)
        eps = rng.normal(size=(4, t.size, 6)) * 3e-4
        elastic = HOOKE.apply(eps)
        before = elastic.copy()
        plain = local_stage(eps, t, P, HOOKE)
        got = local_stage(eps, t, P, HOOKE, elastic=elastic)
        assert plain["d"].any() and got["sig"] is not elastic
        assert_bitwise(got["sig"], plain["sig"])
        assert_bitwise(got["d"], plain["d"])
        assert_bitwise(elastic, before)

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
        # after the rest sample at t = 0, which holds the first target
        target = targets[0][:, 1:]
        assert_bitwise(targets[0][:, 0], target[:, 0])
        assert_bitwise(target, static_damage(Y, P))
        assert np.all(target[damaging] > 0.0) and not target[~damaging].any()
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_strain_in_a_later_block_names_its_point(self, monkeypatch, bad):
        from latinpgd import timegrid

        monkeypatch.setattr(timegrid, "_BLOCK_BYTES", 1 << 10)   # one row a block
        t = self.grid(20)
        eps = np.zeros((12, t.size, 6))
        eps[9, 3, 4] = bad
        eps[11, 0, 0] = bad
        with pytest.raises(ValueError, match="point 9$"):
            local_stage(eps, t, P, HOOKE)

    def test_released_energy_runs_once_on_screened_samples(self, monkeypatch):
        from latinpgd import timegrid

        monkeypatch.setattr(timegrid, "_BLOCK_BYTES", 1 << 12)
        seen = []

        def spy(eps_v, hooke, floor=0.0):
            seen.append((eps_v.copy(), floor))
            return released_energy(eps_v, hooke, floor)

        monkeypatch.setattr(material, "released_energy", spy)
        t = self.grid()
        rng = np.random.default_rng(23)
        eps = rng.normal(size=(16, t.size, 6)) * 3e-5
        out = local_stage(eps, t, P, HOOKE)
        assert len(seen) == 1 and seen[0][1] == P.Y0
        screened, Y = seen[0][0], released_energy(eps, HOOKE)
        # only a share of the samples, but every one that exceeds Y0
        assert (Y > P.Y0).sum() <= len(screened) < Y.size / 2
        assert out["d"].any()

    def test_tension_peak_scanned_on_active_rows_only(self, monkeypatch):
        scanned = []

        def spy(tr):
            scanned.append(tr.copy())
            return tension_peak_history(tr)

        monkeypatch.setattr(material, "tension_peak_history", spy)
        monkeypatch.setattr(material, "_CHUNK", 120)        # two rows a chunk
        t = self.grid()
        rng = np.random.default_rng(24)
        eps = rng.normal(size=(9, t.size, 6)) * 3e-5
        eps[::2] *= 0.2                                     # rows that never damage
        out = local_stage(eps, t, P, HOOKE)
        active = np.flatnonzero((released_energy(eps, HOOKE) > P.Y0).any(axis=1))
        assert 0 < active.size < 9 and len(scanned) == (active.size + 1) // 2
        # each row's traces after its start's peak, the zero strain from
        # rest, up to the last sample, which the end state's kernel corrects
        scanned = np.concatenate(scanned)
        assert not scanned[:, 0].any()
        assert_bitwise(scanned[:, 1:], eps[active, :-1, :3].sum(axis=-1))
        assert np.array_equal(np.flatnonzero(out["d"].any(axis=1)), active)

    def test_matches_matpoint_drive_bitwise(self):
        t = self.grid(80)
        sig_x = 2e-4 * np.sin(2 * np.pi * 1.5 * t) * t
        eps = np.zeros((1, t.size, 6))
        eps[0, :, 0] = sig_x
        out = local_stage(eps, t, P, HOOKE)
        drive = matpoint_drive(t, sig_x, P)
        assert np.array_equal(drive["sig_x"], out["sig"][0, :, 0])
        assert np.array_equal(drive["d"], out["d"][0])


@pytest.fixture(scope="module")
def elastic_start_history():
    """The elastic start's strain of the tiny mono_sine fixture (4x2x2 mesh,
    T = 0.5 s, N_T = 10, `TINY_OVERLAY`) on its Gauss times: a history that
    damages."""
    from latinpgd import cli
    from latinpgd.latin import elastic_solution

    params, system, load, grid = cli._build_problem(tiny_config())
    return elastic_solution(system, params, load, grid)["eps"], grid.all_gauss_times


def uniaxial_history():
    """A uniaxial-strain drive as `matpoint_drive` builds it: growing tension
    and compression loops on one point."""
    t = np.linspace(2e-3, 3.0, 600)
    eps = np.zeros((1, t.size, 6))
    eps[0, :, 0] = 2.5e-4 * (t / 3.0) * np.sin(2.0 * np.pi * 1.5 * t)
    return eps, t


def assert_same_state(got, want):
    for name in ("d", "dbar", "eps_max", "tr_max"):
        assert_bitwise(getattr(got, name), getattr(want, name))


class TestCarriedState:
    """A local stage from a carried DamageState continues the call it was cut from."""

    @pytest.mark.parametrize("history", ["elastic_start", "its_most_damaged_point",
                                         "uniaxial"])
    def test_a_cut_history_is_the_whole_call_bit_for_bit(self, history, request):
        if history == "uniaxial":
            eps, t = uniaxial_history()
        else:
            eps, t = request.getfixturevalue("elastic_start_history")
        if history == "its_most_damaged_point":
            # one point with all six strain components: a lone-sample piece
            # is a lone row of the Hooke product
            top = local_stage(eps, t, P, HOOKE)["d"][:, -1].argmax()
            eps = eps[top:top + 1]
        whole = local_stage(eps, t, P, HOOKE)
        assert whole["d"].max() > 0.1 and not whole["d"][:, 0].any()
        n_t = t.size
        onset = int(np.flatnonzero(whole["d"].any(axis=0))[0])
        rng = np.random.default_rng(31)
        # lone-sample pieces at both ends, the onset, and random samples
        cuts = {1, n_t - 1, onset, onset + 1, *rng.integers(1, n_t, 6)}
        for cut in sorted(cuts):
            # the second call's times lead with the instant of its start
            first = local_stage(eps[:, :cut], t[:cut], P, HOOKE)
            second = local_stage(eps[:, cut:], t[cut - 1:], P, HOOKE, start=first["end"])
            assert_bitwise(np.concatenate([first["d"], second["d"]], axis=1), whole["d"])
            assert_bitwise(np.concatenate([first["sig"], second["sig"]], axis=1),
                           whole["sig"])
            assert_same_state(second["end"], whole["end"])

    def test_end_state_is_the_last_sample(self, elastic_start_history):
        eps, t = elastic_start_history
        out = local_stage(eps, t, P, HOOKE)
        end = out["end"]
        assert_bitwise(end.d, out["d"][:, -1])
        Y = released_energy(eps[:, -1], HOOKE, P.Y0)
        assert_bitwise(end.dbar, static_damage(Y, P))
        # the strain of the earliest largest trace, or the zero strain of
        # rest while no trace exceeds 0
        tr = eps[..., 0] + eps[..., 1] + eps[..., 2]
        top = tr.argmax(axis=1)
        points = np.arange(tr.shape[0])
        tension = tr[points, top] > 0.0
        assert tension.any()
        assert_bitwise(end.tr_max, np.where(tension, tr[points, top], 0.0))
        assert_bitwise(end.eps_max, np.where(tension[:, None], eps[points, top], 0.0))

    @pytest.mark.parametrize("n_times, with_start, words", [
        (5, False, "expected (3,) for 3 strain samples from rest"),
        (3, True, "expected (4,) for 3 strain samples led by the start's instant")],
        ids=["from_rest", "with_a_start"])
    def test_a_time_axis_of_the_wrong_length_names_both_lengths(self, n_times, with_start,
                                                                words):
        # an undamaged history, so no row reaches the delay law's own check
        start = material.DamageState.undamaged(2) if with_start else None
        with pytest.raises(ValueError) as info:
            local_stage(np.zeros((2, 3, 6)), 0.01 * np.arange(1, n_times + 1), P, HOOKE,
                        start=start)
        assert "times has shape (%d,), %s" % (n_times, words) in str(info.value)

    @pytest.mark.parametrize("name", ["d", "dbar", "eps_max", "tr_max"])
    def test_a_start_of_another_shape_names_its_field(self, name):
        eps, t = uniaxial_history()
        start = material.DamageState.undamaged(1)
        wrong = material.DamageState.undamaged(2)
        start = replace(start, **{name: getattr(wrong, name)})
        with pytest.raises(ValueError, match="start state's %s has shape" % name):
            local_stage(eps, np.concatenate([[0.0], t]), P, HOOKE, start=start)


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

    @pytest.mark.parametrize("nu", [0.2, -0.3])
    @pytest.mark.parametrize("case", ["hydrostatic_compression", "pure_shear",
                                      "uniaxial", "biaxial", "random"])
    def test_released_energy_floor_across_strain_states(self, case, nu):
        # Each strain state on 400 magnitudes straddling the threshold, so
        # samples fall under the bound's screen, pass it without reaching
        # the floor, and exceed the floor.
        hooke = HookeTensor(P.E, nu)
        rng = np.random.default_rng(11)
        directions = {
            "hydrostatic_compression": -np.eye(3),
            "pure_shear": np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            "uniaxial": np.diag([1.0, 0.0, 0.0]),
            "biaxial": np.diag([1.0, 0.6, 0.0]),
            "random": rng.normal(size=(400, 3, 3)),
        }
        direction = directions[case]
        direction = 0.5 * (direction + np.swapaxes(direction, -1, -2))
        direction = direction / np.linalg.norm(direction, axis=(-2, -1), keepdims=True)
        eps = np.geomspace(1e-6, 1e-3, 400)[:, None, None] * direction
        eps_v = matrix_to_voigt(eps, "strain")
        Y = released_energy(eps_v, hooke)
        if case != "hydrostatic_compression":
            assert np.any(Y > P.Y0) and np.any((Y > 0.0) & (Y <= P.Y0))
        assert_bitwise(released_energy(eps_v, hooke, P.Y0), np.maximum(Y, P.Y0))

    @pytest.mark.parametrize("nu", [0.2, -0.3, 0.45])
    def test_energy_bound_holds_tightens_and_is_attained(self, nu):
        hooke = HookeTensor(P.E, nu)
        eps_v = matrix_to_voigt(STRAINS["random"], "strain")
        bound = material._energy_bound(eps_v, hooke)
        Y = released_energy(eps_v, hooke)
        assert np.all(Y <= bound)
        # never above the |eps|^2 bound 1/2 (3 max(lam, 0) + 2 mu) |eps|^2,
        norm2 = np.einsum("...v,...v,v->...", eps_v, eps_v, [1, 1, 1, 0.5, 0.5, 0.5])
        loose = 0.5 * (3.0 * max(hooke.lam, 0.0) + 2.0 * hooke.mu) * norm2
        # which it tightens where lam > 0; with lam <= 0 both are mu |eps|^2
        assert np.all(bound <= loose * (1.0 + 1e-9))
        assert np.mean(bound < 0.9 * loose) > 0.5 or hooke.lam <= 0.0
        if hooke.lam >= 0.0:                     # then attained at e I
            iso = matrix_to_voigt(3e-4 * np.eye(3)[None], "strain")
            np.testing.assert_allclose(material._energy_bound(iso, hooke),
                                       released_energy(iso, hooke), rtol=1e-9)

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
            DamageCorrection(d, eps_max[..., :3], lambda points: eps_max.reshape(-1, 6)[points],
                             P, HOOKE)
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

    def test_correction_field_without_a_point_lacking_history(self):
        # Every damaged point has a tension history, so the kernel has no
        # point without one: its field is the closed form's correction at
        # the damaged points, bit for bit, and +0 at the others.
        rng = np.random.default_rng(6)
        shape = (500,)
        eps = rng.normal(size=shape + (6,)) * 1e-4
        eps_max = rng.normal(size=shape + (6,)) * 1e-4
        eps_max[..., :3] = np.abs(eps_max[..., :3]) + 5e-5
        d = np.where(rng.random(shape) < 0.6, rng.uniform(0.0, 1.0, shape), 0.0)
        correction = kernel(eps_max, d)
        assert correction.no_peak.size == 0 and correction.peak.size > 0
        field = correction.field(eps)
        damaged = d != 0.0
        assert_bitwise(field[damaged], closed_form_correction(eps, eps_max, d)[damaged])
        assert_bitwise(field[~damaged], np.zeros((np.sum(~damaged), 6)))

    @pytest.mark.parametrize("lone", [False, True])
    def test_correction_in_place_is_the_stress_plus_the_correction_alone(self, lone):
        # The kernel's one method: on a buffer holding E:eps it forms the
        # stress in place, with none the correction alone, and the two
        # agree bit for bit, with total_stress and with the closed form.
        # The state damages points with and without a tension history, or
        # a single point without one, whose E:eps the kernel forms as a
        # lone row.
        rng = np.random.default_rng(9)
        shape = (300,)
        eps = rng.normal(size=shape + (6,)) * 1e-4
        eps_max = rng.normal(size=shape + (6,)) * 1e-4
        eps_max[..., :3] += 5e-5
        eps_max[rng.random(shape) < 0.2] = 0.0
        history = eps_max[..., :3].sum(axis=-1) > CLOSURE_TRACE_GUARD
        d = np.where(rng.random(shape) < 0.5, rng.uniform(0.0, 1.0, shape), 0.0)
        if lone:
            d[:] = 0.0
            d[np.flatnonzero(~history)[3]] = 0.4
        correction = kernel(eps_max, d)
        if lone:
            assert correction.peak.size == 0 and correction.no_peak.size == 1
        else:
            assert correction.peak.size > 1 and correction.no_peak.size > 1
        alone = correction.field(eps)
        held = HOOKE.apply(eps)
        assert correction.field(eps, out=held) is held
        assert_bitwise(held, HOOKE.apply(eps) + alone)
        assert_bitwise(total_stress(eps, HOOKE, correction), held)
        assert_bitwise(held, closed_form_stress(eps, eps_max, d))

    def test_released_energy_of_a_strided_history_slice(self, monkeypatch):
        # A block of steps of a (points, steps, 6) history: Y equals the
        # whole-field call's bit for bit, whatever the chunk of the bound.
        rng = np.random.default_rng(8)
        eps = rng.normal(size=(600, 48, 6)) * 3e-5
        whole = released_energy(eps, HOOKE, P.Y0)
        part = eps[:, 5:37]
        assert not part.flags.c_contiguous
        monkeypatch.setattr(material, "_CHUNK", 256)
        got = released_energy(part, HOOKE, P.Y0)
        assert_bitwise(got, whole[:, 5:37])
        assert 0.0 < np.mean(got > P.Y0) < 0.5

    def test_local_stage_matches_unscreened_composition(self):
        t = np.linspace(1.0 / 60, 1.0, 60)
        rng = np.random.default_rng(21)
        n_sp = 12
        eps = rng.normal(size=(n_sp, t.size, 6)) * 6e-5
        eps[:4] *= 0.2                           # rows that never reach Y0
        out = local_stage(eps, t, P, HOOKE)
        assert sorted(out) == ["d", "end", "sig"]

        Y = released_energy(eps, HOOKE)
        assert np.all(Y[:4] <= P.Y0)
        assert np.any(Y[4:] > P.Y0) and np.any(Y[4:] <= P.Y0)
        d = delay_from_rest(t, static_damage(Y, P))
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
