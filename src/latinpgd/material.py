"""Quasi-brittle isotropic damage with delay regularization and crack re-closure.

The constitutive state at a point is (eps, sigma, d, Y):

* Y = 1/2 <eps>+ : E : <eps>+ is the released energy density (J/m^3); only
  positive principal strains contribute, so compression never damages.
* The target damage is the instantaneous quasi-static law
  d_bar = 1 - 1/(1 + A_d <Y - Y0>+) of the current released energy: zero at
  and below the activation threshold Y0, and falling when Y falls.  No
  threshold or softening variable is carried; irreversibility comes from
  the delay law alone, whose rate is clamped at zero.
* The effective damage d follows d_bar through the delay law
  d_dot = (1/tau_c)(1 - exp(-a <d_bar - d>+)), which caps the damage rate at
  1/tau_c and regularizes the softening.
* Stress combines the damaged elastic part with a progressive crack
  re-closure term:  sigma = (1-d) E:eps + d E:F(eps), where
  F(eps) = eps - s eps_max with s = softplus(a_c tr eps / tr eps_max) / a_c
  pulls the strain back towards the recorded tension peak eps_max and
  recovers the full stiffness in deep compression (F = 0 without a tension
  history).  It is evaluated in closed form, sigma = E:eps - d s E:eps_max
  (sigma = (1-d) E:eps without a history), by `DamageCorrection`, which
  gathers what a frozen state contributes once and is then applied to any
  number of strains.

The nonlinear update stage evaluates the law that the Newmark march advances
step by step, at every spatial Gauss point over the whole time axis at once:
a pure map of the strain history.  Points are independent, so everything is
vectorized over space.  Damage-law work is only done where damage can
happen, with results bit-identical to evaluating it everywhere:

* released energy: isotropy bounds Y <= B = 1/2 (3 max(lam, 0) + 2 mu) |eps|^2,
  since (sum <e_i>+)^2 <= 3 sum e_i^2 <= 3 |eps|^2.  Callers that only look at
  max(Y, Y0) pass Y0 as a floor, and the eigenvalue solve runs only where B
  can reach it;
* stress: E:eps is exact where d = 0, so the damage correction is
  evaluated only at damaged points;
* delay: with zero target and zero start the rate is exactly 0, so the
  update stage integrates only the spatial points whose target damage is
  nonzero somewhere on the time axis, and scans the tension peak, which
  the stress reads only where d != 0, at those points only.

The kernels that gather a subset of points (eigenvalue solve, correction)
work through it in chunks, so their temporaries stay small however many
points qualify.
"""

from dataclasses import dataclass

import numpy as np

from .tensors import STRAIN_CONTRACTION, HookeTensor, voigt_to_matrix

CLOSURE_TRACE_GUARD = 1e-12

# Relative slack on the released-energy bound: far above the round-off of
# the eigenvalue route, so a screened point never has a computed Y above
# the floor.
_BOUND_SLACK = 1e-10
# Relative round-off allowance of the delay law's substep count.
_SUBSTEP_SLACK = 1e-9
# Points per chunk of the pointwise kernels that gather a subset of a field:
# their temporaries stay this small however many points qualify.
_CHUNK = 1 << 14


def _chunks(n):
    """Slices covering range(n) in chunks of _CHUNK."""
    return [slice(i, i + _CHUNK) for i in range(0, n, _CHUNK)]


@dataclass(frozen=True)
class MaterialParams:
    """Density, elasticity and damage parameters of the concrete-like model."""

    rho: float      # kg/m^3
    E: float        # Pa
    nu: float       # -
    Y0: float       # J/m^3, damage activation threshold
    A_d: float      # m^3/J, brittleness
    tau_c: float    # s, delay time constant
    a: float        # -, delay exponential constant
    a_c: float      # -, crack-closure constant
    xi: float = 0.0  # -, modal damping ratio

    def __post_init__(self):
        for name in ("rho", "E", "Y0", "A_d", "tau_c", "a", "a_c"):
            if getattr(self, name) <= 0.0:
                raise ValueError("%s must be positive, got %g" % (name, getattr(self, name)))
        if not -1.0 < self.nu < 0.5:
            raise ValueError("Poisson ratio must lie in (-1, 0.5)")
        if not 0.0 <= self.xi < 1.0:
            raise ValueError("damping ratio must lie in [0, 1)")

    def hooke(self):
        return HookeTensor(self.E, self.nu)


def reference_concrete():
    """The reference parameter set used throughout the bending-beam studies."""
    return MaterialParams(rho=2550.0, E=37.9e9, nu=0.2, Y0=150.0, A_d=8.0e-3,
                          tau_c=0.05, a=15.0, a_c=9.0, xi=0.02)


def released_energy(eps_v, hooke, floor=0.0):
    """max(Y, floor) with Y = 1/2 <eps>+ : E : <eps>+, for strain-Voigt fields (..., 6).

    E is isotropic, so <eps>+ shares the eigenvectors of eps and only the
    principal strains e_i enter:  Y = 1/2 (lam (sum <e_i>+)^2
    + 2 mu sum <e_i>+^2).  The e_i come from LAPACK's symmetric eigenvalue
    solver, which stays accurate at repeated eigenvalues (uniaxial strain).
    It only runs where the bound B = 1/2 (3 max(lam, 0) + 2 mu) |eps|^2 can
    exceed `floor`; everywhere else Y <= floor and the result is `floor`.
    The default floor 0 sends every nonzero strain through the solver.
    """
    eps_v = np.asarray(eps_v, dtype=float)
    norm2 = np.einsum("...v,...v,v->...", eps_v, eps_v, STRAIN_CONTRACTION)
    bound = 0.5 * (3.0 * max(hooke.lam, 0.0) + 2.0 * hooke.mu) * norm2
    # Negated test, so a non-finite strain still reaches the solver.
    live = np.flatnonzero(~(bound * (1.0 + _BOUND_SLACK) <= floor))
    Y = np.full(norm2.shape, float(floor))
    flat_eps, flat_Y = eps_v.reshape(-1, 6), Y.reshape(-1)
    for s in _chunks(live.size):
        points = live[s]
        pos = np.maximum(np.linalg.eigvalsh(
            voigt_to_matrix(flat_eps.take(points, axis=0), "strain")), 0.0)
        tr = pos.sum(axis=-1)
        flat_Y[points] = np.maximum(
            0.5 * (hooke.lam * tr ** 2 + 2.0 * hooke.mu * (pos ** 2).sum(axis=-1)), floor)
    return Y[()]   # a scalar for a single strain (6,), an array otherwise


def static_damage(Y, params):
    """Quasi-static damage d_bar(Y); zero at and below the activation threshold."""
    Y = np.asarray(Y, dtype=float)
    over = np.maximum(Y - params.Y0, 0.0)
    return 1.0 - 1.0 / (1.0 + params.A_d * over)


def _delay_rate(gap, params):
    return (1.0 - np.exp(-params.a * np.maximum(gap, 0.0))) / params.tau_c


def integrate_delay(times, dbar, d_init, params):
    """Integrate d_dot = (1/tau_c)(1 - exp(-a <d_bar - d>+)) along the time axis.

    times : sample instants (n_t,), strictly increasing, starting at or
        after 0.
    dbar : target damage samples (..., n_t); linear interpolation in between,
        constant extrapolation on the leading [0, times[0]] gap.  That gap
        is empty when times[0] = 0 (the Newmark step calls with [0, dt]),
        and an empty span takes no substep: d[..., 0] is then d_init.
    d_init : initial damage at t = 0 (scalar or shape (...)).

    Classic one-step 4-stage integration on substeps no longer than tau_c/20;
    the right-hand side is bounded by 1/tau_c and Lipschitz, so the explicit
    scheme is stable at that step.  A span within a relative 1e-9 of a
    whole number of substeps takes that number, so round-off in the sample
    instants never adds a substep: a span of exactly tau_c/20, however it
    was computed, takes one.  Returns d at the sample instants.
    """
    times = np.asarray(times, dtype=float)
    dbar = np.asarray(dbar, dtype=float)
    n_t = times.size
    if dbar.shape[-1] != n_t:
        raise ValueError("dbar last axis must match times")
    d = np.empty_like(dbar)
    cur = np.broadcast_to(np.asarray(d_init, dtype=float), dbar.shape[:-1]).copy()
    h_max = params.tau_c / 20.0
    prev_t = 0.0
    prev_db = dbar[..., 0]  # flat extrapolation before the first sample
    for k in range(n_t):
        span = times[k] - prev_t
        db0, db1 = prev_db, dbar[..., k]
        n_sub = int(np.ceil(span / h_max * (1.0 - _SUBSTEP_SLACK)))  # 0 if empty
        h = span / max(n_sub, 1)
        for s in range(n_sub):
            f0 = db0 + (db1 - db0) * (s / n_sub)
            fh = db0 + (db1 - db0) * ((s + 0.5) / n_sub)
            f1 = db0 + (db1 - db0) * ((s + 1.0) / n_sub)
            k1 = _delay_rate(f0 - cur, params)
            k2 = _delay_rate(fh - (cur + 0.5 * h * k1), params)
            k3 = _delay_rate(fh - (cur + 0.5 * h * k2), params)
            k4 = _delay_rate(f1 - (cur + h * k3), params)
            cur = cur + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        d[..., k] = cur
        prev_t = times[k]
        prev_db = db1
    return d


class DamageCorrection:
    """sigma - E:eps of a frozen damage state (eps_max, d), in closed form.

    With s = softplus(a_c tr eps / tr eps_max) / a_c the stress
    sigma = (1-d) E:eps + d E:(eps - s eps_max) differs from E:eps by
    -d s E:eps_max at a point with a tension history
    (tr eps_max > CLOSURE_TRACE_GUARD) and by -d E:eps at a point without
    one, where the re-closure term is zero.  It is zero where d = 0.

    Everything that depends on the state alone is gathered here, once: the
    damaged points split by history, -d/a_c, a_c/tr eps_max and E:eps_max
    at the points with a history, -d at the others.  Each strain field then
    costs one trace, one softplus and one scaled scatter at the damaged
    points.

    d and tr_max (the trace of the tension peak eps_max) share the state's
    shape (...).  peak_stress(flat) returns E:eps_max, shape (k, 6), at the
    flat indices `flat` of that shape; it is called once, here, for the
    damaged points with a history only.  So a caller never forms eps_max as
    a field: the Newmark march applies E to its per-point peaks, and the
    local stage reads E:eps at the running peak index off the E:eps it forms
    anyway.
    """

    def __init__(self, d, tr_max, peak_stress, params, hooke):
        d = np.asarray(d, dtype=float)
        tr_max = np.asarray(tr_max, dtype=float)
        if tr_max.shape != d.shape:
            raise ValueError("tr_max has shape %s, expected %s"
                             % (tr_max.shape, d.shape))
        self.hooke = hooke
        d = d.reshape(-1)
        damaged = np.flatnonzero(d)
        tr = tr_max.reshape(-1)[damaged]
        history = tr > CLOSURE_TRACE_GUARD
        self.peak = damaged[history]        # flat indices, with a tension history
        self.no_peak = damaged[~history]    # flat indices, without one
        self.coef = -d[self.peak] / params.a_c
        self.scale = params.a_c / tr[history]
        self.e_max = peak_stress(self.peak)
        self.neg_d = -d[self.no_peak][:, None]

    def _at_peak(self, flat, s=slice(None)):
        """-d s E:eps_max at the points self.peak[s], which have a tension history."""
        e = flat.take(self.peak[s], axis=0)
        tr = e[:, 0] + e[:, 1] + e[:, 2]
        return ((self.coef[s] * np.logaddexp(0.0, self.scale[s] * tr))[:, None]
                * self.e_max[s])

    def field(self, eps_v):
        """The correction of a strain field (shape of the state, 6)."""
        eps_v = np.asarray(eps_v, dtype=float)
        flat = eps_v.reshape(-1, 6)
        out = np.zeros_like(flat)
        out[self.peak] = self._at_peak(flat)
        out[self.no_peak] = self.neg_d * self.hooke.apply(flat[self.no_peak])
        return out.reshape(eps_v.shape)

    def add_to(self, sig, eps_v):
        """Add the correction of eps_v in place to sig, which holds E:eps_v.

        Chunk by chunk of the damaged points, so a whole damaged field
        forms no temporary of its size.
        """
        flat_sig = sig.reshape(-1, 6)     # a view: sig is C-ordered
        flat = np.asarray(eps_v, dtype=float).reshape(-1, 6)
        for s in _chunks(self.peak.size):
            points = self.peak[s]
            flat_sig[points] = flat_sig.take(points, axis=0) + self._at_peak(flat, s)
        for s in _chunks(self.no_peak.size):
            points = self.no_peak[s]
            at = flat_sig.take(points, axis=0)
            flat_sig[points] = at + self.neg_d[s] * at


def total_stress(eps_v, hooke, correction):
    """sigma = E:eps + the closed-form damage correction of a frozen state.

    eps_v: strain-Voigt (..., 6).  correction: the state's DamageCorrection,
    or None when no point is damaged, in which case sigma is E:eps itself.
    Returns stress Voigt.
    """
    sig = hooke.apply(eps_v)
    if correction is not None:
        correction.add_to(sig, eps_v)
    return sig


def tension_peak_history(tr):
    """Running tension peak along the time axis.

    tr: trace of a strain history (..., n_t).  Returns (idx, tr_max) where
    idx[..., t] is the running argmax of tr over [0, t] (earliest index on
    ties, so the scan is deterministic) and tr_max = tr at idx: the tension
    peak eps_max[..., t, :] is the strain at time index idx[..., t].
    """
    tr = np.asarray(tr, dtype=float)
    n_t = tr.shape[-1]
    run = np.maximum.accumulate(tr, axis=-1)
    is_new = np.empty(tr.shape, dtype=bool)
    is_new[..., 0] = True
    is_new[..., 1:] = tr[..., 1:] > run[..., :-1]
    cand = np.where(is_new, np.arange(n_t), 0)
    idx = np.maximum.accumulate(cand, axis=-1)
    return idx, np.take_along_axis(tr, idx, axis=-1)


def local_stage(eps, times, params, hooke, out=None):
    """Nonlinear update stage: constitutive relations at every Gauss point.

    All fields live on the (spatial Gauss x temporal Gauss) grid: eps has
    shape (n_sp, n_t, 6), the scalars (n_sp, n_t).  The stage is a pure map
    of the strain history, with no state carried from an earlier call.  Per
    point and instant the target damage is the quasi-static law of the
    released energy, d_bar = static_damage(Y), the same expression as the
    Newmark march's damage update; the delayed damage is integrated from
    d(0) = 0 over the whole axis, and the stress combines the damaged and
    re-closure branches using the running tension peak of the input strain.
    Delay and tension peak are evaluated only on the rows whose target
    damage is nonzero somewhere: d stays exactly 0 on every other row, so
    the stress there is E:eps and never reads the peak.

    The stress is E:eps, formed once into `out`, plus the damage correction
    at the damaged points (`DamageCorrection`).  The correction's E:eps_max
    is read off that E:eps at the running tension-peak index, before the
    correction is added, so no tension-peak strain field is formed.

    out : array (n_sp, n_t, 6) to write the stress into (the driver's held
        buffer); a new array by default.

    Returns a dict with exactly the keys its callers read: sig and d.  The
    local strain is the input strain itself and is not echoed; the target
    damage is `static_damage(released_energy(eps, hooke, Y0))`.
    """
    eps = np.asarray(eps, dtype=float)
    # One reduction screens the field; the per-point scan runs only when it
    # is not finite (an overflowing sum of finite strains passes it).
    if not np.isfinite(np.sum(eps)):
        bad = np.flatnonzero(~np.isfinite(eps).all(axis=(1, 2)))
        if bad.size:
            raise ValueError("non-finite strain input at spatial Gauss point %d"
                             % bad[0])
    dbar = static_damage(released_energy(eps, hooke, params.Y0), params)

    d = np.zeros_like(dbar)
    sig = hooke.apply(eps, out=out)      # exact wherever d = 0
    active = np.any(dbar != 0.0, axis=-1)
    if np.any(active):
        d[active] = integrate_delay(times, dbar[active], 0.0, params)
        n_t = eps.shape[1]
        idx = np.zeros(d.shape, dtype=np.intp)
        tr_max = np.zeros_like(d)
        idx[active], tr_max[active] = tension_peak_history(
            eps[active, :, 0] + eps[active, :, 1] + eps[active, :, 2])
        flat_sig = sig.reshape(-1, 6)
        flat_idx = idx.reshape(-1)

        def peak_stress(flat):
            """E:eps_max: E:eps of the same point at its peak time index."""
            source = flat - flat % n_t
            source += flat_idx[flat]
            return flat_sig[source]

        DamageCorrection(d, tr_max, peak_stress, params, hooke).add_to(sig, eps)
    return {"sig": sig, "d": d}


def matpoint_drive(times, eps_x, params):
    """Drive a single material point with a uniaxial-strain history.

    The kinematics are uniaxial strain, eps = diag(eps_x, 0, 0), from a
    virgin state; the update stage maps the strain history to the
    constitutive response in one evaluation.

    Returns a dict of time series: sig_x, d, dbar, Y (the released energy
    itself, also below the threshold).
    """
    times = np.asarray(times, dtype=float)
    eps_x = np.asarray(eps_x, dtype=float)
    n_t = times.size
    if eps_x.shape != (n_t,):
        raise ValueError("eps_x must have shape (%d,)" % n_t)
    eps = np.zeros((1, n_t, 6))
    eps[0, :, 0] = eps_x
    hooke = params.hooke()
    out = local_stage(eps, times, params, hooke)
    Y = released_energy(eps[0], hooke)
    return {"sig_x": out["sig"][0, :, 0], "d": out["d"][0],
            "dbar": static_damage(Y, params), "Y": Y}
