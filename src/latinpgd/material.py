"""Quasi-brittle isotropic damage with delay regularization and crack re-closure.

The constitutive state at a point is (eps, sigma, d, Y, z, Z):

* Y = 1/2 <eps>+ : E : <eps>+ is the released energy density (J/m^3); only
  positive principal strains contribute, so compression never damages.
* The quasi-static damage is d_bar = 1 - 1/(1 + A_d (Y - Y0)) above the
  activation threshold Y0; z = -d_bar and Z = (1/A_d)(-1 + 1/(1+z)) are the
  dual softening variables, chosen so the threshold function
  f = Y - (Y0 + Z) closes to zero at the updated state.
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

The nonlinear update stage evaluates this model at every spatial Gauss point
over the whole time axis at once; points are independent, so everything is
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
"""

from dataclasses import dataclass

import numpy as np

from .tensors import HookeTensor, voigt_to_matrix

CLOSURE_TRACE_GUARD = 1e-12

# Relative slack on the released-energy bound: far above the round-off of
# the eigenvalue route, so a screened point never has a computed Y above
# the floor.
_BOUND_SLACK = 1e-10
# |eps|^2 = eps : eps in engineering-strain Voigt components.
_FROBENIUS_STRAIN = np.array([1.0, 1.0, 1.0, 0.5, 0.5, 0.5])


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
    norm2 = np.einsum("...v,...v,v->...", eps_v, eps_v, _FROBENIUS_STRAIN)
    bound = 0.5 * (3.0 * max(hooke.lam, 0.0) + 2.0 * hooke.mu) * norm2
    # Negated test, so a non-finite strain still reaches the solver.
    live = np.flatnonzero(~(bound * (1.0 + _BOUND_SLACK) <= floor))
    Y = np.full(norm2.shape, float(floor))
    if live.size:
        eps_live = eps_v.reshape(-1, 6).take(live, axis=0)
        pos = np.maximum(np.linalg.eigvalsh(voigt_to_matrix(eps_live, "strain")), 0.0)
        tr = pos.sum(axis=-1)
        Y.reshape(-1)[live] = np.maximum(
            0.5 * (hooke.lam * tr ** 2 + 2.0 * hooke.mu * (pos ** 2).sum(axis=-1)), floor)
    return Y[()]   # a scalar for a single strain (6,), an array otherwise


def static_damage(Y, params):
    """Quasi-static damage d_bar(Y); zero at and below the activation threshold."""
    Y = np.asarray(Y, dtype=float)
    over = np.maximum(Y - params.Y0, 0.0)
    return 1.0 - 1.0 / (1.0 + params.A_d * over)


def dual_softening(z, params):
    """Thermodynamic dual Z(z) = (1/A_d)(-1 + 1/(1+z)) for z in (-1, 0]."""
    z = np.asarray(z, dtype=float)
    if np.any(z <= -1.0):
        raise ValueError("softening variable z must stay above -1")
    return (-1.0 + 1.0 / (1.0 + z)) / params.A_d


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
    scheme is stable at that step.  Returns d at the sample instants.
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
        n_sub = int(np.ceil(span / h_max))   # 0 on an empty span
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
    points.  eps_max_v is strain-Voigt (..., 6) and d has its shape (...).
    """

    def __init__(self, eps_max_v, d, params, hooke):
        eps_max_v = np.asarray(eps_max_v, dtype=float)
        d = np.asarray(d, dtype=float)
        if eps_max_v.shape != d.shape + (6,):
            raise ValueError("eps_max has shape %s, expected %s"
                             % (eps_max_v.shape, d.shape + (6,)))
        self.shape = d.shape
        self.hooke = hooke
        d = d.reshape(-1)
        damaged = np.flatnonzero(d)
        eps_max = eps_max_v.reshape(-1, 6).take(damaged, axis=0)
        tr_max = eps_max[:, :3].sum(axis=-1)
        history = tr_max > CLOSURE_TRACE_GUARD
        self.peak = damaged[history]        # flat indices, with a tension history
        self.no_peak = damaged[~history]    # flat indices, without one
        self.coef = -d[self.peak] / params.a_c
        self.scale = params.a_c / tr_max[history]
        self.e_max = hooke.apply(eps_max[history])
        self.neg_d = -d[self.no_peak][:, None]

    def _at_peak(self, flat):
        """-d s E:eps_max at the points with a tension history."""
        e = flat.take(self.peak, axis=0)
        tr = e[:, 0] + e[:, 1] + e[:, 2]
        return (self.coef * np.logaddexp(0.0, self.scale * tr))[:, None] * self.e_max

    def field(self, eps_v):
        """The correction of a strain field (shape of the state, 6)."""
        flat = np.asarray(eps_v, dtype=float).reshape(-1, 6)
        out = np.zeros_like(flat)
        out[self.peak] = self._at_peak(flat)
        out[self.no_peak] = self.neg_d * self.hooke.apply(flat[self.no_peak])
        return out.reshape(self.shape + (6,))

    def add_to(self, sig, eps_v):
        """Add the correction of eps_v in place to sig, which holds E:eps_v."""
        flat_sig = sig.reshape(-1, 6)     # a view: sig is C-ordered
        flat = np.asarray(eps_v, dtype=float).reshape(-1, 6)
        flat_sig[self.peak] = flat_sig.take(self.peak, axis=0) + self._at_peak(flat)
        at = flat_sig.take(self.no_peak, axis=0)
        flat_sig[self.no_peak] = at + self.neg_d * at


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


def tension_peak_history(eps_v):
    """Running tension peak along the time axis.

    eps_v: strain-Voigt (..., n_t, 6).  Returns (eps_max, tr_max) where
    eps_max[..., t, :] is the strain at the running argmax of tr(eps) over
    [0, t] (earliest index on ties, so the scan is deterministic).
    """
    eps_v = np.asarray(eps_v, dtype=float)
    tr = eps_v[..., :3].sum(axis=-1)
    n_t = tr.shape[-1]
    run = np.maximum.accumulate(tr, axis=-1)
    is_new = np.empty(tr.shape, dtype=bool)
    is_new[..., 0] = True
    is_new[..., 1:] = tr[..., 1:] > run[..., :-1]
    cand = np.where(is_new, np.arange(n_t), 0)
    idx = np.maximum.accumulate(cand, axis=-1)
    eps_max = np.take_along_axis(eps_v, idx[..., None], axis=-2)
    return eps_max, np.take_along_axis(tr, idx, axis=-1)


def local_stage(eps, Z_prev, dbar_prev, times, params, hooke):
    """Nonlinear update stage: constitutive relations at every Gauss point.

    All fields live on the (spatial Gauss x temporal Gauss) grid: eps has
    shape (n_sp, n_t, 6), the scalars (n_sp, n_t).  Per point and instant:
    the released energy is evaluated on the input strain, the damage
    variables are refreshed wherever the threshold f = Y - (Y0 + Z_prev) is
    exceeded (and kept otherwise), the delayed damage is re-integrated from
    d(0) = 0 over the whole axis, and the stress combines the damaged and
    re-closure branches using the running tension peak of the input strain.
    Delay and tension peak are evaluated only on the rows whose target
    damage is nonzero somewhere: d stays exactly 0 on every other row, so
    the stress there is E:eps and never reads the peak.

    Z_prev, dbar_prev : dual softening Z and target damage d_bar of the
        previous update (Z_prev >= 0); the softening variable is z = -d_bar.

    Returns a dict with exactly the keys its callers read: sig, d, dbar and
    Z.  The local strain is the input strain itself and is not echoed; the
    released energy is available from `released_energy(eps, hooke, Y0)`.
    """
    eps = np.asarray(eps, dtype=float)
    if not np.all(np.isfinite(eps)):
        bad = np.nonzero(~np.isfinite(eps).all(axis=(1, 2)))[0][0]
        raise ValueError("non-finite strain input at spatial Gauss point %d" % bad)
    Y = released_energy(eps, hooke, params.Y0)
    f_c = Y - (params.Y0 + np.asarray(Z_prev, dtype=float))
    damaging = f_c > 0.0

    dbar = np.where(damaging, static_damage(Y, params),
                    np.asarray(dbar_prev, dtype=float))
    Z = np.where(damaging, dual_softening(-dbar, params), Z_prev)

    d = np.zeros_like(dbar)
    eps_max = np.zeros(eps.shape)   # read by the correction only where d != 0
    active = np.any(dbar != 0.0, axis=-1)
    if np.any(active):
        d[active] = integrate_delay(times, dbar[active], 0.0, params)
        eps_max[active] = tension_peak_history(eps[active])[0]
    correction = DamageCorrection(eps_max, d, params, hooke)
    return {"sig": total_stress(eps, hooke, correction), "d": d,
            "dbar": dbar, "Z": Z}


def matpoint_drive(times, eps_x, params):
    """Drive a single material point with a uniaxial-strain history.

    The kinematics are uniaxial strain, eps = diag(eps_x, 0, 0); the damage
    variables start virgin and the update stage is evaluated once (it is
    idempotent for a fixed strain input, so one pass gives the converged
    constitutive response).

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
    zero = np.zeros((1, n_t))
    hooke = params.hooke()
    out = local_stage(eps, zero, zero, times, params, hooke)
    return {"sig_x": out["sig"][0, :, 0], "d": out["d"][0], "dbar": out["dbar"][0],
            "Y": released_energy(eps[0], hooke)}
