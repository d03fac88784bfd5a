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
  1/tau_c and regularizes the softening; it is integrated exactly.
* Stress combines the damaged elastic part with a progressive crack
  re-closure term:  sigma = (1-d) E:eps + d E:F(eps), where
  F(eps) = eps - s eps_max with s = softplus(a_c tr eps / tr eps_max) / a_c
  pulls the strain back towards the recorded tension peak eps_max and
  recovers the full stiffness in deep compression (F = 0 without a tension
  history).  It is evaluated in closed form, sigma = E:eps - d s E:eps_max
  (sigma = (1-d) E:eps without a history), by `DamageCorrection`, which
  gathers what a frozen state contributes once and is then applied to any
  number of strains.

The nonlinear update stage (`local_stage`) is the one driver of the law: at
every spatial Gauss point over a stretch of the time axis at once, it maps
the strain history from a start state to the stress, the damage and the
end state.  What carries across a cut of the time axis is a `DamageState`:
d, the target damage at the last sample (the delay law interpolates
targets between samples) and the tension peak, a running maximum.  LATIN
runs the stage from rest over the whole interval; the Newmark march runs it
over each step [0, dt] from its committed state.  Points are independent,
so everything is vectorized over space.  Damage-law work is only done where
damage can happen, with results bit-identical to evaluating it everywhere:

* released energy: with e_i the principal strains, Y is at most
  B = 1/2 (max(lam, 0) P^2 + 2 mu |eps|^2), P = 1/2 (tr eps + sqrt(3) |eps|),
  which is attained at eps = e I when lam >= 0 (`_energy_bound`).  Callers that only look
  at max(Y, Y0) pass Y0 as a floor, and the eigenvalue solve runs only
  where B can reach it.  The update stage first screens each block of its
  sweep with the looser 1/2 (3 max(lam, 0) + 2 mu) |eps|^2 >= B, which
  needs |eps|^2 alone, and hands only the samples it passes to
  `released_energy`; the target damage is formed only where Y > Y0;
* delay: with zero target and zero start the rate is exactly 0, so the
  update stage integrates only the spatial points whose target damage is
  nonzero somewhere on the time axis or whose start carries damage or a
  target (the active rows).  Along the time axis, a row whose targets at
  both ends of a step are <= d keeps every bit of d, and a step frozen on
  every row is skipped (`integrate_delay`): on a damaging run most steps
  are frozen;
* tension peak: the stress reads it only where d != 0, so its running
  index and trace are built on the active rows only, a chunk of rows at a
  time; the end state's peak, which every row carries, is taken in the
  sweep that reads the strain;
* stress: E:eps is exact where d = 0, so the damage correction is
  evaluated only at damaged points.

The kernels that gather a subset of points (eigenvalue solve, correction)
work through it in chunks, so their temporaries stay small however many
points qualify; the released-energy bound is formed a chunk of rows at a
time for the same reason.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tensors import STRAIN_CONTRACTION, HookeTensor, voigt_to_matrix
from .timegrid import spatial_blocks

CLOSURE_TRACE_GUARD = 1e-12

# Relative slack on the released-energy bound: far above the round-off of
# the eigenvalue route, so a screened point never has a computed Y above
# the floor.
_BOUND_SLACK = 1e-10
# Steps the delay law tests for a frozen state at a time.
_WINDOW = 64
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
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError("%s must be finite and positive, got %g"
                                 % (name, getattr(self, name)))
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


def _energy_bound(eps_v, hooke):
    """Upper bound of Y at each strain of a strain-Voigt field (..., 6).

    With e_i the principal strains, sum <e_i>+ = 1/2 (tr eps + sum |e_i|) is
    at most P = 1/2 (tr eps + sqrt(3) |eps|), and sum <e_i>+^2 <= |eps|^2,
    so Y <= B = 1/2 (max(lam, 0) P^2 + 2 mu |eps|^2).  Both inequalities
    hold with equality at eps = e I, e > 0, so with lam >= 0 B is attained
    there.  The
    bound is inflated by _BOUND_SLACK, and a non-finite strain gives a
    non-finite bound.
    """
    norm2 = (eps_v * eps_v) @ STRAIN_CONTRACTION
    p2 = (eps_v[..., 0] + eps_v[..., 1] + eps_v[..., 2] + np.sqrt(3.0 * norm2)) ** 2
    return (1.0 + _BOUND_SLACK) * (0.125 * max(hooke.lam, 0.0) * p2 + hooke.mu * norm2)


def released_energy(eps_v, hooke, floor=0.0):
    """max(Y, floor) with Y = 1/2 <eps>+ : E : <eps>+, for strain-Voigt fields (..., 6).

    E is isotropic, so <eps>+ shares the eigenvectors of eps and only the
    principal strains e_i enter:  Y = 1/2 (lam (sum <e_i>+)^2
    + 2 mu sum <e_i>+^2).  The e_i come from LAPACK's symmetric eigenvalue
    solver, which stays accurate at repeated eigenvalues (uniaxial strain).
    It only runs where the bound of `_energy_bound` can exceed `floor`;
    everywhere else Y <= floor and the result is `floor`.  The default
    floor 0 sends every nonzero strain through the solver.  The field is
    read as one flat (n, 6) view (a copy only if it is strided) and the
    bound formed _CHUNK samples at a time: it only screens samples, and the
    exact Y decides, so Y does not depend on the chunks.
    """
    eps_v = np.asarray(eps_v, dtype=float)
    samples = eps_v.reshape(-1, 6)
    bound = np.empty(samples.shape[0])
    for s in _chunks(bound.size):
        bound[s] = _energy_bound(samples[s], hooke)
    # Negated test, so a non-finite strain still reaches the solver.
    live = np.flatnonzero(~(bound <= floor))
    Y = np.full(bound.size, float(floor))
    for s in _chunks(live.size):
        points = live[s]
        pos = np.maximum(np.linalg.eigvalsh(voigt_to_matrix(samples[points])), 0.0)
        tr = pos.sum(axis=-1)
        Y[points] = np.maximum(
            0.5 * (hooke.lam * tr ** 2 + 2.0 * hooke.mu * (pos ** 2).sum(axis=-1)), floor)
    return Y.reshape(eps_v.shape[:-1])[()]   # a scalar for a single strain (6,)


def static_damage(Y, params):
    """Quasi-static damage d_bar(Y); zero at and below the activation threshold."""
    Y = np.asarray(Y, dtype=float)
    over = np.maximum(Y - params.Y0, 0.0)
    return 1.0 - 1.0 / (1.0 + params.A_d * over)


def integrate_delay(times, dbar, d_init, params):
    """Integrate d_dot = (1/tau_c)(1 - exp(-a <d_bar - d>+)) along the time axis.

    times : sample instants (n_t,), finite, non-negative and strictly
        increasing; the first that is not raises ValueError naming it.
        times[0] is the instant of d_init (the Newmark step calls with
        [0, dt], and `local_stage` enters its start state as the first
        sample).
    dbar : target damage samples (..., n_t); linear interpolation in between.
    d_init : damage at times[0] (scalar or shape (...)); d[..., 0] is d_init.

    Each sample interval is one exact step (`_delay_step`).  A row whose
    targets at both ends of a step are <= d keeps every bit of d.  The
    larger end target of every step is formed up front, and a step frozen
    on every row is skipped whole: the next step that can move d is found
    by one comparison per step, a window of steps at a time.  A NaN target
    is never frozen, so it propagates.  Returns d at the sample instants.
    """
    times = np.asarray(times, dtype=float)
    dbar = np.asarray(dbar, dtype=float)
    if dbar.shape[-1] != times.size:
        raise ValueError("dbar last axis must match times")
    rows = dbar.reshape(math.prod(dbar.shape[:-1]), times.size)
    d = np.empty_like(rows)
    cur = np.broadcast_to(np.asarray(d_init, dtype=float), dbar.shape[:-1]).flatten()
    _check_times(times, "delay-law times")

    # Step j spans [times[j], times[j+1]] and ends on sample j + 1; top
    # holds its larger end target.
    span = np.diff(times)
    top = np.maximum(rows[:, 1:], rows[:, :-1])
    j, done = 0, -1       # d[:, 0] is d_init, written with the frozen steps
    while True:
        # Next step that can move d; negated test, so NaN counts.
        while j < span.size:
            moves = ~(top[:, j:j + _WINDOW] <= cur[:, None])
            if moves.any():
                j += int(moves.any(axis=0).argmax())
                break
            j += _WINDOW
        j = min(j, span.size)
        d[:, done + 1:j + 1] = cur[:, None]      # frozen steps end where they start
        if j == span.size:
            return d.reshape(dbar.shape)
        live = np.flatnonzero(~(top[:, j] <= cur))
        cur[live] = _delay_step(cur[live], rows[live, j], rows[live, j + 1], span[j], params)
        d[:, j + 1] = cur
        done = j = j + 1


def _check_times(times, what):
    """Raise ValueError naming the first of `times` that is not finite,
    non-negative and after the one before it."""
    ok = np.isfinite(times) & (times >= 0.0)
    ok[1:] &= times[1:] > times[:-1]
    if not ok.all():
        k = int(ok.argmin())
        after = " after times[%d] = %g" % (k - 1, times[k - 1]) if k else ""
        raise ValueError("%s must be finite, non-negative and increasing: "
                         "times[%d] = %g%s" % (what, k, times[k], after))


def _delay_step(d0, b0, b1, h, params):
    """d after an exact step h > 0 from d0, the target linear from b0 to b1.

    With x = d_bar - d, r the target's slope and kappa = a (r - 1/tau_c),
    z = e^(a x) - 1 obeys z' = kappa z + a r while x > 0, so
    z(s) = z0 e^(kappa s) + a r s phi1(kappa s), phi1(u) = expm1(u)/u, and
    d = d_bar - log1p(z)/a.  A frozen row enters at s0 = -x0/r with z0 = 0.
    With v = a s/tau_c and E = a (b1 - d0) - v, 1 + z = e^E + v phi1(kappa s),
    scaled here by e^-M, M = max(E, 0), so that no exponent is positive.
    Under a falling target the gap closes at e^(kappa s) = a r/(kappa z0 + a r),
    where z = 0, and d keeps the target of that instant; it never ends below d0.
    """
    a = params.a
    start = np.maximum(b0, d0)
    s = h * np.divide(b1 - start, b1 - b0, out=np.ones_like(b0), where=b0 < d0)
    v = (a / params.tau_c) * s
    u = a * (b1 - start) - v                       # kappa s
    E = a * (b1 - d0) - v
    M = np.maximum(E, 0.0)
    y = -np.abs(u)
    phi = np.divide(np.expm1(y), y, out=np.ones_like(y), where=y != 0.0)
    z = np.expm1(E - M) + v * phi * np.exp(np.maximum(u, 0.0) - M)   # (1 + z) e^-M - 1
    d = b1 - (M + np.log1p(np.maximum(z, 0.0))) / a
    # Closing time, scaled: |kappa| s_x = a x0 + log1p((1 - e^(-a x0))/rho), rho = tau_c |r|.
    exits = (z < 0.0) & (b1 < b0)
    x0, rho = (b0 - d0)[exits], params.tau_c * (b0 - b1)[exits] / h
    d[exits] = b0[exits] - rho / (rho + 1.0) * (x0 + np.log1p(-np.expm1(-a * x0) / rho) / a)
    return np.maximum(d, d0)


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
        out = np.zeros(flat.shape)
        out[self.peak] = self._at_peak(flat)
        if self.no_peak.size:
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


def total_stress(eps_v, hooke, correction, out=None):
    """sigma = E:eps + the closed-form damage correction of a frozen state.

    eps_v: strain-Voigt (..., 6).  correction: the state's DamageCorrection,
    or None when no point is damaged, in which case sigma is E:eps itself.
    out: array to write the stress into; a new array by default.
    Returns stress Voigt.
    """
    sig = hooke.apply(eps_v, out=out)
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
    is_new = np.ones(tr.shape, dtype=bool)
    is_new[..., 1:] = tr[..., 1:] > run[..., :-1]
    cand = np.where(is_new, np.arange(n_t), 0)
    idx = np.maximum.accumulate(cand, axis=-1)
    return idx, run


def _hooke_rows(hooke, eps_rows):
    """E:eps of strain rows (k, 6), each row with the bits of any product that holds it.

    numpy multiplies two or more rows by BLAS's matrix product, whose rows
    do not depend on how many there are, but a lone row by a vector product
    that can differ in the last bit; the rows are multiplied with one more.
    """
    return hooke.apply(np.concatenate([eps_rows, eps_rows[:1]]))[:-1]


@dataclass(frozen=True, eq=False)
class DamageState:
    """The damage law's state at one instant, per point: what carries across a time cut.

    d : damage (n,).
    dbar : target damage (n,); the delay law interpolates the target
        linearly from it to the next sample.
    eps_max : tension peak (n, 6), the strain of the largest trace so far
        (the earliest on ties), or the zero strain while no trace has
        exceeded 0; tr_max (n,) is its trace.  A point carries its peak
        before it damages: the re-closure term reads it once d > 0.

    `local_stage` returns the state at its last sample and takes one as its
    start; the Newmark march holds its committed state as one.
    """

    d: np.ndarray
    dbar: np.ndarray
    eps_max: np.ndarray
    tr_max: np.ndarray

    @classmethod
    def undamaged(cls, n_points):
        """n_points at rest at t = 0: no damage, no target, a zero tension
        peak (zero-stride views, which allocate nothing)."""
        zero = np.broadcast_to(0.0, (n_points,))
        return cls(zero, zero, np.broadcast_to(0.0, (n_points, 6)), zero)

    def correction(self, params, hooke):
        """The state's `DamageCorrection` kernel; None while d = 0 everywhere.

        It is built on the first call and kept, so a state serves one
        material: `local_stage` corrects its last sample with its end
        state's kernel, and the Newmark march reuses it.
        """
        if "kernel" not in vars(self):
            object.__setattr__(self, "kernel", DamageCorrection(
                self.d, self.tr_max, lambda flat: _hooke_rows(hooke, self.eps_max[flat]),
                params, hooke) if self.d.any() else None)
        return self.kernel


def local_stage(eps, times, params, hooke, out=None, elastic=None, start=None):
    """Nonlinear update stage: constitutive relations at every Gauss point.

    All fields live on the (spatial Gauss x temporal Gauss) grid: eps has
    shape (n_sp, n_t, 6), the scalars (n_sp, n_t).  The stage maps the
    strain history from its start state and keeps nothing between calls.
    Per point and instant the target damage is the quasi-static law of the
    released energy, d_bar = static_damage(Y); the delayed damage is
    integrated from the start, and the stress combines the damaged and
    re-closure branches using the running tension peak of the strain.

    times : the samples' instants (n_t,), led by the start's instant when
        a start is given (n_t + 1,).
    start : the `DamageState` carried across a time cut (a previous call's
        end state, at the instant of that call's last sample), or None for
        rest.  From rest d = 0 at t = 0 under the first sample's target,
        held flat up to the first sample, and the tension peak is the zero
        strain (`DamageState.undamaged`).  A start state enters the delay
        law as its first sample, with its damage and target, and its tension
        peak leads the running peak, which a sample replaces only by a
        larger trace.  So a history cut at any sample and run as two calls,
        the second from the first's end state, gives the whole call's d,
        stress and end state bit for bit.

    Delay and tension peak are evaluated only on the active rows: those
    whose target damage is nonzero somewhere, and those whose start carries
    damage or a target.  d stays exactly 0 on every other row, so the
    stress there is E:eps and never reads the peak.

    One sweep over spatial blocks reads the strain: it writes E:eps into
    `out` (unless `elastic` holds it already), screens the block for
    non-finite strains, bounds its released energy by |eps|^2 and takes
    each point's tension peak at the last sample for the end state.
    `released_energy` then runs once, on the samples whose bound can exceed
    Y0, and the target damage is formed only where Y > Y0.  The stress is
    E:eps plus the damage correction at the damaged points
    (`DamageCorrection`).  The samples before the last are corrected a chunk
    of active rows at a time: the correction's E:eps_max is read off that
    E:eps at the running tension-peak index, before the correction is
    added, or formed from the start's peak, so no tension-peak strain field
    is formed.  The last sample is corrected by the end state's own kernel
    (`DamageState.correction`), which the state keeps for its caller: a
    one-sample call, a Newmark pass, builds one kernel.  Every Hooke product
    multiplies two rows or more (`_hooke_rows`), so E:eps of a sample has
    the same bits however the history is cut.  Besides d, no temporary has
    the size of a scalar field: the targets and the delay law cover the
    active rows, and the tension-peak index, its trace and the correction a
    chunk of them at a time.

    out : array (n_sp, n_t, 6) to write the stress into (the driver's held
        buffer, or a view of a history); a new array by default.
    elastic : array that already holds E:eps, bit for bit (`run_latin`'s
        elastic start), or None.  The sweep then forms no E:eps.  When no
        sample can damage, the stress returned is `elastic` itself and
        `out` is never touched; otherwise `elastic` is copied into the
        stress and the correction added there, so the stress is bit for
        bit the one formed without it, and `elastic` is left as it is.

    Returns a dict with exactly the keys its callers read: sig, d and end,
    the `DamageState` at times[-1] that a later call takes as its start,
    with times[-1] leading its times.
    The local strain is the input strain itself and is not echoed; the
    target damage is `static_damage(released_energy(eps, hooke, Y0))`.
    Raises ValueError naming the field of a start whose shape does not
    match the strain's points.
    """
    eps = np.asarray(eps, dtype=float)
    n_sp, n_t = eps.shape[:2]
    from_rest = start is None
    start = DamageState.undamaged(n_sp) if from_rest else start
    for name in ("d", "dbar", "eps_max", "tr_max"):
        if np.shape(getattr(start, name)) != (n_sp,) + (6,) * (name == "eps_max"):
            raise ValueError("start state's %s has shape %s, not that of the %d points of "
                             "the strain" % (name, np.shape(getattr(start, name)), n_sp))
    sig = np.empty_like(eps) if out is None else out
    # |eps|^2 alone bounds Y by 1/2 (3 max(lam, 0) + 2 mu) |eps|^2, a looser
    # bound than `_energy_bound`'s, which released_energy then applies to
    # the samples this one passes.
    loose = 0.5 * (3.0 * max(hooke.lam, 0.0) + 2.0 * hooke.mu) * (1.0 + _BOUND_SLACK)
    live = []
    peak_tr, peak_eps = np.empty(n_sp), np.empty((n_sp, 6))
    for s in spatial_blocks(eps):
        block = eps[s]
        norm2 = (block * block).reshape(-1, 6) @ STRAIN_CONTRACTION
        # One reduction screens the block; the per-point scan runs only when
        # it is not finite (an overflowing sum of finite strains passes it).
        if not np.isfinite(np.sum(norm2)):
            bad = np.flatnonzero(~np.isfinite(block).all(axis=(1, 2)))
            if bad.size:
                raise ValueError("non-finite strain input at spatial Gauss point %d"
                                 % (s.start + bad[0]))
        if elastic is None and n_t == 1:     # exact wherever d = 0
            sig[s][:, 0] = _hooke_rows(hooke, block[:, 0])
        elif elastic is None:
            hooke.apply(block, out=sig[s])
        tr = block[..., 0] + block[..., 1] + block[..., 2]
        top = tr.argmax(axis=1)
        peak_tr[s], peak_eps[s] = tr.max(axis=1), block[np.arange(top.size), top]
        norm2 *= loose
        live.append(np.flatnonzero(~(norm2 <= params.Y0)) + s.start * n_t)
    # A sample replaces the start's tension peak only by a larger trace;
    # from rest the peak is the zero strain until a trace exceeds 0.
    kept = ~(peak_tr > start.tr_max)
    np.copyto(peak_tr, start.tr_max, where=kept)
    np.copyto(peak_eps, start.eps_max, where=kept[:, None])
    live = np.concatenate(live)
    Y = released_energy(eps[live // n_t, live % n_t], hooke, params.Y0)
    hit = Y > params.Y0
    hit_rows, hit_cols = np.divmod(live[hit], n_t)
    del live
    active = (start.d != 0.0) | (start.dbar != 0.0)
    active[hit_rows] = True
    active = np.flatnonzero(active)
    d, dbar_end = np.zeros((n_sp, n_t)), np.zeros(n_sp)
    if elastic is not None and active.size:
        np.copyto(sig, elastic)

    if active.size:
        # The active rows' target damage after a leading sample at the
        # start: its target, or from rest the first sample's at t = 0 (a
        # first sample at t = 0 is that instant itself).
        lead = int(not from_rest or times[0] > 0.0)
        axis = np.concatenate(([0.0], times)) if from_rest and lead else times
        dbar = np.zeros((active.size, lead + n_t))
        dbar[np.searchsorted(active, hit_rows), lead + hit_cols] = static_damage(
            Y[hit], params)
        if lead:
            dbar[:, 0] = dbar[:, 1] if from_rest else start.dbar[active]
        d[active] = integrate_delay(axis, dbar, start.d[active], params)[:, lead:]
        dbar_end[active] = dbar[:, -1]
        del dbar

    # Tension peak and damage correction of the samples before the last, a
    # chunk of active rows at a time, on copies of the chunk's rows, whose
    # shape the chunk's state shares.  The start's peak leads each row as
    # sample -1, with its E:eps_max.  The end state's kernel corrects the
    # last sample.
    per_chunk = max(1, _CHUNK // n_t)
    for first in range(0, active.size if n_t > 1 else 0, per_chunk):
        rows = active[first:first + per_chunk]
        eps_rows, sig_rows = eps[rows, :-1], sig[rows, :-1]
        idx, tr_max = tension_peak_history(np.concatenate(
            [start.tr_max[rows, None], eps_rows[..., 0] + eps_rows[..., 1] + eps_rows[..., 2]],
            axis=1))
        peaks = np.concatenate([_hooke_rows(hooke, start.eps_max[rows])[:, None], sig_rows],
                               axis=1).reshape(-1, 6)
        at = (idx[:, 1:] + n_t * np.arange(rows.size)[:, None]).reshape(-1)
        DamageCorrection(d[rows, :-1], tr_max[:, 1:], lambda flat: peaks.take(at[flat], axis=0),
                         params, hooke).add_to(sig_rows, eps_rows)
        sig[rows, :-1] = sig_rows
    end = DamageState(d[:, -1].copy(), dbar_end, peak_eps, peak_tr)
    if (kernel := end.correction(params, hooke)) is not None:
        kernel.add_to(sig[:, -1], eps[:, -1])
    return {"sig": elastic if elastic is not None and not active.size else sig, "d": d,
            "end": end}


def matpoint_drive(times, eps_x, params):
    """Drive a single material point with a uniaxial-strain history.

    The kinematics are uniaxial strain, eps = diag(eps_x, 0, 0), from a
    virgin state; the update stage maps the strain history to the
    constitutive response in one evaluation.

    Returns a dict of time series: sig_x, d, dbar, Y (the released energy
    itself, also below the threshold).  The times must be finite,
    non-negative and strictly increasing and the strains finite; the first
    row that is not raises.
    """
    times = np.asarray(times, dtype=float)
    eps_x = np.asarray(eps_x, dtype=float)
    n_t = times.size
    if eps_x.shape != (n_t,):
        raise ValueError("eps_x must have shape (%d,)" % n_t)
    _check_times(times, "signal times")
    bad = np.flatnonzero(~np.isfinite(eps_x))
    if bad.size:
        k = bad[0]
        raise ValueError("strain signal must be finite: eps_x[%d] = %g at t = %g"
                         % (k, eps_x[k], times[k]))
    eps = np.zeros((1, n_t, 6))
    eps[0, :, 0] = eps_x
    hooke = params.hooke()
    out = local_stage(eps, times, params, hooke)
    Y = released_energy(eps[0], hooke)
    return {"sig_x": out["sig"][0, :, 0], "d": out["d"][0],
            "dbar": static_damage(Y, params), "Y": Y}
