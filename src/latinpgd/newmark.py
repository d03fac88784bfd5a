"""Incremental reference solver: Newmark stepping with a quasi-Newton loop.

The structure is driven through its supports: every prescribed node follows
a vertical displacement signal g(t) (in-plane support components are pinned
to zero), so the free equations see the support-motion load
f_sup = M_fp a_p + C_fp v_p + K_fp u_p next to the inertia, damping and
internal forces of the free DOFs.  Each step of the average-acceleration
scheme (gamma = 1/2, beta = 1/4) solves nonlinear equilibrium with the
*elastic* effective operator

    K_eff = M / (beta dt^2) + C gamma / (beta dt) + K,

factorized once for the whole run.  Damage only ever weakens the material,
so the elastic operator is a convergent quasi-Newton choice; the price is a
few extra iterations on strongly damaging steps.

The residual costs one sparse product per evaluation.  The trial
acceleration and velocity are affine in the trial displacement u,
a = ca (u - pred_u) and v = pred_v + cc (u - pred_u) with
ca = 1 / (beta dt^2) and cc = gamma / (beta dt), so on the free DOFs

    M a + C v + K u + f_sup[:, k] = K_eff (u - pred_u) + h,
    h = K pred_u + C pred_v + f_sup[:, k],

where K_eff is the operator the solves factorize and h is built once per
step (f_sup, the support-motion load, is built once for the whole run and
stored one step to a row).  K_eff, K and C are multiplied in CSR copies
made once per march.  The first correction of a step starts from the
previous converged displacement u_f and comes straight from the
predictor: u_f + K_eff^-1 r0 with r0 = -(K_eff (u_f - pred_u) + F(u_f))
is u = pred_u - K_eff^-1 F(u_f), where F(u) is h plus the damage
correction below at the strain of u.  So the first correction needs no
product with K_eff, and r0 itself is formed only when the first pass needs
a second correction, as the previous residual of the Aitken relaxation.
Once any point is damaged the correction B^T W (sigma - E : eps) is
added, integrated over the whole mesh; at an undamaged point
sigma = E : eps exactly, so the correction is zero there, and a pass at a
state without damage integrates nothing at the Gauss points inside its
loop.  The correction comes in closed form from the state's
`material.DamageCorrection` kernel, -d s E : eps_max at a point with a
tension history and -d E : eps at one without; the kernel gathers what
the frozen state contributes once, when the state is built, that is once
per stagger pass.  The committed state's kernel sets the stored stress
(`total_stress`, E : eps plus the same correction) and serves the next
step's first pass.  The elastic march (`damage=False`) does no
Gauss-point work at all.  A damaging march needs the strain of each
pass's converged displacement, for the damage update and the stored
history: at a damaged state the pass's last residual has sampled it
already and it is reused, at an undamaged state it is sampled once after
the pass.

The first equilibrium pass of a step always applies that first correction
before it tests the residual: the trial point (the previous step's
displacement) can fall under the tolerance by chance, and accepting it
would skip the step's solve.  Later passes of the stagger loop below start
from a converged displacement and test before correcting.

Equilibrium and damage are coupled with a staggered loop.  Within an
equilibrium pass the constitutive state is frozen, so the pass solves a
smooth problem; the damage is then advanced from the *converged* strain of
the pass (always starting from the committed start-of-step state, never from
an intermediate iterate) and the pass repeats until the state it used equals
the state it implies.  Advancing damage inside the correction loop instead
would let a transient trial iterate cross the threshold and bootstrap a
self-consistent damaged solution on steps whose realized strains never
release enough energy -- a spurious second equilibrium branch.  Starting
each step from the committed state walks the staggered map up monotonically
and lands on the lowest, trajectory-connected fixed point.

`compare_error` measures the relative space-time distance between two
strain/stress field pairs on a shared quadrature grid; it is the metric used
to hold the separated-representation solver against this incremental one.
"""

import numpy as np

from .assembly import internal_force, strain_at_gauss
from .material import (DamageCorrection, integrate_delay, released_energy,
                       static_damage, total_stress)
from .timegrid import quad_resample_blocks, spatial_blocks

NEWMARK_GAMMA = 0.5
NEWMARK_BETA = 0.25

# Staggered equilibrium/damage coupling: passes repeat until the largest
# pointwise gap between the damage a pass solved with and the damage its
# converged strains imply drops below the tolerance.
_STAGGER_TOL = 1e-6
_MAX_STAGGER = 100
# Corrections allowed in one equilibrium pass before the march gives up.
_MAX_ITER = 100
# Steps of Gauss-point history gathered in step-major rows before they are
# written to the (n_gauss, n_t, ...) histories: one step's column of those
# strides over the whole array.
_HISTORY_BLOCK = 32


class LoadCase:
    """Vertical support motion g(t) = sum_i A_i sin(2 pi f_i t).

    The signal starts from zero displacement by construction and its
    derivatives are evaluated in closed form.  `prescribed_motion` expands
    the scalar signal onto the prescribed DOFs of a mesh: vertical (z)
    components follow g, the in-plane components are held at zero.
    """

    def __init__(self, amplitudes, frequencies):
        amp = np.atleast_1d(np.asarray(amplitudes, dtype=float))
        freq = np.atleast_1d(np.asarray(frequencies, dtype=float))
        if amp.ndim != 1 or amp.shape != freq.shape:
            raise ValueError("amplitudes and frequencies must be matching 1d lists")
        if not (np.all(np.isfinite(amp)) and np.all(np.isfinite(freq))):
            raise ValueError("amplitudes and frequencies must be finite")
        if np.any(freq <= 0.0):
            raise ValueError("frequencies must be positive")
        self.amplitudes = amp
        self.frequencies = freq

    def signal(self, t):
        """(g, g', g'') at times t; each result has the shape of t."""
        t = np.asarray(t, dtype=float)
        omega = 2.0 * np.pi * self.frequencies
        a = self.amplitudes.reshape((-1,) + (1,) * t.ndim)
        w = omega.reshape(a.shape)
        phase = np.multiply.outer(omega, t)
        g = (a * np.sin(phase)).sum(axis=0)
        gd = (a * w * np.cos(phase)).sum(axis=0)
        gdd = -(a * w * w * np.sin(phase)).sum(axis=0)
        return g, gd, gdd

    def prescribed_motion(self, mesh, times):
        """(u_p, v_p, a_p) on the prescribed DOFs, each (n_prescribed, n_t)."""
        times = np.asarray(times, dtype=float)
        vertical = mesh.prescribed_dofs % 3 == 2
        out = []
        for s in self.signal(times):
            field = np.zeros((mesh.prescribed_dofs.size, times.size))
            field[vertical] = s
            out.append(field)
        return tuple(out)


def _advance_damage(eps_k, state, dt, params, hooke):
    """Candidate damage state a step of length dt after `state`.

    The target dbar is the instantaneous quasi-static damage of the current
    released energy -- it falls when the energy falls; irreversibility of d
    comes from the clamped delay rate alone, exactly as in the update stage
    of the material module.  Everything depends on the converged
    start-of-step state and the trial end-of-step strain alone, so repeated
    calls inside the equilibrium loop cannot ratchet the history.  While
    both targets and d are zero everywhere the delay rate is zero, so d
    stays exactly zero and the delay law is not integrated.

    The candidate carries its damage-correction kernel (`_correction`), so
    the kernel is built once per candidate, that is once per stagger pass.
    """
    dbar = static_damage(released_energy(eps_k, hooke, params.Y0), params)
    if dbar.any() or state["dbar"].any() or state["d"].any():
        targets = np.stack([state["dbar"], dbar], axis=-1)
        d = integrate_delay(np.array([0.0, dt]), targets, state["d"], params)[..., 1]
    else:
        d = np.zeros_like(dbar)
    tr = eps_k[:, :3].sum(axis=1)
    grow = tr > state["tr_max"]
    eps_max = np.where(grow[:, None], eps_k, state["eps_max"])
    tr_max = np.where(grow, tr, state["tr_max"])
    return {"dbar": dbar, "d": d, "eps_max": eps_max, "tr_max": tr_max,
            "correction": _correction(eps_max, tr_max, d, params, hooke)}


def _correction(eps_max, tr_max, d, params, hooke):
    """Damage-correction kernel of a frozen state; None while d = 0 everywhere.

    The state keeps its per-point tension peak eps_max (n_gauss, 6) and its
    trace tr_max; the kernel applies E to the peaks it needs.
    """
    if not d.any():
        return None
    return DamageCorrection(d, tr_max, lambda flat: hooke.apply(eps_max[flat]),
                            params, hooke)


def _free_force(system, f_p, eps, correction):
    """Elastic force f_p plus the damage correction at a frozen state.

    In the march f_p is the step's h (module docstring) and the equilibrium
    residual is -(K_eff (u_f - pred_u) + this); with f_p = K_ff u_f + K_fp u_p
    it is the internal force.  `correction` is the state's kernel
    (`_correction`): when a point is damaged, B^T W (sigma - E : eps) of the
    strain `eps` of the full displacement (n_gauss, 6) is added, integrated
    over the whole mesh.  The kernel gives sigma - E : eps in closed form,
    exactly zero at the undamaged points, so sigma is never formed and no
    second E : eps is subtracted from it.  Without damage (None) f_p is
    returned as it is and eps is not read (the march passes None).
    """
    if correction is None:
        return f_p
    return f_p + internal_force(system.mesh, correction.field(eps))[system.free]


def newmark_quasi_newton(system, params, load, times, damage=True, tol=1e-4):
    """March the support-driven problem over uniform time nodes.

    system : SpatialSystem (its K must be the undamaged stiffness).
    params : MaterialParams; `params.hooke()` supplies the elastic law.
    load : object with prescribed_motion(mesh, times) -> (u_p, v_p, a_p).
    times : uniform nodes starting at 0 (step dt = times[1] - times[0]).
    damage : with False the constitutive state stays frozen at zero and the
        run is the elastic solution, with the same integrator and residual.
    tol : equilibrium tolerance, relative to the largest elastic
        support-motion load ||M_fp a_p + C_fp v_p + K_fp u_p|| over the run;
        a finite positive number.

    Returns a dict with the node times, full displacement/velocity/
    acceleration histories u, v, a (n_dofs, n_t) and an `info` block
    (`iterations`: per-step correction counts summed over staggered passes,
    each at least 1; `passes`: per-step stagger pass counts, each at least
    1, and 1 on every step of an elastic march; factorization count;
    residual reference).  With damage=True it also holds the Gauss
    strain/stress histories eps, sig (n_gauss, n_t, 6) and the damage
    history d (n_gauss, n_t).  With damage=False those three keys are
    absent: the elastic march evaluates nothing at the Gauss points (its
    strain is strain_at_gauss(mesh, u), its stress E : eps).

    Raises RuntimeError naming the step index if an equilibrium loop fails.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be a finite positive number, got %r" % (tol,))
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need at least two time nodes")
    if times[0] != 0.0:
        raise ValueError("time axis must start at zero")
    dt = times[1] - times[0]
    if dt <= 0.0 or not np.allclose(np.diff(times), dt, rtol=1e-12, atol=0.0):
        raise ValueError("time nodes must be uniformly spaced and increasing")

    mesh = system.mesh
    hooke = params.hooke()
    free, presc = mesh.free_dofs, mesh.prescribed_dofs
    n_t = times.size

    u_p, v_p, a_p = (np.asarray(f, dtype=float)
                     for f in load.prescribed_motion(mesh, times))
    if u_p.shape != (presc.size, n_t):
        raise ValueError("prescribed motion shape mismatch")

    # Elastic support-motion load of every step; its largest norm over the
    # run is the reference of the residual tolerance.  Each step then reads
    # its load as a contiguous row.
    f_sup = system.Mfp @ a_p + system.Kfp @ u_p
    f_sup += system.Cfp @ v_p
    ref = np.linalg.norm(f_sup, axis=0).max()
    tol_abs = tol * ref
    f_sup = f_sup.T.copy()

    u = np.zeros((mesh.n_dofs, n_t))
    v = np.zeros((mesh.n_dofs, n_t))
    acc = np.zeros((mesh.n_dofs, n_t))
    u[presc] = u_p
    v[presc] = v_p
    acc[presc] = a_p
    state = {"dbar": np.zeros(mesh.n_gauss), "d": np.zeros(mesh.n_gauss),
             "eps_max": np.zeros((mesh.n_gauss, 6)),
             "tr_max": np.zeros(mesh.n_gauss), "correction": None}

    n_fact0 = system.n_factorizations
    full = np.zeros(mesh.n_dofs)

    # Initial state: everything starts at rest.  The acceleration is started
    # at zero rather than solved from the t = 0 balance: a support signal
    # with nonzero initial velocity drags on the damping coupling and the
    # balanced acceleration is a large spike confined to the support nodes,
    # a transient far below the step resolution that the undamped average
    # acceleration scheme would carry as permanent predictor noise.  Starting
    # from zero filters it; the first step absorbs the imbalance instead.
    if damage:
        eps = np.zeros((mesh.n_gauss, n_t, 6))
        sig = np.zeros((mesh.n_gauss, n_t, 6))
        dmg = np.zeros((mesh.n_gauss, n_t))
        eps_rows = np.empty((_HISTORY_BLOCK, mesh.n_gauss, 6))
        sig_rows = np.empty_like(eps_rows)
        d_rows = np.empty((_HISTORY_BLOCK, mesh.n_gauss))
        full[presc] = u_p[:, 0]
        eps[:, 0] = strain_at_gauss(mesh, full)
        sig[:, 0] = hooke.apply(eps[:, 0])
    u_f = np.zeros(free.size)
    v_f = np.zeros(free.size)
    a_f = np.zeros(free.size)

    ca = 1.0 / (NEWMARK_BETA * dt * dt)
    cc = NEWMARK_GAMMA / (NEWMARK_BETA * dt)
    K_eff = system.operator(ca, cc, 1.0).tocsr()
    Kff, Cff = system.Kff.tocsr(), system.Cff.tocsr()
    iters = np.zeros(n_t - 1, dtype=int)
    passes = np.zeros(n_t - 1, dtype=int)

    for k in range(1, n_t):
        pred_u = u_f + dt * v_f + dt * dt * (0.5 - NEWMARK_BETA) * a_f
        pred_v = v_f + dt * (1.0 - NEWMARK_GAMMA) * a_f
        h = Kff @ pred_u + f_sup[k]
        h += Cff @ pred_v
        full[presc] = u_p[:, k]
        # The iteration starts from the previous converged displacement, not
        # from the extrapolated predictor: extrapolation can overshoot the
        # damage threshold near the supports and feed the staggered loop
        # spurious candidate states.  The converged step is the same either
        # way.  Its first correction comes from the predictor (module
        # docstring); f_0 = F(u_f) is kept for the first pass's r0.
        correction = state["correction"]
        eps_k = None
        if correction is not None:
            full[free] = u_f
            eps_k = strain_at_gauss(mesh, full)
        f_0 = _free_force(system, h, eps_k, correction)
        u_trial = pred_u - system.solve_free(ca, cc, 1.0, f_0)
        state_new = state
        spent = 0
        for stagger in range(_MAX_STAGGER + 1):
            # Equilibrium pass at frozen constitutive state `state_new`; the
            # first pass has made its first correction and tests from it = 1.
            correction = state_new["correction"]
            r_prev = None
            omega = 1.0
            for it in range(stagger == 0, _MAX_ITER + 1):
                eps_k = None
                if correction is not None:
                    full[free] = u_trial
                    eps_k = strain_at_gauss(mesh, full)
                r = -(K_eff @ (u_trial - pred_u)
                      + _free_force(system, h, eps_k, correction))
                if np.linalg.norm(r) <= tol_abs:
                    break
                if it == _MAX_ITER:
                    raise RuntimeError(
                        "equilibrium loop failed to converge at step %d "
                        "(t = %g): residual %g > %g"
                        % (k, times[k], np.linalg.norm(r), tol_abs))
                # Aitken relaxation stabilizes the constant-operator
                # iteration on strongly softened steps (it never engages on
                # elastic ones: they converge on the first correction, before
                # a second residual exists).  The correction itself stays a
                # K_eff solve.
                if r_prev is None and stagger == 0:
                    # r0 of the first correction, needed only from here on
                    r_prev = -(K_eff @ (u_f - pred_u) + f_0)
                if r_prev is not None:
                    dr = r - r_prev
                    den = dr @ dr
                    if den > 0.0:
                        omega = min(8.0, max(0.05, -omega * (r_prev @ dr) / den))
                    else:
                        omega = 1.0
                r_prev = r
                u_trial = u_trial + omega * system.solve_free(ca, cc, 1.0, r)
            spent += it
            if not damage:
                break
            # The pass ends on a residual at the converged displacement; at
            # a damaged state that residual has already sampled its strain.
            if eps_k is None:
                full[free] = u_trial
                eps_k = strain_at_gauss(mesh, full)
            advanced = _advance_damage(eps_k, state, dt, params, hooke)
            if np.abs(advanced["d"] - state_new["d"]).max() <= _STAGGER_TOL:
                state_new = advanced
                break
            if stagger == _MAX_STAGGER:
                raise RuntimeError(
                    "damage staggering failed to settle at step %d (t = %g)"
                    % (k, times[k]))
            state_new = advanced
        iters[k - 1] = spent
        passes[k - 1] = stagger + 1
        a_f = (u_trial - pred_u) * ca
        v_f = pred_v + NEWMARK_GAMMA * dt * a_f
        u_f = u_trial
        state = state_new
        u[free, k] = u_f
        v[free, k] = v_f
        acc[free, k] = a_f
        if damage:
            # Keep the stored stress consistent with the committed state (it
            # can differ from the last pass state by up to the stagger
            # tolerance).
            j = (k - 1) % _HISTORY_BLOCK
            eps_rows[j] = eps_k
            sig_rows[j] = total_stress(eps_k, hooke, state["correction"])
            d_rows[j] = state["d"]
            if j == _HISTORY_BLOCK - 1 or k == n_t - 1:
                block = slice(k - j, k + 1)
                eps[:, block] = eps_rows[:j + 1].transpose(1, 0, 2)
                sig[:, block] = sig_rows[:j + 1].transpose(1, 0, 2)
                dmg[:, block] = d_rows[:j + 1].T

    info = {"iterations": iters, "passes": passes,
            "factorizations": system.n_factorizations - n_fact0,
            "residual_reference": ref}
    out = {"times": times, "u": u, "v": v, "a": acc, "info": info}
    if damage:
        out.update(eps=eps, sig=sig, d=dmg)
    return out


def resample_fields_to_gauss(grid, result):
    """Map an incremental run's strain/stress pair onto grid Gauss points.

    `result` must come from a damaging run (damage=True: the elastic march
    stores no Gauss-point fields) over the step nodes `grid.step_times`
    (each time element spans two steps).  Both fields go through
    `timegrid.quad_resample_blocks` in their own (n_gauss, n_t, 6) layout.
    Returns (eps, sig), both shaped (n_gauss_space, n_gauss_time, 6).
    """
    times = result["times"]
    if (times.shape != grid.step_times.shape
            or not np.allclose(times, grid.step_times)):
        raise ValueError("run nodes do not match the quadrature grid")
    if "eps" not in result:
        raise ValueError("run holds no Gauss-point fields (an elastic march); "
                         "resample strain_at_gauss of its u instead")
    return (quad_resample_blocks(grid, result["eps"]),
            quad_resample_blocks(grid, result["sig"]))


def compare_error(eps_ref, sig_ref, eps, sig):
    """Relative space-time distance (percent) between two field pairs.

    All four arrays share one quadrature layout (n_gauss, n_t, 6); the
    reference pair supplies the denominators:

        100 * sqrt(|sig - sig_ref|^2 / |sig_ref|^2
                   + |eps - eps_ref|^2 / |eps_ref|^2)

    with plain (unweighted) sums of squares over every sample and component,
    accumulated block by block along the first axis, so no temporary is
    larger than a block.
    """
    eps_ref, sig_ref, eps, sig = (np.asarray(f, dtype=float)
                                  for f in (eps_ref, sig_ref, eps, sig))
    if not (eps_ref.shape == sig_ref.shape == eps.shape == sig.shape):
        raise ValueError("field shapes do not match")
    den_e = den_s = num_e = num_s = 0.0
    for s in spatial_blocks(eps_ref):
        gap_e = eps[s] - eps_ref[s]
        gap_s = sig[s] - sig_ref[s]
        den_e += np.vdot(eps_ref[s], eps_ref[s])
        den_s += np.vdot(sig_ref[s], sig_ref[s])
        num_e += np.vdot(gap_e, gap_e)
        num_s += np.vdot(gap_s, gap_s)
    if den_e <= 0.0 or den_s <= 0.0:
        raise ValueError("reference fields vanish; relative error undefined")
    return 100.0 * np.sqrt(num_s / den_s + num_e / den_e)
