"""Incremental reference solver: Newmark stepping with a quasi-Newton loop.

The structure is driven through its supports: every prescribed node follows
a vertical displacement signal g(t) (in-plane support components are pinned
to zero), so the free equations see the support-motion load
-(M_fp a_p + C_fp v_p) next to the internal forces of the full displacement
field.  Each step of the average-acceleration scheme (gamma = 1/2,
beta = 1/4) solves nonlinear equilibrium with the *elastic* effective
operator

    K_eff = M / (beta dt^2) + C gamma / (beta dt) + K,

factorized once for the whole run.  Damage only ever weakens the material,
so the elastic operator is a convergent quasi-Newton choice; the price is a
few extra iterations on strongly damaging steps.

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
from .material import integrate_delay, released_energy, static_damage, total_stress
from .timegrid import quad_resample_to_gauss

NEWMARK_GAMMA = 0.5
NEWMARK_BETA = 0.25

# Staggered equilibrium/damage coupling: passes repeat until the largest
# pointwise gap between the damage a pass solved with and the damage its
# converged strains imply drops below the tolerance.
_STAGGER_TOL = 1e-6
_MAX_STAGGER = 100


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
    calls inside the equilibrium loop cannot ratchet the history.
    """
    dbar = static_damage(released_energy(eps_k, hooke, params.Y0), params)
    targets = np.stack([state["dbar"], dbar], axis=-1)
    d = integrate_delay(np.array([0.0, dt]), targets, state["d"], params)[..., 1]
    tr = eps_k[:, :3].sum(axis=1)
    grow = tr > state["tr_max"]
    return {"dbar": dbar, "d": d,
            "eps_max": np.where(grow[:, None], eps_k, state["eps_max"]),
            "tr_max": np.where(grow, tr, state["tr_max"])}


def newmark_quasi_newton(system, params, load, times, damage=True,
                         tol=1e-4, max_iter=100):
    """March the support-driven problem over uniform time nodes.

    system : SpatialSystem (its K must be the undamaged stiffness).
    params : MaterialParams; `params.hooke()` supplies the elastic law.
    load : object with prescribed_motion(mesh, times) -> (u_p, v_p, a_p).
    times : uniform nodes starting at 0 (step dt = times[1] - times[0]).
    damage : with False the constitutive state stays frozen at zero and the
        run *is* the elastic solution (same integrator, same code path).
    tol : equilibrium tolerance, relative to the largest elastic
        support-motion load ||M_fp a_p + C_fp v_p + K_fp u_p|| over the run.

    Returns a dict with the node times, full displacement/velocity/
    acceleration histories (n_dofs, n_t), Gauss strain/stress histories
    (n_gauss, n_t, 6), the damage history (n_gauss, n_t) and an `info` block
    (per-step correction counts summed over staggered passes, factorization
    count, residual reference).

    Raises RuntimeError naming the step index if an equilibrium loop fails.
    """
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
    damped = system.C is not None

    u_p, v_p, a_p = (np.asarray(f, dtype=float)
                     for f in load.prescribed_motion(mesh, times))
    if u_p.shape != (presc.size, n_t):
        raise ValueError("prescribed motion shape mismatch")

    # Elastic support-motion load, largest norm over the run: the residual
    # tolerance is relative to this reference.
    f_sup = system.Mfp @ a_p + system.Kfp @ u_p
    if damped:
        f_sup += system.Cfp @ v_p
    ref = np.linalg.norm(f_sup, axis=0).max()
    tol_abs = tol * ref

    u = np.zeros((mesh.n_dofs, n_t))
    v = np.zeros((mesh.n_dofs, n_t))
    acc = np.zeros((mesh.n_dofs, n_t))
    u[presc] = u_p
    v[presc] = v_p
    acc[presc] = a_p
    eps = np.zeros((mesh.n_gauss, n_t, 6))
    sig = np.zeros((mesh.n_gauss, n_t, 6))
    dmg = np.zeros((mesh.n_gauss, n_t))
    state = {"dbar": np.zeros(mesh.n_gauss), "d": np.zeros(mesh.n_gauss),
             "eps_max": np.zeros((mesh.n_gauss, 6)),
             "tr_max": np.zeros(mesh.n_gauss)}

    n_fact0 = system.n_factorizations
    full = np.zeros(mesh.n_dofs)

    # Initial state: everything starts at rest.  The acceleration is started
    # at zero rather than solved from the t = 0 balance: a support signal
    # with nonzero initial velocity drags on the damping coupling and the
    # balanced acceleration is a large spike confined to the support nodes,
    # a transient far below the step resolution that the undamped average
    # acceleration scheme would carry as permanent predictor noise.  Starting
    # from zero filters it; the first step absorbs the imbalance instead.
    full[presc] = u_p[:, 0]
    eps[:, 0] = strain_at_gauss(mesh, full)
    sig[:, 0] = hooke.apply(eps[:, 0])
    u_f = np.zeros(free.size)
    v_f = np.zeros(free.size)
    a_f = np.zeros(free.size)

    ca = 1.0 / (NEWMARK_BETA * dt * dt)
    cc = NEWMARK_GAMMA / (NEWMARK_BETA * dt) if damped else 0.0
    iters = np.zeros(n_t - 1, dtype=int)

    for k in range(1, n_t):
        pred_u = u_f + dt * v_f + dt * dt * (0.5 - NEWMARK_BETA) * a_f
        pred_v = v_f + dt * (1.0 - NEWMARK_GAMMA) * a_f
        # The iteration starts from the previous converged displacement, not
        # from the extrapolated predictor: extrapolation can overshoot the
        # damage threshold near the supports and feed the staggered loop
        # spurious candidate states.  The converged step is the same either
        # way.
        u_trial = u_f.copy()
        full[presc] = u_p[:, k]
        state_new = state
        spent = 0
        for stagger in range(_MAX_STAGGER + 1):
            # Equilibrium pass at frozen constitutive state `state_new`.
            r_prev = None
            omega = 1.0
            for it in range(max_iter + 1):
                a_trial = (u_trial - pred_u) * ca
                v_trial = pred_v + NEWMARK_GAMMA * dt * a_trial
                full[free] = u_trial
                eps_k = strain_at_gauss(mesh, full)
                if damage:
                    sig_k = total_stress(eps_k, state_new["eps_max"],
                                         state_new["d"], params, hooke)
                else:
                    sig_k = hooke.apply(eps_k)
                r = -(system.Mff @ a_trial + system.Mfp @ a_p[:, k]
                      + internal_force(mesh, sig_k)[free])
                if damped:
                    r -= system.Cff @ v_trial + system.Cfp @ v_p[:, k]
                if np.linalg.norm(r) <= tol_abs:
                    break
                if it == max_iter:
                    raise RuntimeError(
                        "equilibrium loop failed to converge at step %d "
                        "(t = %g): residual %g > %g"
                        % (k, times[k], np.linalg.norm(r), tol_abs))
                # Aitken relaxation stabilizes the constant-operator
                # iteration on strongly softened steps (it never engages on
                # elastic ones: they converge on the first correction, before
                # a second residual exists).  The correction itself stays a
                # K_eff solve.
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
            advanced = _advance_damage(eps_k, state, dt, params, hooke)
            if np.abs(advanced["d"] - state_new["d"]).max() <= _STAGGER_TOL:
                state_new = advanced
                break
            if stagger == _MAX_STAGGER:
                raise RuntimeError(
                    "damage staggering failed to settle at step %d (t = %g)"
                    % (k, times[k]))
            state_new = advanced
        if damage:
            # Keep the stored stress consistent with the committed state (it
            # can differ from the last pass state by up to the stagger
            # tolerance).
            sig_k = total_stress(eps_k, state_new["eps_max"], state_new["d"],
                                 params, hooke)
        iters[k - 1] = spent
        u_f, v_f, a_f = u_trial, v_trial, a_trial
        state = state_new
        u[free, k] = u_f
        v[free, k] = v_f
        acc[free, k] = a_f
        eps[:, k] = eps_k
        sig[:, k] = sig_k
        dmg[:, k] = state["d"]

    info = {"iterations": iters,
            "factorizations": system.n_factorizations - n_fact0,
            "residual_reference": ref}
    return {"times": times, "u": u, "v": v, "a": acc,
            "eps": eps, "sig": sig, "d": dmg, "info": info}


def resample_fields_to_gauss(grid, result):
    """Map an incremental run's strain/stress pair onto grid Gauss points.

    `result` must come from a run over the 2*n_elements + 1 uniform nodes of
    `grid` (each time element spans two steps).  Returns (eps, sig), both
    shaped (n_gauss_space, n_gauss_time, 6).
    """
    times = result["times"]
    if times.size != 2 * grid.n_elements + 1 or not np.isclose(times[-1], grid.T):
        raise ValueError("run nodes do not match the quadrature grid")
    out = []
    for name in ("eps", "sig"):
        hist = np.moveaxis(result[name], 1, -1)       # (n_gauss, 6, n_t)
        hist = quad_resample_to_gauss(grid, hist)     # (n_gauss, 6, n_tg)
        out.append(np.ascontiguousarray(np.moveaxis(hist, -1, 1)))
    return tuple(out)


def compare_error(eps_ref, sig_ref, eps, sig):
    """Relative space-time distance (percent) between two field pairs.

    All four arrays share one quadrature layout (n_gauss, n_t, 6); the
    reference pair supplies the denominators:

        100 * sqrt(|sig - sig_ref|^2 / |sig_ref|^2
                   + |eps - eps_ref|^2 / |eps_ref|^2)

    with plain (unweighted) sums of squares over every sample and component.
    """
    eps_ref, sig_ref, eps, sig = (np.asarray(f, dtype=float)
                                  for f in (eps_ref, sig_ref, eps, sig))
    if not (eps_ref.shape == sig_ref.shape == eps.shape == sig.shape):
        raise ValueError("field shapes do not match")
    den_e = np.sum(eps_ref * eps_ref)
    den_s = np.sum(sig_ref * sig_ref)
    if den_e <= 0.0 or den_s <= 0.0:
        raise ValueError("reference fields vanish; relative error undefined")
    num_e = np.sum((eps - eps_ref) ** 2)
    num_s = np.sum((sig - sig_ref) ** 2)
    return 100.0 * np.sqrt(num_s / den_s + num_e / den_e)
