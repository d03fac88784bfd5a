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
stored one step to a row).  K_eff, K and C are multiplied through the
transposes of their CSC blocks: the blocks are exactly symmetric
(`assembly._scatter`), so each transpose is a CSR matrix with the arrays
of its `.tocsr()` copy, and the march copies no operator.  The first
correction of a step starts from the previous converged displacement u_f
and comes straight from the predictor: u_f + K_eff^-1 r0 with
r0 = -(K_eff (u_f - pred_u) + F(u_f)) is u = pred_u - K_eff^-1 F(u_f),
where F(u) is h plus the damage correction below at the strain of u.  So
the first correction needs no product with K_eff, and r0 itself is formed
only when the first pass needs a second correction, as the previous
residual of the Aitken relaxation.
Once any point is damaged the correction B^T W (sigma - E : eps) is
added, integrated over the whole mesh; at an undamaged point
sigma = E : eps exactly, so the correction is zero there, and a pass at a
state without damage integrates nothing at the Gauss points inside its
loop.  The correction comes in closed form from the state's
`material.DamageCorrection` kernel (`DamageState.correction`),
-d s E : eps_max at a point with a tension history and -d E : eps at one
without; the kernel gathers what the frozen state contributes once per
stagger pass (the pass's `local_stage` call builds it to correct the
step's sample, and the state keeps it), and the committed state's kernel
serves the next step's first pass.

The damage law is the LATIN local stage's, driven one step at a time.
The march holds its committed damage state as one `material.DamageState`
(d, the target damage and the tension peak per Gauss point), the state
that carries across a cut of the time axis.  The damage update of every
pass is one `local_stage` call on the pass's converged strain, from the
committed state, on the step's own clock [0, dt] (times[:2], which keeps
dt exact): the stage enters that state as its first sample, at 0, so the
delay law runs once over exactly [0, dt] (`material.integrate_delay`,
which a pass from a state with no damage and no target anywhere skips,
since d stays exactly zero there).  The stage's end state is the pass's
candidate, and its stress, E : eps plus the candidate's correction, is
written into the step's column of the stress history, so the pass that
settles leaves the step's stored stress.  A staggered step needs the
strain of each pass's converged displacement, for the damage update and
the stored history: at a damaged state the pass's last residual has
sampled it already and it is reused, at an undamaged state it is sampled
once after the pass (the onset test below samples it for a step's first
pass).

Every step takes one path: it opens with one first pass (the predictor,
h, the first correction and an equilibrium pass at the committed state),
goes through the onset test or the stagger loop below (damaging march
only), and closes with one commit (a and v from the converged u, and u, v
and a written into the histories).  A step of the elastic march
(`damage=False`) is that first pass alone, without damage correction or
Gauss-point work, and samples nothing.  At a state with no damage and no
target damage at any point, a damaging march samples the strain of the
step's converged displacement once, writes it into the strain history and
tests it: a step whose released energy exceeds Y0 at no point is quiet and
commits as it is, and any other step goes on to the stagger loop with that
strain.  A run of quiet steps is staged in one batch when it ends, before
a staggered step or at the end of the march: one `local_stage` call over
its stored strains, from the committed state, writes their stress, E : eps
since no point damages, and its end state carries the tension peaks they
raised into the next step; their d stays at its zeros.  A staggered step
writes its strain, stress and damage straight into its columns of the
histories.  Once a step commits damage the march stays staggered.

The displacement, velocity and acceleration histories are held step-major,
(n_t, n_dofs), so a commit writes three contiguous rows; the march returns
their (n_dofs, n_t) transposes, views with the same values.

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
The reference pair is never formed whole on that grid:
`resample_fields_to_gauss` checks a run against the grid and returns two
views of its strain and stress histories (`GaussResample`), and
`compare_error` resamples them one spatial block at a time, in the block
order of the LATIN field, so no temporary is larger than a block and the
distance is bit for bit the one over the whole resampled pair.
"""

import numpy as np

from .assembly import internal_force, strain_at_gauss
from .material import DamageState, local_stage, released_energy
# Not called here: perfbench/spans.py (`LAYERS`) wraps both at this lookup
# site, and the march reaches them through `local_stage`.
from .material import integrate_delay, total_stress  # noqa: F401
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
        if amp.ndim != 1 or amp.shape != freq.shape or not amp.size:
            raise ValueError("amplitudes and frequencies must be non-empty matching "
                             "1d lists, got shapes %s and %s" % (amp.shape, freq.shape))
        for i, (a, f) in enumerate(zip(amp, freq)):
            if not np.isfinite(a):
                raise ValueError("amplitudes[%d] must be finite, got %g" % (i, a))
            if not 0.0 < f < np.inf:
                raise ValueError("frequencies[%d] must be finite and positive, got %g"
                                 % (i, f))
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


def _free_force(system, f_p, eps, correction):
    """Elastic force f_p plus the damage correction at a frozen state.

    In the march f_p is the step's h (module docstring) and the equilibrium
    residual is -(K_eff (u_f - pred_u) + this); with f_p = K_ff u_f + K_fp u_p
    it is the internal force.  `correction` is the state's kernel
    (`DamageState.correction`): when a point is damaged,
    B^T W (sigma - E : eps) of the strain `eps` of the full displacement
    (n_gauss, 6) is added, integrated over the whole mesh.  The kernel
    gives sigma - E : eps in closed form, exactly zero at the undamaged
    points, so sigma is never formed and no second E : eps is subtracted
    from it.  Without damage (None) f_p is returned as it is and eps is not
    read (the march passes None).
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
    acceleration histories u, v, a (n_dofs, n_t), each the transposed view
    of a step-major buffer (module docstring), and an `info` block
    (`iterations`: per-step correction counts summed over staggered passes,
    each at least 1; `passes`: per-step stagger pass counts, each at least
    1, and 1 on every quiet step; `undamaged_steps`: the quiet steps,
    those that start from an undamaged state and set no target, every step
    of an elastic march (module docstring); `factorizations`: the march's
    factorization count).  With damage=True it also holds the Gauss
    strain/stress histories eps, sig (n_gauss, n_t, 6) and the damage
    history d (n_gauss, n_t).  Every step's strain is sampled on its own;
    the stress of a run of quiet steps is E : eps of those samples, formed
    in one batch (module docstring).  With damage=False those three keys
    are absent: the elastic march evaluates nothing at the Gauss points
    (its strain is strain_at_gauss(mesh, u), its stress E : eps).

    Raises RuntimeError naming the step index if an equilibrium loop fails;
    every step, undamaged or not, is held to the same residual test.
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
    tol_abs = tol * np.linalg.norm(f_sup, axis=0).max()
    f_sup = f_sup.T.copy()

    # Step-major histories, returned as their transposes (module docstring).
    u_rows, v_rows, a_rows = (np.zeros((n_t, mesh.n_dofs)) for _ in range(3))
    u, v, acc = u_rows.T, v_rows.T, a_rows.T
    u[presc] = u_p
    v[presc] = v_p
    acc[presc] = a_p
    state = DamageState.undamaged(mesh.n_gauss)      # the committed damage state

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
        full[presc] = u_p[:, 0]
        eps[:, 0] = strain_at_gauss(mesh, full)
        sig[:, 0] = hooke.apply(eps[:, 0])
    u_f = np.zeros(free.size)
    v_f = np.zeros(free.size)
    a_f = np.zeros(free.size)

    ca = 1.0 / (NEWMARK_BETA * dt * dt)
    cc = NEWMARK_GAMMA / (NEWMARK_BETA * dt)
    # CSR views: the transposes of the exactly symmetric CSC blocks.
    K_eff = system.operator(ca, cc, 1.0).T
    Kff, Cff = system.Kff.T, system.Cff.T
    iters = np.zeros(n_t - 1, dtype=int)
    passes = np.ones(n_t - 1, dtype=int)

    def equilibrium(k, u_trial, pred_u, h, correction, r0=None):
        """Equilibrium pass of step k at the frozen state of `correction`.

        Returns (u, corrections, eps), eps being the strain of u that the
        last residual sampled, None at an undamaged state.  r0, given to a
        step's first pass, returns the residual at the step's start point:
        that pass has made its first correction and tests from it = 1.
        """
        r_prev = None
        omega = 1.0
        for it in range(r0 is not None, _MAX_ITER + 1):
            eps_k = None
            if correction is not None:
                full[free] = u_trial
                eps_k = strain_at_gauss(mesh, full)
            r = -(K_eff @ (u_trial - pred_u)
                  + _free_force(system, h, eps_k, correction))
            norm = np.sqrt(r @ r)     # the dot product of np.linalg.norm
            if norm <= tol_abs:
                break
            if it == _MAX_ITER:
                raise RuntimeError(
                    "equilibrium loop failed to converge at step %d "
                    "(t = %g): residual %g > %g"
                    % (k, times[k], norm, tol_abs))
            # Aitken relaxation stabilizes the constant-operator iteration on
            # strongly softened steps (it never engages on elastic ones: they
            # converge on the first correction, before a second residual
            # exists).  The correction itself stays a K_eff solve.
            if r_prev is None and r0 is not None:
                r_prev = r0()         # needed only from the second residual on
            if r_prev is not None:
                dr = r - r_prev
                den = dr @ dr
                if den > 0.0:
                    omega = min(8.0, max(0.05, -omega * (r_prev @ dr) / den))
                else:
                    omega = 1.0
            r_prev = r
            u_trial = u_trial + omega * system.solve_free(ca, cc, 1.0, r)
        return u_trial, it, eps_k

    def first_pass(k, u_f, v_f, a_f, correction):
        """Predictor of step k and its first pass at the frozen `correction`.

        Returns (pred_u, pred_v, h, u, corrections, eps) as `equilibrium`.
        """
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
        # docstring); f_0 = F(u_f) is kept for the lazy r0.
        eps_k = None
        if correction is not None:
            full[free] = u_f
            eps_k = strain_at_gauss(mesh, full)
        f_0 = _free_force(system, h, eps_k, correction)
        return (pred_u, pred_v, h) + equilibrium(
            k, pred_u - system.solve_free(ca, cc, 1.0, f_0), pred_u, h,
            correction, lambda: -(K_eff @ (u_f - pred_u) + f_0))

    def commit(k, u_new, pred_u, pred_v):
        """Write step k's converged u and its v and a; return the three."""
        a_new = (u_new - pred_u) * ca
        v_new = pred_v + NEWMARK_GAMMA * dt * a_new
        u_rows[k, free] = u_new
        v_rows[k, free] = v_new
        a_rows[k, free] = a_new
        return u_new, v_new, a_new

    def quiet(first, stop, state):
        """Stage the quiet steps first, ..., stop - 1 from the committed `state`.

        Their stress E : eps is written into the history, and the state with
        their tension peaks is returned.
        """
        return local_stage(eps[:, first:stop], times[first - 1:stop], params, hooke,
                           out=sig[:, first:stop], start=state)["end"]

    undamaged = 0      # quiet steps
    run = 1            # the first step of the current run of quiet steps
    for k in range(1, n_t):
        pred_u, pred_v, h, u_trial, spent, eps_k = first_pass(
            k, u_f, v_f, a_f, state.correction(params, hooke))
        if not state.d.any() and not state.dbar.any():
            # No damage and no target: the step is quiet unless its own
            # strain sets a target somewhere (the elastic march samples none).
            if damage:
                full[free] = u_trial
                eps_k = eps[:, k] = strain_at_gauss(mesh, full)
            if not damage or not (released_energy(eps_k, hooke, params.Y0)
                                  > params.Y0).any():
                iters[k - 1] = spent
                u_f, v_f, a_f = commit(k, u_trial, pred_u, pred_v)
                undamaged += 1
                continue
            state = quiet(run, k, state) if k > run else state
        candidate = state
        for stagger in range(1, _MAX_STAGGER + 2):
            # The pass ends on a residual at the converged displacement; at
            # a damaged state that residual has already sampled its strain.
            if eps_k is None:
                full[free] = u_trial
                eps_k = strain_at_gauss(mesh, full)
            # The pass's damage update (module docstring); its stress is the
            # stored stress of the pass that settles.
            end = local_stage(eps_k[:, None], times[:2], params, hooke,
                              out=sig[:, k:k + 1], start=state)["end"]
            settled = np.abs(end.d - candidate.d).max() <= _STAGGER_TOL
            candidate = end
            if settled:
                break
            if stagger > _MAX_STAGGER:
                raise RuntimeError(
                    "damage staggering failed to settle at step %d (t = %g)"
                    % (k, times[k]))
            # Next equilibrium pass at the candidate's frozen state.
            u_trial, it, eps_k = equilibrium(k, u_trial, pred_u, h,
                                             end.correction(params, hooke))
            spent += it
        iters[k - 1] = spent
        passes[k - 1] = stagger
        u_f, v_f, a_f = commit(k, u_trial, pred_u, pred_v)
        state = candidate
        eps[:, k] = eps_k
        dmg[:, k] = state.d
        run = k + 1
    if damage and n_t > run:
        quiet(run, n_t, state)

    info = {"iterations": iters, "passes": passes, "undamaged_steps": undamaged,
            "factorizations": system.n_factorizations - n_fact0}
    out = {"times": times, "u": u, "v": v, "a": acc, "info": info}
    if damage:
        out.update(eps=eps, sig=sig, d=dmg)
    return out


class GaussResample:
    """A step history of an incremental run, read on the space-time Gauss grid.

    Holds the grid and one (n_gauss, n_steps, 6) history; it has the shape
    (n_gauss, n_gauss_time, 6) of the field it stands for and the length
    n_gauss.  Indexing it with a slice of the spatial axis resamples those
    rows alone (`timegrid.quad_resample_blocks`), bit for bit the same rows
    as resampling the whole history; `view[:]` gives the whole field.  Any
    other key, and an implicit whole-array conversion (np.asarray), raise
    TypeError: the field is meant to be read a block at a time.
    """

    __slots__ = ("grid", "history")

    def __init__(self, grid, history):
        self.grid = grid
        self.history = history

    @property
    def shape(self):
        n_b, _, n_c = self.history.shape
        return (n_b, self.grid.n_gauss, n_c)

    def __len__(self):
        return self.history.shape[0]

    def __getitem__(self, key):
        if not isinstance(key, slice):
            raise TypeError("a resampled field is read by spatial slices, "
                            "got a key of type %s" % type(key).__name__)
        return quad_resample_blocks(self.grid, self.history[key])

    def __array__(self, dtype=None, copy=None):
        raise TypeError("a resampled field is not formed whole; "
                        "read it by spatial slices (view[s], view[:])")


def resample_fields_to_gauss(grid, result):
    """Views of an incremental run's strain/stress pair on the grid's Gauss points.

    `result` must come from a damaging run (damage=True: the elastic march
    stores no Gauss-point fields) over the step nodes `grid.step_times`
    (each time element spans two steps); both are checked here.  Returns
    (eps, sig), two `GaussResample` views of shape
    (n_gauss_space, n_gauss_time, 6) over the run's own histories: nothing
    is resampled until a spatial slice of a view is read, so
    `compare_error` forms the pair one block at a time.
    """
    times = result["times"]
    if (times.shape != grid.step_times.shape
            or not np.allclose(times, grid.step_times)):
        raise ValueError("run nodes do not match the quadrature grid")
    if "eps" not in result:
        raise ValueError("run holds no Gauss-point fields (an elastic march); "
                         "resample strain_at_gauss of its u instead")
    return GaussResample(grid, result["eps"]), GaussResample(grid, result["sig"])


def compare_error(eps_ref, sig_ref, eps, sig):
    """Relative space-time distance (percent) between two field pairs.

    All four fields share one quadrature layout (n_gauss, n_t, 6); each is
    an array or a `GaussResample` view (`resample_fields_to_gauss`).  The
    reference pair supplies the denominators:

        100 * sqrt(|sig - sig_ref|^2 / |sig_ref|^2
                   + |eps - eps_ref|^2 / |eps_ref|^2)

    with plain (unweighted) sums of squares over every sample and component,
    accumulated over the blocks of `timegrid.spatial_blocks` of a float
    field of that shape, in order.  A view is resampled one block at a
    time, so no temporary is larger than a block, and the result is bit for
    bit the one over the whole resampled fields.
    """
    fields = [f if isinstance(f, GaussResample) else np.asarray(f, dtype=float)
              for f in (eps_ref, sig_ref, eps, sig)]
    shape = fields[0].shape
    if any(f.shape != shape for f in fields):
        raise ValueError("field shapes do not match")
    den_e = den_s = num_e = num_s = 0.0
    # The blocks of a float field of this shape, read off a zero-stride
    # stand-in that allocates no field.
    for s in spatial_blocks(np.broadcast_to(0.0, shape)):
        e_ref, s_ref, e, sg = (f[s] for f in fields)
        gap_e = e - e_ref
        gap_s = sg - s_ref
        den_e += np.vdot(e_ref, e_ref)
        den_s += np.vdot(s_ref, s_ref)
        num_e += np.vdot(gap_e, gap_e)
        num_s += np.vdot(gap_s, gap_s)
    if den_e <= 0.0 or den_s <= 0.0:
        raise ValueError("reference fields vanish; relative error undefined")
    return 100.0 * np.sqrt(num_s / den_s + num_e / den_e)
