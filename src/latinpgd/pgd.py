"""Global (linear) stage of the alternating solver: space-time PGD corrections.

The global solution is stored in separated form: elastic fields plus a sum of
rank-one space-time modes,

    u(x, t)   = u_el(x, t)   + sum_i  u_bar_i(x)   lam_i(t)
    eps(x, t) = eps_el(x, t) + sum_i  eps_bar_i(x) lam_i(t)
    sig(x, t) = sig_el(x, t) + sum_i  sig_bar_i(x) mu_i(t)

with distinct time functions for the kinematic pair (lam) and the stress
(mu).  Each correction step adds one mode by a fixed point that alternates

    space problem   [<lam'' lam> M + <lam' lam> C + <lam lam> K] u_bar = rhs(<Delta lam>)
    stress spatial  sig_bar = [E:eps_bar <mu lam> - <mu Delta>] / <mu^2>
    time lambda     a lam'' + c lam' + b lam = f(t)  (discontinuous march)
    time mu         pointwise minimizer of the constitutive-gap functional

where Delta = sig - sig_hat is the gap between the global stress and the
local-stage stress, and the search direction is the constant undamaged Hooke
tensor.  The fixed point stops on stagnation of |lam| or after a few
iterations; the mode is normalized so the spatial strain has unit L2(Omega)
norm.  A relaxation factor scales the new mode's time functions only.

Space-time fields are arrays of shape (n_space_gauss, n_time_gauss, 6); all
integrals use the mesh and time-grid quadrature weights.  Each field exists
once: `PgdSolution` takes the elastic arrays it is given as its running
reconstruction and adds every mode into them in place, block by block, so
the elastic start itself is not kept apart from the sum.  The quality
measure is the constitutive-gap functional

    J = int_I int_Omega (Delta + sig_bar mu - E:eps_bar lam) : E^-1 : (...) dOmega dt

which each completed (sig_bar, mu) pair minimizes over its own slice.

The space-time fields are large and the subproblems small, so every
reduction reads a field a fixed number of times and forms no temporary of
its size.  A sweep of `enrich` reads Delta twice: once against the two time
functions (space problem and stress function), once against the two new
spatial fields (both time problems).  J(Delta) comes from the pass that
forms |Delta|^2 (`gap_norms`), and after a mode has been added the norm and
the functional separate into one product of Delta with the mode's spatial
fields (`mode_products`) plus spatial and temporal scalars.
"""

import numpy as np

from .assembly import internal_force, strain_at_gauss
from .tensors import STRESS_CONTRACTION
from .timegrid import TimeFunction, l2_fit, spatial_blocks, tdgm_march

# Sweeps of the enrichment fixed point when |lam| does not stagnate first.
_MAX_SWEEPS = 5


class PgdMode:
    """One rank-one space-time correction.

    u_bar is a full nodal vector (zero on prescribed DOFs), eps_bar and
    sig_bar live on the spatial Gauss points, lam and mu on the time grid.
    eps_bar always equals strain_at_gauss(u_bar).
    """

    def __init__(self, u_bar, eps_bar, sig_bar, lam, mu):
        self.u_bar = u_bar
        self.eps_bar = eps_bar
        self.sig_bar = sig_bar
        self.lam = lam
        self.mu = mu


def compute_delta(sig, sig_hat, out=None):
    """Stress gap Delta = sig - sig_hat between global and local stage.

    out : array to write the gap into (the driver's held buffer); a new
        array by default.
    """
    sig = np.asarray(sig, dtype=float)
    sig_hat = np.asarray(sig_hat, dtype=float)
    if sig.shape != sig_hat.shape:
        raise ValueError("stress fields have mismatched shapes %s and %s"
                         % (sig.shape, sig_hat.shape))
    return np.subtract(sig, sig_hat, out=out)


def _time_weighted(delta, samples, grid):
    """Time integrals int_I Delta(x, t) s(t) dt -> spatial fields.

    samples (n_t,) gives (n_gauss, 6); samples (k, n_t) gives (n_gauss, k, 6),
    all k integrals from one read of Delta: one (k, n_t) @ (n_t, 6) product
    per spatial point, a stacked BLAS matmul.
    """
    return (samples * grid.all_gauss_weights) @ delta


def _space_weighted(delta, shapes, mesh):
    """Space integrals int_Omega Delta(x, t) . shape_j(x) dOmega -> (k, n_t).

    shapes (n_gauss, 6, k) holds k spatial Voigt fields; all k integrals come
    from one read of Delta, block by block: (n_t, 6) @ (6, k) per point,
    summed over the block's points.
    """
    weighted = shapes * mesh.gp_weights.ravel()[:, None, None]
    out = np.zeros((delta.shape[1], weighted.shape[-1]))
    for s in spatial_blocks(delta):
        out += (delta[s] @ weighted[s]).sum(axis=0)
    return out.T


def space_problem(lam, delta_lam, system):
    """Spatial equilibrium problem of the fixed point.

    Galerkin projection of the dynamic equilibrium onto the separated test
    field v(x) lam(t) gives, on the free DOFs,

        [<lam'' lam> M + <lam' lam> C + <lam lam> K] u_bar = F(<Delta lam>)

    where F is the internal-force functional of the time-weighted stress gap
    delta_lam = <Delta lam> (n_gauss, 6), formed by the caller
    (`_time_weighted`).  Returns (u_bar, eps_bar) with u_bar zero on
    prescribed DOFs.
    """
    grid = lam.grid
    lv = lam.values_at_gauss()
    ca = grid.inner(lam.values_at_gauss(2), lv)
    ck = grid.inner(lv, lv)
    if not ck > 0.0:
        raise ValueError("time function has zero L2 norm; <lam lam> = %g" % ck)
    cc = grid.inner(lam.values_at_gauss(1), lv)

    rhs = internal_force(system.mesh, delta_lam)
    try:
        u_free = system.solve_free(ca, cc, ck, rhs[system.free])
    except RuntimeError as exc:
        raise ValueError("singular space operator (<lam'' lam>=%g, <lam lam>=%g)"
                         % (ca, ck)) from exc
    u_bar = np.zeros(system.mesh.n_dofs)
    u_bar[system.free] = u_free
    return u_bar, strain_at_gauss(system.mesh, u_bar)


def stress_spatial(eps_bar, lam, mu, delta_mu, hooke, grid):
    """Spatial stress function minimizing the gap functional for fixed times.

    Stationarity of J with respect to sig_bar gives the closed form

        sig_bar = [E:eps_bar <mu lam> - <mu Delta>] / <mu^2>,

    with delta_mu = <mu Delta> (n_gauss, 6) formed by the caller.
    """
    mv = mu.values_at_gauss()
    mu2 = grid.inner(mv, mv)
    if not mu2 > 0.0:
        raise ValueError("degenerate mode: <mu^2> = %g" % mu2)
    ml = grid.inner(mv, lam.values_at_gauss())
    return (hooke.apply(eps_bar) * ml - delta_mu) / mu2


def time_lambda(u_bar, eps_bar, forcing, system, grid, hooke):
    """Temporal problem for the kinematic time function.

    Spatial Galerkin reduction of the equilibrium onto the fixed mode shape
    yields the scalar second-order equation

        a lam'' + c lam' + b lam = f(t),   a = int rho u_bar . u_bar,
        b = int eps_bar : E : eps_bar,     f = int Delta : eps_bar

    (c = u_bar . C u_bar), integrated by the discontinuous
    march from zero initial conditions.  forcing holds f at the temporal
    Gauss points (n_t,), formed by the caller (`_space_weighted`).
    """
    wg = system.mesh.gp_weights.ravel()
    a = float(u_bar @ (system.M @ u_bar))
    b = float(wg @ np.einsum("gv,gv->g", hooke.apply(eps_bar), eps_bar))
    if not a > 0.0:
        raise ValueError("degenerate mode: mass coefficient a = %g" % a)
    c = float(u_bar @ (system.C @ u_bar))
    lam, _ = tdgm_march(grid, a, c, b, np.reshape(forcing, (grid.n_elements, 4)))
    return lam


def time_mu(sig_bar, eps_bar, lam, sd, hooke, grid, mesh):
    """Temporal problem for the stress time function.

    J has no mu time derivatives, so its minimizer is pointwise in time:

        mu(t) = int sig_bar : E^-1 : (E:eps_bar lam(t) - Delta(., t)) dOmega
                / int sig_bar : E^-1 : sig_bar dOmega

    evaluated at the temporal Gauss points and fitted per element.  sd holds
    int E^-1:sig_bar . Delta(., t) dOmega at the temporal Gauss points (n_t,),
    formed by the caller (`_space_weighted`).
    """
    wg = mesh.gp_weights.ravel()
    den = float(wg @ np.einsum("gv,gv->g", hooke.apply_inverse(sig_bar), sig_bar))
    if not den > 0.0:
        raise ValueError("degenerate mode: zero stress norm in the mu problem")
    se = float(wg @ np.einsum("gv,gv->g", sig_bar, eps_bar))
    mu_gauss = (se * lam.values_at_gauss() - sd) / den
    return l2_fit(grid, mu_gauss)


def strain_norm(eps_bar, mesh):
    """L2(Omega) norm of a spatial strain field (tensor contraction)."""
    sq = (eps_bar[:, :3] ** 2).sum(axis=1) + 0.5 * (eps_bar[:, 3:] ** 2).sum(axis=1)
    return float(np.sqrt(mesh.gp_weights.ravel() @ sq))


def normalize_mode(mode, mesh):
    """Rescale so the spatial strain has unit norm; mode products unchanged.

    Spatial fields are divided by c_c = ||eps_bar||_Omega, time functions
    multiplied by it.  The strain is recomputed from the scaled displacement
    so eps_bar remains exactly strain_at_gauss(u_bar).
    """
    c_c = strain_norm(mode.eps_bar, mesh)
    if not c_c > 0.0:
        raise ValueError("degenerate mode: zero strain norm")
    u_bar = mode.u_bar / c_c
    return c_c, PgdMode(u_bar, strain_at_gauss(mesh, u_bar), mode.sig_bar / c_c,
                        mode.lam.scale(c_c), mode.mu.scale(c_c))


def stagnation(lam_i, lam_prev):
    """Fixed-point stagnation indicator on the magnitudes of lam.

    zeta = || |lam_i| - |lam_prev| ||_I / || |lam_i| + |lam_prev| ||_I,
    zero when both arguments vanish; insensitive to a global sign flip.
    """
    grid = lam_i.grid
    if lam_prev.grid is not grid:
        raise ValueError("operands live on different time grids")
    a = np.abs(lam_i.values_at_gauss())
    b = np.abs(lam_prev.values_at_gauss())
    den = grid.inner(a + b, a + b)
    if den == 0.0:
        return 0.0
    return float(np.sqrt(grid.inner(a - b, a - b) / den))


def gap_norms(delta, mesh, grid, hooke):
    """Squared norm |Delta|^2 and gap functional J(Delta), from one pass.

    |Delta|^2 = int_I int_Omega Delta : Delta and J = int_I int_Omega
    Delta : E^-1 : Delta.  The Hooke tensor is isotropic, so pointwise

        R : E^-1 : R = ((1 + nu) R : R - nu (tr R)^2) / E,

    and J needs only the trace next to the contraction the norm forms
    anyway.  Delta is read once, block by block.
    """
    wg = mesh.gp_weights.ravel()
    wt = grid.all_gauss_weights
    norm2 = trace2 = 0.0
    for s in spatial_blocks(delta):
        block = delta[s]
        norm2 += wg[s] @ ((wt @ (block * block)) @ STRESS_CONTRACTION)
        tr = block[..., 0] + block[..., 1] + block[..., 2]
        trace2 += wg[s] @ ((tr * tr) @ wt)
    cre = ((1.0 + hooke.nu) * norm2 - hooke.nu * trace2) / hooke.E
    return float(norm2), float(cre)


def mode_products(delta, mode, mesh, hooke):
    """Time samples (3, n_t) of the gap against the mode's spatial fields.

    Rows: int_Omega Delta(., t) . X dOmega for X = c sig_bar (the stress
    contraction, so the row integrated against mu is <Delta, sig_bar mu>),
    E^-1 : sig_bar and eps_bar.  With them and spatial and temporal scalars,
    the norm of Delta + sig_bar mu and the gap functional of
    Delta + sig_bar mu - E:eps_bar lam separate (`latin.latin_error`,
    `cre_functional`); one read of Delta gives all three rows.
    """
    shapes = np.stack([mode.sig_bar * STRESS_CONTRACTION,
                       hooke.apply_inverse(mode.sig_bar), mode.eps_bar], axis=-1)
    return _space_weighted(delta, shapes, mesh)


def cre_functional(cre_delta, products, mode, mesh, grid, hooke):
    """Gap functional J of R = Delta + sig_bar mu - E:eps_bar lam after one mode.

    J(R) = int_I int_Omega R : E^-1 : R separates as

        J(Delta) + 2 <mu, P_S> - 2 <lam, P_eps>
        + <mu mu> |sig_bar|^2_S - 2 <mu lam> (sig_bar, eps_bar)_Omega
        + <lam lam> (eps_bar, E:eps_bar)_Omega

    with cre_delta = J(Delta) (`gap_norms`) and the rows P_S (E^-1:sig_bar)
    and P_eps (eps_bar) of `mode_products` of the same Delta; E^-1:E = I
    leaves no field-size work.
    """
    wg = mesh.gp_weights.ravel()
    lv, mv = mode.lam.values_at_gauss(), mode.mu.values_at_gauss()
    sig_s = wg @ np.einsum("gv,gv->g", mode.sig_bar, hooke.apply_inverse(mode.sig_bar))
    sig_eps = wg @ np.einsum("gv,gv->g", mode.sig_bar, mode.eps_bar)
    eps_e = wg @ np.einsum("gv,gv->g", mode.eps_bar, hooke.apply(mode.eps_bar))
    return float(cre_delta
                 + 2.0 * (grid.inner(mv, products[1]) - grid.inner(lv, products[2]))
                 + grid.inner(mv, mv) * sig_s - 2.0 * grid.inner(mv, lv) * sig_eps
                 + grid.inner(lv, lv) * eps_e)


def enrich(delta, system, grid, hooke, rng, zeta_stop):
    """Add one space-time mode correcting the stress gap Delta.

    Runs the alternating fixed point from randomly initialized time functions
    (nodal values uniform in [-1, 1]) until |lam| stagnates below zeta_stop
    or after _MAX_SWEEPS sweeps.  Returns (mode, info); mode is None when Delta is
    identically zero and no enrichment is needed.  info records the
    normalization constants, stagnation history and iteration count.

    Each sweep reads Delta twice.  One (2, n_t) @ Delta product gives the
    space problem its <Delta lam> and the stress function its <Delta mu>,
    both against the previous sweep's time functions; one
    Delta @ [eps_bar w, E^-1:sig_bar w] product gives the forcing of both
    time problems.
    """
    info = {"c_c": [], "zeta": [], "iterations": 0}
    if not np.any(delta):
        return None, info
    mesh = system.mesh
    lam = TimeFunction(grid, rng.uniform(-1.0, 1.0, (grid.n_elements, 4)))
    mu = TimeFunction(grid, rng.uniform(-1.0, 1.0, (grid.n_elements, 4)))
    mode = None
    for sweep in range(1, _MAX_SWEEPS + 1):
        weighted = _time_weighted(
            delta, np.stack([lam.values_at_gauss(), mu.values_at_gauss()]), grid)
        u_bar, eps_bar = space_problem(lam, weighted[:, 0], system)
        sig_bar = stress_spatial(eps_bar, lam, mu, weighted[:, 1], hooke, grid)
        forcing = _space_weighted(
            delta, np.stack([eps_bar, hooke.apply_inverse(sig_bar)], axis=-1), mesh)
        lam_new = time_lambda(u_bar, eps_bar, forcing[0], system, grid, hooke)
        mu = time_mu(sig_bar, eps_bar, lam_new, forcing[1], hooke, grid, mesh)
        c_c, mode = normalize_mode(
            PgdMode(u_bar, eps_bar, sig_bar, lam_new, mu), mesh)
        zeta = stagnation(mode.lam, lam)
        info["c_c"].append(c_c)
        info["zeta"].append(zeta)
        info["iterations"] = sweep
        lam, mu = mode.lam, mode.mu
        if zeta < zeta_stop:
            break
    return mode, info


def relax_mode(mode, omega):
    """Relaxation: blend the new global iterate with the previous one.

    Because the iterate differs from its predecessor by exactly one mode,
    the convex blend reduces to scaling that mode's time functions by omega.
    """
    if not 0.0 < omega <= 1.0:
        raise ValueError("relaxation factor must be in (0, 1], got %g" % omega)
    if omega == 1.0:
        return mode
    return PgdMode(mode.u_bar, mode.eps_bar, mode.sig_bar,
                   mode.lam.scale(omega), mode.mu.scale(omega))


class PgdSolution:
    """Elastic fields plus the ordered mode list, with running reconstruction.

    The solution takes ownership of the elastic arrays u_el, eps_el and
    sig_el: they become the running reconstruction (u, eps, sig on the full
    space-time Gauss grid), and `add_mode` adds each mode into them in place.
    A caller that still needs the elastic fields must pass copies.  `fields`
    returns the running arrays, which callers must treat as read-only.
    """

    def __init__(self, grid, u_el, eps_el, sig_el):
        self.grid = grid
        self.modes = []
        self._u = u_el
        self._eps = eps_el
        self._sig = sig_el

    @property
    def n_modes(self):
        return len(self.modes)

    def add_mode(self, mode):
        """Add the mode's products into the running fields, in place.

        Block by block over the leading axis, so no temporary is larger
        than a block.
        """
        self.modes.append(mode)
        lv = mode.lam.values_at_gauss()
        mv = mode.mu.values_at_gauss()
        for s in spatial_blocks(self._u):
            self._u[s] += mode.u_bar[s, None] * lv[None, :]
        for s in spatial_blocks(self._eps):
            self._eps[s] += mode.eps_bar[s, None, :] * lv[None, :, None]
            self._sig[s] += mode.sig_bar[s, None, :] * mv[None, :, None]

    def fields(self):
        """Reconstructed (u, eps, sig); u is nodal, eps/sig on Gauss points."""
        return self._u, self._eps, self._sig


def dump_modes(solution, directory):
    """Write per-mode CSV pairs (spatial nodal vector; temporal nodal values).

    Returns the list of file paths written (mode_###_space.csv with columns
    node,ux,uy,uz and mode_###_time.csv with element,local_node,t,lam,mu).
    """
    import os

    paths = []
    for i, mode in enumerate(solution.modes):
        spath = os.path.join(directory, "mode_%03d_space.csv" % i)
        with open(spath, "w") as fh:
            fh.write("node,ux,uy,uz\n")
            u3 = mode.u_bar.reshape(-1, 3)
            for n in range(u3.shape[0]):
                fh.write("%d,%.17g,%.17g,%.17g\n" % (n, u3[n, 0], u3[n, 1], u3[n, 2]))
        tpath = os.path.join(directory, "mode_%03d_time.csv" % i)
        g = solution.grid
        with open(tpath, "w") as fh:
            fh.write("element,local_node,t,lam,mu\n")
            for k in range(g.n_elements):
                for j in range(4):
                    fh.write("%d,%d,%.17g,%.17g,%.17g\n"
                             % (k, j, g.node_times[k, j],
                                mode.lam.coeffs[k, j], mode.mu.coeffs[k, j]))
        paths.extend([spath, tpath])
    return paths
