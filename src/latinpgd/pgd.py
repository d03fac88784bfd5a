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
integrals use the mesh and time-grid quadrature weights.  The quality measure
is the constitutive-gap functional

    J = int_I int_Omega (Delta + sig_bar mu - E:eps_bar lam) : E^-1 : (...) dOmega dt

which each completed (sig_bar, mu) pair minimizes over its own slice.
"""

import numpy as np

from .assembly import internal_force, strain_at_gauss
from .timegrid import TimeFunction, l2_fit, st_inner, tdgm_march


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


def compute_delta(sig, sig_hat):
    """Stress gap Delta = sig - sig_hat between global and local stage."""
    sig = np.asarray(sig, dtype=float)
    sig_hat = np.asarray(sig_hat, dtype=float)
    if sig.shape != sig_hat.shape:
        raise ValueError("stress fields have mismatched shapes %s and %s"
                         % (sig.shape, sig_hat.shape))
    return sig - sig_hat


def _time_weighted(delta, samples, grid):
    """Time integral int_I Delta(x, t) s(t) dt -> spatial field (n_gauss, 6)."""
    return np.einsum("gtv,t->gv", delta, samples * grid.all_gauss_weights)


def space_problem(lam, delta, system):
    """Spatial equilibrium problem of the fixed point.

    Galerkin projection of the dynamic equilibrium onto the separated test
    field v(x) lam(t) gives, on the free DOFs,

        [<lam'' lam> M + <lam' lam> C + <lam lam> K] u_bar = F(<Delta lam>)

    where F is the internal-force functional of the time-averaged stress gap.
    The damping term is present only when the system carries a damping
    matrix.  Returns (u_bar, eps_bar) with u_bar zero on prescribed DOFs.
    """
    grid = lam.grid
    lv = lam.values_at_gauss()
    ca = st_inner(grid, lam.values_at_gauss(2), lv)
    ck = st_inner(grid, lv, lv)
    if not ck > 0.0:
        raise ValueError("time function has zero L2 norm; <lam lam> = %g" % ck)
    cc = st_inner(grid, lam.values_at_gauss(1), lv) if system.C is not None else 0.0

    rhs = internal_force(system.mesh, _time_weighted(delta, lv, grid))
    try:
        u_free = system.solve_free(ca, cc, ck, rhs[system.free])
    except RuntimeError as exc:
        raise ValueError("singular space operator (<lam'' lam>=%g, <lam lam>=%g)"
                         % (ca, ck)) from exc
    u_bar = np.zeros(system.mesh.n_dofs)
    u_bar[system.free] = u_free
    return u_bar, strain_at_gauss(system.mesh, u_bar)


def stress_spatial(eps_bar, lam, mu, delta, hooke, grid):
    """Spatial stress function minimizing the gap functional for fixed times.

    Stationarity of J with respect to sig_bar gives the closed form

        sig_bar = [E:eps_bar <mu lam> - <mu Delta>] / <mu^2>.
    """
    mv = mu.values_at_gauss()
    mu2 = st_inner(grid, mv, mv)
    if not mu2 > 0.0:
        raise ValueError("degenerate mode: <mu^2> = %g" % mu2)
    ml = st_inner(grid, mv, lam.values_at_gauss())
    return (hooke.apply(eps_bar) * ml - _time_weighted(delta, mv, grid)) / mu2


def time_lambda(u_bar, eps_bar, delta, system, grid, hooke):
    """Temporal problem for the kinematic time function.

    Spatial Galerkin reduction of the equilibrium onto the fixed mode shape
    yields the scalar second-order equation

        a lam'' + c lam' + b lam = f(t),   a = int rho u_bar . u_bar,
        b = int eps_bar : E : eps_bar,     f = int Delta : eps_bar

    (c = u_bar . C u_bar with damping), integrated by the discontinuous
    march from zero initial conditions.
    """
    wg = system.mesh.gp_weights.ravel()
    a = float(u_bar @ (system.M @ u_bar))
    b = float(wg @ np.einsum("gv,gv->g", hooke.apply(eps_bar), eps_bar))
    if not a > 0.0:
        raise ValueError("degenerate mode: mass coefficient a = %g" % a)
    c = float(u_bar @ (system.C @ u_bar)) if system.C is not None else 0.0
    f = np.einsum("gtv,gv,g->t", delta, eps_bar, wg)
    lam, _ = tdgm_march(grid, a, c, b, f.reshape(grid.n_elements, 4))
    return lam


def time_mu(sig_bar, eps_bar, lam, delta, hooke, grid, mesh):
    """Temporal problem for the stress time function.

    J has no mu time derivatives, so its minimizer is pointwise in time:

        mu(t) = int sig_bar : E^-1 : (E:eps_bar lam(t) - Delta(., t)) dOmega
                / int sig_bar : E^-1 : sig_bar dOmega

    evaluated at the temporal Gauss points and fitted per element.
    """
    wg = mesh.gp_weights.ravel()
    compliance_sig = hooke.apply_inverse(sig_bar)
    den = float(wg @ np.einsum("gv,gv->g", compliance_sig, sig_bar))
    if not den > 0.0:
        raise ValueError("degenerate mode: zero stress norm in the mu problem")
    se = float(wg @ np.einsum("gv,gv->g", sig_bar, eps_bar))
    sd = np.einsum("gv,gtv,g->t", compliance_sig, delta, wg)
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


def cre_functional(delta, mesh, grid, hooke, mode=None):
    """Constitutive-gap functional J of Delta, optionally after one mode.

    J = int_I int_Omega R : E^-1 : R with R = Delta + sig_bar mu - E:eps_bar lam
    (R = Delta when mode is None).
    """
    if mode is None:
        resid = delta
    else:
        resid = (delta
                 + mode.sig_bar[:, None, :] * mode.mu.values_at_gauss()[None, :, None]
                 - hooke.apply(mode.eps_bar)[:, None, :]
                 * mode.lam.values_at_gauss()[None, :, None])
    return float(np.einsum("gtv,gtv,g,t->", resid, hooke.apply_inverse(resid),
                           mesh.gp_weights.ravel(), grid.all_gauss_weights))


def enrich(delta, system, grid, hooke, rng, zeta_stop=1e-2, max_iter=5):
    """Add one space-time mode correcting the stress gap Delta.

    Runs the alternating fixed point from randomly initialized time functions
    (nodal values uniform in [-1, 1]) until |lam| stagnates below zeta_stop
    or max_iter sweeps.  Returns (mode, info); mode is None when Delta is
    identically zero and no enrichment is needed.  info records the
    normalization constants, stagnation history and iteration count.
    """
    info = {"c_c": [], "zeta": [], "iterations": 0}
    if not np.any(delta):
        return None, info
    lam = TimeFunction(grid, rng.uniform(-1.0, 1.0, (grid.n_elements, 4)))
    mu = TimeFunction(grid, rng.uniform(-1.0, 1.0, (grid.n_elements, 4)))
    mode = None
    for sweep in range(1, max_iter + 1):
        u_bar, eps_bar = space_problem(lam, delta, system)
        sig_bar = stress_spatial(eps_bar, lam, mu, delta, hooke, grid)
        lam_new = time_lambda(u_bar, eps_bar, delta, system, grid, hooke)
        mu = time_mu(sig_bar, eps_bar, lam_new, delta, hooke, grid, system.mesh)
        c_c, mode = normalize_mode(
            PgdMode(u_bar, eps_bar, sig_bar, lam_new, mu), system.mesh)
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

    The reconstruction cache (u, eps, sig on the full space-time Gauss grid)
    is updated incrementally when a mode is added; `fields` returns the
    cached arrays, which callers must treat as read-only.
    """

    def __init__(self, grid, u_el, eps_el, sig_el):
        self.grid = grid
        self.u_el = u_el
        self.eps_el = eps_el
        self.sig_el = sig_el
        self.modes = []
        self._u = u_el.copy()
        self._eps = eps_el.copy()
        self._sig = sig_el.copy()

    @property
    def n_modes(self):
        return len(self.modes)

    def add_mode(self, mode):
        self.modes.append(mode)
        lv = mode.lam.values_at_gauss()
        self._u += mode.u_bar[:, None] * lv[None, :]
        self._eps += mode.eps_bar[:, None, :] * lv[None, :, None]
        self._sig += mode.sig_bar[:, None, :] * mode.mu.values_at_gauss()[None, :, None]

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
