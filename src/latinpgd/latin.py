"""Non-incremental driver: alternate constitutive and equilibrium stages.

The solver starts from the elastic space-time solution and iterates between
two partial solutions of the coupled problem: the *local stage* applies the
damage constitutive relations pointwise to the current global strain history
(material module), and the *global stage* restores dynamic equilibrium by
adding one relaxed rank-one space-time correction to the displacement and
stress fields (separated-representation module).  The distance between the
two stages,

    xi = sqrt(|sig - sig_hat|^2 / |sig|^2 + |eps - eps_hat|^2 / |eps|^2),

with space-time L2 norms, measures how far the global iterate sits from
the constitutive manifold; the loop stops when xi falls below the requested
threshold or the mode budget runs out.  The local stage takes eps_hat = eps,
so the strain gap is zero when it has just run and is the new mode's
eps_bar lam after an enrichment; neither is ever formed as a field.

The nonhomogeneous support motion is carried entirely by the elastic
solution; every correction is kinematically admissible to zero, so the
Dirichlet data stays exactly satisfied at all iterations.
"""

import time

import numpy as np

from .assembly import strain_at_gauss
from .material import local_stage
from .newmark import newmark_quasi_newton
from .pgd import (PgdSolution, compute_delta, cre_functional, enrich,
                  relax_mode, strain_norm)
from .timegrid import quad_resample_to_gauss

RELAXATION = 0.4


def elastic_solution(system, params, load, grid):
    """Undamaged dynamic response sampled on the space-time Gauss grid.

    The marching reference integrates the linear problem on the 2*N_T + 1
    uniform nodes of `grid`, then its displacement history is carried onto
    the temporal Gauss points by the per-element quadratic fit.  Returns a
    dict with u (n_dofs, n_gauss_t), eps and sig (n_gauss, n_gauss_t, 6).

    The strain is computed from the resampled displacement in one batched
    evaluation (the resampling is linear, so this equals the resampled
    strain of the march up to round-off) and the stress is E : eps, exact
    on the grid.
    """
    times = np.linspace(0.0, grid.T, 2 * grid.n_elements + 1)
    res = newmark_quasi_newton(system, params, load, times, damage=False)
    u = quad_resample_to_gauss(grid, res["u"])
    eps = strain_at_gauss(system.mesh, u)
    return {"u": u, "eps": eps, "sig": params.hooke().apply(eps)}


def _st_norm2(mesh, grid, field, flavor):
    """Squared space-time L2 norm of a Voigt field (n_gauss, n_t, 6).

    Proper tensor contraction (shear components counted twice for stresses,
    engineering shear strains halved twice) integrated with the spatial and
    temporal quadrature weights.
    """
    if flavor == "stress":
        shear = 2.0
    elif flavor == "strain":
        shear = 0.5
    else:
        raise ValueError("flavor must be 'stress' or 'strain', got %r" % (flavor,))
    c = np.array([1.0, 1.0, 1.0, shear, shear, shear])
    sq = np.einsum("gtv,gtv,v->gt", field, field, c)
    return float(mesh.gp_weights.ravel() @ sq @ grid.all_gauss_weights)


def latin_error(delta, sig, eps, mesh, grid, mode=None):
    """Manifold distance xi of the global fields from the local-stage pair.

    delta is the stress gap sig - sig_hat (`pgd.compute_delta`), formed once
    by the caller, which also hands it to the enrichment.  The local stage
    takes eps_hat = eps, so the strain gap is exactly zero for the fields
    the local stage ran on (mode None).  After `mode` has been added to
    them, the gap is that mode's eps_bar lam, whose squared norm separates
    as |eps_bar|^2_Omega <lam, lam>_I (same contraction and weights as the
    dense norm).  Both gaps are normalized by the global-field norms; a
    vanishing global stress or strain signals a degenerate (all-zero)
    solution and is rejected rather than silently returning inf.
    """
    den_s = _st_norm2(mesh, grid, sig, "stress")
    den_e = _st_norm2(mesh, grid, eps, "strain")
    if den_s <= 0.0 or den_e <= 0.0:
        raise ValueError("global solution vanishes; manifold distance undefined")
    num_s = _st_norm2(mesh, grid, delta, "stress")
    num_e = 0.0
    if mode is not None:
        lv = mode.lam.values_at_gauss()
        num_e = strain_norm(mode.eps_bar, mesh) ** 2 * grid.inner(lv, lv)
    return float(np.sqrt(num_s / den_s + num_e / den_e))


class LatinState:
    """Driver state: global solution, last local fields, error and log.

    hat is the last local stage's result (keys sig, d, dbar, Z); log rows
    are dicts with keys iteration, modes, xi, cre, seconds (since the start
    of the run); enrich_log keeps each enrichment's c_c / stagnation
    history; elastic_seconds is the time the elastic start took.
    """

    def __init__(self, solution, elastic_seconds):
        self.solution = solution
        self.elastic_seconds = elastic_seconds
        self.hat = None
        self.xi = np.inf
        self.log = []
        self.enrich_log = []
        self.iteration = 0
        self.converged = False

    @property
    def n_modes(self):
        return self.solution.n_modes

    @property
    def damage(self):
        """Damage history of the last local stage (n_gauss, n_gauss_t)."""
        return None if self.hat is None else self.hat["d"]

    def monitored_point(self):
        """Spatial Gauss index where the damage history peaks."""
        if self.hat is None:
            raise ValueError("no local stage has run yet")
        return int(self.hat["d"].max(axis=1).argmax())


def run_latin(system, params, load, grid, zeta_stop=5e-4, max_modes=150,
              omega=RELAXATION, seed=0, enrich_zeta=1e-2):
    """Alternate local and global stages from the elastic initialization.

    zeta_stop : manifold-distance threshold (fraction; 5e-4 is 0.05%).
    max_modes : enrichment budget; exhausting it flags the state
        non-converged instead of raising.
    omega : relaxation applied to each new mode's time functions.
    seed : seeds the random time-function initialization of every
        enrichment, making the run reproducible.

    Returns a LatinState; `state.converged` distinguishes a met threshold
    from an exhausted budget.
    """
    if zeta_stop <= 0.0:
        raise ValueError("zeta_stop must be positive")
    rng = np.random.default_rng(seed)
    hooke = params.hooke()
    mesh = system.mesh
    t0 = time.perf_counter()

    el = elastic_solution(system, params, load, grid)
    solution = PgdSolution(grid, el["u"], el["eps"], el["sig"])
    state = LatinState(solution, time.perf_counter() - t0)

    n_t = grid.n_gauss
    local = {"Z": np.zeros((mesh.n_gauss, n_t)),
             "dbar": np.zeros((mesh.n_gauss, n_t))}

    while True:
        state.iteration += 1
        _, eps, sig = solution.fields()
        local = local_stage(eps, local["Z"], local["dbar"], grid.all_gauss_times,
                            params, hooke)
        state.hat = local

        # Distance of the current global iterate from the manifold.  When it
        # is already below the threshold (elastic loads: the constitutive
        # relation returns the elastic stress bit-for-bit and the distance is
        # exactly zero) the iteration ends without spending a mode.  xi = 0
        # only when sig equals sig_hat, so the CRE of the gap is 0 then.
        delta = compute_delta(sig, local["sig"])
        xi = latin_error(delta, sig, eps, mesh, grid)
        if xi <= zeta_stop:
            state.xi = xi
            state.converged = True
            wall = time.perf_counter() - t0
            state.log.append({"iteration": state.iteration,
                              "modes": solution.n_modes, "xi": xi,
                              "cre": 0.0 if xi == 0.0 else
                              cre_functional(delta, mesh, grid, hooke),
                              "seconds": wall})
            return state

        mode, info = enrich(delta, system, grid, hooke, rng, zeta_stop=enrich_zeta)
        state.enrich_log.append(info)
        if mode is None:
            # Delta vanished identically although xi > threshold: strain and
            # stress gaps cannot both be zero here, so the run is degenerate.
            raise ValueError("stress gap vanished with xi = %g above the "
                             "threshold" % xi)
        solution.add_mode(relax_mode(mode, omega))

        _, eps, sig = solution.fields()
        xi = latin_error(compute_delta(sig, local["sig"]), sig, eps, mesh, grid,
                         mode=solution.modes[-1])
        state.xi = xi
        wall = time.perf_counter() - t0
        state.log.append({"iteration": state.iteration,
                          "modes": solution.n_modes, "xi": xi,
                          "cre": cre_functional(delta, mesh, grid, hooke,
                                                mode=solution.modes[-1]),
                          "seconds": wall})
        if xi <= zeta_stop:
            state.converged = True
            return state
        if solution.n_modes >= max_modes:
            state.converged = False
            return state
