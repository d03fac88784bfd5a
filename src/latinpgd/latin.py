"""Non-incremental driver: alternate constitutive and equilibrium stages.

The solver starts from the elastic space-time solution and iterates between
two partial solutions of the coupled problem: the *local stage* applies the
damage constitutive relations pointwise to the current global strain history
(material module), and the *global stage* restores dynamic equilibrium by
adding one relaxed rank-one space-time correction to the displacement and
stress fields (separated-representation module).  The distance between the
two stages,

    xi = sqrt(|sig - sig_hat|^2 / |sig|^2 + |eps - eps_hat|^2 / |eps|^2),

with unweighted space-time L2 norms, measures how far the global iterate
sits from the constitutive manifold; the loop stops when xi falls below the
requested threshold or the mode budget runs out.

The nonhomogeneous support motion is carried entirely by the elastic
solution; every correction is kinematically admissible to zero, so the
Dirichlet data stays exactly satisfied at all iterations.
"""

import time

import numpy as np

from .material import local_stage
from .newmark import newmark_quasi_newton, resample_fields_to_gauss
from .pgd import (PgdSolution, compute_delta, cre_functional, enrich,
                  relax_mode)
from .timegrid import quad_resample_to_gauss

RELAXATION = 0.4


def elastic_solution(system, params, load, grid):
    """Undamaged dynamic response sampled on the space-time Gauss grid.

    The marching reference integrates the linear problem on the 2*N_T + 1
    uniform nodes of `grid`, then the histories are carried onto the
    temporal Gauss points by the per-element cubic fit.  Returns a dict
    with u (n_dofs, n_gauss_t), eps and sig (n_gauss, n_gauss_t, 6).

    The stress is re-derived from the resampled strain, which commutes with
    the (linear) resampling and keeps sig = E : eps exact on the grid.
    """
    times = np.linspace(0.0, grid.T, 2 * grid.n_elements + 1)
    res = newmark_quasi_newton(system, params, load, times, damage=False)
    eps, _ = resample_fields_to_gauss(grid, res)
    u = quad_resample_to_gauss(grid, res["u"])
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


def latin_error(sig, sig_hat, eps, eps_hat, mesh, grid):
    """Manifold distance xi of the global fields from the local-stage pair.

    Both gaps are normalized by the global-field norms; a vanishing global
    stress or strain signals a degenerate (all-zero) solution and is
    rejected rather than silently returning inf.
    """
    den_s = _st_norm2(mesh, grid, sig, "stress")
    den_e = _st_norm2(mesh, grid, eps, "strain")
    if den_s <= 0.0 or den_e <= 0.0:
        raise ValueError("global solution vanishes; manifold distance undefined")
    num_s = _st_norm2(mesh, grid, sig - sig_hat, "stress")
    num_e = _st_norm2(mesh, grid, eps - eps_hat, "strain")
    return float(np.sqrt(num_s / den_s + num_e / den_e))


class LatinState:
    """Driver state: global solution, last local fields, error and log.

    log rows are dicts with keys iteration, modes, xi, cre, seconds (since
    the start of the run); enrich_log keeps each enrichment's c_c /
    stagnation history.
    """

    def __init__(self, solution):
        self.solution = solution
        self.hat = None
        self.delta = None
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
              omega=RELAXATION, seed=0, enrich_zeta=1e-2, enrich_max_iter=5):
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
    state = LatinState(solution)

    n_t = grid.n_gauss
    prev = {"Z": np.zeros((mesh.n_gauss, n_t)), "z": np.zeros((mesh.n_gauss, n_t))}

    while True:
        state.iteration += 1
        _, eps, sig = solution.fields()
        local = local_stage(eps, prev["Z"], prev["z"], grid.all_gauss_times,
                            params, hooke)
        state.hat = local
        prev = {"Z": local["Z"], "z": local["z"]}

        # Distance of the current global iterate from the manifold.  When it
        # is already below the threshold (elastic loads: the constitutive
        # relation returns the elastic stress bit-for-bit and the distance is
        # exactly zero) the iteration ends without spending a mode.
        xi = latin_error(sig, local["sig"], eps, local["eps"], mesh, grid)
        if xi <= zeta_stop:
            state.xi = xi
            state.converged = True
            wall = time.perf_counter() - t0
            state.log.append({"iteration": state.iteration,
                              "modes": solution.n_modes, "xi": xi,
                              "cre": 0.0 if state.delta is None else
                              cre_functional(state.delta, mesh, grid, hooke),
                              "seconds": wall})
            return state

        delta = compute_delta(sig, local["sig"])
        state.delta = delta
        mode, info = enrich(delta, system, grid, hooke, rng,
                            zeta_stop=enrich_zeta, max_iter=enrich_max_iter)
        state.enrich_log.append(info)
        if mode is None:
            # Delta vanished identically although xi > threshold: strain and
            # stress gaps cannot both be zero here, so the run is degenerate.
            raise ValueError("stress gap vanished with xi = %g above the "
                             "threshold" % xi)
        solution.add_mode(relax_mode(mode, omega))

        _, eps, sig = solution.fields()
        xi = latin_error(sig, local["sig"], eps, local["eps"], mesh, grid)
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
