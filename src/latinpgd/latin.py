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
                  gap_norms, mode_products, relax_mode, strain_norm)
from .tensors import STRAIN_CONTRACTION, STRESS_CONTRACTION
from .timegrid import quad_resample_to_gauss, spatial_blocks


def elastic_solution(system, params, load, grid):
    """Undamaged dynamic response sampled on the space-time Gauss grid.

    The marching reference integrates the linear problem on the step nodes
    `grid.step_times`, then its displacement history is carried onto
    the temporal Gauss points by the per-element quadratic fit.  Returns a
    dict with u (n_dofs, n_gauss_t), eps and sig (n_gauss, n_gauss_t, 6).

    The strain is computed from the resampled displacement in one batched
    evaluation (the resampling is linear, so this equals the resampled
    strain of the march up to round-off) and the stress is E : eps, exact
    on the grid.
    """
    res = newmark_quasi_newton(system, params, load, grid.step_times, damage=False)
    u = quad_resample_to_gauss(grid, res["u"])
    eps = strain_at_gauss(system.mesh, u)
    return {"u": u, "eps": eps, "sig": params.hooke().apply(eps)}


def _st_norm2(mesh, grid, field, c):
    """Squared space-time L2 norm of a Voigt field (n_gauss, n_t, 6).

    c is the Voigt contraction of the field's flavor (`STRESS_CONTRACTION`
    counts shear components twice, `STRAIN_CONTRACTION` halves engineering
    shears twice); the contraction is integrated with the spatial and
    temporal quadrature weights, reading the field once, block by block.
    """
    wg = mesh.gp_weights.ravel()
    wt = grid.all_gauss_weights
    total = 0.0
    for s in spatial_blocks(field):
        block = field[s]
        total += wg[s] @ ((wt @ (block * block)) @ c)
    return float(total)


def latin_error(gap2, norms, mesh, grid, mode=None, products=None):
    """Manifold distance xi of the global fields from the local-stage pair.

    gap2 is |Delta|^2 of the stress gap Delta = sig - sig_hat the last local
    stage left (`pgd.gap_norms`), and norms = (|sig|^2, |eps|^2) are the
    squared norms of the current global fields, which the driver keeps from
    one change of the fields to the next.  The local stage takes
    eps_hat = eps, so the strain gap is exactly zero for the fields the local
    stage ran on (mode None).

    After `mode` has been added to the global fields, the gaps separate and
    no field is read here: the stress gap is Delta + sig_bar mu, with

        |Delta + sig_bar mu|^2 = |Delta|^2 + 2 <mu, P_c> + |sig_bar|^2_Omega <mu, mu>_I,

    P_c being the first row of `pgd.mode_products` of the same Delta
    (`products`), and the strain gap is the mode's eps_bar lam, with
    |eps_bar|^2_Omega <lam, lam>_I.  Both gaps are normalized by the global
    norms; a vanishing global stress or strain signals a degenerate
    (all-zero) solution and is rejected rather than silently returning inf.
    """
    den_s, den_e = norms
    if den_s <= 0.0 or den_e <= 0.0:
        raise ValueError("global solution vanishes; manifold distance undefined")
    num_s, num_e = gap2, 0.0
    if mode is not None:
        lv = mode.lam.values_at_gauss()
        mv = mode.mu.values_at_gauss()
        sig2 = mesh.gp_weights.ravel() @ (mode.sig_bar ** 2 @ STRESS_CONTRACTION)
        # The sum is a norm; round-off alone could take it below zero.
        num_s = max(gap2 + 2.0 * grid.inner(mv, products[0])
                    + sig2 * grid.inner(mv, mv), 0.0)
        num_e = strain_norm(mode.eps_bar, mesh) ** 2 * grid.inner(lv, lv)
    return float(np.sqrt(num_s / den_s + num_e / den_e))


def _global_norms(mesh, grid, eps, sig):
    """(|sig|^2, |eps|^2) of the global fields: the denominators of xi."""
    return (_st_norm2(mesh, grid, sig, STRESS_CONTRACTION),
            _st_norm2(mesh, grid, eps, STRAIN_CONTRACTION))


class LatinState:
    """Driver state: global solution, last local fields, error and log.

    hat is the last local stage's result (keys sig and d).  No constitutive
    state passes from one iteration to the next: the local stage is a pure
    map of the global strain.  Log rows are dicts with keys iteration,
    modes, xi, cre, seconds (since the start of the run); enrich_log keeps
    each enrichment's c_c / stagnation history; elastic_seconds is the time
    the elastic start took.
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


def run_latin(system, params, load, grid, *, zeta_stop, max_modes, omega, seed,
              enrich_zeta):
    """Alternate local and global stages from the elastic initialization.

    The controls have no defaults here: `config.SolverConfig` holds them.

    zeta_stop : manifold-distance threshold (fraction; 5e-4 is 0.05%).
    max_modes : enrichment budget; exhausting it flags the state
        non-converged instead of raising.
    omega : relaxation applied to each new mode's time functions.
    seed : seeds the random time-function initialization of every
        enrichment, making the run reproducible.
    enrich_zeta : stagnation threshold of each enrichment's fixed point.

    Returns a LatinState; `state.converged` distinguishes a met threshold
    from an exhausted budget.

    The driver carries no constitutive state between iterations: each local
    stage maps the current global strain alone.  After the elastic start no
    iteration allocates a space-time field: the running fields take each
    mode in place, and the local stage's stress and the stress gap Delta
    live in two held buffers.  An iteration reads Delta once for |Delta|^2
    and J(Delta) (`pgd.gap_norms`), twice per enrichment sweep, and once
    after the mode for the separated xi and CRE (`pgd.mode_products`).  The
    squared global norms |sig|^2 and |eps|^2 are formed once per change of
    the global fields: after a mode they serve both its xi and the next
    iteration's test before enrichment.
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

    # The running fields are updated in place, the local stage's stress and
    # the stress gap are rewritten into these two buffers: after the elastic
    # start no iteration allocates a space-time field.
    _, eps, sig = solution.fields()
    sig_hat = np.empty_like(sig)
    delta = np.empty_like(sig)
    norms = _global_norms(mesh, grid, eps, sig)

    while True:
        state.iteration += 1
        state.hat = local_stage(eps, grid.all_gauss_times, params, hooke,
                                out=sig_hat)

        # Distance of the current global iterate from the manifold.  When it
        # is already below the threshold (elastic loads: the constitutive
        # relation returns the elastic stress bit-for-bit and the distance is
        # exactly zero) the iteration ends without spending a mode.  The pass
        # that forms |Delta|^2 also gives the CRE of the gap, 0 when xi is.
        compute_delta(sig, sig_hat, out=delta)
        gap2, cre = gap_norms(delta, mesh, grid, hooke)
        xi = latin_error(gap2, norms, mesh, grid)
        if xi <= zeta_stop:
            state.xi = xi
            state.converged = True
            wall = time.perf_counter() - t0
            state.log.append({"iteration": state.iteration,
                              "modes": solution.n_modes, "xi": xi,
                              "cre": cre, "seconds": wall})
            return state

        mode, info = enrich(delta, system, grid, hooke, rng, zeta_stop=enrich_zeta)
        state.enrich_log.append(info)
        if mode is None:
            # Delta vanished identically although xi > threshold: strain and
            # stress gaps cannot both be zero here, so the run is degenerate.
            raise ValueError("stress gap vanished with xi = %g above the "
                             "threshold" % xi)
        mode = relax_mode(mode, omega)
        solution.add_mode(mode)

        # The new global norms serve this test and the next iteration's; the
        # gaps after the mode separate into one product of Delta.
        norms = _global_norms(mesh, grid, eps, sig)
        products = mode_products(delta, mode, mesh, hooke)
        xi = latin_error(gap2, norms, mesh, grid, mode, products)
        state.xi = xi
        wall = time.perf_counter() - t0
        state.log.append({"iteration": state.iteration,
                          "modes": solution.n_modes, "xi": xi,
                          "cre": cre_functional(cre, products, mode, mesh, grid,
                                                hooke),
                          "seconds": wall})
        if xi <= zeta_stop:
            state.converged = True
            return state
        if solution.n_modes >= max_modes:
            state.converged = False
            return state
