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
                  mode_products, relax_mode, strain_norm)
from .tensors import STRESS_CONTRACTION
from .timegrid import quad_resample_blocks


def elastic_solution(system, params, load, grid):
    """Undamaged dynamic response sampled on the space-time Gauss grid.

    The marching reference integrates the linear problem on the step nodes
    `grid.step_times`, then its displacement history is carried onto
    the temporal Gauss points by the per-element quadratic fit
    (`quad_resample_blocks`, one component per DOF).  Returns a
    dict with u (n_dofs, n_gauss_t), eps and sig (n_gauss, n_gauss_t, 6).

    The strain is computed from the resampled displacement in one batched
    evaluation (the resampling is linear, so this equals the resampled
    strain of the march up to round-off) and the stress is E : eps, exact
    on the grid.
    """
    res = newmark_quasi_newton(system, params, load, grid.step_times, damage=False)
    u = quad_resample_blocks(grid, res["u"][:, :, None])[:, :, 0]
    eps = strain_at_gauss(system.mesh, u)
    return {"u": u, "eps": eps, "sig": params.hooke().apply(eps)}


def latin_error(gap2, norms, mesh, grid, mode=None, products=None):
    """Manifold distance xi of the global fields from the local-stage pair.

    gap2 is |Delta|^2 of the stress gap Delta = sig - sig_hat the last local
    stage left (`pgd.compute_delta`), and norms = (|sig|^2, |eps|^2) are the
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


class LatinState:
    """Driver state: global solution, last local fields, error and log.

    hat is the last local stage's result (keys sig and d).  Its sig may be
    the running global stress itself: the first local stage hands the
    elastic start's stress back when no sample can damage.  No constitutive
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
    from an exhausted budget.  A zeta_stop that is not positive or a
    max_modes below 1 (NaN for either) raises ValueError before any work.
    A ValueError or RuntimeError of the run, such as a non-finite xi after
    a mode or an operator that cannot be factorized, is raised again in
    its own family as "LATIN elastic start: <message>" or "LATIN
    iteration k (m modes): <message>", chained to the original.

    The driver carries no constitutive state between iterations: each local
    stage maps the current global strain alone.  After the elastic start no
    iteration allocates a space-time field: the running fields take each
    mode in place, and the local stage's stress and the stress gap Delta
    live in two held buffers.  Per iteration the space-time fields are
    swept, block by block, this many times:

    * the local stage reads eps once, writing sig_hat (it then gathers only
      the samples and rows where damage can happen).  Before any mode the
      running sig is the elastic start's E:eps, and the stage is handed it:
      it writes nothing then, and when no sample can damage sig_hat is sig
      itself;
    * one pass reads sig and sig_hat, writes Delta and forms |Delta|^2 and
      J(Delta) (`pgd.compute_delta`).  It is skipped when sig_hat is sig:
      Delta = 0, so xi and the CRE are exactly 0 and the run stops, the
      two held buffers never touched;
    * each enrichment sweep reads Delta twice;
    * adding the mode updates eps and sig in place and forms the squared
      global norms |sig|^2 and |eps|^2 in the same pass
      (`PgdSolution.add_mode`); they serve both the mode's xi and the next
      iteration's test before enrichment;
    * one more read of Delta gives the separated xi and CRE after the mode
      (`pgd.mode_products`).
    """
    # NaN fails both tests.
    if not zeta_stop > 0.0:
        raise ValueError("zeta_stop must be positive, got %r" % zeta_stop)
    if not max_modes >= 1:
        raise ValueError("max_modes must be at least 1, got %r" % max_modes)
    rng = np.random.default_rng(seed)
    hooke = params.hooke()
    mesh = system.mesh
    t0 = time.perf_counter()
    state = None

    def log(xi, cre):
        state.log.append({"iteration": state.iteration, "modes": solution.n_modes,
                          "xi": xi, "cre": cre, "seconds": time.perf_counter() - t0})

    try:
        el = elastic_solution(system, params, load, grid)
        solution = PgdSolution(grid, el["u"], el["eps"], el["sig"])
        state = LatinState(solution, time.perf_counter() - t0)

        # The running fields are updated in place, the local stage's stress
        # and the stress gap are rewritten into these two buffers: after the
        # elastic start no iteration allocates a space-time field.
        _, eps, sig = solution.fields()
        sig_hat = np.empty_like(sig)
        delta = np.empty_like(sig)
        norms = solution.norms(mesh)

        while True:
            state.iteration += 1
            # Before any mode, sig is the elastic start's E:eps, bit for bit.
            state.hat = local_stage(eps, grid.all_gauss_times, params, hooke,
                                    out=sig_hat,
                                    elastic=sig if solution.n_modes == 0 else None)

            # Distance of the current global iterate from the manifold.  When it
            # is already below the threshold the iteration ends without spending
            # a mode.  Under elastic loads the local stage hands sig back as
            # sig_hat, so Delta = 0 and xi and the CRE are exactly zero without
            # forming it; otherwise the pass that forms |Delta|^2 also gives the
            # CRE of the gap, 0 when xi is.
            if state.hat["sig"] is sig:
                gap2 = cre = 0.0
            else:
                _, gap2, cre = compute_delta(sig, sig_hat, mesh, grid, hooke,
                                             out=delta)
            xi = latin_error(gap2, norms, mesh, grid)
            if xi <= zeta_stop:
                state.xi = xi
                state.converged = True
                log(xi, cre)
                return state

            mode, info = enrich(delta, system, grid, hooke, rng, zeta_stop=enrich_zeta)
            state.enrich_log.append(info)
            mode = relax_mode(mode, omega)
            # The new global norms, formed as the mode is added, serve this test
            # and the next iteration's; the gaps after the mode separate into one
            # product of Delta.
            norms = solution.add_mode(mode, mesh)
            products = mode_products(delta, mode, mesh, hooke)
            xi = latin_error(gap2, norms, mesh, grid, mode, products)
            if not np.isfinite(xi):
                raise ValueError("non-finite manifold distance xi = %g after the "
                                 "mode" % xi)
            state.xi = xi
            log(xi, cre_functional(cre, products, mode, mesh, grid, hooke))
            if xi <= zeta_stop:
                state.converged = True
                return state
            if solution.n_modes >= max_modes:
                state.converged = False
                return state
    except (ValueError, RuntimeError) as exc:
        stage = ("LATIN elastic start" if state is None else
                 "LATIN iteration %d (%d modes)" % (state.iteration, state.n_modes))
        family = ValueError if isinstance(exc, ValueError) else RuntimeError
        raise family("%s: %s" % (stage, exc)) from exc
