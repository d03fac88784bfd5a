"""One benchmark workload run, in the process that imports this module.

A run makes the public calls of ``latinpgd compare`` in order: it builds the
configuration, mesh, matrices and `SpatialSystem` (phase ``setup``), solves
with `run_latin` (``latin``), solves the Newmark reference (``newmark``),
and resamples the reference and measures the gap between the two
(``compare``).  It then checks the outputs and returns one record.

Run as a script it prints that record as one JSON line; ``run.py`` starts it
in a fresh process with one numeric thread:

    python3 perfbench/workload.py --workload mono_budget --seed 0 --trace 0

Workloads
    mono_budget    preset ``mono_sine`` unchanged, LATIN stopped at a budget
                   of 3 modes: strong damage at the paper's discretisation,
                   3 modes on every seed.
    fine_elastic   preset ``elastic`` on a 32x4x4 mesh: no point damages, so
                   LATIN stops after one local stage with 0 modes; shows how
                   set-up, the elastic march and the local stage grow with
                   the number of DOFs.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time
from dataclasses import replace

import numpy as np
import scipy

from latinpgd import assembly, config, latin, mesh, newmark
from latinpgd.cli import RAYLEIGH_ANCHORS

from run import THREAD_VARS
from spans import Tracer

MONO_BUDGET_MODES = 3

# What each workload's outputs must show besides finite fields and a valid,
# non-decreasing damage: a spent mode budget, or an elastic answer.
EXPECT = {"mono_budget": "budget", "fine_elastic": "elastic"}


def make_config(name, seed):
    """Generated configuration of workload `name`; `seed` seeds enrichment."""
    if name == "mono_budget":
        conf = config.preset("mono_sine")
        conf = replace(conf, solver=replace(conf.solver, max_modes=MONO_BUDGET_MODES))
    elif name == "fine_elastic":
        conf = config.preset("elastic")
        conf = replace(conf, mesh=replace(conf.mesh, nx=32, ny=4, nz=4))
    else:
        raise ValueError("unknown workload %r; available: %s"
                         % (name, ", ".join(EXPECT)))
    return replace(conf, solver=replace(conf.solver, seed=seed))


def config_sha256(conf):
    return hashlib.sha256(config.canonical(conf).encode()).hexdigest()


def environment():
    """Library versions and thread settings of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "threads": {name: os.environ.get(name) for name in THREAD_VARS},
            "nproc": os.cpu_count()}


def build_problem(conf):
    """Mesh, matrices, spatial system, load and time grid, as the CLI builds them."""
    params = conf.material
    m = conf.mesh
    grid_mesh = mesh.generate_box_mesh(m.d1, m.d2, m.d3, m.nx, m.ny, m.nz)
    M = assembly.assemble_mass(grid_mesh, params.rho)
    K = assembly.assemble_stiffness(grid_mesh, params.hooke())
    C = None
    if conf.solver.damping and params.xi > 0.0:
        alpha, beta = assembly.rayleigh_coeffs(params.xi, *RAYLEIGH_ANCHORS)
        C = alpha * M + beta * K
    system = assembly.SpatialSystem(grid_mesh, M, K, C)
    return params, system, conf.load.build(), conf.solver.build_grid(conf.load.T)


def check_outputs(conf, expect, state, res, compare_pct):
    """Failed output checks of one run, as messages; empty when all hold."""
    u, eps, sig = state.solution.fields()
    fields = {"latin.u": u, "latin.eps": eps, "latin.sig": sig,
              "latin.sig_hat": state.hat["sig"], "latin.d": state.damage,
              "newmark.u": res["u"], "newmark.v": res["v"], "newmark.a": res["a"],
              "newmark.eps": res["eps"], "newmark.sig": res["sig"],
              "newmark.d": res["d"]}
    failures = ["%s has non-finite values" % name
                for name, field in fields.items() if not np.all(np.isfinite(field))]
    if not np.isfinite(compare_pct):
        failures.append("compare_error is not finite")
    for solver, d in (("latin", state.damage), ("newmark", res["d"])):
        if d.min() < 0.0 or d.max() > 1.0:
            failures.append("%s damage leaves [0, 1]: [%g, %g]"
                            % (solver, d.min(), d.max()))
        if np.any(np.diff(d, axis=1) < 0.0):
            failures.append("%s damage decreases in time" % solver)
    if expect == "elastic":
        if np.any(state.damage) or np.any(res["d"]):
            failures.append("elastic workload damaged")
        if not (state.converged and state.n_modes == 0 and state.xi == 0.0):
            failures.append("elastic LATIN run did not stop at 0 modes with xi = 0 "
                            "(converged=%s, modes=%d, xi=%g)"
                            % (state.converged, state.n_modes, state.xi))
    elif expect == "budget":
        if state.n_modes != conf.solver.max_modes:
            failures.append("LATIN stopped at %d modes, budget is %d"
                            % (state.n_modes, conf.solver.max_modes))
    else:
        raise ValueError("unknown expectation %r" % (expect,))
    return failures


def run_case(conf, expect, trace=False, start=None):
    """Run one workload configuration; return its metrics and failed checks.

    start : time.monotonic() at which the process was started; defaults to
        now, so set-up time then excludes the imports.
    trace : wrap the layers listed in spans.LAYERS and add their metrics.

    The reference runs on its own `SpatialSystem`, as ``latinpgd compare``
    builds a separate problem for it, so its factorizations do not depend
    on what LATIN left in the solve cache.
    """
    start = time.monotonic() if start is None else start
    tracer = Tracer()
    with tracer.installed() if trace else contextlib.nullcontext():
        with tracer.span("setup", start=start):
            params, system, load, grid = build_problem(conf)
        with tracer.span("latin"):
            state = latin.run_latin(system, params, load, grid,
                                    zeta_stop=conf.solver.xi_stop,
                                    max_modes=conf.solver.max_modes,
                                    omega=conf.solver.omega,
                                    seed=conf.solver.seed,
                                    enrich_zeta=conf.solver.zeta_stop)
            tracer.count("assembly.factorizations", system.n_factorizations)
        with tracer.span("newmark"):
            reference = assembly.SpatialSystem(system.mesh, system.M, system.K, system.C)
            res = newmark.newmark_quasi_newton(
                reference, params, load, conf.solver.newmark_times(conf.load.T),
                tol=conf.solver.newmark_tol)
            tracer.count("assembly.factorizations", reference.n_factorizations)
        with tracer.span("compare"):
            ref_eps, ref_sig = newmark.resample_fields_to_gauss(grid, res)
            _, eps, sig = state.solution.fields()
            compare_pct = float(newmark.compare_error(ref_eps, ref_sig, eps, sig))
    total_s = time.monotonic() - start

    walls = tracer.phase_walls()
    d_latin = float(state.damage.max())
    d_ref = float(res["d"].max())
    sweeps = sum(info["iterations"] for info in state.enrich_log)
    corrections = int(res["info"]["iterations"].sum())
    steps = int(res["info"]["iterations"].size)
    metrics = {
        "setup_s": walls["setup"], "latin_s": walls["latin"],
        "newmark_s": walls["newmark"], "total_s": total_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "compare_pct": compare_pct,
        "latin_modes": state.n_modes, "latin_xi": float(state.xi),
        "d_gap_pct": abs(d_latin - d_ref) / d_ref * 100.0 if d_ref > 0.0 else 0.0,
        "latin.iterations": state.iteration,
        "latin.field_mb": system.mesh.n_gauss * grid.n_gauss * 6 * 8 / 1e6,
        "latin.pgd.enrich_sweeps": sweeps,
        "latin.pgd.sweeps_per_mode": sweeps / state.n_modes if state.n_modes else 0.0,
        "newmark.steps": steps, "newmark.corrections": corrections,
        "newmark.corrections_per_step": corrections / steps,
    }
    if trace:
        layers = tracer.layer_metrics()
        layers["newmark.stagger_passes"] = layers.get(
            "newmark.material.integrate_delay_calls", 0)
        metrics.update(layers)
    return {"metrics": metrics,
            "failures": check_outputs(conf, expect, state, res, compare_pct),
            "config_sha256": config_sha256(conf)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXPECT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--start", type=float,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time only")
    args = parser.parse_args(argv)
    conf = make_config(args.workload, args.seed)
    start = time.monotonic() if args.start is None else args.start
    if args.setup_only:
        build_problem(conf)
        record = {"metrics": {"setup_s": time.monotonic() - start}, "failures": []}
    else:
        record = run_case(conf, EXPECT[args.workload], trace=bool(args.trace),
                          start=start)
        record["env"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
