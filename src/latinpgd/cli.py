"""Command-line front end: configure, run, and dump the two solvers.

Subcommands
    run-latin    non-incremental solve; convergence log, damage series,
                 mode dump, optional VTK snapshots.
    run-newmark  incremental reference solve; same output layout.
    compare      both solvers back to back plus the space-time error metric.
    matpoint     single-material-point driver on a strain-signal CSV.
    modal        natural-frequency table of the configured mesh.
    calibrate    sweep the load amplitude until the reference solver peaks
                 at a target maximum damage.

Exit codes: 0 success / converged; 2 invalid input or configuration;
3 solver finished without reaching its convergence threshold (partial
outputs are still written).

Heavy imports happen inside the handlers, after --threads is applied, so
the thread pinning reaches the numerical libraries before they start any
worker pools.
"""

import argparse
import hashlib
import json
import os
import sys

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGED = 3

# Damping anchors of the bending-beam scenario: the published first and
# fourth natural frequencies (Hz).  Treated as scenario constants so every
# run of a preset family shares one damping operator.
RAYLEIGH_ANCHORS = (8.99, 45.8)

# `calibrate` expands the load scale for at most this many rows, and fails
# unless its closest row lies within this fraction of the target damage.
_CALIBRATE_ROWS = 12
_CALIBRATE_TOLERANCE = 0.1


# Thread-count variables of the numeric libraries, most specific first.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "OMP_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _pin_threads(n):
    if n < 0:
        raise ValueError("--threads must be >= 0, got %d" % n)
    if n == 0:
        return
    for name in _THREAD_VARS:
        os.environ[name] = str(n)


def _numeric_threads():
    """Threads the numeric libraries run with: the pinned count, else one per usable CPU."""
    for name in _THREAD_VARS:
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _peak_rss_mb():
    """Peak resident set size of this process so far, in MB (Linux reports kB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _load_config(args):
    from . import config as cfg

    base = cfg.preset(args.preset) if args.preset else None
    if args.config:
        conf = cfg.parse_config(args.config, base=base)
    elif base is not None:
        conf = base
    else:
        raise ValueError("provide --preset, --config, or both")
    if args.seed is not None:
        from dataclasses import replace
        conf = replace(conf, solver=replace(conf.solver, seed=args.seed))
    return conf


def _out_dir(args, conf):
    path = args.out_dir if args.out_dir else conf.output.directory
    os.makedirs(path, exist_ok=True)
    return path


def _build_problem(conf):
    """Mesh, spatial system, load, and grids from a configuration."""
    from .assembly import (SpatialSystem, assemble_mass, assemble_stiffness,
                           rayleigh_coeffs)

    mesh = conf.mesh.build()
    params = conf.material
    M = assemble_mass(mesh, params.rho)
    K = assemble_stiffness(mesh, params.hooke())
    C = None
    if conf.solver.damping and params.xi > 0.0:
        alpha, beta = rayleigh_coeffs(params.xi, *RAYLEIGH_ANCHORS)
        C = alpha * M + beta * K
    system = SpatialSystem(mesh, M, K, C)
    return mesh, params, system, conf.load.build()


def _config_manifest(conf, seed_used, subcommand, extra):
    import numpy
    import scipy

    from . import __version__
    from .config import canonical

    text = canonical(conf)
    body = {"config_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "seed": seed_used, "version": __version__,
            "subcommand": subcommand, "threads": _numeric_threads(),
            "numpy_version": numpy.__version__, "scipy_version": scipy.__version__,
            "peak_rss_mb": _peak_rss_mb()}
    body.update(extra)
    return body


def _write_manifest(path, body):
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_convergence_log(path, rows):
    with open(path, "w") as fh:
        fh.write("iteration,modes,xi,cre,seconds\n")
        for row in rows:
            fh.write("%d,%d,%.17g,%.17g,%.6f\n"
                     % (row["iteration"], row["modes"], row["xi"],
                        row["cre"], row["seconds"]))


def _write_damage_series(path, t, d):
    with open(path, "w") as fh:
        fh.write("t,d\n")
        for k in range(t.size):
            fh.write("%.17g,%.17g\n" % (t[k], d[k]))


def _stress_magnitude(sig):
    """Frobenius norm of engineering-Voigt stresses (..., 6)."""
    import numpy as np

    return np.sqrt((sig[..., :3] ** 2).sum(axis=-1)
                   + 2.0 * (sig[..., 3:] ** 2).sum(axis=-1))


def _write_field_vtk(mesh, path, u_nodal, d_gauss, sig_gauss):
    import numpy as np

    from .mesh import write_vtk

    n_el = mesh.n_elements
    point = {"u": u_nodal.reshape(-1, 3)}
    cell = {"damage": d_gauss.reshape(n_el, 8).mean(axis=1),
            "stress_mag": _stress_magnitude(sig_gauss).reshape(n_el, 8).mean(axis=1)}
    write_vtk(mesh, path, point_data=point, cell_data=cell)


def _snapshot_instants(conf):
    return conf.output.snapshots if conf.output.snapshots else (conf.load.T,)


def _run_latin(conf, out):
    import numpy as np

    from .latin import run_latin
    from .pgd import dump_modes

    mesh, params, system, load = _build_problem(conf)
    grid = conf.solver.build_grid(conf.load.T)
    state = run_latin(system, params, load, grid,
                      zeta_stop=conf.solver.xi_stop,
                      max_modes=conf.solver.max_modes,
                      omega=conf.solver.omega,
                      seed=conf.solver.seed,
                      enrich_zeta=conf.solver.zeta_stop)

    _write_convergence_log(os.path.join(out, "convergence_log.csv"), state.log)
    gp = state.monitored_point()
    _write_damage_series(os.path.join(out, "damage_monitored.csv"),
                         grid.all_gauss_times, state.damage[gp])
    mode_dir = os.path.join(out, "modes")
    os.makedirs(mode_dir, exist_ok=True)
    dump_modes(state.solution, mode_dir)
    _write_manifest(os.path.join(mode_dir, "manifest.json"),
                    {"seed": conf.solver.seed,
                     "modes": state.n_modes,
                     "c_c_history": [info["c_c"] for info in state.enrich_log],
                     "zeta_history": [info["zeta"] for info in state.enrich_log]})
    if conf.output.vtk:
        u, _, sig = state.solution.fields()
        for t_star in _snapshot_instants(conf):
            k = int(np.argmin(np.abs(grid.all_gauss_times - t_star)))
            _write_field_vtk(mesh, os.path.join(out, "field_t%g.vtk" % t_star),
                             u[:, k], state.damage[:, k], sig[:, k])
    return state, mesh, system, grid


def cmd_run_latin(args):
    conf = _load_config(args)
    out = _out_dir(args, conf)
    state, _, system, _ = _run_latin(conf, out)
    body = _config_manifest(conf, conf.solver.seed, "run-latin",
                            {"converged": state.converged,
                             "modes": state.n_modes, "xi": state.xi,
                             "monitored_gauss_point": state.monitored_point(),
                             "elastic_seconds": state.elastic_seconds,
                             "factorizations": system.n_factorizations})
    _write_manifest(os.path.join(out, "manifest.json"), body)
    return EXIT_OK if state.converged else EXIT_NONCONVERGED


def _run_newmark(conf, out):
    import numpy as np

    from .newmark import newmark_quasi_newton

    mesh, params, system, load = _build_problem(conf)
    times = conf.solver.newmark_times(conf.load.T)
    res = newmark_quasi_newton(system, params, load, times,
                               tol=conf.solver.newmark_tol)
    d_final = res["d"][:, -1]
    gp = int(d_final.argmax())
    _write_damage_series(os.path.join(out, "damage_monitored.csv"),
                         times, res["d"][gp])
    with open(os.path.join(out, "step_log.csv"), "w") as fh:
        fh.write("step,t,iterations,passes\n")
        for k, (n, p) in enumerate(zip(res["info"]["iterations"],
                                       res["info"]["passes"])):
            fh.write("%d,%.17g,%d,%d\n" % (k + 1, times[k + 1], n, p))
    if conf.output.vtk:
        for t_star in _snapshot_instants(conf):
            k = int(np.argmin(np.abs(times - t_star)))
            _write_field_vtk(mesh, os.path.join(out, "field_t%g.vtk" % t_star),
                             res["u"][:, k], res["d"][:, k], res["sig"][:, k])
    return res, mesh, system, times, gp


def cmd_run_newmark(args):
    conf = _load_config(args)
    out = _out_dir(args, conf)
    res, _, _, _, gp = _run_newmark(conf, out)
    info = res["info"]
    body = _config_manifest(conf, conf.solver.seed, "run-newmark",
                            {"monitored_gauss_point": gp,
                             "max_damage": float(res["d"][:, -1].max()),
                             "factorizations": info["factorizations"],
                             "corrections": int(info["iterations"].sum()),
                             "passes": int(info["passes"].sum())})
    _write_manifest(os.path.join(out, "manifest.json"), body)
    return EXIT_OK


def cmd_compare(args):
    conf = _load_config(args)
    out = _out_dir(args, conf)
    latin_dir = os.path.join(out, "latin")
    newmark_dir = os.path.join(out, "newmark")
    os.makedirs(latin_dir, exist_ok=True)
    os.makedirs(newmark_dir, exist_ok=True)

    from .newmark import compare_error, resample_fields_to_gauss

    state, _, _, grid = _run_latin(conf, latin_dir)
    res, _, _, _, _ = _run_newmark(conf, newmark_dir)
    ref_eps, ref_sig = resample_fields_to_gauss(grid, res)
    _, eps, sig = state.solution.fields()
    eps_pc = compare_error(ref_eps, ref_sig, eps, sig)
    d_latin = float(state.damage.max())
    d_ref = float(res["d"].max())
    gap = abs(d_latin - d_ref) / d_ref * 100.0 if d_ref > 0 else 0.0
    with open(os.path.join(out, "comparison.csv"), "w") as fh:
        fh.write("eps_percent,latin_modes,latin_xi,latin_converged,"
                 "d_latin,d_newmark,d_gap_percent\n")
        fh.write("%.17g,%d,%.17g,%d,%.17g,%.17g,%.17g\n"
                 % (eps_pc, state.n_modes, state.xi, int(state.converged),
                    d_latin, d_ref, gap))
    body = _config_manifest(conf, conf.solver.seed, "compare",
                            {"eps_percent": eps_pc, "converged": state.converged,
                             "modes": state.n_modes,
                             "d_latin": d_latin, "d_newmark": d_ref})
    _write_manifest(os.path.join(out, "manifest.json"), body)
    return EXIT_OK if state.converged else EXIT_NONCONVERGED


def cmd_matpoint(args):
    import numpy as np

    from .material import matpoint_drive, reference_concrete

    if args.preset or args.config:
        params = _load_config(args).material
    else:
        params = reference_concrete()
    raw = np.loadtxt(args.signal, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[1] != 2:
        raise ValueError("strain signal CSV must have two columns t,eps_x")
    times, eps_x = raw[:, 0], raw[:, 1]
    series = matpoint_drive(times, eps_x, params)
    out = args.out_dir if args.out_dir else "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "matpoint.csv")
    with open(path, "w") as fh:
        fh.write("t,eps_x,sig_x,d,dbar,Y\n")
        for k in range(times.size):
            fh.write("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"
                     % (times[k], eps_x[k], series["sig_x"][k],
                        series["d"][k], series["dbar"][k], series["Y"][k]))
    return EXIT_OK


def cmd_modal(args):
    from .assembly import modal_analysis

    conf = _load_config(args)
    out = _out_dir(args, conf)
    mesh, params, system, _ = _build_problem(conf)
    freqs, _ = modal_analysis(system.Mff, system.Kff, args.count)
    with open(os.path.join(out, "modal.csv"), "w") as fh:
        fh.write("mode,frequency_hz\n")
        for k, f in enumerate(freqs, start=1):
            fh.write("%d,%.17g\n" % (k, f))
    if conf.output.vtk:
        from .mesh import write_vtk
        write_vtk(mesh, os.path.join(out, "mesh.vtk"))
    body = _config_manifest(conf, conf.solver.seed, "modal",
                            {"frequencies_hz": [float(f) for f in freqs]})
    _write_manifest(os.path.join(out, "manifest.json"), body)
    return EXIT_OK


def cmd_calibrate(args):
    from .newmark import LoadCase, newmark_quasi_newton

    conf = _load_config(args)
    out = _out_dir(args, conf)
    target = args.target
    # The load amplitude enters only the load case: mesh, matrices and the
    # system's factorization serve every scale tried.
    _, params, system, load = _build_problem(conf)
    times = conf.solver.newmark_times(conf.load.T)

    def peak_damage(scale):
        scaled = LoadCase(load.amplitudes * scale, load.frequencies)
        res = newmark_quasi_newton(system, params, scaled, times,
                                   tol=conf.solver.newmark_tol)
        return float(res["d"].max())

    # Expand the scale by 1.4 per row until d_max crosses the target; the
    # last two rows are the bracket (lo, d_lo), (hi, d_hi) that is bisected.
    rows = [(1.0, peak_damage(1.0))]
    grow = rows[0][1] < target
    while (rows[-1][1] < target) == grow and len(rows) < _CALIBRATE_ROWS:
        scale = rows[-1][0] * 1.4 if grow else rows[-1][0] / 1.4
        rows.append((scale, peak_damage(scale)))
    straddled = (rows[-1][1] < target) != grow
    lo, hi = sorted(rows[-2:])
    for _ in range(args.bisections):
        mid = 0.5 * (lo[0] + hi[0])
        row = (mid, peak_damage(mid))
        rows.append(row)
        if row[1] < target:
            lo = row
        else:
            hi = row
    best = min(rows, key=lambda r: abs(r[1] - target))
    with open(os.path.join(out, "calibration.csv"), "w") as fh:
        fh.write("scale,amplitudes,d_max\n")
        for scale, dm in rows:
            amps = ";".join("%.17g" % (a * scale) for a in conf.load.amplitudes)
            fh.write("%.17g,%s,%.17g\n" % (scale, amps, dm))
    bracket = ("final bracket (lo, d_lo) = (%.6g, %.4f), (hi, d_hi) = (%.6g, %.4f)"
               % (lo + hi))
    if not straddled:
        missed = "the %d-row expansion never crossed it" % _CALIBRATE_ROWS
    elif abs(best[1] - target) > _CALIBRATE_TOLERANCE * target:
        missed = "no row came within %g%% of it" % (100.0 * _CALIBRATE_TOLERANCE)
    else:
        missed = None
    if missed:
        print("error: calibration missed the target d_max %.4f: %s; the closest "
              "row, scale %.6g, gives d_max=%.4f; %s"
              % (target, missed, best[0], best[1], bracket), file=sys.stderr)
        return EXIT_NONCONVERGED
    print("calibrated scale %.6g -> amplitudes %s (d_max=%.4f, target %.4f); %s"
          % (best[0],
             ", ".join("%.6g" % (a * best[0]) for a in conf.load.amplitudes),
             best[1], target, bracket))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="latinpgd",
        description="Non-incremental LATIN-PGD and incremental Newmark "
                    "solvers for quasi-brittle low-frequency dynamics.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="config file (overlays --preset if both)")
        p.add_argument("--preset",
                       help="scenario preset: elastic, mono_sine, multi_sine")
        p.add_argument("--out-dir", help="output directory (default from config)")
        p.add_argument("--seed", type=int, help="override the solver seed")
        p.add_argument("--threads", type=int, default=0,
                       help="worker threads for numerics (0 = auto, "
                            "1 = deterministic)")

    for name, func in (("run-latin", cmd_run_latin),
                       ("run-newmark", cmd_run_newmark),
                       ("compare", cmd_compare),
                       ("modal", cmd_modal),
                       ("calibrate", cmd_calibrate)):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=func)
        if name == "modal":
            p.add_argument("--count", type=int, default=5,
                           help="number of natural frequencies")
        if name == "calibrate":
            p.add_argument("--target", type=float, default=0.42,
                           help="target maximum damage")
            p.add_argument("--bisections", type=int, default=6,
                           help="bisection steps after bracketing")

    p = sub.add_parser("matpoint")
    common(p)
    p.add_argument("--signal", required=True,
                   help="strain-signal CSV with header t,eps_x")
    p.set_defaults(func=cmd_matpoint)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _pin_threads(args.threads)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
