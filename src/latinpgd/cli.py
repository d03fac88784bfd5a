"""Command-line front end: configure, run, and dump the two solvers.

Each subcommand writes into its output directory.  Every table is a CSV
with one header line, floats in %.17g and counts as integers.

run-latin    non-incremental solve.
    convergence_log.csv       iteration,modes,xi,cre,seconds (%.6f since start)
    damage_monitored.csv      t,d of the Gauss point whose damage history peaks
    modes/mode_###_space.csv  node,ux,uy,uz
    modes/mode_###_time.csv   element,local_node,t,lam,mu at the time nodes
    field_t<t>.vtk            vtk = on: nodal u, element damage and stress_mag
    manifest.json             config hash, seed, versions, threads, work done
run-newmark  incremental reference solve.
    step_log.csv              step,t,iterations,passes
    damage_monitored.csv, field_t<t>.vtk, manifest.json  as for run-latin
compare      both solvers back to back plus the space-time error metric.
    latin/, newmark/          the two runs' files, without their manifests
    comparison.csv            eps_percent,latin_modes,latin_xi,latin_converged,
                              d_latin,d_newmark,d_gap_percent
    manifest.json
matpoint     single-material-point driver on a strain-signal CSV.
    matpoint.csv              t,eps_x,sig_x,d,dbar,Y (default directory: .)
modal        natural-frequency table of the configured mesh.
    modal.csv                 mode,frequency_hz
    mesh.vtk, manifest.json   the bare mesh with vtk = on
calibrate    sweep the load amplitude until the reference solver peaks at a
             target maximum damage.
    calibration.csv           scale,amplitudes,d_max (amplitudes ';'-separated)
    manifest.json             also the target, the rows marched, the closest
                              row and whether it met the target
             A run that cannot go on exits 2 after writing the rows before
             it, with failed_scale and error in the manifest.

Exit codes: 0 success / converged; 2 invalid input or configuration, or
a solve that cannot go on (an equilibrium loop or damage stagger that
fails at a named step, an operator that is not positive definite or
is singular);
3 solver finished without reaching its convergence threshold (partial
outputs are still written).

Each command but matpoint composes one run path with its writers.  It
starts in `_setup`, which reads the configuration and builds the problem
(`_build_problem`).  It solves with `_solve_latin` and / or
`_solve_newmark`, and `compare` measures the gap in `_compare`; these
write no file.  The writers (`_write_latin`, `_write_newmark`, the tables)
then dump the results, and every command but matpoint ends in
`_write_manifest`.  matpoint keeps no manifest: it can run with no
configuration to hash.

A command's directory appears with its first file: `_write_table` makes
the directory of the table it writes, and every command writes a table
before any manifest or VTK file.  A command that fails before writing
(an input the configuration or the mesh rejects, a solve that cannot go
on) leaves no directory.  A LATIN run without modes has no modes/.

The numeric libraries take their thread count from the environment
variables of `_THREAD_VARS` (OPENBLAS_NUM_THREADS, MKL_NUM_THREADS,
VECLIB_MAXIMUM_THREADS, OMP_NUM_THREADS, NUMEXPR_NUM_THREADS), read when
numpy first loads; `OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 latinpgd ...`
runs deterministically on one thread.  The manifest records the count.
"""

import argparse
import hashlib
import json
import os
import resource
import sys

import numpy as np
import scipy

from . import __version__, assembly, config, latin, material, newmark
from .tensors import STRESS_CONTRACTION

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


def _numeric_threads():
    """Threads the numeric libraries run with: the count the environment
    sets, else one per usable CPU."""
    for name in _THREAD_VARS:
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _peak_rss_mb():
    """Peak resident set size of this process so far, in MB (Linux reports kB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _load_config(args):
    if not (args.preset or args.config):
        raise ValueError("provide --preset, --config, or both")
    base = config.preset(args.preset) if args.preset else None
    return config.parse_config(args.config, base=base) if args.config else base


def _setup(args):
    """(conf, out, problem) of a command: the configuration, the path of its
    output directory and the problem of `_build_problem`.  It makes no
    directory: the first table written does (`_write_table`)."""
    conf = _load_config(args)
    out = args.out_dir if args.out_dir else conf.output.directory
    return conf, out, _build_problem(conf)


def _build_problem(conf):
    """(params, system, load, grid) of a configuration; the mesh is system.mesh."""
    mesh = conf.mesh.build()
    params = conf.material
    M = assembly.assemble_mass(mesh, params.rho)
    K = assembly.assemble_stiffness(mesh, params.hooke())
    C = None
    if conf.solver.damping and params.xi > 0.0:
        alpha, beta = assembly.rayleigh_coeffs(params.xi, *RAYLEIGH_ANCHORS)
        C = alpha * M + beta * K
    system = assembly.SpatialSystem(mesh, M, K, C)
    return params, system, conf.load.build(), conf.solver.build_grid(conf.load.T)


def _write_manifest(out, conf, subcommand, extra):
    """manifest.json: config hash, seed, versions, threads, peak RSS, `extra`."""
    body = {"config_sha256": hashlib.sha256(config.canonical(conf).encode()).hexdigest(),
            "seed": conf.solver.seed, "version": __version__,
            "subcommand": subcommand, "threads": _numeric_threads(),
            "numpy_version": np.__version__, "scipy_version": scipy.__version__,
            "peak_rss_mb": _peak_rss_mb(), **extra}
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(path, header, fmt, columns):
    """Write equal-length columns under `header` to a file name or open file.

    `fmt` formats a row, one %-field per column ("%d,%.17g"); a single field
    repeats over every column, space-separated.  A file name's directory is
    made first if it is missing: this is where every command's output
    directory comes into being.
    """
    if not hasattr(path, "write"):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    np.savetxt(path, np.column_stack(columns), fmt=fmt, header=header, comments="")


def _write_damage_series(out, times, d):
    """Write damage_monitored.csv for the monitored point of either solver,
    the row of d (n_gauss, n_t) whose damage history peaks; return its index."""
    gp = int(d.max(axis=1).argmax())
    _write_table(os.path.join(out, "damage_monitored.csv"), "t,d", "%.17g,%.17g",
                 [times, d[gp]])
    return gp


def _write_vtk(mesh, path, point_data=None, cell_data=None, t=None):
    """Dump the mesh as a legacy ASCII VTK unstructured grid (cell type 12).

    point_data / cell_data: dicts mapping names to scalar arrays (n_nodes,) /
    (n_elements,) or vector arrays (n_nodes, 3).  t: the time they hold.
    """
    n_el = mesh.n_elements
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 2.0\nhexahedral box mesh%s\nASCII\nDATASET "
                 "UNSTRUCTURED_GRID\n" % ("" if t is None else " at t = %.17g s" % t))
        _write_table(fh, "POINTS %d double" % mesh.n_nodes, "%.17g", mesh.nodes.T)
        _write_table(fh, "CELLS %d %d" % (n_el, 9 * n_el), "%d",
                     [np.full(n_el, 8), *mesh.conn.T])
        _write_table(fh, "CELL_TYPES %d" % n_el, "%d", [np.full(n_el, 12)])
        for tag, n, data in (("POINT_DATA", mesh.n_nodes, point_data),
                             ("CELL_DATA", n_el, cell_data)):
            if not data:
                continue
            fh.write("%s %d\n" % (tag, n))
            for name, arr in data.items():
                arr = np.asarray(arr, dtype=float)
                if arr.shape == (n, 3):
                    _write_table(fh, "VECTORS %s double" % name, "%.17g", arr.T)
                elif arr.shape == (n,):
                    _write_table(fh, "SCALARS %s double 1\nLOOKUP_TABLE default" % name,
                                 "%.17g", [arr])
                else:
                    raise ValueError("field %r has shape %s, expected (%d,) "
                                     "or (%d, 3)" % (name, arr.shape, n, n))


def _dump_modes(solution, directory):
    """Write per-mode CSV pairs (spatial nodal vector; temporal nodal values).

    Returns the list of file paths written (mode_###_space.csv with columns
    node,ux,uy,uz and mode_###_time.csv with element,local_node,t,lam,mu).
    """
    g = solution.grid
    element = np.repeat(np.arange(g.n_elements), 4)
    local_node = np.tile(np.arange(4), g.n_elements)
    paths = []
    for i, mode in enumerate(solution.modes):
        spath = os.path.join(directory, "mode_%03d_space.csv" % i)
        u3 = mode.u_bar.reshape(-1, 3)
        _write_table(spath, "node,ux,uy,uz", "%d,%.17g,%.17g,%.17g",
                     [np.arange(u3.shape[0]), *u3.T])
        tpath = os.path.join(directory, "mode_%03d_time.csv" % i)
        _write_table(tpath, "element,local_node,t,lam,mu", "%d,%d,%.17g,%.17g,%.17g",
                     [element, local_node, g.node_times.ravel(),
                      mode.lam.coeffs.ravel(), mode.mu.coeffs.ravel()])
        paths.extend([spath, tpath])
    return paths


def _write_snapshots(conf, out, mesh, times, u, d, sig):
    """VTK fields at the configured instants (default: the end of the load).

    Each instant takes the nearest sample of `times`, the last axis of the
    nodal u and of the Gauss-point d and sig, whose time the title states;
    damage and the stress magnitude (Frobenius norm) are averaged over each
    element's Gauss points.
    """
    if not conf.output.vtk:
        return
    n_el = mesh.n_elements
    for t_star in conf.output.snapshots or (conf.load.T,):
        k = int(np.argmin(np.abs(times - t_star)))
        point = {"u": u[:, k].reshape(-1, 3)}
        mag = np.sqrt(sig[:, k] ** 2 @ STRESS_CONTRACTION)
        cell = {"damage": d[:, k].reshape(n_el, 8).mean(axis=1),
                "stress_mag": mag.reshape(n_el, 8).mean(axis=1)}
        _write_vtk(mesh, os.path.join(out, "field_t%g.vtk" % t_star),
                   point_data=point, cell_data=cell, t=times[k])


def _solve_latin(conf, params, system, load, grid):
    """The LATIN-PGD solve of a configuration; writes nothing."""
    return latin.run_latin(system, params, load, grid,
                           zeta_stop=conf.solver.xi_stop,
                           max_modes=conf.solver.max_modes,
                           omega=conf.solver.omega,
                           seed=conf.solver.seed,
                           enrich_zeta=conf.solver.zeta_stop)


def _solve_newmark(conf, params, system, load):
    """The Newmark reference march of a configuration; writes nothing."""
    return newmark.newmark_quasi_newton(system, params, load,
                                        conf.solver.newmark_times(conf.load.T),
                                        tol=conf.solver.newmark_tol)


def _compare(grid, state, res):
    """The comparison row of a LATIN state and a reference run, by column.

    d_gap_percent is the gap of the peak damages relative to the
    reference's; against an undamaged reference it is 0 when LATIN does
    not damage either, and inf when it does.
    """
    ref_eps, ref_sig = newmark.resample_fields_to_gauss(grid, res)
    _, eps, sig = state.solution.fields()
    d_latin = float(state.damage.max())
    d_ref = float(res["d"].max())
    if d_ref > 0.0:
        d_gap = abs(d_latin - d_ref) / d_ref * 100.0
    else:
        d_gap = 0.0 if d_latin == 0.0 else np.inf
    return {"eps_percent": newmark.compare_error(ref_eps, ref_sig, eps, sig),
            "latin_modes": state.n_modes, "latin_xi": state.xi,
            "latin_converged": int(state.converged),
            "d_latin": d_latin, "d_newmark": d_ref, "d_gap_percent": d_gap}


def _write_latin(conf, out, mesh, state):
    """A LATIN run's tables, modes and snapshots; returns the monitored point."""
    grid = state.solution.grid
    keys = ("iteration", "modes", "xi", "cre", "seconds")
    _write_table(os.path.join(out, "convergence_log.csv"), ",".join(keys),
                 "%d,%d,%.17g,%.17g,%.6f", [[row[k] for row in state.log] for k in keys])
    gp = _write_damage_series(out, grid.all_gauss_times, state.damage)
    _dump_modes(state.solution, os.path.join(out, "modes"))
    u, _, sig = state.solution.fields()
    _write_snapshots(conf, out, mesh, grid.all_gauss_times, u, state.damage, sig)
    return gp


def _write_newmark(conf, out, mesh, res):
    """A reference run's step log and snapshots; returns the monitored point."""
    times = res["times"]
    gp = _write_damage_series(out, times, res["d"])
    info = res["info"]
    _write_table(os.path.join(out, "step_log.csv"), "step,t,iterations,passes",
                 "%d,%.17g,%d,%d",
                 [range(1, times.size), times[1:], info["iterations"], info["passes"]])
    _write_snapshots(conf, out, mesh, times, res["u"], res["d"], res["sig"])
    return gp


def _latin_work(state, system):
    """Manifest keys of the work of a LATIN run: its factorizations, and
    each enrichment's c_c and stagnation history, one entry per sweep."""
    return {"factorizations": system.n_factorizations,
            "c_c_history": [info["c_c"] for info in state.enrich_log],
            "zeta_history": [info["zeta"] for info in state.enrich_log]}


def _newmark_work(info):
    """Manifest keys of the work of a Newmark march: totals of its step log,
    and its quiet steps, those that started undamaged and set no target."""
    return {"factorizations": info["factorizations"],
            "corrections": int(info["iterations"].sum()),
            "passes": int(info["passes"].sum()),
            "undamaged_steps": info["undamaged_steps"]}


def cmd_run_latin(args):
    conf, out, (params, system, load, grid) = _setup(args)
    state = _solve_latin(conf, params, system, load, grid)
    gp = _write_latin(conf, out, system.mesh, state)
    _write_manifest(out, conf, "run-latin",
                    {"converged": state.converged,
                     "modes": state.n_modes, "xi": state.xi,
                     "monitored_gauss_point": gp,
                     "elastic_seconds": state.elastic_seconds,
                     **_latin_work(state, system)})
    return EXIT_OK if state.converged else EXIT_NONCONVERGED


def cmd_run_newmark(args):
    conf, out, (params, system, load, _) = _setup(args)
    res = _solve_newmark(conf, params, system, load)
    gp = _write_newmark(conf, out, system.mesh, res)
    _write_manifest(out, conf, "run-newmark",
                    {"monitored_gauss_point": gp,
                     "max_damage": float(res["d"].max()),
                     **_newmark_work(res["info"])})
    return EXIT_OK


def cmd_compare(args):
    # One mesh and one set of matrices; the reference gets its own system,
    # so each solver's factorizations are its own.
    conf, out, (params, system, load, grid) = _setup(args)
    state = _solve_latin(conf, params, system, load, grid)
    _write_latin(conf, os.path.join(out, "latin"), system.mesh, state)
    reference = assembly.SpatialSystem(system.mesh, system.M, system.K, system.C)
    res = _solve_newmark(conf, params, reference, load)
    _write_newmark(conf, os.path.join(out, "newmark"), system.mesh, res)
    row = _compare(grid, state, res)
    _write_table(os.path.join(out, "comparison.csv"), ",".join(row),
                 "%.17g,%d,%.17g,%d,%.17g,%.17g,%.17g", list(row.values()))
    _write_manifest(out, conf, "compare",
                    {"eps_percent": row["eps_percent"], "converged": state.converged,
                     "modes": state.n_modes,
                     "d_latin": row["d_latin"], "d_newmark": row["d_newmark"],
                     "latin": _latin_work(state, system),
                     "newmark": _newmark_work(res["info"])})
    return EXIT_OK if state.converged else EXIT_NONCONVERGED


def cmd_matpoint(args):
    if args.preset or args.config:
        params = _load_config(args).material
    else:
        params = material.reference_concrete()
    raw = np.loadtxt(args.signal, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[1] != 2:
        raise ValueError("strain signal CSV must have two columns t,eps_x")
    times, eps_x = raw[:, 0], raw[:, 1]
    series = material.matpoint_drive(times, eps_x, params)
    _write_table(os.path.join(args.out_dir or ".", "matpoint.csv"),
                 "t,eps_x,sig_x,d,dbar,Y", ",".join(["%.17g"] * 6),
                 [times, eps_x, series["sig_x"], series["d"], series["dbar"], series["Y"]])
    return EXIT_OK


def cmd_modal(args):
    if args.count < 1:
        raise ValueError("--count must be >= 1, got %d" % args.count)
    conf, out, (_, system, _, _) = _setup(args)
    freqs, _ = assembly.modal_analysis(system.Mff, system.Kff, args.count)
    _write_table(os.path.join(out, "modal.csv"), "mode,frequency_hz", "%d,%.17g",
                 [range(1, freqs.size + 1), freqs])
    if conf.output.vtk:
        _write_vtk(system.mesh, os.path.join(out, "mesh.vtk"))
    _write_manifest(out, conf, "modal", {"frequencies_hz": [float(f) for f in freqs]})
    return EXIT_OK


def cmd_calibrate(args):
    target = args.target
    # A peak damage lies in [0, 1); 0 is no target.  NaN fails the test too.
    if not 0.0 < target < 1.0:
        raise ValueError("--target must be a damage in (0, 1), got %r" % target)
    if args.bisections < 0:
        raise ValueError("--bisections must be >= 0, got %d" % args.bisections)
    # The load amplitude enters only the load case: mesh, matrices and the
    # system's factorization serve every scale tried.
    conf, out, (params, system, load, _) = _setup(args)
    rows = []

    def gap(row):
        return abs(row[1] - target)

    def write(best, extra):
        """calibration.csv of the rows marched, and the manifest."""
        scales, peaks = zip(*rows)
        _write_table(os.path.join(out, "calibration.csv"), "scale,amplitudes,d_max",
                     "%.17g," + ";".join(["%.17g"] * load.amplitudes.size) + ",%.17g",
                     [scales, *np.outer(load.amplitudes, scales), peaks])
        _write_manifest(out, conf, "calibrate",
                        {"target": target, "bisections": args.bisections,
                         "rows": len(rows), "scale": best[0],
                         "amplitudes": (load.amplitudes * best[0]).tolist(),
                         "d_max": best[1], **extra})

    def march(scale):
        """Append and return the row (scale, d_max) of a reference run."""
        scaled = newmark.LoadCase(load.amplitudes * scale, load.frequencies)
        try:
            res = _solve_newmark(conf, params, system, scaled)
        except (ValueError, RuntimeError) as exc:
            if rows:
                write(min(rows, key=gap),
                      {"met": False, "failed_scale": scale, "error": str(exc)})
            raise
        rows.append((scale, float(res["d"].max())))
        return rows[-1]

    # Expand the scale by 1.4 per row until d_max crosses the target; the
    # last two rows are the bracket (lo, d_lo), (hi, d_hi) that is bisected.
    grow = march(1.0)[1] < target
    while (rows[-1][1] < target) == grow and len(rows) < _CALIBRATE_ROWS:
        march(rows[-1][0] * 1.4 if grow else rows[-1][0] / 1.4)
    straddled = (rows[-1][1] < target) != grow
    lo, hi = sorted(rows[-2:])
    for _ in range(args.bisections):
        row = march(0.5 * (lo[0] + hi[0]))
        if row[1] < target:
            lo = row
        else:
            hi = row
    best = min(rows, key=gap)
    bracket = ("final bracket (lo, d_lo) = (%.6g, %.4f), (hi, d_hi) = (%.6g, %.4f)"
               % (lo + hi))
    if not straddled:
        missed = "the %d-row expansion never crossed it" % _CALIBRATE_ROWS
    elif gap(best) > _CALIBRATE_TOLERANCE * target:
        missed = "no row came within %g%% of it" % (100.0 * _CALIBRATE_TOLERANCE)
    else:
        missed = None
    write(best, {"met": missed is None})
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
                           help="target maximum damage, in (0, 1)")
            p.add_argument("--bisections", type=int, default=6,
                           help="bisection steps after bracketing (>= 0)")

    p = sub.add_parser("matpoint")
    common(p)
    p.add_argument("--signal", required=True,
                   help="strain-signal CSV with header t,eps_x")
    p.set_defaults(func=cmd_matpoint)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
