"""Benchmark runner for the LATIN-PGD solver and its Newmark reference.

    python3 perfbench/run.py --workload mono_budget --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  Every workload run is a fresh Python
process (``workload.py``) with the numeric thread pools pinned to one
thread and the checkout's ``src`` first on the import path.

--trace 0  starts SETUP_PROBES processes that stop after set-up, then runs
           the workload until --seconds have passed (at least once), and
           reports every end-to-end metric of BENCHMARK.json: for the
           solve times the fastest workload process, for ``setup_s`` the
           median over the probes and the workload processes, otherwise
           the median over the workload processes.
--trace 1  runs the workload the same way with every layer of
           ``spans.LAYERS`` wrapped, and reports every per-layer metric.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  One attempt is one workload
process; it fails when it raises, times out or fails an output check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PHASES = ("setup", "latin", "newmark", "compare")
SETUP_PROBES = 4
# Solve times are reported as the fastest workload process of the run, not
# the median: other work on a shared host only ever adds time, and it comes
# in spells of several seconds that slow a whole phase by up to 1.7x.
FASTEST = ("latin_s", "total_s")
# Whole-run limit: no workload process starts or keeps running past it.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError("missing %s" % path)
    return json.loads(path.read_text())


def child_env():
    src = ROOT / "src"
    if not (src / "latinpgd" / "__init__.py").is_file():
        raise BenchError("no program source under %s" % src)
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def start_child(env, workload, seed, trace, timeout, setup_only=False):
    """Run one workload process; return (record, seconds) or (None, seconds).

    A process that exits non-zero or outlives `timeout` gives no record;
    its standard error goes to ours.
    """
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--start", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    began = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print("workload process timed out after %.0f s" % timeout, file=sys.stderr)
        return None, time.monotonic() - began
    spent = time.monotonic() - began
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        print("workload process exited with %d" % proc.returncode, file=sys.stderr)
        return None, spent
    return json.loads(proc.stdout.strip().splitlines()[-1]), spent


def layer_coverage(metrics):
    """Share of each phase's wall time spent inside wrapped layers.

    This is 1 - <phase>.self_s / <phase>.wall_s: a layer that loses its
    wrapper moves its time into the phase's own self time and lowers it.
    """
    return {"trace.%s_coverage" % phase:
            1.0 - metrics[phase + ".self_s"] / metrics[phase + ".wall_s"]
            for phase in PHASES}


def summarize(records, declared, setup_samples=()):
    """Result object of a run from its workload records.

    records : one entry per attempt, None for a process that gave no record.
    declared : the BENCHMARK.json metric list to report (name, unit).
    """
    done = [r for r in records if r is not None]
    failed = sum(1 for r in records if r is None or r["failures"])
    if not done:
        raise BenchError("no workload process finished")
    samples = []
    for record in done:
        metrics = dict(record["metrics"])
        if "latin.wall_s" in metrics:
            metrics.update(layer_coverage(metrics))
        samples.append(metrics)
    out = {}
    for spec in declared:
        name = spec["name"]
        if name == "setup_s":
            values = list(setup_samples) + [m[name] for m in samples]
        elif all(name in m for m in samples):
            values = [m[name] for m in samples]
        else:
            raise BenchError("metric %s was not measured" % name)
        value = min(values) if name in FASTEST else statistics.median(values)
        out[name] = {"value": value, "unit": spec["unit"]}
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": out}


def run_benchmark(workload, seed, seconds, trace):
    """Run the benchmark once; return (result object, workload records)."""
    spec = load_spec()
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError("unknown workload %r" % workload)
    env = child_env()
    began = time.monotonic()

    def left():
        return RUN_LIMIT_S - (time.monotonic() - began)

    setup_samples = []
    if not trace:
        for _ in range(SETUP_PROBES):
            record, _ = start_child(env, workload, seed, 0, left(), setup_only=True)
            if record is None:
                raise BenchError("set-up probe failed")
            setup_samples.append(record["metrics"]["setup_s"])
    records = []
    measuring = time.monotonic()
    while True:
        record, spent = start_child(env, workload, seed, trace, left())
        records.append(record)
        if record is not None:
            for message in record["failures"]:
                print("check failed: %s" % message, file=sys.stderr)
        if (record is None or time.monotonic() - measuring >= seconds
                or spent > left()):
            break
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    return summarize(records, declared, setup_samples), records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, _ = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
