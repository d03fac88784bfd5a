"""Measure the benchmark's reference numbers and write them to a JSON file.

    PYTHONPATH=src python3 perfbench/record.py --out perfbench/baseline.json

For every workload of BENCHMARK.json this makes, through run.py's own code:

* one run per seed (--trace 0, seeds 0..SEEDS-1), and for every end-to-end
  metric the median, quartiles, sample count and spread, the distance
  between the quartiles as a share of the median;
* the accuracy numbers of each seed (compare_pct, latin_modes, latin_xi,
  d_gap_pct), which must repeat bit for bit in every workload process of
  the run and in a second run of seeds 0 and 1;
* one traced run (--trace 1) on seed 0: every per-layer metric, the
  tracing overhead (fastest traced minus fastest untraced LATIN and Newmark
  phase, same seed), the share of each phase's wall time its layers
  account for, and the self seconds of each module per phase.

The file also records the environment: thread settings, nproc, CPU model,
Python, numpy, scipy and BLAS versions, git commit, and the sha256 of each
workload's generated configuration.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run
import workload
from latinpgd import config

ACCURACY = ("compare_pct", "latin_modes", "latin_xi", "d_gap_pct")
SEEDS = 10


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median, "values": values}


def module_totals(layers):
    """Self seconds per (phase, module): the sum of that module's layers."""
    out = {}
    for name, value in layers.items():
        parts = name.split(".")
        if len(parts) == 3 and parts[2].endswith("_s"):
            key = "%s.%s" % (parts[0], parts[1])
            out[key] = out.get(key, 0.0) + value
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def measure(name, seconds, log):
    spec = run.load_spec()
    declared = {m["name"]: m for m in spec["end_to_end"]}
    by_seed, accuracy, env, seed0 = {}, {}, None, None
    for seed in range(SEEDS):
        result, records = run.run_benchmark(name, seed, seconds, 0)
        if not result["correct"]:
            raise SystemExit("%s seed %d failed its checks" % (name, seed))
        by_seed[seed] = result
        seed0 = seed0 or records
        accuracy[seed] = {k: records[0]["metrics"][k] for k in ACCURACY}
        if any({k: r["metrics"][k] for k in ACCURACY} != accuracy[seed]
               for r in records):
            raise SystemExit("%s seed %d: accuracy differs between the "
                             "processes of one run" % (name, seed))
        env = records[0]["env"]
        log("%s seed %d: %s" % (name, seed, {k: round(v["value"], 4) for k, v in
                                             result["metrics"].items()}))
    end_to_end = {}
    for metric, spec_m in declared.items():
        stats = quartiles([by_seed[s]["metrics"][metric]["value"] for s in range(SEEDS)])
        stats.update(unit=spec_m["unit"], bound=spec_m["bound"])
        end_to_end[metric] = stats

    repeats = {}
    for seed in (0, 1):
        _, records = run.run_benchmark(name, seed, seconds, 0)
        again = {k: records[0]["metrics"][k] for k in ACCURACY}
        repeats[str(seed)] = {"identical": again == accuracy[seed], "second_run": again}
        log("%s seed %d repeated: identical=%s" % (name, seed, again == accuracy[seed]))

    traced, traced_records = run.run_benchmark(name, 0, seconds, 1)
    layers = {k: v["value"] for k, v in traced["metrics"].items()}

    def fastest(records, key):
        return min(r["metrics"][key] for r in records)

    overhead = {phase + "_s": fastest(traced_records, phase + ".wall_s")
                - fastest(seed0, phase + "_s") for phase in ("latin", "newmark")}
    log("%s traced: overhead %s" % (name, overhead))
    conf = workload.make_config(name, 0)
    return {"why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
            "inputs": config.canonical(conf).splitlines(),
            "config_sha256_seed0": workload.config_sha256(conf),
            "end_to_end": end_to_end,
            "accuracy_by_seed": {str(s): accuracy[s] for s in range(SEEDS)},
            "same_seed_repeats": repeats,
            "per_layer_seed0": layers,
            "module_totals_seed0": module_totals(layers),
            "tracing_overhead_s": overhead,
            "coverage": {k: v for k, v in layers.items() if k.startswith("trace.")},
            "env": env}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = run.load_spec()

    def log(text):
        print(text, file=sys.stderr, flush=True)

    body = {"commit": git_commit(), "cpu_model": cpu_model(),
            "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in spec["workloads"]:
        body["workloads"][w["name"]] = measure(w["name"], spec["run_seconds"], log)
    with open(args.out, "w") as fh:
        json.dump(body, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, w in body["workloads"].items():
        for metric, stats in w["end_to_end"].items():
            print("%-14s %-12s median %10.4f spread %.3f bound %.2f"
                  % (name, metric, stats["median"], stats["spread"], stats["bound"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
