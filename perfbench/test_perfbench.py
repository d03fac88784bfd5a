"""Tests of the benchmark harness on tiny problems (4x2x2 mesh, N_T = 10).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from latinpgd import config, newmark

import run
import spans
import workload

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
ACCURACY = ("compare_pct", "latin_modes", "latin_xi", "d_gap_pct")


def tiny(preset, seed=0):
    """A sub-second problem: damaging with a 1-mode budget, or elastic."""
    conf = config.preset(preset)
    conf = replace(conf, mesh=replace(conf.mesh, nx=4, ny=2, nz=2),
                   solver=replace(conf.solver, N_T=10, max_modes=1, seed=seed))
    if preset == "mono_sine":
        conf = replace(conf, load=replace(conf.load, T=0.5))
    return conf


def lookup_sites():
    return [getattr(owner, attr) for owner, attr, _, _ in spans.LAYERS]


def test_every_declared_metric_is_emitted_with_its_unit():
    plain = workload.run_case(tiny("mono_sine"), "budget")
    traced = workload.run_case(tiny("mono_sine"), "budget", trace=True)
    assert plain["failures"] == [] and traced["failures"] == []
    for records, declared in (([plain], SPEC["end_to_end"]),
                              ([traced], SPEC["per_layer"])):
        result = run.summarize(records, declared)
        assert result["correct"] and result["attempted"] == 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared}
    layers = run.summarize([traced], SPEC["per_layer"])["metrics"]
    for phase in run.PHASES:
        assert 0.0 < layers["trace.%s_coverage" % phase]["value"] < 1.0
    # The damaging run exercises every layer of the LATIN iteration.
    assert layers["latin.pgd.enrich_sweeps"]["value"] > 0
    assert layers["latin.pgd.add_mode_s"]["value"] > 0.0
    assert layers["newmark.stagger_passes"]["value"] >= layers["newmark.steps"]["value"]


def test_wrappers_are_restored_after_a_run_and_after_an_error(monkeypatch):
    before = lookup_sites()
    workload.run_case(tiny("mono_sine"), "budget", trace=True)
    assert all(a is b for a, b in zip(lookup_sites(), before))

    def broken(*args, **kwargs):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr(newmark, "newmark_quasi_newton", broken)
    with pytest.raises(RuntimeError, match="blew up"):
        workload.run_case(tiny("mono_sine"), "budget", trace=True)
    assert all(a is b for a, b in zip(lookup_sites(), before))


def test_nan_field_counts_as_failed(monkeypatch):
    solve = newmark.newmark_quasi_newton

    def poisoned(*args, **kwargs):
        res = solve(*args, **kwargs)
        res["u"][0, -1] = np.nan
        return res

    monkeypatch.setattr(newmark, "newmark_quasi_newton", poisoned)
    record = workload.run_case(tiny("mono_sine"), "budget")
    assert "newmark.u has non-finite values" in record["failures"]
    result = run.summarize([record, None], SPEC["end_to_end"])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 2)


def test_elastic_run_bypasses_enrichment():
    record = workload.run_case(tiny("elastic"), "elastic", trace=True)
    assert record["failures"] == []
    metrics = record["metrics"]
    assert metrics["latin_modes"] == 0 and metrics["latin_xi"] == 0.0
    counts = [name for name in metrics
              if name.startswith("latin.pgd.") and not name.endswith("_s")]
    assert "latin.pgd.enrich_sweeps" in counts
    assert all(metrics[name] == 0 for name in counts)


def test_budget_check_fails_when_the_run_converges_early():
    conf = tiny("mono_sine")
    conf = replace(conf, solver=replace(conf.solver, xi_stop=10.0))
    record = workload.run_case(conf, "budget")
    assert record["failures"] == ["LATIN stopped at 0 modes, budget is 1"]


def test_same_seed_gives_bit_identical_accuracy():
    first = workload.run_case(tiny("mono_sine", seed=3), "budget")["metrics"]
    again = workload.run_case(tiny("mono_sine", seed=3), "budget")["metrics"]
    assert [first[k] for k in ACCURACY] == [again[k] for k in ACCURACY]


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("latin"):
        with tracer.span("pgd.enrich"):
            with tracer.span("assembly.solve_free"):
                pass
            tracer.count("assembly.factorizations", 2)
        with tracer.span("pgd.enrich"):
            pass
    metrics = tracer.layer_metrics()
    assert metrics["latin.wall_s"] == 10.0
    assert metrics["latin.self_s"] == 6.0
    assert metrics["latin.pgd.enrich_s"] == 3.0
    assert metrics["latin.pgd.enrich_calls"] == 2
    assert metrics["latin.assembly.solve_free_s"] == 1.0
    assert metrics["latin.assembly.factorizations"] == 2
    # The phase's own self time and its layers' self times add up to its wall.
    layers = [metrics["latin.pgd.enrich_s"], metrics["latin.assembly.solve_free_s"]]
    assert metrics["latin.self_s"] + sum(layers) == metrics["latin.wall_s"]
    phases = {"%s.%s" % (phase, key): metrics["latin." + key]
              for phase in run.PHASES for key in ("self_s", "wall_s")}
    assert run.layer_coverage(phases)["trace.latin_coverage"] == pytest.approx(0.4)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fine_elastic",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
