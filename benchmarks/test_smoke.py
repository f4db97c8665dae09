"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q benchmarks/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted, that every
predicted span fires, that the tracer reaches every binding, that the exact
counts match arithmetic, and that the checks catch a wrong report.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import whirly_lab  # noqa: E402

TINY = 0.02
SEED = 31415926


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_match_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_tracer_wraps_every_binding_and_restores_them():
    import whirly_lab.acceptance as acceptance
    import whirly_lab.experiments as experiments
    import whirly_lab.montecarlo as montecarlo
    import whirly_lab.sets as sets
    import whirly_lab.tree as tree

    originals = {
        "sample_levels": tree.sample_levels,
        "standard_complex": tree.standard_complex,
        "project_vectors": tree.project_vectors,
        "tally_blocks": montecarlo.tally_blocks,
        "wilson_interval": montecarlo.wilson_interval,
        "estimate_measure": montecarlo.estimate_measure,
    }
    bindings = {
        "sample_levels": (tree, montecarlo, experiments, acceptance, whirly_lab),
        "standard_complex": (tree, experiments, acceptance, whirly_lab),
        "project_vectors": (tree, sets, acceptance, whirly_lab),
        "tally_blocks": (montecarlo, experiments, whirly_lab),
        "wilson_interval": (montecarlo, experiments, acceptance, whirly_lab),
        "estimate_measure": (montecarlo, experiments, acceptance, whirly_lab),
    }
    factory = experiments.whirly_search.__kwdefaults__["element_factory"]
    tr = tracing.Tracer()
    tr.install()
    try:
        assert tr.unwrapped_bindings() == []
        for name, modules in bindings.items():
            for mod in modules:
                assert getattr(mod, name) is not originals[name], f"{mod.__name__}.{name}"
                assert getattr(mod, name).__wrapped__ is originals[name]
        assert tree.sample_levels.__wrapped__ is originals["sample_levels"]
        wrapped_search = experiments.whirly_search.__wrapped__
        assert wrapped_search.__kwdefaults__["element_factory"] is not factory
    finally:
        tr.uninstall()
    for name, modules in bindings.items():
        for mod in modules:
            assert getattr(mod, name) is originals[name]
    assert experiments.whirly_search.__kwdefaults__["element_factory"] is factory


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_every_layer_metric(name):
    result = run.measure(name, SEED, 0.01, True, scale=TINY)
    tally = result["tally"]
    assert tally.failed == 0, tally.problems
    assert set(result["metrics"]) == {m for m, _, _ in tracing.PER_LAYER}
    for metric in result["workload"].expected:
        assert result["metrics"][metric] > 0.0, metric


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name, monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    result = run.measure(name, SEED, 0.01, False, scale=TINY)
    assert result["tally"].failed == 0, result["tally"].problems
    assert result["tally"].attempted == len(result["passes"]) * len(result["workload"].calls) + 1
    for metric, _ in run.END_TO_END:
        assert result["metrics"][metric] > 0.0, metric


def _trace_one(workload: workloads.Workload, call_name: str) -> tracing.Tracer:
    tr = tracing.Tracer()
    tr.install()
    try:
        for call in workload.calls:
            if call.name == call_name:
                with tr.operation(0, call.name):
                    call.run(SEED)
    finally:
        tr.uninstall()
    return tr


def test_depth_12_search_draws_4096_normals_and_stores_8191_values():
    tr = _trace_one(workloads.whirl_deep(TINY), "whirly_search")
    deep = [s for s in tr.spans if s.name == "tree.sample_levels" and s.attrs["depth"] == 12]
    assert deep
    rows = sum(s.attrs["rows"] for s in deep)
    ids = {s.sid for s in deep}
    normals = sum(s.attrs["n"] for s in tr.spans if s.name == "tree.standard_complex" and s.parent in ids)
    assert normals == 4096 * rows
    assert sum(s.attrs["values"] for s in deep) == 8191 * rows


def test_continuity_estimator_stores_127_values_and_reads_64():
    workload = workloads.cylinder_mix(TINY)
    tr = _trace_one(workload, "verify_continuity")
    records = [r for r in tr.sampled if len(r.sizes) == 7]
    assert records
    rows = sum(r.sizes[0] for r in records)
    assert sum(sum(r.sizes) for r in records) == 127 * rows
    assert sum(r.sizes[level] for r in records for level in r.read) == 64 * rows
    unions = [s for s in tr.spans if s.name in ("sets.indicator", "sets.indicator_at") and s.attrs["kind"] == "union"]
    assert unions and all(s.attrs["leaves"] == 4 for s in unions)


def test_exact_counts_repeat_across_runs():
    counts = ("tree.normals_per_sample", "tree.values_per_sample", "tree.read_share", "sets.rows",
              "sets.leaf_evals_per_row", "montecarlo.blocks", "montecarlo.wilson.calls", "rng.generators",
              "group.calls")
    first = run.measure("cylinder-mix", SEED, 0.01, True, scale=TINY)["metrics"]
    second = run.measure("cylinder-mix", SEED, 0.01, True, scale=TINY)["metrics"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_checks_catch_a_wrong_report():
    workload = workloads.fiber_scan(TINY)
    call = workload.calls[1]
    report = call.run(SEED)
    assert call.check(report) == []
    observed = dict(report.observed, direct_estimate=0.5)
    assert call.check(dataclasses.replace(report, observed=observed))


def test_deep_level_check_reads_the_deepest_bit():
    call = workloads.whirl_deep(TINY).calls[2]
    table = call.run(SEED)
    assert call.check(table) == []
    # Clear bit 11 in every cell, so the deepest event never happens.
    cleared = [0] * len(table.counts)
    for code, count in enumerate(table.counts):
        cleared[code & ~(1 << 11)] += count
    problems = call.check(dataclasses.replace(table, counts=tuple(cleared)))
    assert any(p.startswith("event k=11=") for p in problems), problems


def test_scan_check_catches_a_wrong_quantile():
    # At TINY's 10 z values the quantile band spans almost [0, 1].
    call = workloads.fiber_scan(0.2).calls[0]
    report = call.run(SEED)
    assert call.check(report) == []
    observed = dict(report.observed, delta_at_87=0.9)
    assert any(p.startswith("delta_at_87=") for p in call.check(dataclasses.replace(report, observed=observed)))


def test_determinism_probe_is_clean():
    assert workloads.determinism_probe(SEED, 2) == []


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "fiber-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_one_whirled_event_has_the_disk_mass():
    assert abs(workloads.whirled_union_mass(1, 0.5) - workloads.disk_mass(1.0)) < 1e-9
