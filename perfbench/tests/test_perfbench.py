"""Tests of the benchmark itself (not of the program it measures)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import checks, metrics  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section: str) -> list[tuple[str, str, str]]:
    return [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[section]]


def test_metric_table_matches_benchmark_json():
    assert _declared("end_to_end") == metrics.END_TO_END
    assert _declared("per_layer") == metrics.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["ram-exact", "file-local", "served"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["ram-exact", "file-local", "served"])
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    declared = {name: unit for name, unit, _ in _declared(section)}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def _solved_triangle_with_tail():
    from repro.api import Problem, run
    from repro.core.matching_solver import SolverConfig
    from repro.util.graph import Graph

    graph = Graph.from_edges(
        5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], [5.0, 4.0, 3.0, 6.0, 2.0]
    )
    result = run(Problem(graph, config=SolverConfig(eps=0.2, seed=0)))
    return checks.Columns.from_graph(graph), result


def _check(cols, ids, mult, weight, x, result):
    cert = result.certificate
    return checks.check_result(
        cols, ids, mult, weight, x, cert.z, cert.upper_bound, 0.2,
        optimum=checks.networkx_optimum(cols),
    )


def test_checker_accepts_a_solver_result():
    cols, result = _solved_triangle_with_tail()
    m = result.matching
    verdict = _check(cols, m.edge_ids, m.multiplicity, result.weight, result.certificate.x, result)
    assert verdict.ok, verdict.failures
    assert verdict.ratio == pytest.approx(result.certified_ratio)


def test_checker_fails_an_over_used_vertex():
    cols, result = _solved_triangle_with_tail()
    ids = np.array([0, 1])  # (0,1) and (1,2) share vertex 1
    weight = float(cols.weight[ids].sum())
    verdict = _check(cols, ids, np.ones(2), weight, result.certificate.x, result)
    assert not verdict.ok
    assert any("over-used" in f for f in verdict.failures)


def test_checker_fails_a_lowered_dual_entry():
    cols, result = _solved_triangle_with_tail()
    m = result.matching
    x = np.array(result.certificate.x, dtype=float)
    x[2] *= 0.5  # vertex 2 touches three edges
    verdict = _check(cols, m.edge_ids, m.multiplicity, result.weight, x, result)
    assert not verdict.ok
    assert any("uncovered" in f for f in verdict.failures)
