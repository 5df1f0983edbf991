"""Metric names, units and directions (mirrored in BENCHMARK.json).

``tests/test_perfbench.py`` checks that what ``run.py`` prints equals
both this module and ``BENCHMARK.json``.
"""

from __future__ import annotations

#: (name, unit, better) of every end-to-end metric.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("latency.p50_ms", "ms", "lower"),
    ("latency.p90_ms", "ms", "lower"),
    ("goodput_rps", "1/s", "higher"),
    ("certified_ratio", "ratio", "higher"),
    ("rounds", "count", "lower"),
    ("central_space_words", "words", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]

#: Tracer stage -> per-layer time metric.  Self times: the stages of one
#: in-process solve add up to its traced wall time (kernels.oracle_eval_s
#: is the part of kernels.s spent in that one kernel).
STAGE_METRICS = {
    "ingest.read": "ingest.read_s",
    "core.discretize": "core.discretize_s",
    "core.initial": "core.initial_s",
    "core.certify": "core.certify_s",
    "core.oracle": "core.oracle_s",
    "core.lagrangian": "core.lagrangian_s",
    "core.packing": "core.packing_s",
    "core.dual_update": "core.dual_update_s",
    "core.witness": "core.witness_s",
    "core.unattributed": "core.unattributed_s",
    "sparsify.chain_build": "sparsify.chain_build_s",
    "streaming.chain_build": "streaming.chain_build_s",
    "matching.harvest": "matching.harvest_s",
}

#: (name, unit, better) of every per-layer metric (``--trace 1`` only).
PER_LAYER = [
    ("graphgen.generate_s", "s", "lower"),
    ("ingest.write_s", "s", "lower"),
    ("ingest.read_s", "s", "lower"),
    ("ingest.edges_read", "count", "lower"),
    ("ingest.passes", "count", "lower"),
    ("core.discretize_s", "s", "lower"),
    ("core.initial_s", "s", "lower"),
    ("core.certify_s", "s", "lower"),
    ("core.oracle_s", "s", "lower"),
    ("core.lagrangian_s", "s", "lower"),
    ("core.packing_s", "s", "lower"),
    ("core.dual_update_s", "s", "lower"),
    ("core.inner_steps", "count", "lower"),
    ("core.oracle_calls", "count", "lower"),
    ("core.witness_s", "s", "lower"),
    ("core.solver_rounds", "count", "lower"),
    ("core.unattributed_s", "s", "lower"),
    ("sparsify.chain_build_s", "s", "lower"),
    ("sparsify.sampled_edges", "count", "lower"),
    ("streaming.chain_build_s", "s", "lower"),
    ("matching.harvest_s", "s", "lower"),
    ("matching.harvest_calls", "count", "lower"),
    ("matching.harvest_edges", "count", "lower"),
    ("kernels.s", "s", "lower"),
    ("kernels.calls", "count", "lower"),
    ("kernels.oracle_eval_s", "s", "lower"),
    ("service.batches", "count", "lower"),
    ("service.batch_occupancy", "req/group", "higher"),
    ("service.cache_hits", "count", "higher"),
    ("server.queue_wait_ms", "ms", "lower"),
    ("server.decode_ms", "ms", "lower"),
    ("server.solve_ms", "ms", "lower"),
    ("server.encode_ms", "ms", "lower"),
    ("server.e2e_ms", "ms", "lower"),
    ("server.client_encode_ms", "ms", "lower"),
    ("server.client_decode_ms", "ms", "lower"),
    ("server.bytes_in", "bytes", "lower"),
    ("server.bytes_out", "bytes", "lower"),
    ("server.worker_compute_ms", "ms", "lower"),
    ("server.shm_ms", "ms", "lower"),
    ("server.start_s", "s", "lower"),
    ("trace.solve_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def metric_block(values: dict, names) -> dict:
    """``{name: {"value": v, "unit": u}}`` for exactly ``names``."""
    missing = [n for n in names if n not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {n: {"value": values[n], "unit": UNITS[n]} for n in names}
