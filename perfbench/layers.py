"""Which public functions of ``repro`` each per-layer stage times.

Stage names follow the solver's stage vocabulary (ingest pass,
discretize, initial matchings, chain build, primal harvest, oracle /
Lagrangian / dual update, witness, certify), so an in-program stage
clock can later report under the same names.
"""

from __future__ import annotations

from perfbench.tracer import Tracer


def install(tracer: Tracer) -> None:
    """Wrap the solver-side layers of the current process."""
    import repro.kernels as kernels
    from repro.core.certificates import certify
    from repro.core.initial import build_initial_solution
    from repro.core.lagrangian import LagrangianSearch
    from repro.core.levels import discretize
    from repro.core.matching_solver import DualPrimalMatchingSolver
    from repro.core.micro_oracle import micro_oracle
    from repro.core.packing import packing_multipliers
    from repro.core.relaxations import LayeredDual
    from repro.core.witness import extract_witness_matching
    from repro.ingest.format import EdgeFile
    from repro.ingest.source import ChunkedEdgeSource
    from repro.matching.augmenting import local_search_matching
    from repro.matching.exact import max_weight_bmatching_exact
    from repro.sparsify.deferred import DeferredSparsifierChain
    from repro.streaming.stream import EdgeStream
    from repro.streaming.streaming_matching import StreamingDeferredChain

    counts = tracer.counts

    def tally(counter):
        def count(out, args, kwargs):
            counts[counter] += 1

        return count

    def entries_read(out, args, kwargs):
        counts["ingest.edges_read"] += len(out)

    tracer.patch_method(EdgeFile, "read_raw_slice", "ingest.read", after=entries_read)
    tracer.patch_method(EdgeFile, "gather_raw", "ingest.read", after=entries_read)
    tracer.patch_method(EdgeFile, "iter_chunks", "ingest.read")
    # a pass is what the two pass abstractions count as one
    for source in (EdgeStream, ChunkedEdgeSource):
        tracer.count_method(source, "_tick_pass", tally("ingest.passes"))

    tracer.patch_function(discretize, "core.discretize")
    tracer.patch_function(build_initial_solution, "core.initial")
    tracer.patch_function(certify, "core.certify")
    tracer.patch_function(micro_oracle, "core.oracle")
    tracer.patch_method(LagrangianSearch, "run", "core.lagrangian")
    tracer.patch_function(packing_multipliers, "core.packing")
    for name in ("blend", "edge_ratios", "lambda_min", "live_ratio_max"):
        tracer.patch_method(LayeredDual, name, "core.dual_update")
    tracer.count_method(DualPrimalMatchingSolver, "_inner_step", tally("core.inner_steps"))
    tracer.patch_function(extract_witness_matching, "core.witness")

    def sampled(out, args, kwargs):
        counts["sparsify.sampled_edges"] += len(out)

    tracer.patch_method(DeferredSparsifierChain, "__init__", "sparsify.chain_build")
    tracer.patch_method(StreamingDeferredChain, "__init__", "streaming.chain_build")
    for chain in (DeferredSparsifierChain, StreamingDeferredChain):
        tracer.count_method(chain, "union_edge_ids", sampled)

    def harvested(out, args, kwargs):
        counts["matching.harvest_edges"] += int(args[0].m)

    tracer.patch_function(max_weight_bmatching_exact, "matching.harvest", after=harvested)
    tracer.patch_function(local_search_matching, "matching.harvest", after=harvested)

    for name in kernels.KERNEL_NAMES:
        stage = "kernels.oracle_eval" if name == "oracle_eval" else "kernels.other"
        tracer.patch_function(getattr(kernels, name), stage)


def solver_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer values of the in-process workloads from ``tracer``."""
    from perfbench.metrics import STAGE_METRICS

    out = {metric: tracer.seconds.get(stage, 0.0) for stage, metric in STAGE_METRICS.items()}
    oracle_eval = tracer.seconds.get("kernels.oracle_eval", 0.0)
    out["kernels.s"] = tracer.seconds.get("kernels.other", 0.0) + oracle_eval
    out["kernels.oracle_eval_s"] = oracle_eval
    out["kernels.calls"] = tracer.calls.get("kernels.other", 0) + tracer.calls.get(
        "kernels.oracle_eval", 0
    )
    out["core.oracle_calls"] = tracer.calls.get("core.oracle", 0)
    out["matching.harvest_calls"] = tracer.calls.get("matching.harvest", 0)
    for name in (
        "ingest.edges_read",
        "ingest.passes",
        "core.inner_steps",
        "sparsify.sampled_edges",
        "matching.harvest_edges",
    ):
        out[name] = tracer.counts.get(name, 0)
    out["core.solver_rounds"] = rounds
    return out
