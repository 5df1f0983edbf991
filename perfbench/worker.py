"""The measured process: set up one workload, run it, check every result.

Started by ``run.py`` (never by hand).  Set-up starts at process start:
imports, input generation, file writes, server start and one untimed
warm-up solve.  When set-up is done the worker prints ``READY`` (the
parent time-stamps that line), runs the timed section, checks every
result outside it, and prints ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import functools
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, inputs  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

OPTIMA = Path(__file__).resolve().parent / "optima.json"


def vm_hwm_kib(pid: int | str = "self") -> int:
    """Peak resident set (``VmHWM``) of a process, in KiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after ')'
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry))
    return out


def quantile(values, q: int) -> float:
    """Deciles with interpolation: ``q=5`` is the median, ``q=9`` p90."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


# ======================================================================
# In-process workloads: ram-exact and file-local
# ======================================================================
class InProcess:
    """Solve a fixed instance set one after another."""

    def __init__(self, args, tracer: Tracer | None):
        self.args = args
        self.tracer = tracer
        self.kind = args.workload
        self.instances = inputs.instance_set(self.kind, args.seed, args.scale)
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        self.generate_s = self.write_s = 0.0
        self.sources = [
            self._source(workdir / f"g{k}.edges", inst) for k, inst in enumerate(self.instances)
        ]
        wn, wm = inputs.WARMUP[args.scale]
        warm = self._source(workdir / "warmup.edges", inputs.Instance(wn, wm, 7, 7))
        self._solve(warm, 7)

    def _source(self, path: Path, inst):
        """The instance as the solver gets it: a graph, or a written file."""
        from repro.ingest import write_graph_file

        t0 = time.perf_counter()
        graph = inputs.weighted_gnm(inst.n, inst.m, inst.graph_seed)
        t1 = time.perf_counter()
        self.generate_s += t1 - t0
        if self.kind == "ram-exact":
            return graph
        write_graph_file(path, graph)
        self.write_s += time.perf_counter() - t1
        return path

    def _solve(self, source, seed: int):
        from repro.api import Problem, run
        from repro.core.matching_solver import SolverConfig

        offline = "exact" if self.kind == "ram-exact" else "local"
        config = SolverConfig(eps=inputs.EPS, seed=seed, offline=offline)
        if self.kind == "ram-exact":
            return run(Problem(source, config=config))
        return run(Problem.from_edge_file(source, config=config, materialize_policy="forbid"))

    def run(self) -> dict:
        tracer = self.tracer
        records = []  # (instance index, wall seconds, RunResult | exception)
        start = time.perf_counter()
        passes = 0
        while True:
            t_pass = time.perf_counter()
            for k, inst in enumerate(self.instances):
                frame = tracer.frame("core.unattributed") if tracer else contextlib.nullcontext()
                t0 = time.perf_counter()
                try:
                    with frame:
                        result = self._solve(self.sources[k], inst.solver_seed)
                except Exception as exc:  # a failed solve is a failed operation
                    result = exc
                records.append((k, time.perf_counter() - t0, result))
            passes += 1
            pass_s = time.perf_counter() - t_pass
            # whole passes only; the traced run makes exactly one
            if tracer is not None or time.perf_counter() - start + pass_s > self.args.seconds:
                break
        return self._finish(records, passes, time.perf_counter() - start)

    def _columns(self, k):
        if self.kind == "ram-exact":
            return checks.Columns.from_graph(self.sources[k])
        return checks.read_edges_file(self.sources[k])

    def _finish(self, records, passes, window_s) -> dict:
        hwm = vm_hwm_kib()
        cols = {k: self._columns(k) for k in range(len(self.instances))}
        optima = {k: optimum(self.instances[k], c) for k, c in cols.items()}
        report = summarize(
            [(f"solve {k}", wall, result, cols[k], optima[k]) for k, wall, result in records],
            window_s,
            hwm,
        )
        values = report["values"]
        if self.tracer is not None:
            from perfbench import layers

            solver_rounds = sum(
                r.raw.rounds for _, _, r in records if not isinstance(r, Exception)
            )
            values.update(layers.solver_metrics(self.tracer, solver_rounds))
            values["trace.solve_s"] = values["solve_s"]
        values["graphgen.generate_s"] = self.generate_s
        values["ingest.write_s"] = self.write_s
        report["passes"] = passes
        return report

    def close(self) -> list[str]:
        return []


def summarize(records, window_s: float, hwm_kib: int) -> dict:
    """Check every operation and compute the end-to-end values.

    ``records`` holds ``(label, seconds, RunResult | exception, columns,
    optimum)`` per operation, in the order they ran.  An operation
    fails when it raised, was refused, or its result fails a check.
    """
    failed, ratios, rounds, space = 0, [], [], []
    for label, _, result, cols, best in records:
        if isinstance(result, Exception):
            failed += 1
            print(f"{label}: {result!r}", file=sys.stderr)
            continue
        verdict = check_run_result(cols, result, best)
        if not verdict.ok:
            failed += 1
            print(f"{label} failed checks: {verdict.failures}", file=sys.stderr)
            continue
        ratios.append(verdict.ratio)
        rounds.append(result.ledger.rounds)
        space.append(result.ledger.peak_central_space)
    times = [seconds for _, seconds, _, _, _ in records]
    values = {
        "solve_s": statistics.fmean(times),
        "latency.p50_ms": quantile(times, 5) * 1e3,
        "latency.p90_ms": quantile(times, 9) * 1e3,
        "goodput_rps": (len(records) - failed) / window_s,
        "certified_ratio": min(ratios) if ratios else 0.0,
        "rounds": statistics.fmean(rounds) if rounds else 0.0,
        # a mean, not a max: the run's max is set by the one instance
        # with the most rounds (the ledger never releases chain space)
        "central_space_words": statistics.fmean(space) if space else 0.0,
        "peak_rss_mb": hwm_kib / 1024.0,
    }
    return {"attempted": len(records), "failed": failed, "values": values}


def check_run_result(cols, result, optimum) -> checks.Verdict:
    cert = result.certificate
    if cert is None:
        return checks.Verdict(0.0, 0.0, ["result carries no certificate"])
    return checks.check_result(
        cols,
        result.matching.edge_ids,
        result.matching.multiplicity,
        result.weight,
        cert.x,
        cert.z,
        cert.upper_bound,
        inputs.EPS,
        optimum,
    )


@functools.cache
def stored_optima() -> dict[tuple[int, str], float]:
    """optima.json as ``{(graph_seed, sha256): optimum}``."""
    if not OPTIMA.exists():
        return {}
    table = json.loads(OPTIMA.read_text())
    return {(e["graph_seed"], e["sha256"]): float(e["optimum"]) for e in table["instances"]}


def optimum(inst, cols: checks.Columns) -> float:
    """The networkx optimum of an instance: stored in optima.json for
    every pool member, computed here for an input the table lacks."""
    stored = stored_optima().get((inst.graph_seed, cols.digest()))
    if stored is not None:
        return stored
    print(f"no stored optimum for graph seed {inst.graph_seed}; computing it", file=sys.stderr)
    return checks.networkx_optimum(cols)


# ======================================================================
# served: a repro.server process under a closed-loop load
# ======================================================================
def scrape(port: int) -> dict[str, float]:
    """``/metrics`` as ``{'name{labels}': value}``."""
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=30) as resp:
        text = resp.read().decode()
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, value = line.rsplit(" ", 1)
            out[key] = float(value)
    return out


def span_ms(tree: dict, names) -> float:
    """Summed duration of the spans called one of ``names`` in a tree."""
    total = 0.0
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.get("name") in names and node.get("duration_ms") is not None:
            total += float(node["duration_ms"])
        stack.extend(node.get("children") or [])
    return total


class Served:
    """Start ``python -m repro.server --pool process``; drive it."""

    def __init__(self, args, tracer: Tracer | None):
        from repro.api import Problem
        from repro.core.matching_solver import SolverConfig

        self.args = args
        self.tracer = tracer
        self.plan = inputs.served(args.seed, args.scale)
        t0 = time.perf_counter()
        self.graphs = [inputs.weighted_gnm(i.n, i.m, i.graph_seed) for i in self.plan.unique]
        self.generate_s = time.perf_counter() - t0
        self.problems = [
            Problem(g, config=SolverConfig(eps=inputs.EPS, seed=i.solver_seed))
            for g, i in zip(self.graphs, self.plan.unique)
        ]
        spec = inputs.SIZES[args.scale]["served"]
        self.connections = min(spec["connections"], os.cpu_count() or 1)
        workers = min(spec["workers"], os.cpu_count() or 1)
        self.shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--pool", "process",
             "--workers", str(workers), "--metrics-port", "0"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.port = int(self.proc.stdout.readline().strip().split("=")[1])
            self.metrics_port = int(self.proc.stdout.readline().strip().split("=")[1])
        except (IndexError, ValueError):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("server did not report its ports")
        self.start_s = time.perf_counter() - t0
        from repro.server.client import ServeClient

        wn, wm = inputs.WARMUP[args.scale]
        warm = Problem(inputs.weighted_gnm(wn, wm, 7), config=SolverConfig(eps=inputs.EPS, seed=7))
        try:
            with ServeClient("127.0.0.1", self.port, timeout=120) as client:
                client.solve(warm)
        except BaseException:
            self.close()
            raise

    async def _drive(self):
        """Closed loop in waves: send ``window`` requests over the
        connections, wait for every reply, send the next ``window``."""
        from repro.server.client import AsyncServeClient, RequestRejected, ServerError

        plan = self.plan
        total = len(plan.sequence)
        clients = [
            await AsyncServeClient.connect("127.0.0.1", self.port)
            for _ in range(self.connections)
        ]
        outcomes: list = [None] * total
        latency = [0.0] * total
        trace = self.tracer is not None

        async def request(i: int) -> None:
            client = clients[i % len(clients)]
            problem = self.problems[plan.sequence[i]]
            t0 = time.perf_counter()
            try:
                outcomes[i] = await client.solve_with_info(problem, trace=trace)
            except (RequestRejected, ServerError) as exc:
                outcomes[i] = exc
            latency[i] = time.perf_counter() - t0

        try:
            t0 = time.perf_counter()
            for start in range(0, total, plan.window):
                wave = range(start, min(start + plan.window, total))
                await asyncio.gather(*(request(i) for i in wave))
            window_s = time.perf_counter() - t0
        finally:
            for client in clients:
                await client.close()
        return outcomes, latency, window_s

    def run(self) -> dict:
        before = scrape(self.metrics_port) if self.tracer is not None else None
        outcomes, latency, window_s = asyncio.run(self._drive())
        after = scrape(self.metrics_port) if self.tracer is not None else None
        hwm = vm_hwm_kib(self.proc.pid) + sum(
            vm_hwm_kib(pid) for pid in child_pids(self.proc.pid)
        )
        return self._finish(outcomes, latency, window_s, hwm, before, after)

    def _finish(self, outcomes, latency, window_s, hwm, before, after) -> dict:
        plan = self.plan
        cols = [checks.Columns.from_graph(g) for g in self.graphs]
        optima = [optimum(inst, c) for inst, c in zip(plan.unique, cols)]
        report = summarize(
            [
                (
                    f"request {i}",
                    latency[i],
                    outcome if isinstance(outcome, Exception) else outcome[0],
                    cols[plan.sequence[i]],
                    optima[plan.sequence[i]],
                )
                for i, outcome in enumerate(outcomes)
            ],
            window_s,
            hwm,
        )
        values = report["values"]
        values["graphgen.generate_s"] = self.generate_s
        values["server.start_s"] = self.start_s
        if self.tracer is not None:
            values.update(self._layer_values(outcomes, before, after))
            values["trace.solve_s"] = values["solve_s"]
        report["passes"] = 1
        return report

    def _layer_values(self, outcomes, before, after) -> dict:
        def delta(key):
            return after.get(key, 0.0) - before.get(key, 0.0)

        def stage_mean(stage):
            count = delta(f'repro_server_stage_latency_ms_count{{stage="{stage}"}}')
            total = delta(f'repro_server_stage_latency_ms_sum{{stage="{stage}"}}')
            return total / count if count else 0.0

        groups = delta("repro_service_batch_occupancy_count")
        traces = [o[1]["trace"] for o in outcomes if not isinstance(o, Exception) and "trace" in o[1]]
        computed = [t for t in traces if span_ms(t, {"worker"}) > 0]
        tracer = self.tracer
        client_calls = len(outcomes)
        values = {
            "service.batches": delta("repro_service_batches_total"),
            "service.batch_occupancy": (
                delta("repro_service_batch_occupancy_sum") / groups if groups else 0.0
            ),
            "service.cache_hits": delta('repro_service_dedup_total{kind="cache_hit"}'),
            "server.bytes_in": delta('repro_server_bytes_total{direction="read"}'),
            "server.bytes_out": delta('repro_server_bytes_total{direction="written"}'),
            "server.client_encode_ms": tracer.seconds.get("server.client_encode", 0.0)
            * 1e3 / client_calls,
            "server.client_decode_ms": tracer.seconds.get("server.client_decode", 0.0)
            * 1e3 / client_calls,
            "server.worker_compute_ms": (
                statistics.fmean(span_ms(t, {"worker_compute"}) for t in computed)
                if computed else 0.0
            ),
            "server.shm_ms": (
                statistics.fmean(
                    span_ms(t, {"shm_encode", "shm_write", "shm_decode"}) for t in computed
                )
                if computed else 0.0
            ),
        }
        for stage in ("queue_wait", "decode", "solve", "encode", "e2e"):
            values[f"server.{stage}_ms"] = stage_mean(stage)
        return values

    def close(self) -> list[str]:
        """Stop the server; return hygiene faults (empty when clean)."""
        faults = []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = None
            faults.append("server did not stop within 30 s of SIGINT")
        if code not in (0, None):
            faults.append(f"server exited with code {code}")
        if os.path.isdir("/dev/shm"):
            left = sorted(set(os.listdir("/dev/shm")) - self.shm_before)
            if left:
                faults.append(f"shared-memory segments left behind: {left}")
        return faults


# ======================================================================
def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=["ram-exact", "file-local", "served"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=list(inputs.SIZES), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None and args.workload == "served":
        import repro.server.client as client

        tracer.patch_function(client.encode_problem, "server.client_encode")
        tracer.patch_function(client.decode_result, "server.client_decode")
    elif tracer is not None:
        from perfbench import layers

        layers.install(tracer)
    runner = (Served if args.workload == "served" else InProcess)(args, tracer)
    try:
        print("READY", flush=True)
        if tracer is not None:
            tracer.reset()  # drop set-up and warm-up calls
        report = None if args.setup_only else runner.run()
    finally:
        faults = runner.close()
    for fault in faults:
        print(fault, file=sys.stderr)
    if report is not None:
        report["hygiene_faults"] = faults
        print("RESULT " + json.dumps(report), flush=True)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
