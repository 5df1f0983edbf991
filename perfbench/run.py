"""Benchmark entry point.

    python3 perfbench/run.py --workload <ram-exact|file-local|served>
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a source checkout.  Builds the native kernels once
(untimed), measures set-up three times (two set-up-only worker
processes plus the measured one) and reports the median, runs the
workload in a worker process, and prints a host record followed, as
the last line, by one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer
with ``--trace 1``).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, PER_LAYER, metric_block  # noqa: E402

#: Whole-run limit: every process is killed and the run fails past it.
TIME_LIMIT_S = 170.0
#: Set-up is measured this many times per untraced run (median reported).
SETUPS = 3

SOFTWARE = """
import json, platform, networkx, numpy, repro.kernels
print(json.dumps({"kernels": repro.kernels.backend_info(),
                  "python": platform.python_version(),
                  "numpy": numpy.__version__, "networkx": networkx.__version__}))
"""

#: Per-layer metrics of layers a workload does not run in a process the
#: benchmark can instrument: reported as 0.  The served workload's
#: solver layers run inside the server's worker processes.
NOT_ON = {
    "ram-exact": ("service.", "server."),
    "file-local": ("service.", "server."),
    "served": ("ingest.", "core.", "sparsify.", "streaming.", "matching.", "kernels."),
}


def cpu_ticks() -> dict[str, int]:
    """Host-wide user and steal ticks from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return {"user": int(fields[1]), "steal": int(fields[8])}


class Child:
    """A worker process whose stdout lines are read with a deadline."""

    def __init__(self, cmd, env, deadline: float):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
        self._timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self._timer.daemon = True
        self._timer.start()

    def expect(self, prefix: str) -> str:
        for line in self.proc.stdout:
            if line.startswith(prefix):
                return line[len(prefix):].strip()
        raise RuntimeError(f"worker ended before printing {prefix.strip()!r}")

    def finish(self) -> int:
        try:
            self.proc.stdout.read()
            return self.proc.wait()
        finally:
            self._timer.cancel()

    def kill(self) -> None:
        self._timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOT_ON))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    build = ROOT / ".bench_build"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_KERNELS_CACHE"] = str(build / "repro-kernels")
    workdir = build / "perfbench" / f"run-{os.getpid()}"
    ticks0 = cpu_ticks()

    # one-time native kernel build, before any timing; it also reports
    # the software the run measures
    probe = subprocess.run([sys.executable, "-c", SOFTWARE], env=env,
                           capture_output=True, text=True, timeout=900)
    if probe.returncode != 0:
        print(probe.stderr, file=sys.stderr)
        return 2
    software = json.loads(probe.stdout.strip().splitlines()[-1])
    deadline = time.monotonic() + TIME_LIMIT_S

    base = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", "smoke" if args.smoke else "full",
    ]
    setups = []
    children: list[Child] = []
    try:
        probes = 0 if (args.trace or args.smoke) else SETUPS - 1
        for j in range(probes):
            child = Child(base + ["--workdir", str(workdir / f"setup{j}"), "--setup-only"], env, deadline)
            children.append(child)
            child.expect("READY")
            setups.append(time.perf_counter() - child.started)
            if child.finish() != 0:
                print("set-up probe failed", file=sys.stderr)
                return 3
        child = Child(base + ["--workdir", str(workdir / "run")], env, deadline)
        children.append(child)
        child.expect("READY")
        setups.append(time.perf_counter() - child.started)
        report = json.loads(child.expect("RESULT "))
        code = child.finish()
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        for c in children:
            c.kill()
        shutil.rmtree(workdir, ignore_errors=True)
    if code not in (0, 1):  # 1: the worker reported hygiene faults
        print(f"worker exited with code {code}", file=sys.stderr)
        return 3

    values = dict(report["values"])
    values["setup_s"] = statistics.median(setups)
    if args.trace:
        for name, _, _ in PER_LAYER:
            if name.startswith(NOT_ON[args.workload]):
                values.setdefault(name, 0)
        metrics = metric_block(values, [n for n, _, _ in PER_LAYER])
    else:
        metrics = metric_block(values, [n for n, _, _ in END_TO_END])
    ticks1 = cpu_ticks()
    host = {
        "nproc": os.cpu_count(),
        **software,
        "steal_ticks": ticks1["steal"] - ticks0["steal"],
        "user_ticks": ticks1["user"] - ticks0["user"],
        "setup_samples_s": setups,
        "passes": report["passes"],
        "hygiene_faults": report["hygiene_faults"],
    }
    print(json.dumps({"host": host}))
    print(json.dumps({
        "correct": not report["hygiene_faults"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
