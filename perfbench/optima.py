"""Recompute optima.json: the networkx optimum of every pool member.

    python3 perfbench/optima.py

Run from the root of a source checkout (about two minutes on a 2-core
host).  Each entry ties the optimum to the exact input by a sha256 of
its edge columns (``checks.Columns.digest``), as the solver sees them:
in RAM for ``ram-exact`` and ``served``, read back from the written
``.edges`` file (key-sorted) for ``file-local``.  A run whose input is
not in the table computes its optimum itself.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, inputs  # noqa: E402


def main() -> int:
    from repro.ingest import write_graph_file

    tmp = ROOT / ".bench_build" / "perfbench" / "optima"
    tmp.mkdir(parents=True, exist_ok=True)
    entries = []
    try:
        for workload in ("ram-exact", "file-local", "served"):
            for index, inst in enumerate(inputs.pool(workload, "full")):
                graph = inputs.weighted_gnm(inst.n, inst.m, inst.graph_seed)
                if workload == "file-local":
                    path = tmp / "pool.edges"
                    write_graph_file(path, graph)
                    cols = checks.read_edges_file(path)
                else:
                    cols = checks.Columns.from_graph(graph)
                entries.append({
                    "workload": workload,
                    "n": inst.n,
                    "m": inst.m,
                    "graph_seed": inst.graph_seed,
                    "sha256": cols.digest(),
                    "optimum": checks.networkx_optimum(cols),
                })
            print(f"{workload}: {index + 1} optima", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    head = {
        "command": "python3 perfbench/optima.py",
        "method": "networkx.max_weight_matching on the whole instance",
    }
    # one instance per line keeps the table reviewable in a diff
    rows = ",\n".join(json.dumps(e) for e in entries)
    text = json.dumps(head)[:-1] + ', "instances": [\n' + rows + "\n]}\n"
    (HERE / "optima.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
