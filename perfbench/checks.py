"""Independent output checks.

Every solver result is re-checked here from the input columns with
numpy (and, where it is cheap, against the networkx blossom optimum).
Nothing in this module calls the program's own verifier
(``repro.matching.verify``): a fault there must not hide a fault in
the answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Relative float tolerance for recomputed sums; the solver's own audit
#: slack is 1e-9 absolute on each edge constraint.
RTOL = 1e-9


@dataclass
class Columns:
    """The instance as plain arrays: ``src``/``dst``/``weight``/``b``."""

    n: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    b: np.ndarray

    def digest(self) -> str:
        """sha256 of the edge columns: ties a stored optimum to its input."""
        import hashlib

        h = hashlib.sha256(str(self.n).encode())
        for column in (self.src, self.dst, self.weight):
            h.update(np.ascontiguousarray(column).tobytes())
        return h.hexdigest()

    @classmethod
    def from_graph(cls, graph) -> "Columns":
        return cls(
            int(graph.n),
            np.asarray(graph.src, dtype=np.int64),
            np.asarray(graph.dst, dtype=np.int64),
            np.asarray(graph.weight, dtype=np.float64),
            np.asarray(graph.b, dtype=np.int64),
        )


@dataclass
class Verdict:
    """What the checks recomputed, and every check that failed."""

    weight: float
    upper_bound: float
    failures: list[str]

    @property
    def ratio(self) -> float:
        return self.weight / self.upper_bound if self.upper_bound > 0 else 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def check_result(
    cols: Columns,
    edge_ids,
    multiplicity,
    reported_weight: float,
    cert_x,
    cert_z: dict,
    reported_upper: float,
    eps: float,
    optimum: float | None = None,
) -> Verdict:
    """Check one matching and its dual certificate against the input.

    * the matching is a b-matching of the input: ids in range and
      distinct, multiplicities >= 1, every vertex load within ``b``;
    * its weight, recomputed from the columns, equals ``reported_weight``;
    * the certificate ``x``/``z`` covers every input edge, and its
      objective, recomputed, equals ``reported_upper``;
    * ``weight / upper_bound >= 1 - eps``;
    * ``upper_bound >= optimum`` when the optimum is given.
    """
    failures: list[str] = []
    ids = np.asarray(edge_ids, dtype=np.int64)
    mult = np.asarray(multiplicity, dtype=np.int64)
    m = len(cols.src)
    weight = float("nan")
    if ids.shape != mult.shape:
        failures.append("matching ids and multiplicities differ in length")
    elif len(ids) and (ids.min() < 0 or ids.max() >= m):
        failures.append("matching names an edge outside the input")
    elif len(np.unique(ids)) != len(ids):
        failures.append("matching repeats an edge id")
    elif len(mult) and mult.min() < 1:
        failures.append("matching has a multiplicity below 1")
    else:
        load = np.bincount(cols.src[ids], weights=mult, minlength=cols.n)
        load += np.bincount(cols.dst[ids], weights=mult, minlength=cols.n)
        over = np.flatnonzero(load > cols.b)
        if len(over):
            failures.append(f"vertex {int(over[0])} over-used: load {load[over[0]]:g}")
        weight = float((cols.weight[ids] * mult).sum())
        if not _close(weight, float(reported_weight)):
            failures.append(
                f"matched weight {reported_weight!r} != recomputed {weight!r}"
            )

    x = np.asarray(cert_x, dtype=np.float64)
    upper = float("nan")
    if x.shape != (cols.n,):
        failures.append("certificate x does not have one entry per vertex")
    else:
        cover = x[cols.src] + x[cols.dst]
        upper = float((cols.b * x).sum())
        for members, zu in (cert_z or {}).items():
            inside = np.zeros(cols.n, dtype=bool)
            inside[list(members)] = True
            cover = cover + np.where(inside[cols.src] & inside[cols.dst], zu, 0.0)
            upper += float(zu) * (int(cols.b[list(members)].sum()) // 2)
        short = cols.weight - cover
        worst = int(np.argmax(short)) if m else 0
        if m and short[worst] > RTOL * max(1.0, cols.weight[worst]):
            failures.append(
                f"certificate leaves edge {worst} uncovered by {short[worst]:.3g}"
            )
        if not _close(upper, float(reported_upper)):
            failures.append(
                f"certificate objective {reported_upper!r} != recomputed {upper!r}"
            )
    verdict = Verdict(weight, upper, failures)
    if not failures and verdict.ratio < 1.0 - eps:
        failures.append(f"certified ratio {verdict.ratio:.4f} < 1 - eps")
    if optimum is not None and not failures and upper < optimum * (1.0 - RTOL):
        failures.append(f"upper bound {upper!r} below the optimum {optimum!r}")
    return verdict


def networkx_optimum(cols: Columns) -> float:
    """Maximum matching weight of the whole instance (networkx blossom).

    Plain matchings only (``b`` all ones), which every workload uses.
    """
    import networkx as nx

    if not bool(np.all(cols.b == 1)):
        raise ValueError("the networkx optimum is for b = 1 instances")
    g = nx.Graph()
    g.add_nodes_from(range(cols.n))
    g.add_weighted_edges_from(
        zip(cols.src.tolist(), cols.dst.tolist(), cols.weight.tolist())
    )
    pairs = nx.max_weight_matching(g)
    return float(sum(g[u][v]["weight"] for u, v in pairs))


def read_edges_file(path) -> Columns:
    """Read a ``.edges`` v1 file with numpy alone (not the program's
    reader): 40-byte header, then ``src`` and ``dst`` as uint32 and
    ``weight`` as float64 columns."""
    raw = np.fromfile(path, dtype=np.uint8)
    if raw[:8].tobytes() != b"REDGES01":
        raise ValueError(f"{path}: not a .edges v1 file")
    n, m = (int(v) for v in raw[8:24].view("<u8"))
    base = 40
    src = raw[base : base + 4 * m].view("<u4").astype(np.int64)
    dst = raw[base + 4 * m : base + 8 * m].view("<u4").astype(np.int64)
    w = raw[base + 8 * m : base + 16 * m].view("<f8").astype(np.float64)
    return Columns(n, src, dst, w, np.ones(n, dtype=np.int64))
