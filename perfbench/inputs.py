"""Seeded workload inputs.

Each workload draws its instances from a fixed pool: pool member ``i``
is a graph and a solver seed that never change.  The workload seed
picks which members a run solves and in what order.  So the same seed
gives the same inputs, every count repeats exactly for a seed, and
whether any pool member fails a check is a property of the code, not
of the seed: every pool member was solved and checked once (see
README.md), and none fails on the code the benchmark was written
against.  The program only ever sees the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WEIGHTS = (1.0, 50.0)
EPS = 0.2

#: ``full`` is what the benchmark measures; ``smoke`` runs the same code
#: at tiny sizes in seconds (``run.py --smoke``).
SIZES = {
    "full": {
        # G(n, 8n) for each n; 2 of a pool of 8 per n: 8 solves, ~25 s here
        "ram-exact": {"sizes": (128, 144, 160, 176), "m_per_n": 8, "pool": 8, "per_run": 2},
        # 4 of a pool of 16 G(512, 4096) files: 4 solves, ~28 s here
        "file-local": {"sizes": (512,), "m_per_n": 8, "pool": 16, "per_run": 4},
        "served": {
            "n_range": (48, 96),
            "m_per_n": 4,
            "pool": 200,
            "unique": 96,
            "requests": 120,
            "workers": 1,
            "connections": 2,
            # requests go out in waves of `window`; a repeat is sent at
            # least `repeat_gap` >= `window` requests after its first
            # copy, so in a later wave, once that copy was answered:
            # every repeat is a result-cache hit
            "window": 8,
            "repeat_gap": 16,
        },
    },
    "smoke": {
        "ram-exact": {"sizes": (16, 24), "m_per_n": 4, "pool": 2, "per_run": 1},
        "file-local": {"sizes": (40,), "m_per_n": 4, "pool": 3, "per_run": 2},
        "served": {
            "n_range": (12, 20),
            "m_per_n": 3,
            "pool": 9,
            "unique": 7,
            "requests": 10,
            "workers": 1,
            "connections": 2,
            "window": 4,
            "repeat_gap": 4,
        },
    },
}

#: Seed-independent warm-up instance (n, m) solved once during set-up.
WARMUP = {"full": (32, 128), "smoke": (8, 16)}

_TAGS = {"ram-exact": 1, "file-local": 2, "served": 3}


def weighted_gnm(n: int, m: int, seed: int):
    """G(n, m) with i.i.d. Uniform[1, 50] weights (in-RAM ``Graph``)."""
    from repro import graphgen

    base = graphgen.gnm_graph(n, m, seed=seed)
    return graphgen.with_uniform_weights(base, *WEIGHTS, seed=seed + 1)


@dataclass(frozen=True)
class Instance:
    """One solve: graph parameters, graph seed and solver seed."""

    n: int
    m: int
    graph_seed: int
    solver_seed: int


def pool_member(workload: str, scale: str, index: int, n: int | None = None) -> Instance:
    """Member ``index`` of a workload's fixed pool (``n`` for the
    per-size pools; drawn for ``served``)."""
    spec = SIZES[scale][workload]
    rng = np.random.default_rng([_TAGS[workload], n or 0, index])
    if n is None:
        lo, hi = spec["n_range"]
        n = int(rng.integers(lo, hi + 1))
    graph_seed, solver_seed = (int(v) for v in rng.integers(2**31, size=2))
    return Instance(n, spec["m_per_n"] * n, graph_seed, solver_seed)


def pool(workload: str, scale: str) -> list[Instance]:
    """Every member of a workload's pool."""
    spec = SIZES[scale][workload]
    if workload == "served":
        return [pool_member(workload, scale, i) for i in range(spec["pool"])]
    return [
        pool_member(workload, scale, i, n)
        for n in spec["sizes"]
        for i in range(spec["pool"])
    ]


def _run_rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_TAGS[workload], int(seed), 1])


def instance_set(workload: str, seed: int, scale: str) -> list[Instance]:
    """The in-process workloads' instances for one run: ``per_run``
    members of each size's pool, interleaved by size."""
    spec = SIZES[scale][workload]
    rng = _run_rng(workload, seed)
    picks = {n: rng.choice(spec["pool"], size=spec["per_run"], replace=False) for n in spec["sizes"]}
    return [
        pool_member(workload, scale, int(picks[n][rep]), n)
        for rep in range(spec["per_run"])
        for n in spec["sizes"]
    ]


@dataclass
class RequestPlan:
    """The served workload's request sequence.

    ``unique[k]`` is a distinct problem; ``sequence[i]`` names the
    problem sent as request ``i``; ``first[i]`` is the position of that
    problem's first copy (``first[i] == i`` for a first copy).
    """

    unique: list[Instance]
    sequence: list[int]
    first: list[int]
    window: int


def served(seed: int, scale: str) -> RequestPlan:
    spec = SIZES[scale]["served"]
    if spec["repeat_gap"] < spec["window"]:
        raise ValueError("a repeat must be sent in a later wave than its first copy")
    rng = _run_rng("served", seed)
    members = rng.choice(spec["pool"], size=spec["unique"], replace=False)
    unique = [pool_member("served", scale, int(i)) for i in members]
    total, gap = spec["requests"], spec["repeat_gap"]
    n_repeats = total - spec["unique"]
    # repeats sit at seeded positions after the first `gap` requests
    repeat_at = set(
        rng.choice(np.arange(gap, total), size=n_repeats, replace=False).tolist()
    )
    sequence: list[int] = []
    first: list[int] = []
    first_pos: dict[int, int] = {}
    for i in range(total):
        if i in repeat_at:
            eligible = [k for k, p in first_pos.items() if p <= i - gap]
            k = int(eligible[int(rng.integers(len(eligible)))])
            sequence.append(k)
            first.append(first_pos[k])
        else:
            first_pos[len(first_pos)] = i
            sequence.append(len(first_pos) - 1)
            first.append(i)
    return RequestPlan(unique, sequence, first, spec["window"])
