"""Seeded inputs, the cache-free reference, and small statistics.

Everything a workload feeds the program is derived here from the
benchmark seed: the graph (written as an edge list the program loads),
the two-edge fault sets, and the fixed request lists.  The reference
answers every distinct query by BFS on the program's ``FaultView`` and
never touches an engine cache.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.graphs import generators
from repro.graphs.io import write_edgelist
from repro.graphs.views import FaultView
from repro.query import (ConnectivityQuery, DistanceQuery,
                         EccentricityQuery, PairQuery)
from repro.query.queries import PairReport

N = 1000
P = 8 / 1000

Edge = Tuple[int, int]
FaultSet = Tuple[Edge, Edge]


def build_graph(seed: int, work: Path) -> Tuple[Any, Path]:
    """The workload graph and the edge-list file the program loads."""
    graph = generators.connected_erdos_renyi(N, P, seed=seed)
    path = work / f"graph-{seed}.txt"
    write_edgelist(graph, path)
    return graph, path


def fault_sets(graph: Any, rng: random.Random, count: int
               ) -> List[FaultSet]:
    """``count`` distinct two-edge fault sets."""
    edges = sorted(graph.edges())
    seen, out = set(), []
    while len(out) < count:
        a, b = sorted(rng.sample(edges, 2))
        if (a, b) not in seen:
            seen.add((a, b))
            out.append((a, b))
    return out


def four_kinds(rng: random.Random, faults: FaultSet) -> List[Any]:
    """One query of each kind over ``faults``, from fresh probe vertices."""
    a, b, c, d, e = (rng.randrange(N) for _ in range(5))
    return [EccentricityQuery(a, faults=faults),
            DistanceQuery(b, c, faults=faults),
            PairQuery(d, e, faults=faults),
            ConnectivityQuery(faults=faults)]


# ---------------------------------------------------------------------------
# reference
# ---------------------------------------------------------------------------
class Reference:
    """Cache-free answers: BFS on a ``FaultView`` per (source, faults).

    The view's neighbour lists are materialised once per fault set.
    Only the endpoints of a fault edge have lists that differ from the
    base graph's, so those are read from the view and the rest are
    shared with the base adjacency.
    """

    def __init__(self, graph: Any) -> None:
        self.graph = graph
        self._base = [tuple(graph.neighbors(v)) for v in range(graph.n)]
        self._faults: Tuple[Edge, ...] = ()
        self._adj: Dict[int, Tuple[int, ...]] = {}
        self._rows: Dict[int, List[int]] = {}
        self._base_rows: Dict[int, List[int]] = {}

    def _bfs(self, source: int) -> List[int]:
        base, adj = self._base, self._adj
        dist = [-1] * len(base)
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for w in adj[u] if u in adj else base[u]:
                if dist[w] < 0:
                    dist[w] = du
                    queue.append(w)
        return dist

    def row(self, source: int, faults: Tuple[Edge, ...]) -> List[int]:
        if not faults:
            row = self._base_rows.get(source)
            if row is None:
                saved, self._adj = self._adj, {}
                row = self._base_rows[source] = self._bfs(source)
                self._adj = saved
            return row
        if faults != self._faults:
            view = FaultView(self.graph, faults)
            self._faults, self._rows = faults, {}
            self._adj = {v: tuple(view.neighbors(v))
                         for e in faults for v in e}
        row = self._rows.get(source)
        if row is None:
            row = self._rows[source] = self._bfs(source)
        return row

    def value(self, q: Any) -> Any:
        faults = q.faults
        if isinstance(q, EccentricityQuery):
            row = self.row(q.source, faults)
            return -1 if min(row) < 0 else max(row)
        if isinstance(q, DistanceQuery):
            return self.row(q.source, faults)[q.target]
        if isinstance(q, PairQuery):
            return PairReport(base=self.row(q.source, ())[q.target],
                              distance=self.row(q.source, faults)[q.target])
        if isinstance(q, ConnectivityQuery):
            # Undirected: one full row decides connectivity.
            self.row(0, faults)
            row = next(iter(self._rows.values()))
            return min(row) >= 0
        raise TypeError(f"no reference for {q!r}")

    def table(self, queries: Iterable[Any]) -> Dict[Any, Any]:
        """Reference value of every distinct query."""
        out: Dict[Any, Any] = {}
        for q in queries:
            if q not in out:
                out[q] = self.value(q)
        return out


def mismatches(queries: Sequence[Any], values: Sequence[Any],
               table: Dict[Any, Any]) -> int:
    """Answers that differ from the reference (missing ones count)."""
    bad = abs(len(queries) - len(values))
    for q, v in zip(queries, values):
        if table[q] != v:
            bad += 1
    return bad


# ---------------------------------------------------------------------------
# statistics and host record
# ---------------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 6)))
    return float(ordered[rank - 1])


def steal_ticks() -> int:
    """Clock ticks the hypervisor has taken from this machine's CPUs
    (``steal`` in ``/proc/stat``; 0 where the field is absent)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes (recorded, never applied)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0
