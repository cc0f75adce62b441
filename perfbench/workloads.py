"""The two workloads, each a repeated fixed unit of closed-loop work.

A *unit* starts the program fresh, times its set-up and its first
request, runs a fixed request list derived from the seed, reads the
program's counters and peak RSS, and stops it cleanly.  A run repeats
the same unit until ``--seconds`` have passed (at least
``MIN_UNITS`` times) and reports medians over units, so a run's
counts repeat exactly while its times are medians of several samples.

* ``serve-hot``: ``repro serve`` over a ``Session``, one client, a
  warmed working set so every timed answer comes from cache.
* ``incident-fleet``: ``repro serve --workers 2``, two clients kept in
  step, both asking about the same fresh fault sets each round.
"""

from __future__ import annotations

import gc
import pickle
import random
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (build_graph, fault_sets, four_kinds, median,
                    mismatches, quantile, Reference)
from procs import Program
from tracer import self_times

MIN_UNITS = 3
#: Fresh starts an untraced run makes at least (set-up, first request).
MIN_STARTS = 12

#: serve-hot: working-set fault sets, fault sets per request, timed
#: requests per unit.
HOT_WORKING_SET = 40
HOT_FAULT_SETS = 8
HOT_REQUESTS = 500
#: incident-fleet: rounds per unit, fresh fault sets per round, and
#: the fault sets of the warm-up round.  The fleet routes each fault
#: set to a worker by its hash, and a round waits for its busiest
#: worker.  With two fault sets per round, half the rounds put both on
#: one worker, so round latency is bimodal with the median between
#: the modes and p50 jumps with the seed; with three, three rounds in
#: four split 2/1 and the median sits inside that mode.  With two in
#: the warm-up round, half the seeds would also leave one worker cold
#: in the first request; with eight, all but 1 seed in 128 start both.
INCIDENT_ROUNDS = 150
INCIDENT_SETS_PER_ROUND = 3
INCIDENT_WARMUP_SETS = 8
INCIDENT_WORKERS = 2


class UnitResult:
    """What one unit measured."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.first_ms = 0.0
        self.latency_ms: List[float] = []
        self.queries = 0
        self.wall_s = 0.0
        self.rss_mb = 0.0
        self.requests = 0
        self.failed = 0
        self.survivors: List[int] = []
        self.layers: Dict[str, float] = {}
        self.counts: Dict[str, Any] = {}
        #: False for a start-only unit (set-up and first request only).
        self.full = True

    @property
    def qps(self) -> float:
        return self.queries / self.wall_s if self.wall_s > 0 else 0.0


# ---------------------------------------------------------------------------
# served workloads
# ---------------------------------------------------------------------------
class Served:
    """A fresh ``repro serve`` process and its connected clients."""

    def __init__(self, root: Path, work: Path, graph_path: Path,
                 workers: int, traced: bool, clients: int) -> None:
        from repro.service import ServiceClient

        port_file = work / "port"
        if port_file.exists():
            port_file.unlink()
        argv = [sys.executable, "-m", "repro", "serve", "--input",
                str(graph_path), "--port-file", str(port_file)]
        if workers:
            argv += ["--workers", str(workers)]
        if traced:
            argv += ["--metrics-port", "0"]
        self.prog = Program(argv, root=root, work=work)
        self.clients: List[Any] = []
        try:
            deadline = time.monotonic() + 120.0
            text = ""
            while not text.endswith("\n"):
                if self.prog.proc.poll() is not None:
                    raise RuntimeError(
                        f"repro serve exited: {self.prog.stderr_tail()}")
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve wrote no port file")
                time.sleep(0.002)
                text = port_file.read_text() if port_file.exists() else ""
            host, port = text.strip().rsplit(":", 1)
            for i in range(clients):
                self.clients.append(ServiceClient(
                    host, int(port), client=f"bench-{i}", timeout=120.0))
                if i == 0:
                    self.setup_s = time.perf_counter() - self.prog.started
        except BaseException:
            self.close()
            raise

    def stats(self) -> Dict[str, Any]:
        return self.clients[0].server_stats()

    def close(self) -> List[int]:
        for client in self.clients:
            client.close()
        return self.prog.stop()


def _answer(client: Any, queries: List[Any]) -> Tuple[float, Any]:
    start = time.perf_counter()
    try:
        answers = client.answer(queries)
    except Exception as exc:  # noqa: BLE001 - counted as a failed request
        return (time.perf_counter() - start) * 1e3, exc
    return (time.perf_counter() - start) * 1e3, answers


def _cache_delta(before: Any, after: Any) -> Dict[str, Any]:
    out = {}
    for key in ("hits", "misses", "evictions", "vector_hits",
                "vector_misses", "vector_evictions", "delta_hits",
                "delta_fallbacks"):
        out[key] = after[key] - before[key]
    waves = dict(after["wave_backends"])
    for name, count in before["wave_backends"]:
        waves[name] = waves.get(name, 0) - count
    out["wave_backends"] = sorted(waves.items())
    return out


def _server_delta(before: Dict[str, int], after: Dict[str, int]
                  ) -> Dict[str, int]:
    return {k: after[k] - before.get(k, 0) for k in
            ("batches", "flushed_queries", "coalesced_queries",
             "rejected", "answered")}


class ServedWorkload:
    """Shared unit skeleton of ``serve-hot`` and ``incident-fleet``."""

    workers = 0
    clients = 1

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root, self.work = root, work
        self.graph, self.graph_path = build_graph(seed, work)
        self.rng = random.Random(seed * 7919 + 2)

    # The subclass supplies warm-up requests (first one timed as the
    # first request) and timed rounds: per round, one request per client.
    warmup: List[List[List[Any]]]
    rounds: List[List[List[Any]]]
    table: Dict[Any, Any]

    def unit(self, traced: bool, full: bool = True,
             workers: Optional[int] = None) -> UnitResult:
        from repro import obs

        res = UnitResult()
        res.full = full
        workers = self.workers if workers is None else workers
        served = Served(self.root, self.work, self.graph_path, workers,
                        traced, self.clients)
        try:
            res.setup_s = served.setup_s
            if traced:
                obs.enable()
                obs.take_spans()
            res.first_ms = self._round(served, self.warmup[0], res)[0]
            if not full:
                return res
            for round_queries in self.warmup[1:]:
                self._round(served, round_queries, res)
            stats0 = served.stats()
            obs.take_spans()
            lat_all: List[float] = []
            answers = _Tally()
            # The benchmark's own long-lived objects (inputs, reference)
            # are moved out of the collector's reach, so the client
            # side's garbage collections cost what a client's would.
            gc.collect()
            gc.freeze()
            since = time.time()
            t0 = time.perf_counter()
            for round_queries in self.rounds:
                lat_all.extend(self._round(served, round_queries, res,
                                           answers))
            res.wall_s = time.perf_counter() - t0
            gc.unfreeze()
            client_spans = obs.take_spans() if traced else []
            obs.disable()
            stats1 = served.stats()
            res.rss_mb = served.prog.peak_rss_mb()
        finally:
            obs.disable()
            res.survivors = served.close()
        res.latency_ms = lat_all
        res.queries = sum(len(q) for rq in self.rounds for q in rq)
        cache = _cache_delta(stats0["cache"], stats1["cache"])
        server = _server_delta(stats0["server"], stats1["server"])
        prov, by_worker = answers.provenance, answers.by_worker
        requests = len(lat_all)
        res.counts = {"cache": cache, "server": server,
                      "provenance": prov, "by_worker": by_worker}
        stats = dict(prov, waves=sum(c for _, c in cache["wave_backends"]),
                     gathers=requests)
        res.layers = engine_layers(cache, stats, requests)
        res.layers.update(service_layers(server))
        res.layers["service.frame_bytes"] = _frame_bytes(
            self.rounds, answers.sample)
        res.layers["service.rejected"] = float(server["rejected"])
        if by_worker:
            counts = list(by_worker.values())
            res.layers["fleet.worker_imbalance"] = (
                max(counts) / (sum(counts) / len(counts)))
            res.layers["fleet.payload_bytes"] = _payload_bytes(
                self.rounds, answers.sample, self.clients)
        if traced:
            res.layers.update(span_layers(
                stats0["obs"], stats1["obs"], client_spans, since,
                requests))
        return res

    def _round(self, served: Served, round_queries: List[List[Any]],
               res: UnitResult,
               sink: Optional["_Tally"] = None) -> List[float]:
        """One request per client, all released together; returns
        their latencies in client order."""
        results: List[Any] = [None] * len(round_queries)
        if len(round_queries) == 1:
            results[0] = _answer(served.clients[0], round_queries[0])
        else:
            gate = threading.Barrier(len(round_queries))

            def go(i: int) -> None:
                gate.wait()
                results[i] = _answer(served.clients[i], round_queries[i])

            threads = [threading.Thread(target=go, args=(i,))
                       for i in range(len(round_queries))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        lats = []
        for queries, (lat, got) in zip(round_queries, results):
            lats.append(lat)
            res.requests += 1
            if isinstance(got, Exception):
                res.failed += 1
                continue
            if mismatches(queries, [a.value for a in got], self.table):
                res.failed += 1
            if sink is not None:
                sink.add(got)
        return lats


class _Tally:
    """Answer provenance counts, keeping only the first answers whole."""

    SAMPLE = 100

    def __init__(self) -> None:
        self.provenance: Dict[str, int] = {}
        self.by_worker: Dict[str, int] = {}
        self.sample: List[List[Any]] = []

    def add(self, answers: List[Any]) -> None:
        if len(self.sample) < self.SAMPLE:
            self.sample.append(answers)
        for a in answers:
            source, worker = a.provenance.source, a.provenance.worker
            self.provenance[source] = self.provenance.get(source, 0) + 1
            if worker is not None:
                self.by_worker[worker] = self.by_worker.get(worker, 0) + 1


class ServeHot(ServedWorkload):
    name = "serve-hot"
    deterministic = True

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        super().__init__(root, work, seed)
        rng = self.rng
        sets = fault_sets(self.graph, rng, HOT_WORKING_SET)
        per_set = [four_kinds(rng, f) for f in sets]
        self.warmup = [
            [[q for qs in per_set[i:i + HOT_FAULT_SETS] for q in qs]]
            for i in range(0, HOT_WORKING_SET, HOT_FAULT_SETS)
        ]
        self.rounds = [
            [[q for k in sorted(rng.sample(range(HOT_WORKING_SET),
                                           HOT_FAULT_SETS))
              for q in per_set[k]]]
            for _ in range(HOT_REQUESTS)
        ]
        self.table = Reference(self.graph).table(
            q for qs in per_set for q in qs)


class IncidentFleet(ServedWorkload):
    name = "incident-fleet"
    # Which queries share a micro-batch depends on arrival timing.
    deterministic = False
    workers = INCIDENT_WORKERS
    clients = 2

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        super().__init__(root, work, seed)
        from repro.query import (ConnectivityQuery, EccentricityQuery,
                                 PairQuery)

        rng = self.rng
        per_round = INCIDENT_SETS_PER_ROUND
        sets = fault_sets(self.graph, rng,
                          INCIDENT_WARMUP_SETS + per_round * INCIDENT_ROUNDS)

        def ask(faults: List[Any]) -> List[Any]:
            # Each client probes from its own fresh vertices.
            a, b, c, d = (rng.randrange(1000) for _ in range(4))
            return [q for f in faults for q in (
                EccentricityQuery(a, faults=f),
                EccentricityQuery(b, faults=f),
                PairQuery(c, d, faults=f),
                ConnectivityQuery(faults=f))]

        warm, sets = sets[:INCIDENT_WARMUP_SETS], sets[INCIDENT_WARMUP_SETS:]
        self.warmup = [[ask(warm) for _ in range(self.clients)]]
        self.rounds = [[ask(sets[i:i + per_round])
                        for _ in range(self.clients)]
                       for i in range(0, len(sets), per_round)]
        rounds = self.warmup + self.rounds
        self.table = Reference(self.graph).table(
            q for rq in rounds for qs in rq for q in qs)

    def unit(self, traced: bool, full: bool = True,
             workers: Optional[int] = None) -> UnitResult:
        res = super().unit(traced, full, workers)
        if traced and workers is None:
            # Same stream over a served Session: the fleet's extra waves.
            base = super().unit(False, workers=0)
            fleet_waves = res.layers["backends.waves.pyloops"] + \
                res.layers["backends.waves.vectorized"]
            base_waves = base.layers["backends.waves.pyloops"] + \
                base.layers["backends.waves.vectorized"]
            res.layers["fleet.wave_amplification"] = (
                fleet_waves / base_waves if base_waves else 0.0)
            res.survivors += base.survivors
            res.failed += base.failed
            res.requests += base.requests
        return res


WORKLOADS = {w.name: w for w in (ServeHot, IncidentFleet)}


# ---------------------------------------------------------------------------
# layer metrics
# ---------------------------------------------------------------------------
def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def engine_layers(cache: Dict[str, Any], stats: Dict[str, Any],
                  requests: int) -> Dict[str, float]:
    """Counts every run records: CacheInfo and SessionStats."""
    waves = dict(cache["wave_backends"])
    return {
        "backends.waves.pyloops": float(waves.get("pyloops", 0)),
        "backends.waves.vectorized": float(waves.get("vectorized", 0)),
        "incremental.delta_hits": float(cache["delta_hits"]),
        "incremental.delta_fallbacks": float(cache["delta_fallbacks"]),
        "incremental.delta_hit_ratio": _ratio(
            cache["delta_hits"],
            cache["delta_hits"] + cache["delta_fallbacks"]),
        "scenarios.pair_hit_ratio": _ratio(
            cache["hits"], cache["hits"] + cache["misses"]),
        "scenarios.vector_hit_ratio": _ratio(
            cache["vector_hits"],
            cache["vector_hits"] + cache["vector_misses"]),
        "scenarios.evictions": float(
            cache["evictions"] + cache["vector_evictions"]),
        "query.waves_per_request": _ratio(stats["waves"], requests),
        **{f"query.provenance.{k}": float(stats.get(k, 0))
           for k in ("cache", "filter", "delta", "wave")},
    }


def service_layers(server: Dict[str, int]) -> Dict[str, float]:
    return {
        "service.batch_queries": _ratio(server["flushed_queries"],
                                        server["batches"]),
        "service.coalesced_share": _ratio(server["coalesced_queries"],
                                          server["flushed_queries"]),
    }


def span_layers(obs0: Dict[str, Any], obs1: Dict[str, Any],
                client_spans: List[Any], since: float,
                requests: int) -> Dict[str, float]:
    """Per-layer times from the server's ``repro.obs`` records.

    ``obs0``/``obs1`` are the server's obs snapshots before and after
    the timed phase, which began at wall-clock ``since``.  Every
    metric covers the timed phase only, except the first wave, which
    is the first one the fresh program ran.
    """
    every = sorted((r for r in obs1.get("spans", [])
                    if r.get("kind") == "span"), key=lambda r: r["start"])
    spans = [r for r in every if r["start"] >= since]
    times = self_times(spans)

    def total_ms(name: str, key: str = "self_s") -> float:
        row = times.get(name)
        return row[key] * 1e3 if row else 0.0

    def per_call_ms(name: str) -> float:
        row = times.get(name)
        return _ratio(row["dur_s"] * 1e3, row["count"]) if row else 0.0

    first = next((r for r in every if r["name"] == "wave"), None)
    waves = [r for r in spans if r["name"] == "wave"]
    gathers = times.get("fleet.gather", {}).get("count", 0)
    out = {
        "backends.wave_ms": per_call_ms("wave"),
        "backends.first_wave_ms": (
            (first["end"] - first["start"]) * 1e3 if first else 0.0),
        "backends.sources_per_wave": _ratio(
            sum(r["attrs"].get("batch", 0) for r in waves), len(waves)),
        "incremental.repair_ms": per_call_ms("delta_repair"),
        "query.execute_ms": _ratio(total_ms("planner.execute"), requests),
        "fleet.dispatch_ms": _ratio(total_ms("fleet.gather"), gathers),
        "fleet.worker_ms": _ratio(total_ms("worker.execute", "dur_s"),
                                  gathers),
    }

    def counter(snapshot: Dict[str, Any], name: str,
                reason: str = "") -> float:
        return sum(rec["value"] for rec in snapshot.get("metrics", [])
                   if rec["name"] == name and rec["kind"] == "counter"
                   and (not reason or rec["labels"].get("reason") == reason))

    def delta(name: str, reason: str = "") -> float:
        return counter(obs1, name, reason) - counter(obs0, name, reason)

    out["fleet.respawns"] = delta("repro_fleet_respawns_total")
    out["fleet.serial_fallbacks"] = delta(
        "repro_fleet_serial_fallbacks_total")
    out["service.deadline_flush_share"] = _ratio(
        delta("repro_coalescer_flushes_total", "deadline"),
        delta("repro_coalescer_flushes_total"))
    # Service overhead: the client's request time minus the backend
    # call (the coalescer's wave span) that answered it.
    backend = {}
    for r in spans:
        if r["name"] == "coalescer.wave":
            for trace_id in r["attrs"].get("traces", ()):
                backend[trace_id] = r["end"] - r["start"]
    gaps = [(r["end"] - r["start"]) - backend[r["trace_id"]]
            for r in client_spans
            if r["name"] == "client.request" and r["trace_id"] in backend]
    out["service.overhead_ms"] = _ratio(sum(gaps) * 1e3, len(gaps))
    return out


def _frame_bytes(rounds: List[List[List[Any]]], answers: List[List[Any]],
                 sample: int = 50) -> float:
    """Computed wire bytes per request: request frame + answer frame."""
    from repro.service import protocol

    total = 0
    flat = [q for rq in rounds for q in rq]
    pairs = list(zip(flat, answers))[:sample]
    for i, (queries, got) in enumerate(pairs):
        total += len(protocol.encode_message({
            "type": "answer", "id": i + 1, "queries": queries,
            "scheme": None, "tenant": None}))
        total += len(protocol.encode_message({
            "type": "answers", "id": i + 1, "answers": got}))
    return _ratio(total, len(pairs))


def _payload_bytes(rounds: List[List[List[Any]]], answers: List[List[Any]],
                   clients: int, sample: int = 50) -> float:
    """Computed pickle bytes per round crossing the fleet pipes: the
    round's merged queries out, its answers back."""
    total, count = 0, 0
    for i in range(0, min(len(answers), sample * clients), clients):
        queries = [q for qs in rounds[i // clients] for q in qs]
        got = [a for batch in answers[i:i + clients] for a in batch]
        total += len(pickle.dumps(queries, pickle.HIGHEST_PROTOCOL))
        total += len(pickle.dumps(got, pickle.HIGHEST_PROTOCOL))
        count += 1
    return _ratio(total, count)


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------
def run(workload: Any, seconds: float, trace: bool
        ) -> Tuple[List[UnitResult], List[UnitResult]]:
    """Repeat the unit until ``seconds`` pass; returns (untraced, traced).

    A traced run alternates untraced and traced units, so the
    tracing overhead is a ratio of medians from the same run.  An
    untraced run then adds start-only units until it has
    ``MIN_STARTS`` fresh starts, for the set-up and first-request
    medians.
    """
    plain: List[UnitResult] = []
    traced: List[UnitResult] = []
    start = time.perf_counter()
    while True:
        want_traced = trace and len(traced) < len(plain)
        unit = workload.unit(want_traced)
        (traced if want_traced else plain).append(unit)
        done = len(plain) >= MIN_UNITS and (not trace
                                            or len(traced) >= MIN_UNITS)
        if done and time.perf_counter() - start >= seconds:
            break
    while not trace and len(plain) < MIN_STARTS:
        plain.append(workload.unit(False, full=False))
    return plain, traced


def request_profile(units: List[UnitResult]) -> List[float]:
    """Each timed request's latency, as its median over the full units.

    Every full unit of a run replays the same request list, so request
    ``i`` is measured once per unit.  A pause of the host slows the
    requests it meets in one unit, not the same request in most units,
    so the median keeps what the program does to each request (a round
    whose fault sets all go to one worker is slow in every unit) and
    drops most of what the host does.
    """
    full = [u for u in units if u.full]
    return [median(lats) for lats in zip(*(u.latency_ms for u in full))]


def summarize(units: List[UnitResult]) -> Dict[str, float]:
    """End-to-end metrics of a run."""
    full = [u for u in units if u.full]
    profile = request_profile(units)
    return {
        "setup_s": median([u.setup_s for u in units]),
        "first_request_ms": median([u.first_ms for u in units]),
        "throughput_qps": median([u.qps for u in full]),
        "request_p50_ms": quantile(profile, 0.50),
        "request_p95_ms": quantile(profile, 0.95),
        "peak_rss_mb": median([u.rss_mb for u in full]),
    }
