"""The benchmark's four fixed DES workloads.

Each workload is built, ramped up (the first collection interval),
run to its horizon (steady phase, in ``slices`` stretches of simulated
time so the host-speed probe can run between them) and digested inside
one fresh process.  The worlds are the experiment drivers' own topologies
(``fanin._build``, the ``query_load`` topology, ``run_failover``'s
Fig. 3 standby deployment, ``bw_day.build_trace``) at fixed sizes; only
``bw_failover`` and ``bw_day`` draw anything from the seed.

Left out on purpose: the over-capacity 10,229-sampler fan-in point
(it stores rows byte-identical to the knee and adds only the refusal
path) and the real-TCP ``transport.sock`` + ``RealEnv`` path (its rate
is set by the wall-clock sample interval and thread scheduling).
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Outcome", "WORKLOADS", "DEFAULT_SEEDS", "failed_share",
           "public_counters", "cleanup"]


@dataclass
class Outcome:
    """What one run of a workload produced."""

    digest: str
    #: simulated seconds advanced after set-up
    sim_s: float
    #: stored update transactions (fleet samples on ``bw_day``)
    tx_total: int
    #: of ``tx_total``, stored after ramp-up
    tx_steady: int
    #: operations attempted and failed, by the workload's definition
    attempted: int
    failed_ops: int
    #: extra numbers the report prints
    detail: dict = field(default_factory=dict)
    #: workload-level counters merged into the public counters
    counters: dict = field(default_factory=dict)


def failed_share(failed_ops: int, attempted: int, digest_ok: bool) -> float:
    """Failed ÷ attempted; an output-digest mismatch makes it 1.0."""
    if not digest_ok:
        return 1.0
    return failed_ops / attempted if attempted else 0.0


def _slice_end(start: float, end: float, part: int, parts: int) -> float:
    """Simulated time at which steady stretch ``part`` of ``parts``
    between ``start`` and ``end`` ends; the last one ends at ``end``."""
    if part == parts - 1:
        return end
    return start + (end - start) * (part + 1) / parts


# ---------------------------------------------------------------------------
# fanin_knee
# ---------------------------------------------------------------------------

class FaninKnee:
    """9,216 synthetic 10-metric samplers on ``sock`` at 5 s into one
    8-worker aggregator with a memory store: the §IV-A knee."""

    name = "fanin_knee"
    #: the steady phase runs in this many equal stretches of simulated
    #: time, with a host-speed probe between them (see ``hostspeed``)
    slices = 14
    #: ``hostspeed.fit_sensitivity`` of this workload's set-up and of
    #: the rest of its run, averaged over batches of ten to twenty
    #: repetitions on a 2-vCPU VM (``record.py`` re-measures them)
    setup_sensitivity = 0.55
    run_sensitivity = 0.75

    def __init__(self, seed: int, workdir: str, n: int = 9216,
                 duration: float = 40.0, interval: float = 5.0,
                 metrics: int = 10):
        self.n, self.duration, self.interval = n, duration, interval
        self.metrics = metrics

    def build(self) -> None:
        import gc

        from repro.experiments import fanin

        # As fanin.run_point, the cyclic collector stays paused for the
        # point; it is not resumed before the final output either, so
        # that output never pays for one full collection of the whole
        # world (the worker process exits without collecting).
        gc.disable()
        (self.eng, self.env, self.agg, self.agg_x,
         self.store) = fanin._build(self.n, "sock", self.interval,
                                    self.metrics, self.duration)

    def rampup(self) -> None:
        self.eng.run(until=self.interval)
        self._rows0 = len(self.store.rows)

    def steady(self, part: int = 0, parts: int = 1) -> None:
        self.eng.run(until=_slice_end(self.interval, self.duration,
                                      part, parts))

    def finish(self) -> Outcome:
        from repro.experiments import fanin

        rows = len(self.store.rows)
        expected = int(self.n * (self.duration / self.interval - 1))
        return Outcome(
            digest=fanin._rows_digest(self.store),
            sim_s=self.duration,
            tx_total=rows,
            tx_steady=rows - self._rows0,
            attempted=expected,
            failed_ops=max(expected - rows, 0),
            detail={"rows": rows, "expected_rows": expected},
        )

    def engine(self):
        return self.eng


# ---------------------------------------------------------------------------
# query_mix
# ---------------------------------------------------------------------------

class QueryMix:
    """64 samplers x 8 metrics at 1 s into an SOS store with 10/60
    rollups, served over wire QUERY to the default 14-client CMS mix
    (open loop on the simulated clock)."""

    name = "query_mix"
    slices = 26
    setup_sensitivity = 0.7
    run_sensitivity = 0.85

    def __init__(self, seed: int, workdir: str, n: int = 64,
                 metrics: int = 8, duration: float = 300.0,
                 interval: float = 1.0):
        self.n, self.metrics = n, metrics
        self.duration, self.interval = duration, interval
        self.path = os.path.join(workdir, "sos")

    def build(self) -> None:
        # The topology of repro.experiments.query_load.run_query_load,
        # with the SOS containers inside the benchmark's work directory.
        from repro.core import Ldmsd, SimEnv
        from repro.obs.registry import Telemetry
        from repro.query.clients import ClientMix, build_population
        from repro.sim.engine import Engine
        from repro.transport.simfabric import SimFabric, SimTransport

        os.makedirs(self.path)
        n, m, xprt, interval = self.n, self.metrics, "sock", self.interval
        mix = ClientMix()
        self.eng = eng = Engine()
        env = SimEnv(eng)
        fabric = SimFabric(eng)
        for i in range(n):
            x = SimTransport(fabric, xprt, node_id=i)
            d = Ldmsd(f"n{i}", env=env, transports={xprt: x},
                      mem=max(8 * 1024, 4096 + m * 256),
                      workers=1, conn_threads=1, flush_threads=1)
            d.load_sampler("synthetic", instance=f"n{i}/syn",
                           component_id=i + 1, num_metrics=m)
            d.start_sampler(f"n{i}/syn", interval=interval)
            d.listen(xprt, f"n{i}:411")
        agg_x = SimTransport(fabric, xprt, node_id="agg")
        self.agg = agg = Ldmsd("agg", env=env, transports={xprt: agg_x},
                               mem=max(4 * 1024 * 1024, n * 4096),
                               workers=8, conn_threads=4, flush_threads=2)
        self.store = agg.add_store(
            "sos", path=self.path,
            rollups=f"{int(mix.eval_level)},{int(mix.scan_level)}")
        for i in range(n):
            agg.add_producer(f"n{i}", xprt, f"n{i}:411", interval=interval,
                             sets=(f"n{i}/syn",))
        agg.enable_query(hot_window=30.0, cache_entries=256)
        agg.listen(xprt, "agg:412")
        self.clients = build_population(
            env, lambda i: SimTransport(fabric, xprt, node_id=f"client{i}"),
            "agg:412", "synthetic", mix, Telemetry(enabled=True))
        for c in self.clients:
            c.start()

    def rampup(self) -> None:
        self.eng.run(until=self.interval)
        self._rows0 = self.store.records_stored

    def steady(self, part: int = 0, parts: int = 1) -> None:
        self.eng.run(until=_slice_end(self.interval, self.duration,
                                      part, parts))

    def finish(self) -> Outcome:
        from repro.experiments.query_load import _digest

        stored = self.store.records_stored
        sent = sum(c.sent for c in self.clients)
        replies = sum(c.replies for c in self.clients)
        errors = sum(c.errors for c in self.clients)
        self.agg.shutdown()  # seals rollup buckets + closes containers
        digest = _digest(self.path)
        expected = int(self.n * (self.duration / self.interval - 1))
        not_ok = (sent - replies) + errors
        return Outcome(
            digest=digest,
            sim_s=self.duration,
            tx_total=stored,
            tx_steady=stored - self._rows0,
            attempted=expected + sent,
            failed_ops=max(expected - stored, 0) + not_ok,
            detail={"records": stored, "queries": sent,
                    "queries_not_ok": not_ok},
        )

    def engine(self):
        return self.eng


# ---------------------------------------------------------------------------
# bw_failover
# ---------------------------------------------------------------------------

class BwFailover:
    """``blue_waters(64)`` with real ``bw_custom`` samplers, the Fig. 3
    standby deployment, a k=2 watchdog, and one L1 aggregator killed
    at 20 s of a 60 s run."""

    name = "bw_failover"
    slices = 20
    setup_sensitivity = 0.35
    run_sensitivity = 0.9

    def __init__(self, seed: int, workdir: str, n: int = 64,
                 fanin: int = 8, interval: float = 1.0, k: int = 2,
                 kill_at: float = 20.0, duration: float = 60.0):
        self.seed, self.n, self.fanin = seed, n, fanin
        self.interval, self.k = interval, k
        self.kill_at, self.duration = kill_at, duration

    def build(self) -> None:
        from repro.cluster.machine import blue_waters
        from repro.faults import FaultPlan

        self.m = m = blue_waters(self.n, seed=self.seed)
        self.dep = dep = m.deploy_ldms(
            interval=self.interval, collect_interval=self.interval,
            fanin=self.fanin, second_level=False, standby=True,
            store="memory")
        self.wd = m.attach_watchdog(dep, check_interval=self.interval,
                                    k=self.k)
        self.victim = dep.level1[-1]
        self.victim_idx = len(dep.level1) - 1
        m.fault_injector(dep).arm(
            FaultPlan().crash(self.victim.name, self.kill_at))

    def _rows(self) -> int:
        return sum(len(s.rows) for s in self.dep.stores)

    def rampup(self) -> None:
        self.m.run(until=self.interval)
        self._rows0 = self._rows()

    def steady(self, part: int = 0, parts: int = 1) -> None:
        self.m.run(until=_slice_end(self.interval, self.duration,
                                    part, parts))

    def finish(self) -> Outcome:
        # The analysis of repro.experiments.failover.run_failover.
        victim, interval = self.victim, self.interval
        detect = next((e.time for e in self.wd.events
                       if e.target == victim.name and e.kind == "dead"),
                      float("inf"))
        lo = self.victim_idx * self.fanin
        hi = min((self.victim_idx + 1) * self.fanin, self.n)
        group = {f"n{i}" for i in range(lo, hi)}
        rows: dict[str, list[tuple]] = {}
        for store in self.dep.stores:
            for r in store.rows:
                if r.producer.removeprefix("standby-") in group:
                    vals = (tuple(r.values.items())
                            if hasattr(r.values, "items") else tuple(r.values))
                    rows.setdefault(r.set_name, []).append((r.timestamp, vals))
        lost = 0
        timeline = []
        for set_name in sorted(rows):
            series = sorted(rows[set_name], key=lambda tv: tv[0])
            timeline.append((set_name, tuple(series)))
            ts = [t for t, _ in series]
            for a, b in zip(ts, ts[1:]):
                if b - a > 1.5 * interval:
                    lost += int(round((b - a) / interval)) - 1
        stored = self._rows()
        return Outcome(
            digest=hashlib.sha256(
                (repr(detect) + repr(timeline)).encode()).hexdigest(),
            sim_s=self.duration,
            tx_total=stored,
            tx_steady=stored - self._rows0,
            attempted=stored + lost,
            failed_ops=lost,
            detail={"detect_time": detect, "samples_lost": lost,
                    "victim_group_rows": sum(len(t) for _, t in timeline),
                    "promote_within_bound":
                        detect - self.kill_at <= (self.k + 1) * interval},
        )

    def engine(self):
        return self.m.engine


# ---------------------------------------------------------------------------
# bw_day
# ---------------------------------------------------------------------------

class BwDay:
    """The shared 24-hour Blue Waters HSN trace on the 24x24x24 torus
    (Figs. 9/10).  No daemons: ``network.congestion`` and ``sim.fleet``
    do the work.  Ramp-up is the first sample, evaluated as the
    ``sample_range`` slice the sharded day uses."""

    name = "bw_day"
    #: One stretch: a later ``sample_range`` slice replays every flow
    #: event before it, which would add work a single run does not do.
    slices = 1
    #: The day runs mostly in numpy's compiled loops, which the host's
    #: swings move far less than they move the interpreter.
    setup_sensitivity = 0.8
    run_sensitivity = 0.35

    def __init__(self, seed: int, workdir: str,
                 dims: tuple[int, int, int] = (24, 24, 24),
                 sample_interval: float = 60.0):
        self.seed, self.dims = seed, dims
        self.sample_interval = sample_interval

    def build(self) -> None:
        from repro.experiments.bw_day import DAY, build_trace

        self.day = DAY
        self.n_samples = int(round(DAY / self.sample_interval))
        self.trace, _ = build_trace(self.dims, self.sample_interval,
                                    seed=self.seed)

    def rampup(self) -> None:
        self.parts = [self.trace.run(self.day, sample_range=(0, 1))]

    def steady(self, part: int = 0, parts: int = 1) -> None:
        n = self.n_samples - 1
        self.parts.append(self.trace.run(
            self.day, sample_range=(1 + n * part // parts,
                                    1 + n * (part + 1) // parts)))

    def finish(self) -> Outcome:
        # Hashing the slices in order hashes the bytes of the full
        # arrays without concatenating 80 MB copies.
        h = hashlib.sha256()
        bad_rows = 0
        peak = {}
        for kind in ("stall_pct", "bw_pct"):
            for d in ("X+", "Y+"):
                for p in self.parts:
                    a = getattr(p, kind)[d]
                    h.update(memoryview(np.ascontiguousarray(a)))
                    bad_rows += int((~np.isfinite(a)).any(axis=1).sum())
                    peak[kind] = max(peak.get(kind, 0.0), float(a.max()))
        samples = sum(len(p.times) for p in self.parts)
        return Outcome(
            digest=h.hexdigest(),
            sim_s=self.day,
            tx_total=samples,
            tx_steady=len(self.parts[1].times),
            attempted=samples,
            failed_ops=bad_rows,
            detail={"max_stall_pct": round(peak["stall_pct"], 3),
                    "max_bw_pct": round(peak["bw_pct"], 3)},
            counters={"sim.fleet.samples": samples},
        )

    def engine(self):
        return None


WORKLOADS = {w.name: w for w in (FaninKnee, QueryMix, BwFailover, BwDay)}

#: Seed each workload's own driver uses; the pins are recorded there.
DEFAULT_SEEDS = {"fanin_knee": 0, "query_mix": 0, "bw_failover": 0,
                 "bw_day": 9}


def public_counters(engine) -> dict:
    """The system's own counters (``Engine``, the producer and store
    counters ``Ldmsd.stats()`` reports, the daemons' ``obs`` counters,
    ``SetArenaPool.stats()``, ``QueryEngine.stats()``, transport
    refusals, fabric totals), summed over the live daemons.  Read at
    the end of the simulation, before the final output step, in traced
    and untraced runs alike."""
    from repro.obs import flight

    out: dict[str, float] = {}
    if engine is not None:
        out["sim.engine.events"] = engine.events_processed
        out["sim.engine.vectorized_events"] = engine.vectorized_events
    daemons = flight.registered_daemons()
    if not daemons:
        return out
    producer_keys = {
        "updates_issued": "core.aggregator.updates",
        "skipped_stale": "core.aggregator.skipped_stale",
        "skipped_inconsistent": "core.aggregator.skipped_inconsistent",
        "updates_coalesced": "core.aggregator.coalesced",
        "lookups_sent": "core.aggregator.lookups",
        "stored": "core.aggregator.stored",
    }
    obs_keys = {
        "arena.rows_vectorized": "core.set_arena.rows_vectorized",
        "arena.fallback_sets": "core.set_arena.fallback_sets",
        "sampler.samples": "plugins.samplers.samples",
        "watchdog.promotions": "faults.watchdog.promotions",
    }
    query_keys = {"requests": "query.engine.queries",
                  "cache_hits": "query.engine.cache_hits",
                  "rows_served": "query.engine.rows_served"}
    names = (list(producer_keys.values()) + list(obs_keys.values())
             + list(query_keys.values())
             + ["core.store.rows", "core.store.failed",
                "transport.simfabric.refused"])
    c = dict.fromkeys(names, 0)
    fabrics = {}
    for d in daemons:
        for p in d.producers.values():
            for k, name in producer_keys.items():
                c[name] += getattr(p.stats, k)
        for k, name in obs_keys.items():
            c[name] += d.obs.counter(k).value
        if d.query_engine is not None:
            for k, v in d.query_engine.stats().items():
                if k in query_keys:
                    c[query_keys[k]] += v
        for s in d.stores:
            c["core.store.rows"] += s.records_stored
            c["core.store.failed"] += s.records_failed
        for x in d.transports.values():
            c["transport.simfabric.refused"] += x.refused_connections
            fabrics[id(x.fabric)] = x.fabric
    c["transport.simfabric.frames"] = sum(f.total_messages
                                          for f in fabrics.values())
    c["transport.simfabric.bytes"] = sum(f.total_bytes
                                         for f in fabrics.values())
    if daemons[0].set_pool is not None:
        c["core.set_arena.rows"] = daemons[0].set_pool.stats()["rows"]
    out.update(c)
    return out


def cleanup(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
