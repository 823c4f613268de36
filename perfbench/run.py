"""The LDMS reproduction's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one of four fixed DES workloads (``fanin_knee``, ``query_mix``,
``bw_failover``, ``bw_day``; see :mod:`workloads`) repeatedly for about
``S`` seconds, each repetition in a fresh single-threaded process, and
checks every repetition's output digest against the pin in
``pins.json``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as
medians over the repetitions: wall and set-up time, stored update
transactions per wall-second after ramp-up (fleet samples on
``bw_day``), simulated seconds per wall-second after set-up, and peak
RSS.  Every time in them is wall time scaled to a reference host speed
by the probe of :mod:`hostspeed`, which measures the shared host's
speed between stretches of the run; the table of repetitions shows
the raw wall time and the probe beside them.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics: the
system's own counters, counts and inclusive times from the tracer's
wrappers, and each layer's self time (raw wall seconds) split into
set-up, ramp-up (first collection interval) and steady phases.  It
prints the layer x phase table and names the largest steady-phase
layer; ``layers.json`` says which end-to-end metric each layer metric
should move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed``
counts operations that failed beyond the workload's pinned baseline
(the early ``E_NOENT`` rollup misses of ``query_mix``, the victim
samples ``bw_failover`` loses by design); the report line
``failed_share`` gives all failed operations over attempted ones.

Every ``REPRO_*`` toggle must be at its default: the benchmark refuses
to run when one is set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import summarize  # noqa: E402
from workloads import DEFAULT_SEEDS, WORKLOADS, failed_share  # noqa: E402

MIN_REPS = 3
#: A run stops starting repetitions after this long, whatever --seconds
#: says, so it always exits within the driver's limit.
HARD_STOP_S = 120.0
REP_TIMEOUT_S = 170.0

#: Layers whose self time is a per-layer metric.
SELF_LAYERS = ("sim.engine", "core.ldmsd", "transport.simfabric",
               "core.aggregator", "plugins.stores", "core.wire",
               "query.engine", "obs", "plugins.samplers", "nodefs",
               "faults", "network.congestion", "network.traffic",
               "sim.fleet")
PHASES = ("setup", "rampup", "steady")


def env_info() -> dict:
    import numpy

    return {"host_cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def run_rep(workload: str, seed: int, trace: bool, tag: str) -> dict:
    workdir = os.path.join(ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"),
         "--workload", workload, "--seed", str(seed),
         "--trace", "1" if trace else "0", "--workdir", workdir],
        cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {workload} repetition failed "
                         f"(exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pin_for(pins: dict, workload: str, seed: int) -> dict | None:
    seeds = pins[workload]["seeds"]
    return seeds.get("*", seeds.get(str(seed)))


def e2e_values(doc: dict) -> dict:
    run_s = doc["rampup_s"] + doc["steady_s"]
    return {
        "wall_s": doc["wall_s"],
        "setup_s": doc["setup_s"],
        "steady_tx_per_s": doc["tx_steady"] / doc["steady_s"],
        "sim_s_per_wall_s": doc["sim_s"] / run_s,
        "peak_rss_mb": doc["peak_rss_mb"],
    }


#: Per-layer counts read straight off the system's public counters.
COUNTER_METRICS = (
    "sim.engine.events", "sim.engine.vectorized_events",
    "core.set_arena.rows_vectorized", "core.set_arena.fallback_sets",
    "transport.simfabric.frames", "transport.simfabric.bytes",
    "transport.simfabric.refused", "core.aggregator.updates",
    "core.aggregator.skipped_stale", "core.aggregator.skipped_inconsistent",
    "core.aggregator.coalesced", "core.aggregator.lookups",
    "core.store.rows", "core.store.failed", "query.engine.queries",
    "query.engine.rows_served", "plugins.samplers.samples",
    "faults.watchdog.promotions", "sim.fleet.samples")

#: Per-layer times that are the tracer's inclusive groups.
INCLUSIVE_METRICS = {
    "core.ldmsd.construct_s": "core.ldmsd.construct",
    "core.metric_set.create_s": "core.metric_set.create",
    "plugins.stores.sos.read_s": "plugins.stores.sos.read",
    "cluster.machine.deploy_s": "cluster.machine.deploy",
}

#: Per-layer counts of calls the tracer's wrappers saw, by key prefix.
CALL_METRICS = {
    "core.metric_set.created": ("core.metric_set:MetricSet.__init__",),
    "transport.simfabric.rdma_reads": (
        "transport.simfabric:_SimEndpoint.rdma_read",),
    "core.store.flush_batches": ("core.store:StorePlugin.submit_many",),
    "obs.registry.lookups": ("obs:Telemetry.counter", "obs:Telemetry.gauge",
                             "obs:Telemetry.histogram"),
    "obs.registry.observes": ("obs:Histogram.observe",),
    "network.congestion.calls": ("network.congestion:",),
    "network.torus.routes": ("network.torus:GeminiTorus.route",),
}


def layer_values(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics: counts from the first traced repetition
    (every repetition reproduces them), times as medians over the
    traced repetitions."""
    c, calls = traced[0]["counters"], traced[0]["calls"]

    def ratio(a, b):
        return a / b if b else 0.0

    def med(fn):
        return statistics.median(fn(d) for d in traced)

    out = {name: c.get(name, 0) for name in COUNTER_METRICS}
    for name, prefixes in CALL_METRICS.items():
        out[name] = sum(v for k, v in calls.items() if k.startswith(prefixes))
    for name, group in INCLUSIVE_METRICS.items():
        out[name] = med(lambda d: d["inclusive"].get(group, 0.0))
    out["core.aggregator.useful_ratio"] = ratio(
        c.get("core.aggregator.stored", 0), c.get("core.aggregator.updates", 0))
    out["query.engine.cache_hit_ratio"] = ratio(
        c.get("query.engine.cache_hits", 0), c.get("query.engine.queries", 0))
    for layer in SELF_LAYERS:
        for phase in PHASES:
            out[f"{layer}.self_s.{phase}"] = med(
                lambda d: d["layers"].get(layer, {}).get(phase, 0.0))
        out[f"{layer}.self_s"] = sum(out[f"{layer}.self_s.{p}"]
                                     for p in PHASES)
    traced_wall = statistics.median(d["wall_s"] for d in traced)
    plain_wall = statistics.median(d["wall_s"] for d in untraced)
    out["bench.trace_overhead"] = traced_wall / plain_wall - 1.0
    out["bench.unattributed_share"] = med(
        lambda d: 1.0 - sum(sum(v.values()) for v in d["layers"].values())
        / d["raw"]["wall_s"])
    return out


def layer_table(traced: list[dict]) -> tuple[list[tuple], str]:
    """Median self time per (layer, phase), the unattributed remainder
    as its own row, and the largest steady-phase layer."""
    layers = sorted({k for d in traced for k in d["layers"]})
    rows = []
    for layer in layers:
        rows.append((layer,) + tuple(
            statistics.median(d["layers"].get(layer, {}).get(p, 0.0)
                              for d in traced) for p in PHASES))
    rows.sort(key=lambda r: -r[3])
    top = rows[0][0] if rows else "-"
    rest = tuple(
        statistics.median(d["phase_wall"][p] - sum(
            v[p] for v in d["layers"].values()) for d in traced)
        for p in PHASES)
    rows.append(("(unattributed)",) + rest)
    return rows, top


def check(workload: str, seed: int, reps: list[dict], traced: list[dict],
          pins: dict) -> dict:
    """Correctness of one run: determinism across fresh processes, the
    output pin, the pinned failure baseline, workload invariants, and
    (traced) fidelity of the traced repetitions."""
    problems = []
    first = reps[0]
    for d in reps[1:] + traced:
        kind = "traced" if d["traced"] else "repeat"
        if d["digest"] != first["digest"]:
            problems.append(f"{kind} digest {d['digest'][:16]} != "
                            f"{first['digest'][:16]}")
        if d["counters"] != first["counters"]:
            diff = sorted(k for k in set(d["counters"]) | set(first["counters"])
                          if d["counters"].get(k) != first["counters"].get(k))
            problems.append(f"{kind} counters differ: {', '.join(diff)}")
    pin = pin_for(pins, workload, seed)
    default_pin = pin_for(pins, workload, DEFAULT_SEEDS[workload])
    digest_ok = not problems
    if pin is not None:
        if first["digest"] != pin["digest"]:
            digest_ok = False
            problems.append(f"digest {first['digest'][:16]} != pin "
                            f"{pin['digest'][:16]}")
        if first["failed_ops"] != pin["failed_ops"]:
            problems.append(f"failed ops {first['failed_ops']} != pinned "
                            f"{pin['failed_ops']}")
    if not first["detail"].get("promote_within_bound", True):
        problems.append("standby promotion outside the watchdog bound")
    baseline = (pin or default_pin)["failed_ops"]
    correct = not problems
    attempted = first["attempted"]
    return {
        "correct": correct,
        "problems": problems,
        "pinned": pin is not None,
        "baseline": baseline,
        "attempted": attempted,
        "failed": (max(first["failed_ops"] - baseline, 0) if correct
                   else attempted),
        "failed_share": failed_share(first["failed_ops"], attempted,
                                     digest_ok),
    }


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="LDMS reproduction benchmark (one workload per run)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    toggles = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if toggles:
        print(f"perfbench: refusing to record with {', '.join(toggles)} "
              "set; every REPRO_* toggle must be at its default",
              file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro next to perfbench/", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)

    env = env_info()
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items())
          + " REPRO_*=default")

    reps: list[dict] = []
    traced: list[dict] = []
    t_start = time.perf_counter()
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        tag = f"{args.workload}-{len(durations)}"
        reps.append(run_rep(args.workload, args.seed, False, tag))
        if args.trace:
            traced.append(run_rep(args.workload, args.seed, True, tag + "t"))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        enough = len(durations) >= (1 if args.trace else MIN_REPS)
        if enough and (elapsed + statistics.median(durations) > args.seconds
                       or elapsed > HARD_STOP_S):
            break

    verdict = check(args.workload, args.seed, reps, traced, pins)
    per_rep = [e2e_values(d) for d in reps]
    e2e = {k: statistics.median(v[k] for v in per_rep) for k in per_rep[0]}

    print(f"repetitions: {len(reps)} untraced"
          + (f", {len(traced)} traced" if traced else "")
          + f" in {time.perf_counter() - t_start:.1f} s")
    print(f"{'rep':>3} {'wall_s':>8} {'setup_s':>8} {'rampup_s':>8} "
          f"{'steady_s':>8} {'final_s':>8} {'tx/s':>10} {'sim_s/s':>10} "
          f"{'rss_mb':>7} {'raw_wall':>8} {'probe_ms':>8}")
    for i, (d, v) in enumerate(zip(reps, per_rep)):
        print(f"{i:>3} {d['wall_s']:8.3f} {d['setup_s']:8.3f} "
              f"{d['rampup_s']:8.3f} {d['steady_s']:8.3f} "
              f"{d['final_s']:8.3f} {v['steady_tx_per_s']:10.1f} "
              f"{v['sim_s_per_wall_s']:10.2f} {v['peak_rss_mb']:7.1f} "
              f"{d['raw']['wall_s']:8.3f} {d['probe_ms']:8.3f}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in e2e.items():
        s = summarize([v[name] for v in per_rep])
        print(f"{name:<18} {value:12.6g} {units.get(name, ''):<6} "
              f"(median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    print(f"{'failed_share':<18} {verdict['failed_share']:12.6g} ratio  "
          f"({reps[0]['failed_ops']} of {verdict['attempted']} failed; "
          f"pinned baseline {verdict['baseline']})")
    print(f"output digest {reps[0]['digest'][:16]}: "
          + ("pinned" if verdict["pinned"] else "ungated seed (not pinned)")
          + (", all checks pass" if verdict["correct"]
             else " -- " + "; ".join(verdict["problems"])))
    print("detail: " + json.dumps(reps[0]["detail"], sort_keys=True))

    if args.trace:
        values = layer_values(traced, reps)
        rows, top = layer_table(traced)
        print(f"\nself time by layer and phase (s, median of "
              f"{len(traced)} traced):")
        print(f"{'layer':<24} {'setup':>9} {'rampup':>9} {'steady':>9}")
        for r in rows:
            print(f"{r[0]:<24} {r[1]:9.4f} {r[2]:9.4f} {r[3]:9.4f}")
        print(f"largest steady-phase layer: {top}")
        print(f"trace overhead {values['bench.trace_overhead']:+.1%}, "
              f"unattributed {values['bench.unattributed_share']:.1%}; "
              "traced digest and counters "
              + ("match" if verdict["correct"] else "checked above"))
        wanted = spec["per_layer"]
    else:
        values = e2e
        wanted = spec["end_to_end"]

    result = {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    try:
        os.rmdir(os.path.join(ROOT, ".perfbench_work"))
    except OSError:
        pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
