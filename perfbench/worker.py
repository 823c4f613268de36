"""One run of one workload, in this fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \\
        --workdir DIR

Prints one JSON object: the phase walls scaled to the reference host
speed (:mod:`hostspeed`) and, under ``raw``, as read, the workload
outcome, the system's public counters, the peak RSS and, with
``--trace 1``, the per-layer self time by phase from :mod:`tracer`
(raw seconds, as are its ``phase_wall``).  ``run.py`` starts one
worker per repetition so every repetition pays its own set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import tracer as tracermod  # noqa: E402
import workloads  # noqa: E402

#: Imported before the clock starts, so set-up time is world
#: construction, not module loading.
_PRELOAD = ("repro.experiments.fanin", "repro.experiments.query_load",
            "repro.experiments.bw_day", "repro.faults",
            "repro.query.clients")


def run_once(name: str, seed: int, trace: bool, workdir: str) -> dict:
    import importlib

    for mod in _PRELOAD:
        importlib.import_module(mod)
    tracermod.import_layers()
    tracer = None
    if trace:
        tracer = tracermod.Tracer()
        tracermod.instrument(tracer)
    wl = workloads.WORKLOADS[name](seed, workdir)

    def phase(p):
        if tracer is not None:
            tracer.phase = p

    # Each phase's (raw, scaled) wall seconds; see hostspeed.
    walls = {}
    phase("setup")
    clock = hostspeed.SpeedClock()
    wl.build()
    walls["setup"] = clock.lap(wl.setup_sensitivity)
    phase("rampup")
    wl.rampup()
    walls["rampup"] = clock.lap(wl.run_sensitivity)
    phase("steady")
    steady = []
    for part in range(wl.slices):
        wl.steady(part, wl.slices)
        steady.append(clock.lap(wl.run_sensitivity))
    walls["steady"] = tuple(map(sum, zip(*steady)))
    # Counters are read off the clock, and their reads are not traced.
    saved = tracer.save() if tracer is not None else None
    counters = workloads.public_counters(wl.engine())
    if tracer is not None:
        tracer.restore(saved)
    clock.skip()
    outcome = wl.finish()
    walls["final"] = clock.lap(wl.run_sensitivity)
    counters.update(outcome.counters)
    doc = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "sim_s": outcome.sim_s,
        "tx_total": outcome.tx_total,
        "tx_steady": outcome.tx_steady,
        "attempted": outcome.attempted,
        "failed_ops": outcome.failed_ops,
        "digest": outcome.digest,
        "detail": outcome.detail,
        "counters": counters,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probe_ms": 1e3 * statistics.median(clock.probes),
        "stretches": clock.stretches,
        "raw": {},
    }
    for p, (raw, scaled) in walls.items():
        doc[f"{p}_s"] = scaled
        doc["raw"][f"{p}_s"] = raw
    doc["wall_s"] = sum(scaled for _, scaled in walls.values())
    doc["raw"]["wall_s"] = sum(raw for raw, _ in walls.values())
    if tracer is not None:
        doc["layers"] = tracer.layer_phase_table()
        doc["phase_wall"] = {"setup": walls["setup"][0],
                             "rampup": walls["rampup"][0],
                             "steady": walls["steady"][0] + walls["final"][0]}
        doc["calls"] = dict(tracer.calls)
        doc["inclusive"] = dict(tracer.inclusive)
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    try:
        doc = run_once(args.workload, args.seed, bool(args.trace),
                       args.workdir)
    finally:
        workloads.cleanup(args.workdir)
    print(json.dumps(doc, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    code = main()
    # Skip interpreter teardown: freeing a 9,000-daemon world object by
    # object takes seconds and measures nothing.
    sys.stderr.flush()
    os._exit(code)
