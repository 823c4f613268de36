"""Cross-check the benchmark's worlds against the repository's records.

    python3 perfbench/crosscheck.py

At the experiment drivers' own parameters the benchmark's workload
builders must reproduce what the drivers recorded:

* ``fanin_knee`` at 9,216 samplers x 30 sim-s gives the knee's
  ``rows_sha256`` in ``BENCH_fanin.json``;
* ``query_mix`` at ``BENCH_query.json``'s own config (8 samplers x 6
  metrics x 120 sim-s) gives its ``container_sha256``;
* ``bw_failover`` gives ``run_failover(n_nodes=64)``'s detect time,
  samples lost and victim-group rows;
* ``bw_day``'s two ``sample_range`` slices hash like one
  ``trace.run(DAY)``.

Exits 1 on any mismatch.  Takes about half a minute.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _run(wl) -> workloads.Outcome:
    try:
        wl.build()
        wl.rampup()
        wl.steady()
        return wl.finish()
    finally:
        gc.enable()  # fanin_knee leaves the collector paused


def check_fanin() -> tuple[str, str]:
    with open(os.path.join(ROOT, "BENCH_fanin.json")) as f:
        rec = json.load(f)
    point = next(p for p in rec["points"] if p["n_samplers"] == rec["knee"])
    out = _run(workloads.FaninKnee(0, "", n=rec["knee"],
                                   duration=rec["duration_s"],
                                   interval=rec["interval_s"],
                                   metrics=rec["metrics_per_set"]))
    return out.digest, point["rows_sha256"]


def check_query(workdir: str) -> tuple[str, str]:
    with open(os.path.join(ROOT, "BENCH_query.json")) as f:
        rec = json.load(f)
    cfg = rec["config"]
    out = _run(workloads.QueryMix(0, workdir, n=cfg["n_samplers"],
                                  metrics=cfg["n_metrics"],
                                  duration=cfg["duration"],
                                  interval=cfg["interval"]))
    workloads.cleanup(workdir)
    return out.digest, rec["sos"]["container_sha256"]


def check_failover() -> tuple[tuple, tuple]:
    from repro.experiments.failover import run_failover

    wl = workloads.BwFailover(0, "")
    out = _run(wl)
    ref = run_failover(n_nodes=wl.n, fanin=wl.fanin, interval=wl.interval,
                       k=wl.k, kill_at=wl.kill_at, duration=wl.duration,
                       seed=0)
    mine = (out.detail["detect_time"], out.detail["samples_lost"],
            out.detail["victim_group_rows"])
    return mine, (ref.detect_time, ref.samples_lost, ref.rows_victim_group)


def check_bw_day() -> tuple[str, str]:
    from repro.experiments.bw_day import run_day

    wl = workloads.BwDay(9, "")
    out = _run(wl)
    res, _ = run_day(seed=9, nshards=1)
    h = hashlib.sha256()
    for kind in (res.stall_pct, res.bw_pct):
        for d in ("X+", "Y+"):
            h.update(memoryview(np.ascontiguousarray(kind[d])))
    return out.digest, h.hexdigest()


def main() -> int:
    workdir = os.path.join(ROOT, ".perfbench_work", f"crosscheck-{os.getpid()}")
    checks = [("fanin_knee vs BENCH_fanin.json", check_fanin),
              ("query_mix vs BENCH_query.json",
               lambda: check_query(workdir)),
              ("bw_failover vs run_failover", check_failover),
              ("bw_day slices vs trace.run(DAY)", check_bw_day)]
    ok = True
    for label, fn in checks:
        mine, ref = fn()
        same = mine == ref
        ok &= same
        print(f"{label}: {'match' if same else 'MISMATCH'} "
              f"(benchmark {mine}, record {ref})", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
