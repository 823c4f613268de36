"""Regenerate ``pins.json``: each workload's output digest and failed
operation count, from one fresh-process run per pinned seed.

    python3 perfbench/pins.py

``fanin_knee`` and ``query_mix`` take nothing from the seed and are
pinned once (key ``"*"``); ``bw_failover`` and ``bw_day`` are pinned for
seeds 0..31 and their drivers' default seeds.  A seed outside the table
runs ungated: its repetitions must still agree with each other.
Regenerate only when a change is meant to alter a workload's output,
and say so.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import run_rep  # noqa: E402
from workloads import DEFAULT_SEEDS, WORKLOADS  # noqa: E402

SEEDED = ("bw_failover", "bw_day")
PINNED_SEEDS = range(32)


def main() -> int:
    pins = {}
    for name in WORKLOADS:
        if name in SEEDED:
            seeds = sorted(set(PINNED_SEEDS) | {DEFAULT_SEEDS[name]})
        else:
            seeds = [DEFAULT_SEEDS[name]]
        table = {}
        for seed in seeds:
            d = run_rep(name, seed, False, f"pin-{name}")
            key = str(seed) if name in SEEDED else "*"
            table[key] = {"digest": d["digest"],
                          "failed_ops": d["failed_ops"]}
            print(f"{name} seed {seed}: {d['digest'][:16]} "
                  f"failed_ops={d['failed_ops']}", flush=True)
        pins[name] = {"seeds": table}
    with open(os.path.join(HERE, "pins.json"), "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
