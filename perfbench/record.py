"""Record the benchmark on this host: ``RECORD.json``.

    python3 perfbench/record.py [--runs 10] [--workload NAME ...]

For each workload, runs ``run.py --trace 0`` once per seed (seeds
``1..runs``, as separate processes exactly as a driver would) and
reports each end-to-end metric's median, quartiles and spread
(interquartile distance over the median) against a third of its
bound.  Then takes three traced repetitions at the workload's default
seed and records the layer x phase self-time split with the checks the
workloads were chosen for, marking any the trace refutes, and
re-measures each workload's host-speed sensitivities (``hostspeed``)
over ten untraced repetitions beside the constants the workload uses.
Also records ``host_cpus`` and the Python and numpy versions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostspeed import fit_sensitivity  # noqa: E402
from run import env_info, layer_table, run_rep  # noqa: E402
from stats import summarize  # noqa: E402
from workloads import DEFAULT_SEEDS, WORKLOADS  # noqa: E402

TRACED_REPS = 3
SENSITIVITY_REPS = 10


def sensitivity(name: str, reps: int = SENSITIVITY_REPS) -> dict:
    """Re-measure the workload's host-speed sensitivities (set-up, and
    the rest of the run) over ``reps`` untraced repetitions at its
    default seed, beside the constants the workload uses."""
    runs = [run_rep(name, DEFAULT_SEEDS[name], False, f"sens-{name}")
            for _ in range(reps)]
    wl = WORKLOADS[name]
    return {"setup": fit_sensitivity([r["stretches"][:1] for r in runs]),
            "run": fit_sensitivity([r["stretches"][1:] for r in runs]),
            "used": {"setup": wl.setup_sensitivity,
                     "run": wl.run_sensitivity},
            "reps": reps}


def steady_shares(traced: list[dict]) -> dict:
    rows, top = layer_table(traced)
    total = sum(r[3] for r in rows)
    return {"largest": top,
            "steady_share": {r[0]: r[3] / total for r in rows if r[3] > 0},
            "self_s": {r[0]: dict(zip(("setup", "rampup", "steady"), r[1:]))
                       for r in rows}}


def predictions(split: dict) -> list[dict]:
    """The per-workload claims of the benchmark's design, as measured."""
    def share(w, *layers):
        s = split.get(w, {}).get("steady_share", {})
        return sum(s.get(layer, 0.0) for layer in layers)

    def others_max(w, *layers):
        s = split.get(w, {}).get("steady_share", {})
        return max((v for k, v in s.items()
                    if k not in layers and k != "(unattributed)"),
                   default=0.0)

    out = []

    def claim(text, ok, measured):
        out.append({"claim": text, "holds": bool(ok), "measured": measured})

    if "bw_failover" in split:
        s = share("bw_failover", "nodefs", "plugins.samplers")
        claim("nodefs + plugins.samplers lead steady self time on bw_failover",
              s > others_max("bw_failover", "nodefs", "plugins.samplers"),
              round(s, 4))
    if "fanin_knee" in split:
        s = share("fanin_knee", "nodefs", "plugins.samplers")
        claim("nodefs + plugins.samplers are ~0 (<1%) of steady self time "
              "on fanin_knee", s < 0.01, round(s, 4))
    if "bw_day" in split:
        s = share("bw_day", "network.congestion", "sim.fleet")
        claim("network.congestion + sim.fleet lead steady self time on "
              "bw_day", s > others_max("bw_day", "network.congestion",
                                       "sim.fleet"), round(s, 4))
    if "query_mix" in split and "fanin_knee" in split:
        q = share("query_mix", "core.wire", "query.engine", "plugins.stores")
        f = share("fanin_knee", "core.wire", "query.engine", "plugins.stores")
        claim("core.wire + query.engine + plugins.stores hold a larger "
              "steady share on query_mix than on fanin_knee", q > f,
              {"query_mix": round(q, 4), "fanin_knee": round(f, 4)})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    path = os.path.join(HERE, "RECORD.json")
    record = {"env": env_info(), "run_seconds": spec["run_seconds"],
              "workloads": {}, "traced_split": {},
              "host_sensitivity": {}}
    if os.path.exists(path):
        with open(path) as f:
            old = json.load(f)
        record["workloads"] = old.get("workloads", {})
        record["traced_split"] = old.get("traced_split", {})
        record["host_sensitivity"] = old.get("host_sensitivity", {})

    for name in names:
        results = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}"
                for k, v in results[-1]["metrics"].items()), flush=True)
        metrics = {}
        for m in results[0]["metrics"]:
            s = summarize([r["metrics"][m]["value"] for r in results])
            s["bound"] = bounds[m]
            s["steady"] = s["spread"] < bounds[m] / 3
            metrics[m] = s
        record["workloads"][name] = {
            "runs": len(results),
            "all_correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
        traced = [run_rep(name, DEFAULT_SEEDS[name], True, f"record-{name}")
                  for _ in range(TRACED_REPS)]
        record["traced_split"][name] = steady_shares(traced)
        record["host_sensitivity"][name] = sensitivity(name)
        with open(path, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    record["predictions"] = predictions(record["traced_split"])
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    for name in names:
        for m, s in record["workloads"][name]["metrics"].items():
            print(f"{name:<12} {m:<18} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.3f} (bound/3 {s['bound'] / 3:.3f})"
                  f"{'' if s['steady'] else '  NOT STEADY'}")
    for p in record["predictions"]:
        print(("holds   " if p["holds"] else "REFUTED ") + p["claim"]
              + f": {p['measured']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
