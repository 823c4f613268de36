"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import functools
import gc
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer as tracermod  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def make(clock):
    t = tracermod.Tracer(clock=clock)
    return t


def work(clock, dt, inner=()):
    """A traced body: ``dt`` of own time, then each inner call."""
    def body():
        clock.t += dt
        for f in inner:
            f()
    return body


# -- self time ---------------------------------------------------------------

def test_self_time_one_child():
    clock = FakeClock()
    t = make(clock)
    child = t.wrap(work(clock, 2.0), "core.wire", "child")
    parent = t.wrap(work(clock, 3.0, [child]), "core.ldmsd", "parent")
    parent()
    assert t.self_time[("core.ldmsd", "setup")] == pytest.approx(3.0)
    assert t.self_time[("core.wire", "setup")] == pytest.approx(2.0)
    assert t.total_self() == pytest.approx(5.0)


def test_self_time_two_children():
    clock = FakeClock()
    t = make(clock)
    a = t.wrap(work(clock, 1.5), "core.wire", "a")
    b = t.wrap(work(clock, 0.5), "obs", "b")
    parent = t.wrap(work(clock, 1.0, [a, b, a]), "core.aggregator", "p")
    parent()
    assert t.self_time[("core.aggregator", "setup")] == pytest.approx(1.0)
    assert t.self_time[("core.wire", "setup")] == pytest.approx(3.0)
    assert t.self_time[("obs", "setup")] == pytest.approx(0.5)
    assert t.calls["a"] == 2 and t.calls["p"] == 1


def test_self_time_reentrant_same_layer():
    clock = FakeClock()
    t = make(clock)
    inner = t.wrap(work(clock, 2.0), "core.ldmsd", "inner", "grp")
    outer = t.wrap(work(clock, 1.0, [inner]), "core.ldmsd", "outer", "grp")
    outer()
    # Same layer nested: self times add to the outer span, never more.
    assert t.self_time[("core.ldmsd", "setup")] == pytest.approx(3.0)
    # The inclusive group counts the outermost span once.
    assert t.inclusive["grp"] == pytest.approx(3.0)


def test_self_time_split_by_phase():
    clock = FakeClock()
    t = make(clock)
    f = t.wrap(work(clock, 1.0), "sim.fleet", "f")
    f()
    t.phase = "steady"
    f()
    f()
    table = t.layer_phase_table()
    assert table["sim.fleet"] == {"setup": 1.0, "rampup": 0.0, "steady": 2.0}


def test_dispatch_attributed_by_callable_module():
    clock = FakeClock()
    t = make(clock)

    class Item:
        def __init__(self, fn):
            self.fn = fn

        def _fire(self):
            clock.t += 0.25
            self.fn()

    def cb():
        clock.t += 1.0

    cb.__module__ = "repro.core.aggregator"
    fire = t.wrap_dispatch(Item._fire, "sim.engine")
    run_ = t.wrap(lambda: [fire(Item(functools.partial(cb)))
                           for _ in range(2)], "sim.engine", "run")
    clock.t += 0.0
    run_()
    assert t.self_time[("core.aggregator", "setup")] == pytest.approx(2.5)
    assert t.self_time[("sim.engine", "setup")] == pytest.approx(0.0)


def test_save_restore_drops_untraced_reads():
    clock = FakeClock()
    t = make(clock)
    f = t.wrap(work(clock, 1.0), "obs", "f")
    f()
    state = t.save()
    f()
    t.restore(state)
    assert t.calls["f"] == 1
    assert t.self_time[("obs", "setup")] == pytest.approx(1.0)


def test_layer_names():
    assert tracermod.layer_of_module("repro.core.wire") == "core.wire"
    assert tracermod.layer_of_module("repro.obs.registry") == "obs"
    assert tracermod.layer_of_module("repro.nodefs.host") == "nodefs"
    assert (tracermod.layer_of_module("repro.plugins.stores.sos")
            == "plugins.stores")
    assert tracermod.layer_of_module("numpy") == "other"


# -- percentile rule -----------------------------------------------------------

@pytest.mark.parametrize("n,p", [(10, None), (19, None), (20, 50.0),
                                 (40, 75.0), (100, 90.0), (200, 95.0),
                                 (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_needs_ten_beyond(n, p):
    assert stats.tail_percentile(n) == p


def test_summarize():
    s = stats.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s["median"] == 3.0 and s["n"] == 5
    assert (s["q1"], s["q3"]) == (1.5, 4.5)
    assert s["spread"] == pytest.approx(1.0)
    assert s["tail_p"] is None and s["tail"] is None
    s = stats.summarize(range(1, 41))
    assert s["tail_p"] == 75.0 and s["tail"] == pytest.approx(30.25)


# -- failed_share and the run verdict ------------------------------------------

def rep(digest="d", failed_ops=0, attempted=100, traced=False, **detail):
    return {"digest": digest, "failed_ops": failed_ops,
            "attempted": attempted, "traced": traced,
            "counters": {"x": 1}, "detail": detail}


PINS = {"query_mix": {"seeds": {"*": {"digest": "d", "failed_ops": 17}}},
        "bw_failover": {"seeds": {"0": {"digest": "d", "failed_ops": 8}}},
        "fanin_knee": {"seeds": {"*": {"digest": "d", "failed_ops": 0}}}}


def test_failed_share_definition():
    assert workloads.failed_share(17, 20496, True) == pytest.approx(17 / 20496)
    assert workloads.failed_share(0, 0, True) == 0.0
    assert workloads.failed_share(0, 100, False) == 1.0


def test_verdict_baseline_failures_are_not_counted_failed():
    v = run.check("query_mix", 3, [rep(failed_ops=17)] * 3, [], PINS)
    assert v["correct"] and v["failed"] == 0
    assert v["failed_share"] == pytest.approx(0.17)


def test_verdict_failures_beyond_the_baseline():
    v = run.check("query_mix", 0, [rep(failed_ops=20)], [], PINS)
    assert not v["correct"]  # the pinned count moved
    assert v["failed"] == 100


def test_verdict_digest_mismatch_sets_share_to_one():
    v = run.check("fanin_knee", 0, [rep(digest="e")], [], PINS)
    assert not v["correct"] and v["failed_share"] == 1.0
    assert v["failed"] == 100


def test_verdict_traced_run_must_reproduce():
    traced = rep(traced=True)
    traced["counters"] = {"x": 2}
    v = run.check("fanin_knee", 0, [rep()], [traced], PINS)
    assert not v["correct"]
    assert any("traced counters" in p for p in v["problems"])


def test_verdict_ungated_seed_uses_default_baseline():
    reps = [rep(digest="z", failed_ops=8, promote_within_bound=True)] * 2
    v = run.check("bw_failover", 1234, reps, [], PINS)
    assert v["correct"] and not v["pinned"] and v["failed"] == 0
    bad = [rep(digest="z", failed_ops=8, promote_within_bound=False)]
    assert not run.check("bw_failover", 1234, bad, [], PINS)["correct"]


def test_verdict_repeats_must_agree():
    v = run.check("bw_failover", 1234, [rep(digest="a", failed_ops=8),
                                        rep(digest="b", failed_ops=8)],
                  [], PINS)
    assert not v["correct"] and v["failed_share"] == 1.0


# -- workload accounting on small worlds --------------------------------------

def _outcome(wl):
    try:
        wl.build()
        wl.rampup()
        wl.steady()
        return wl.finish()
    finally:
        gc.enable()  # fanin_knee leaves the collector paused


def test_fanin_accounting_small():
    out = _outcome(workloads.FaninKnee(0, "", n=8, duration=20.0))
    assert out.attempted == 8 * 3
    assert out.tx_total == 24 and out.failed_ops == 0
    assert out.tx_steady == out.tx_total


def test_query_accounting_small(tmp_path):
    out = _outcome(workloads.QueryMix(0, str(tmp_path), n=2, duration=30.0))
    assert out.attempted == 2 * 29 + out.detail["queries"]
    assert out.failed_ops == (max(2 * 29 - out.tx_total, 0)
                              + out.detail["queries_not_ok"])


def test_failover_accounting_small():
    out = _outcome(workloads.BwFailover(0, "", n=16, duration=30.0))
    assert out.failed_ops == out.detail["samples_lost"] > 0
    assert out.attempted == out.tx_total + out.failed_ops
    assert out.detail["promote_within_bound"]


def test_bw_day_accounting_small():
    out = _outcome(workloads.BwDay(9, "", dims=(4, 4, 4)))
    assert out.attempted == out.tx_total == 1440
    assert out.tx_steady == 1439 and out.failed_ops == 0


def _sliced_digest(wl, parts):
    try:
        wl.build()
        wl.rampup()
        for part in range(parts):
            wl.steady(part, parts)
        return wl.finish().digest
    finally:
        gc.enable()


@pytest.mark.parametrize("make", [
    lambda d: workloads.FaninKnee(0, "", n=8, duration=20.0),
    lambda d: workloads.QueryMix(0, d, n=2, duration=30.0),
    lambda d: workloads.BwFailover(0, "", n=16, duration=30.0),
    lambda d: workloads.BwDay(9, "", dims=(4, 4, 4)),
], ids=["fanin", "query", "failover", "bw_day"])
def test_steady_slices_do_not_change_output(make, tmp_path):
    whole = _sliced_digest(make(str(tmp_path / "a")), 1)
    assert _sliced_digest(make(str(tmp_path / "b")), 7) == whole


def test_slice_ends():
    ends = [workloads._slice_end(5.0, 40.0, i, 7) for i in range(7)]
    assert ends == [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
    assert workloads._slice_end(1.0, 300.0, 0, 1) == 300.0


# -- host-speed scaling --------------------------------------------------------


def _speed_clock(probes):
    clock = FakeClock()
    it = iter(probes)
    return clock, hostspeed.SpeedClock(clock=clock, probe=lambda: next(it))


def test_speed_clock_scales_by_mean_probe_at_both_ends():
    ref = hostspeed.REF_PROBE_S
    clock, sc = _speed_clock([ref, 3 * ref, 2 * ref])
    clock.t += 1.0
    assert sc.lap(1.0) == pytest.approx((1.0, 0.5))
    clock.t += 2.0
    assert sc.lap(1.0) == pytest.approx((2.0, 2.0 / 2.5))
    assert sc.stretches == [(1.0, ref, 3 * ref), (2.0, 3 * ref, 2 * ref)]


def test_speed_clock_sensitivity():
    ref = hostspeed.REF_PROBE_S
    clock, sc = _speed_clock([4 * ref, 4 * ref, 4 * ref])
    clock.t += 1.0
    assert sc.lap(0.5)[1] == pytest.approx(0.5)
    clock.t += 1.0
    assert sc.lap(0.0) == (1.0, 1.0)


def test_speed_clock_skip_leaves_time_out():
    ref = hostspeed.REF_PROBE_S
    clock, sc = _speed_clock([ref, ref])
    clock.t += 5.0
    sc.skip()
    clock.t += 1.0
    assert sc.lap(1.0) == (1.0, 1.0)


def test_fit_sensitivity_finds_the_exponent_that_agrees():
    # Two stretch kinds of different length, each slowing as probe**0.6.
    runs = [[(w * p ** 0.6, p, p) for w in (1.0, 5.0)]
            for p in (0.003, 0.004, 0.006, 0.008)]
    assert hostspeed.fit_sensitivity(runs) == pytest.approx(0.6)
    flat = [[(2.0, p, p)] for p in (0.003, 0.006)]
    assert hostspeed.fit_sensitivity(flat) == 0.0


# -- BENCHMARK.json agreement --------------------------------------------------

def _spec():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def test_reported_metrics_match_benchmark_json():
    spec = _spec()
    doc = {"wall_s": 2.0, "setup_s": 0.5, "rampup_s": 0.5, "steady_s": 1.0,
           "tx_steady": 10, "sim_s": 30.0, "peak_rss_mb": 1.0,
           "raw": {"wall_s": 2.0},
           "counters": {}, "calls": {}, "inclusive": {}, "layers": {}}
    assert set(run.e2e_values(doc)) == {m["name"] for m in spec["end_to_end"]}
    assert (set(run.layer_values([doc], [doc]))
            == {m["name"] for m in spec["per_layer"]})


def test_layer_map_names_benchmark_metrics():
    import json

    with open(os.path.join(HERE, "layers.json")) as f:
        mapping = json.load(f)["mapping"]
    spec = _spec()
    per_layer = {m["name"] for m in spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    for row in mapping:
        assert set(row["metrics"]) <= per_layer
        assert set(row["moves"]) <= e2e
        assert set(row["on"]) | set(row["flat_on"]) <= set(workloads.WORKLOADS)
