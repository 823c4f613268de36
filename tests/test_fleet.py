"""Tests for the fleet fast path, including DES cross-validation.

DESIGN.md promises: "Fidelity cross-checks between the two paths are
part of the test suite."  ``test_fleet_matches_des_pipeline`` runs the
same steady workload through (a) the real daemon pipeline in the DES
and (b) the vectorised fleet path, and requires the derived
percent-stalled values to agree.
"""

import hashlib

import numpy as np
import pytest

import repro.plugins  # noqa: F401
from repro.cluster import JobSpec, Scheduler, blue_waters
from repro.network.torus import GeminiTorus
from repro.sim.fleet import HsnFleetTrace, RateFleet
from repro.util.errors import SimulationError
from repro.util.rngtools import spawn_rng


class TestHsnFleetTrace:
    def _torus(self):
        return GeminiTorus(dims=(4, 4, 4))

    def test_shapes(self):
        tr = HsnFleetTrace(self._torus(), sample_interval=60.0)
        tr.add_flow_window(0.0, 1800.0, 0, 10, 1e9)
        res = tr.run(3600.0, directions=("X+",))
        assert res.stall_pct["X+"].shape == (60, 64)
        assert res.times[-1] == 3600.0

    def test_flow_window_respected(self):
        tr = HsnFleetTrace(self._torus(), sample_interval=60.0)
        tr.add_flow_window(600.0, 1200.0, 0, 32, 5e9)  # gemini (0,0,0)->(1,0,0): X+ hops
        res = tr.run(1800.0, directions=("X+",))
        grid = res.stall_pct["X+"]
        assert grid[:9].max() == 0.0  # before the window
        assert grid[11:19].max() > 0.0  # inside
        assert grid[21:].max() == 0.0  # after

    def test_partial_interval_weighting(self):
        """A flow active for half a sample interval contributes half."""
        tr = HsnFleetTrace(self._torus(), sample_interval=60.0)
        tr.add_flow_window(0.0, 30.0, 0, 32, 5e9)
        tr2 = HsnFleetTrace(self._torus(), sample_interval=60.0)
        tr2.add_flow_window(0.0, 60.0, 0, 32, 5e9)
        half = tr.run(60.0, ("X+",)).stall_pct["X+"][0].max()
        full = tr2.run(60.0, ("X+",)).stall_pct["X+"][0].max()
        assert half == pytest.approx(full / 2, rel=0.01)

    def test_bad_window_rejected(self):
        tr = HsnFleetTrace(self._torus())
        with pytest.raises(SimulationError):
            tr.add_flow_window(10.0, 5.0, 0, 1, 1e9)

    def test_node_view_doubles_rows(self):
        tr = HsnFleetTrace(self._torus(), sample_interval=60.0)
        tr.add_flow_window(0.0, 60.0, 0, 32, 1e9)
        res = tr.run(60.0, ("X+",))
        nv = res.node_view("X+")
        assert nv.shape == (1, 128)
        assert (nv[:, 0] == nv[:, 1]).all()  # nodes share a Gemini

    def test_argmax_and_snapshot(self):
        tr = HsnFleetTrace(self._torus(), sample_interval=60.0)
        tr.add_flow_window(0.0, 120.0, 0, 32, 8e9)
        res = tr.run(300.0, ("X+",))
        t_i, g_i, v = res.argmax("X+")
        coords, values = res.snapshot("X+", t_i)
        assert values[g_i] == pytest.approx(v, rel=1e-5)
        assert coords.shape == (64, 3)

    def test_ring_job_pattern(self):
        tr = HsnFleetTrace(self._torus(), sample_interval=60.0)
        tr.add_job(0.0, 60.0, np.arange(8), 1e9, pattern="ring")
        res = tr.run(60.0, ("X+", "Y+"))
        total = res.stall_pct["X+"].sum() + res.stall_pct["Y+"].sum()
        assert total >= 0  # and it ran; routing covered in network tests

    def test_unknown_pattern_rejected(self):
        tr = HsnFleetTrace(self._torus())
        with pytest.raises(SimulationError):
            tr.add_job(0, 1, np.arange(4), 1e9, pattern="starburst")


#: sha256 of the full HSN day on an 8x8x8 torus (10-minute samples, 8
#: background jobs): ``stall_pct`` then ``bw_pct``, X+ then Y+, in the
#: order the benchmark hashes them.  Computed when the congestion model
#: was still evaluated once per integration step, so it pins that the
#: per-flow-set cache changed no value.
DAY_8_DIGEST = "745bf3f47849fc669c783baa0321e4cd05f00b4d13b7e773329ea7b26e115317"


def test_bw_day_digest_pinned():
    """The whole day, through ``run_day``: in one process, or in forked
    time slices when ``REPRO_SHARDS`` >= 2 — both must hash the same."""
    from repro.experiments.bw_day import run_day

    res, _ = run_day(dims=(8, 8, 8), sample_interval=600.0,
                     background_jobs=8)
    h = hashlib.sha256()
    for kind in ("stall_pct", "bw_pct"):
        for d in ("X+", "Y+"):
            h.update(memoryview(np.ascontiguousarray(getattr(res, kind)[d])))
    assert res.stall_pct["X+"].shape == (144, 512)
    assert h.hexdigest() == DAY_8_DIGEST


class TestRateFleet:
    def test_base_rate_everywhere(self):
        rf = RateFleet(8, sample_interval=60.0, seed=1, jitter=0.0)
        rf.base_rate = 2.0
        times, deltas = rf.run(300.0)
        assert deltas.shape == (5, 8)
        assert np.allclose(deltas, 120.0)

    def test_window_adds_rate(self):
        rf = RateFleet(8, sample_interval=60.0, seed=1, jitter=0.0)
        rf.add_rate_window(60.0, 180.0, [2, 3], 1.0)
        _, deltas = rf.run(300.0)
        assert deltas[0].sum() == 0.0
        assert deltas[1, 2] == pytest.approx(60.0)
        assert deltas[1, 0] == 0.0
        assert deltas[4].sum() == 0.0

    def test_partial_overlap_scaled(self):
        rf = RateFleet(2, sample_interval=60.0, seed=1, jitter=0.0)
        rf.add_rate_window(30.0, 60.0, [0], 2.0)  # half an interval
        _, deltas = rf.run(60.0)
        assert deltas[0, 0] == pytest.approx(60.0)  # 2/s x 30s

    def test_deltas_never_negative(self):
        rf = RateFleet(16, sample_interval=60.0, seed=2, jitter=0.5)
        rf.base_rate = 0.1
        _, deltas = rf.run(3600.0)
        assert (deltas >= 0).all()

    def test_bad_window_rejected(self):
        with pytest.raises(SimulationError):
            RateFleet(4).add_rate_window(5.0, 5.0, [0], 1.0)


class TestFleetVsDes:
    def test_fleet_matches_des_pipeline(self):
        """The fleet fast path and the full daemon pipeline agree on
        derived percent-stalled for the same steady workload."""
        # --- DES: real daemons sampling gpcdr over simulated RDMA ------
        m = blue_waters(n_nodes=16, seed=3)
        dep = m.deploy_ldms(interval=5.0, fanin=8, second_level=False,
                            xprt="ugni")
        sched = Scheduler(m)
        sched.submit(JobSpec("steady", n_nodes=8, duration=120.0,
                             net_bps_per_node=3e9))
        m.run(until=100.0)
        store = dep.stores[0]
        des_vals = {}
        for d in ("X+", "Y+", "Z+"):
            per_gem = []
            for n in range(8):
                ts, vs = store.series(f"percent_stalled_{d}",
                                      set_name=f"n{n}/bw_custom")
                if len(vs) > 4:
                    per_gem.append(float(np.median(vs[2:])))
            des_vals[d] = per_gem

        # --- fleet: same flows through the analytic path ----------------
        trace = HsnFleetTrace(m.network, sample_interval=5.0)
        nodes = np.arange(8)
        trace.add_job(0.0, 120.0, nodes, 3e9, pattern="ring")
        res = trace.run(100.0, directions=("X+", "Y+", "Z+"))

        for d in ("X+", "Y+", "Z+"):
            grid = res.stall_pct[d]
            fleet_busy = sorted(v for v in grid[-1] if v > 0.5)
            des_busy = sorted(v for v in des_vals[d] if v > 0.5)
            # The sets of per-link stall levels match within 5%.
            for fv, dv in zip(fleet_busy, des_busy):
                assert dv == pytest.approx(fv, rel=0.05)
        dep.shutdown()
