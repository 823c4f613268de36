"""Vectorised full-machine trace generation.

Running 27,648 ldmsd daemon objects through the DES for a simulated day
is not tractable in Python; the paper's Figs. 9-11 need exactly that
scale.  This module provides the *fleet fast path*: the same producer
mathematics (flow-engine link loads -> stall/bandwidth counters; host
rate integration -> counter deltas) evaluated directly with NumPy at
one sample per collection interval — which is precisely what the
stored LDMS data contains.  Fidelity of the fast path against the real
daemon pipeline is cross-checked in ``tests/test_fleet.py``.

Two generators:

* :class:`HsnFleetTrace` — torus link metrics.  Jobs register flows at
  scheduled times; each sample records per-Gemini percent-time-stalled
  and percent-bandwidth for requested directions (what the gpcdr
  sampler derives, §IV-F).
* :class:`RateFleet` — generic per-node counter deltas (Lustre opens,
  etc.): scheduled rate changes, jittered integration per interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.network.torus import DIR_INDEX, GeminiTorus
from repro.network.traffic import FlowEngine
from repro.util.errors import SimulationError
from repro.util.rngtools import spawn_rng

__all__ = ["HsnFleetTrace", "RateFleet", "HsnTraceResult"]


@dataclass
class HsnTraceResult:
    """Per-sample, per-Gemini link metrics for selected directions."""

    times: np.ndarray  # (T,)
    stall_pct: dict[str, np.ndarray]  # dir -> (T, G) percent of time stalled
    bw_pct: dict[str, np.ndarray]  # dir -> (T, G) percent of max bandwidth
    torus: GeminiTorus

    def node_view(self, direction: str, kind: str = "stall") -> np.ndarray:
        """(T, n_nodes) array: each node shows its Gemini's value
        (2 nodes share a Gemini, §VI-A1)."""
        grid = (self.stall_pct if kind == "stall" else self.bw_pct)[direction]
        return np.repeat(grid, self.torus.nodes_per_gemini, axis=1)

    def snapshot(self, direction: str, t_index: int, kind: str = "stall"):
        """(coords (G,3), values (G,)) at one sample — the Fig. 9-bottom
        3-D mesh view."""
        grid = (self.stall_pct if kind == "stall" else self.bw_pct)[direction]
        values = grid[t_index]
        coords = np.array([self.torus.coord(g) for g in range(self.torus.n_geminis)])
        return coords, values

    def argmax(self, direction: str, kind: str = "stall") -> tuple[int, int, float]:
        grid = (self.stall_pct if kind == "stall" else self.bw_pct)[direction]
        flat = int(np.nanargmax(grid))
        t_i, g_i = np.unravel_index(flat, grid.shape)
        return int(t_i), int(g_i), float(grid[t_i, g_i])


@dataclass(frozen=True)
class _FlowEvent:
    t: float
    kind: str  # "add" | "remove"
    key: object
    src: int = 0
    dst: int = 0
    bps: float = 0.0


class HsnFleetTrace:
    """Scheduled-flow trace over a Gemini torus."""

    def __init__(self, torus: GeminiTorus, sample_interval: float = 60.0):
        self.torus = torus
        self.sample_interval = sample_interval
        self._events: list[_FlowEvent] = []
        self._key_seq = 0

    # ------------------------------------------------------------------
    def add_flow_window(self, t0: float, t1: float, src_node: int,
                        dst_node: int, bps: float) -> None:
        """One steady flow active during [t0, t1)."""
        if t1 <= t0:
            raise SimulationError("flow window must have positive duration")
        key = self._key_seq
        self._key_seq += 1
        self._events.append(_FlowEvent(t0, "add", key, src_node, dst_node, bps))
        self._events.append(_FlowEvent(t1, "remove", key))

    def add_job(self, t0: float, t1: float, nodes: np.ndarray,
                bps_per_node: float, pattern: str = "ring",
                rng: np.random.Generator | None = None) -> None:
        """A job's communication: one flow per node to a peer.

        Patterns: ``ring`` (rank i -> i+1) or ``random`` pairs.
        """
        nodes = np.asarray(nodes)
        if pattern == "ring":
            peers = np.roll(nodes, -1)
        elif pattern == "random":
            if rng is None:
                raise SimulationError("random pattern needs an rng")
            peers = rng.permutation(nodes)
        else:
            raise SimulationError(f"unknown pattern {pattern!r}")
        for src, dst in zip(nodes, peers):
            if src != dst:
                self.add_flow_window(t0, t1, int(src), int(dst), bps_per_node)

    # ------------------------------------------------------------------
    def run(self, duration: float,
            directions: tuple[str, ...] = ("X+", "Y+"),
            sample_range: tuple[int, int] | None = None) -> HsnTraceResult:
        """Evaluate the trace.

        ``sample_range=(s0, s1)`` restricts output to samples ``s0..s1-1``
        (half-open).  Flow add/remove events before the slice are replayed
        without accumulation, so the per-sample values are identical to the
        corresponding rows of a full run — the slice boundaries carry no
        state beyond the (deterministically replayed) flow set.  This is
        what lets shard workers each own a disjoint time slice of the day.
        """
        engine = FlowEngine(self.torus)
        events = sorted(self._events, key=lambda e: (e.t, e.kind == "add"))
        fids: dict[object, int] = {}
        n_samples = int(round(duration / self.sample_interval))
        s0, s1 = (0, n_samples) if sample_range is None else sample_range
        if not 0 <= s0 <= s1 <= n_samples:
            raise SimulationError(
                f"sample_range {sample_range!r} outside 0..{n_samples}")
        G = self.torus.n_geminis
        times = (np.arange(s0, s1) + 1) * self.sample_interval
        cols = [DIR_INDEX[d] for d in directions]
        shape = (s1 - s0, G)
        stall = {d: np.empty(shape, dtype=np.float32) for d in directions}
        bw = {d: np.empty(shape, dtype=np.float32) for d in directions}

        # Rows 0..k-1: the stall fraction of each requested direction;
        # rows k..2k-1: its delivered fraction of max bandwidth.  ``now``
        # holds them for the engine's flow set of ``version``: loads are
        # piecewise constant, so they change only when a flow event does.
        k = len(directions)
        now, acc, tmp = (np.empty((2 * k, G)) for _ in range(3))
        outs = [stall[d] for d in directions] + [bw[d] for d in directions]
        version = -1

        def accumulate(dt: float) -> None:
            nonlocal version
            if version != engine.load_version:
                now[:k] = engine.stall_now()[:, cols].T
                now[k:] = (engine.percent_bw_now()[:, cols] / 100.0).T
                version = engine.load_version
            np.add(acc, np.multiply(now, dt, out=tmp), out=acc)

        def apply(ev: _FlowEvent) -> None:
            if ev.kind == "add":
                fids[ev.key] = engine.add_flow(ev.src, ev.dst, ev.bps)
            else:
                fid = fids.pop(ev.key, None)
                if fid is not None:
                    engine.remove_flow(fid)

        ei = 0
        # Fast-forward: apply every event due before the slice start so
        # the flow set matches the full run's state at t = s0 * interval.
        t_start = s0 * self.sample_interval
        while ei < len(events) and events[ei].t < t_start:
            apply(events[ei])
            ei += 1
        t = t_start
        # (load version, span) of the previous row when no flow event fell
        # inside its interval: such a row depends on nothing else, so the
        # next quiet interval with the same key repeats it exactly.
        quiet_key = None
        for s in range(s0, s1):
            t_next = (s + 1) * self.sample_interval
            span = t_next - t
            quiet = ei == len(events) or events[ei].t >= t_next
            if quiet and quiet_key == (engine.load_version, span):
                for out in outs:
                    out[s - s0] = out[s - s0 - 1]
                t = t_next
                continue
            # Apply events due before this sample boundary.  The recorded
            # value is the average over the interval, weighted by
            # sub-interval durations.
            acc.fill(0.0)
            t_cursor = t
            while ei < len(events) and events[ei].t < t_next:
                ev = events[ei]
                dt = max(ev.t - t_cursor, 0.0)
                if dt > 0:
                    accumulate(dt)
                    t_cursor = ev.t
                apply(ev)
                ei += 1
            dt = t_next - t_cursor
            if dt > 0:
                accumulate(dt)
            np.divide(np.multiply(100.0, acc, out=tmp), span, out=tmp)
            for out, row in zip(outs, tmp):
                out[s - s0] = row
            quiet_key = (engine.load_version, span) if quiet else None
            t = t_next
        return HsnTraceResult(times=times, stall_pct=stall, bw_pct=bw,
                              torus=self.torus)


class RateFleet:
    """Per-node counter-delta traces from scheduled rates.

    The host-model integration (rate x dt x jitter) applied across all
    nodes at once; output is what an aggregator stores per interval:
    counter deltas.
    """

    def __init__(self, n_nodes: int, sample_interval: float = 60.0,
                 seed: int = 0, jitter: float = 0.05):
        self.n_nodes = n_nodes
        self.sample_interval = sample_interval
        self.jitter = jitter
        self.rng = spawn_rng(seed, "rate-fleet", n_nodes)
        self._windows: list[tuple[float, float, np.ndarray, float]] = []
        self.base_rate = 0.0

    def add_rate_window(self, t0: float, t1: float, nodes, rate: float) -> None:
        """Additive rate on ``nodes`` during [t0, t1)."""
        if t1 <= t0:
            raise SimulationError("rate window must have positive duration")
        self._windows.append((t0, t1, np.asarray(nodes, dtype=np.int64), rate))

    def run(self, duration: float,
            sample_range: tuple[int, int] | None = None
            ) -> tuple[np.ndarray, np.ndarray]:
        """Returns (times (T,), deltas (T, n_nodes)) of per-interval counts.

        ``sample_range=(s0, s1)`` returns only that half-open slice.  The
        jitter stream is burned through the skipped prefix so sliced rows
        are bit-identical to the corresponding rows of a full run.
        """
        n_samples = int(round(duration / self.sample_interval))
        s0, s1 = (0, n_samples) if sample_range is None else sample_range
        if not 0 <= s0 <= s1 <= n_samples:
            raise SimulationError(
                f"sample_range {sample_range!r} outside 0..{n_samples}")
        times = (np.arange(s0, s1) + 1) * self.sample_interval
        deltas = np.empty((s1 - s0, self.n_nodes), dtype=np.float32)
        iv = self.sample_interval
        for _ in range(s0):
            self.rng.standard_normal(self.n_nodes)
        for s in range(s0, s1):
            t1 = (s + 1) * iv
            t0 = t1 - iv
            rates = np.full(self.n_nodes, self.base_rate)
            for w0, w1, nodes, rate in self._windows:
                overlap = max(min(w1, t1) - max(w0, t0), 0.0)
                if overlap > 0:
                    rates[nodes] += rate * (overlap / iv)
            noise = 1.0 + self.jitter * self.rng.standard_normal(self.n_nodes)
            deltas[s - s0] = np.clip(rates * iv * noise, 0.0, None)
        return times, deltas
