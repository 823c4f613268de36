"""Cray HSN sampler: gpcdr metrics plus derived utilization metrics.

Collects per-direction Gemini link metrics from the gpcdr /sys file and
derives, over each sample period (§IV-F):

* ``percent_stalled_<d>`` — percent of wall time the link spent in
  output credit stalls (Fig. 9's quantity);
* ``percent_bw_<d>`` — percent of the link's theoretical maximum
  bandwidth used, based on the link media type (Fig. 10's quantity).

Derivation needs the previous raw values, which the plugin keeps as
private state — the metric set itself still carries no history.
"""

from __future__ import annotations

from repro.core.metric import MetricType
from repro.core.sampler import SamplerPlugin, register_sampler
from repro.nodefs.gpcdr import GEMINI_DIRECTIONS, GPCDR_PATH
from repro.plugins.samplers.parsers import parse_gpcdr

__all__ = ["GpcdrSampler", "HsnDerivation", "HSN_METRICS", "TRAFFIC_KEYS"]

RAW = ("traffic", "packets", "stalled", "linkstatus")
DERIVED = ("percent_stalled", "percent_bw", "avg_packet_size")

#: Per direction: the raw U64s, then the derived F64s.
HSN_METRICS = tuple(
    (f"{name}_{d}", mtype) for d in GEMINI_DIRECTIONS
    for names, mtype in ((RAW, MetricType.U64), (DERIVED, MetricType.F64))
    for name in names)

#: Per direction: its raw metric keys, then the traffic, packets,
#: stalled and linkspeed keys the derivation reads.
_KEYS = tuple(
    (tuple(f"{raw}_{d}" for raw in RAW), f"traffic_{d}", f"packets_{d}",
     f"stalled_{d}", f"linkspeed_{d}")
    for d in GEMINI_DIRECTIONS)

TRAFFIC_KEYS = tuple(k[1] for k in _KEYS)


class HsnDerivation:
    """Turns successive parsed gpcdr files into ``HSN_METRICS`` rows."""

    def __init__(self) -> None:
        self._prev: dict[str, float] | None = None
        self._prev_ts = 0.0

    def values(self, data: dict[str, int | float], now: float) -> list[float | int]:
        get, prev = data.get, self._prev
        ts = float(get("timestamp", now))
        dt = ts - self._prev_ts if prev is not None else 0.0
        vals: list[float | int] = []
        for raw_keys, k_traffic, k_packets, k_stalled, k_speed in _KEYS:
            vals.extend([int(get(k, 0)) for k in raw_keys])
            if prev is not None and dt > 0:
                d_traffic = get(k_traffic, 0) - prev.get(k_traffic, 0)
                d_packets = get(k_packets, 0) - prev.get(k_packets, 0)
                d_stall_ns = get(k_stalled, 0) - prev.get(k_stalled, 0)
                speed = max(float(get(k_speed, 0)), 1.0)
                pct_stall = min(100.0 * (d_stall_ns / 1e9) / dt, 100.0)
                pct_bw = min(100.0 * (d_traffic / dt) / speed, 100.0)
                avg_pkt = d_traffic / d_packets if d_packets > 0 else 0.0
            else:
                pct_stall = pct_bw = avg_pkt = 0.0
            vals += (max(pct_stall, 0.0), max(pct_bw, 0.0), max(avg_pkt, 0.0))
        self._prev = {k: float(v) for k, v in data.items()}
        self._prev_ts = ts
        return vals


@register_sampler("gpcdr")
class GpcdrSampler(SamplerPlugin):
    """Samples raw HSN counters (U64) and derived percents (F64)."""

    def config(self, instance: str, component_id: int = 0,
               path: str = GPCDR_PATH, **kwargs) -> None:
        super().config(instance, component_id, **kwargs)
        self.path = path
        self.set = self.create_set(instance, "gpcdr", list(HSN_METRICS))
        self._hsn = HsnDerivation()

    def do_sample(self, now: float) -> None:
        data = parse_gpcdr(self.daemon.fs.read(self.path))
        self.set.set_values(self._hsn.values(data, now))
