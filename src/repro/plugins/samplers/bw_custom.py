"""The Blue Waters combined node sampler.

Paper §IV-F: "On Blue Waters, a sampler collects one custom dataset
whose data comes from a variety of independent sources, including HSN
information from the gpcdr module, lustre information, LNET traffic
counters, network counters, and cpu load averages.  In addition we
derive information over the sample period, including percent of time
stalled and percent bandwidth used."

This plugin assembles one metric set (schema ``bw_custom``) from all of
those sources — 194 metrics in the production deployment, a number this
default configuration reproduces by construction:

* gpcdr: 6 directions x (4 raw + 3 derived)               = 42
* lustre: 27 llite filesystems x 4 events                 = 108
* lnet: 11 counters                                       = 11
* nic (Gemini NIC totals): 8 counters                     = 8
* loadavg: 5                                              = 5
* cpu (aggregate /proc/stat row + ctxt/processes):        = 10
* energy/power placeholders (Cray RUR-style):             = 10
                                                    total = 194
"""

from __future__ import annotations

from repro.core.metric import MetricType
from repro.core.sampler import SamplerPlugin, register_sampler
from repro.nodefs.gpcdr import GPCDR_PATH
from repro.plugins.samplers.gpcdr import HSN_METRICS, TRAFFIC_KEYS, HsnDerivation
from repro.plugins.samplers.loadavg import LOADAVG_METRICS
from repro.plugins.samplers.parsers import (
    CPU_FIELDS,
    LNET_FIELDS,
    parse_gpcdr,
    parse_loadavg,
    parse_lnet_stats,
    parse_lustre_stats,
    parse_proc_stat,
)

__all__ = ["BlueWatersSampler"]

BW_LUSTRE_EVENTS = ("open", "close", "read_bytes", "write_bytes")
NIC_COUNTERS = (
    "totaloutput_optA", "totalinput", "fmaout", "bteout_optA",
    "bteout_optB", "totaloutput_optB", "outputresp", "inputresp",
)
RUR_COUNTERS = (
    "energy_j", "power_w", "power_cap_w", "freshness",
    "accel_energy_j", "accel_power_w", "cpu_temp_c", "mem_temp_c",
    "startup", "version",
)


@register_sampler("bw_custom")
class BlueWatersSampler(SamplerPlugin):
    """One combined metric set per Blue Waters node.

    Config options
    --------------
    lustre_mounts:
        Comma string of llite filesystem names (default ``auto``).
    """

    def config(self, instance: str, component_id: int = 0,
               lustre_mounts="auto", gpcdr_path: str = GPCDR_PATH,
               llite_root: str = "/proc/fs/lustre/llite", **kwargs) -> None:
        super().config(instance, component_id, **kwargs)
        self.gpcdr_path = gpcdr_path
        self.llite_root = llite_root
        try:
            entries = self.daemon.fs.listdir(llite_root)
        except FileNotFoundError:
            if lustre_mounts != "auto":
                raise
            entries = []
        by_fs = {e.rsplit("-", 1)[0]: e for e in entries}
        if lustre_mounts != "auto":
            if isinstance(lustre_mounts, str):
                lustre_mounts = tuple(m for m in lustre_mounts.split(",") if m)
            by_fs = {m: by_fs[m] for m in lustre_mounts}
        mounts = sorted(by_fs)
        # The file paths and dict keys a sample looks up, built once.
        self._lustre_paths = tuple(f"{llite_root}/{by_fs[m]}/stats" for m in mounts)
        self._stat_keys = (*(f"cpu_{f}" for f in CPU_FIELDS), "ctxt", "processes")

        metrics: list[tuple[str, MetricType]] = list(HSN_METRICS)
        metrics.extend((f"{ev}#stats.{m}", MetricType.U64)
                       for m in mounts for ev in BW_LUSTRE_EVENTS)
        metrics.extend((m, MetricType.U64) for m in LNET_FIELDS)
        metrics.extend((f"nic_{c}", MetricType.U64) for c in NIC_COUNTERS)
        metrics.extend(LOADAVG_METRICS)
        metrics.extend((k, MetricType.U64) for k in self._stat_keys)
        metrics.extend((f"rur_{c}", MetricType.U64) for c in RUR_COUNTERS)
        self.set = self.create_set(instance, "bw_custom", metrics)
        self._hsn = HsnDerivation()

    def do_sample(self, now: float) -> None:
        # One whole-row write: values accumulate in metric-creation
        # order and land with a single set_values() pack + DGN bump.
        fs = self.daemon.fs
        # HSN (+ derived)
        data = parse_gpcdr(fs.read(self.gpcdr_path))
        vals = self._hsn.values(data, now)
        # Lustre
        for path in self._lustre_paths:
            stats = parse_lustre_stats(fs.read(path))
            vals.extend([stats.get(ev, 0) for ev in BW_LUSTRE_EVENTS])
        # LNET
        lnet = parse_lnet_stats(fs.read("/proc/sys/lnet/stats"))
        vals.extend([lnet.get(m, 0) for m in LNET_FIELDS])
        # NIC totals: derive from gpcdr traffic totals (the real sampler
        # reads separate Gemini NIC performance counters).
        total_out = int(sum([data.get(k, 0) for k in TRAFFIC_KEYS]))
        vals.extend([total_out >> i for i in range(len(NIC_COUNTERS))])
        # Load averages (parser yields them in LOADAVG_METRICS order)
        vals.extend(parse_loadavg(fs.read("/proc/loadavg")).values())
        # CPU aggregate
        stat = parse_proc_stat(fs.read("/proc/stat"))
        vals.extend([stat.get(k, 0) for k in self._stat_keys])
        # RUR-style placeholders (no power instrumentation in the model).
        vals.extend((0,) * len(RUR_COUNTERS))
        self.set.set_values(vals)
