"""Parsers for the /proc and /sys text formats the samplers consume.

Kept separate from the plugins so they can be unit-tested directly
against both synthetic renders and the real files of the host running
the test suite.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "parse_meminfo",
    "parse_proc_stat",
    "parse_loadavg",
    "parse_lustre_stats",
    "parse_nfs",
    "parse_lnet_stats",
    "parse_counter_file",
    "parse_gpcdr",
]

CPU_FIELDS = ("user", "nice", "sys", "idle", "iowait", "irq", "softirq", "steal")


def parse_meminfo(text: str) -> dict[str, int]:
    """Parse /proc/meminfo into {key: kB} (unitless rows pass through)."""
    out: dict[str, int] = {}
    for line in text.splitlines():
        if ":" not in line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        parts = rest.split()
        if not key or not parts:
            continue
        try:
            out[key] = int(parts[0])
        except ValueError:
            continue
    return out


@lru_cache(maxsize=1024)
def _cpu_keys(label: str) -> tuple[str, ...]:
    """``cpu_user``/``cpu_nice``/... for a ``/proc/stat`` cpu label."""
    return tuple(f"{label}_{field}" for field in CPU_FIELDS)


def parse_proc_stat(text: str) -> dict[str, int]:
    """Parse /proc/stat.

    Returns a flat dict: ``cpu_user``/``cpu_sys``/... for the aggregate
    line, ``cpuN_user``/... per cpu, plus ``ctxt`` and ``processes``.
    A cpu line yields its first ``len(CPU_FIELDS)`` columns: fewer on
    older kernels, and ``guest``/``guest_nice`` are ignored.
    """
    out: dict[str, int] = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        head = parts[0]
        if head.startswith("cpu"):
            out.update(zip(_cpu_keys(head), map(int, parts[1:])))
        elif head in ("ctxt", "processes", "procs_running", "procs_blocked"):
            out[head] = int(parts[1])
    return out


def parse_loadavg(text: str) -> dict[str, float]:
    parts = text.split()
    running, _, total = parts[3].partition("/")
    return {
        "load1": float(parts[0]),
        "load5": float(parts[1]),
        "load15": float(parts[2]),
        "runnable": int(running),
        "total_procs": int(total),
    }


def parse_lustre_stats(text: str) -> dict[str, int]:
    """Parse a Lustre llite ``stats`` file into {event: count}.

    The count is the second column ("samples"); byte-sum columns are
    exposed as ``<event>_sum`` when present (read_bytes/write_bytes).
    """
    out: dict[str, int] = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) < 2 or parts[0] == "snapshot_time":
            continue
        name = parts[0]
        try:
            out[name] = int(parts[1])
        except ValueError:
            continue
        if len(parts) >= 7 and parts[3].strip("[]") == "bytes":
            out[f"{name}_sum"] = int(parts[6])
    return out


def parse_nfs(text: str) -> dict[str, int]:
    """Parse /proc/net/rpc/nfs: rpc call counts and proc3 op totals."""
    out: dict[str, int] = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "rpc" and len(parts) >= 4:
            out["rpc_calls"] = int(parts[1])
            out["rpc_retrans"] = int(parts[2])
        elif parts[0] == "proc3" and len(parts) > 2:
            out["nfs3_ops"] = sum(int(v) for v in parts[2:])
    return out


LNET_FIELDS = (
    "msgs_alloc", "msgs_max", "errors", "send_count", "recv_count",
    "route_count", "drop_count", "send_length", "recv_length",
    "route_length", "drop_length",
)


def parse_lnet_stats(text: str) -> dict[str, int]:
    parts = text.split()
    return {name: int(parts[i]) for i, name in enumerate(LNET_FIELDS) if i < len(parts)}


def parse_counter_file(text: str) -> int:
    """A /sys one-value counter file."""
    return int(text.split()[0])


def parse_gpcdr(text: str) -> dict[str, int | float]:
    """Parse the gpcdr metrics file into {metric_name: value}."""
    out: dict[str, int | float] = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 2:
            continue
        name, value = parts
        out[name] = float(value) if name == "timestamp" else int(value)
    return out
