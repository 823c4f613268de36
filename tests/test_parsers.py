"""Tests for the /proc and /sys text parsers against real-format samples."""

import pytest

from repro.plugins.samplers import parsers
from repro.plugins.samplers.parsers import (
    CPU_FIELDS,
    LNET_FIELDS,
    parse_counter_file,
    parse_gpcdr,
    parse_loadavg,
    parse_lnet_stats,
    parse_lustre_stats,
    parse_meminfo,
    parse_nfs,
    parse_proc_stat,
)

MEMINFO_SAMPLE = """\
MemTotal:       65842792 kB
MemFree:        60117344 kB
Buffers:          328304 kB
Cached:          3252580 kB
SwapCached:            0 kB
Active:          2759336 kB
Inactive:        1849294 kB
Dirty:               748 kB
HugePages_Total:       0
"""

PROC_STAT_SAMPLE = """\
cpu  82940774 681 15268142 10405431165 7584615 0 591685 0 0 0
cpu0 5858268 20 1075533 648950574 740769 0 252382 0 0 0
cpu1 6585357 95 1104049 649614857 258676 0 49146 0 0 0
intr 1561186478 66 2 0
ctxt 2129786680
btime 1398783287
processes 3593752
procs_running 2
procs_blocked 0
"""

LUSTRE_SAMPLE = """\
snapshot_time 1398793659.310987 secs.usecs
dirty_pages_hits 1689183 samples [regs]
dirty_pages_misses 434548 samples [regs]
read_bytes 18896 samples [bytes] 1 4194304 29343234703
write_bytes 528997 samples [bytes] 1 4194304 17155294517
open 247667 samples [regs]
close 245765 samples [regs]
"""


class TestMeminfo:
    def test_values(self):
        mem = parse_meminfo(MEMINFO_SAMPLE)
        assert mem["MemTotal"] == 65842792
        assert mem["Dirty"] == 748

    def test_unitless_rows(self):
        assert parse_meminfo(MEMINFO_SAMPLE)["HugePages_Total"] == 0

    def test_garbage_lines_ignored(self):
        mem = parse_meminfo("nonsense\nMemFree: 5 kB\n: 3\nBad: x kB\n")
        assert mem == {"MemFree": 5}

    def test_empty(self):
        assert parse_meminfo("") == {}


class TestProcStat:
    def test_aggregate_row(self):
        stat = parse_proc_stat(PROC_STAT_SAMPLE)
        assert stat["cpu_user"] == 82940774
        assert stat["cpu_iowait"] == 7584615

    def test_per_cpu_rows(self):
        stat = parse_proc_stat(PROC_STAT_SAMPLE)
        assert stat["cpu0_user"] == 5858268
        assert stat["cpu1_idle"] == 649614857

    def test_scalars(self):
        stat = parse_proc_stat(PROC_STAT_SAMPLE)
        assert stat["ctxt"] == 2129786680
        assert stat["processes"] == 3593752
        assert stat["procs_running"] == 2

    def test_all_cpu_fields_present(self):
        stat = parse_proc_stat(PROC_STAT_SAMPLE)
        for f in CPU_FIELDS:
            assert f"cpu_{f}" in stat

    def test_short_line_yields_only_its_fields(self):
        # Kernels before 2.6 print four cpu columns.
        stat = parse_proc_stat("cpu0 1 2 3 4\n")
        assert list(stat.items()) == [
            ("cpu0_user", 1), ("cpu0_nice", 2), ("cpu0_sys", 3), ("cpu0_idle", 4)]

    def test_guest_columns_ignored(self):
        ten = parse_proc_stat("cpu  1 2 3 4 5 6 7 8 9 10\n")
        assert list(ten) == [f"cpu_{f}" for f in CPU_FIELDS]
        assert list(ten.values()) == list(range(1, 9))
        # Columns past the eighth are never converted.
        assert parse_proc_stat("cpu  1 2 3 4 5 6 7 8 x y\n") == ten

    def test_repeated_label_reuses_key_tuple(self):
        text = "cpu7 1 2 3 4 5 6 7 8\nctxt 9\ncpu7 10 20 30\n"
        before = parsers._cpu_keys.cache_info()
        stat = parse_proc_stat(text)
        after = parsers._cpu_keys.cache_info()
        assert after.hits - before.hits + after.misses - before.misses == 2
        assert after.hits > before.hits
        assert parsers._cpu_keys("cpu7") is parsers._cpu_keys("cpu7")
        # The later line overwrites in place: first-seen key order stays.
        assert list(stat) == [f"cpu7_{f}" for f in CPU_FIELDS] + ["ctxt"]
        assert list(stat.values()) == [10, 20, 30, 4, 5, 6, 7, 8, 9]


class TestLoadavg:
    def test_parse(self):
        out = parse_loadavg("0.52 0.61 0.80 2/1024 12345\n")
        assert out["load1"] == pytest.approx(0.52)
        assert out["runnable"] == 2
        assert out["total_procs"] == 1024


class TestLustre:
    def test_event_counts(self):
        out = parse_lustre_stats(LUSTRE_SAMPLE)
        assert out["open"] == 247667
        assert out["dirty_pages_misses"] == 434548

    def test_byte_sums(self):
        out = parse_lustre_stats(LUSTRE_SAMPLE)
        assert out["read_bytes"] == 18896  # sample count
        assert out["read_bytes_sum"] == 29343234703  # byte total

    def test_snapshot_time_skipped(self):
        assert "snapshot_time" not in parse_lustre_stats(LUSTRE_SAMPLE)


class TestNfs:
    def test_parse(self):
        out = parse_nfs("net 100 100 0 0\nrpc 5000 3 0\n"
                        "proc3 22 0 10 0 0 5 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n")
        assert out["rpc_calls"] == 5000
        assert out["rpc_retrans"] == 3
        assert out["nfs3_ops"] == 15


class TestLnet:
    def test_parse(self):
        text = "0 2048 0 17 23 0 1 4096 8192 0 0\n"
        out = parse_lnet_stats(text)
        assert out["send_count"] == 17
        assert out["recv_length"] == 8192
        assert set(out) == set(LNET_FIELDS)

    def test_short_line(self):
        out = parse_lnet_stats("0 2048 0\n")
        assert out["errors"] == 0
        assert "send_count" not in out


class TestCounterFile:
    def test_plain(self):
        assert parse_counter_file("123456\n") == 123456

    def test_whitespace(self):
        assert parse_counter_file("  42  \n") == 42

    def test_garbage_raises(self):
        with pytest.raises((ValueError, IndexError)):
            parse_counter_file("not-a-number\n")


class TestGpcdrParse:
    def test_parse(self):
        text = "timestamp 12.500000\ntraffic_X+ 100\nstalled_X+ 999\n"
        out = parse_gpcdr(text)
        assert out["timestamp"] == pytest.approx(12.5)
        assert out["traffic_X+"] == 100

    def test_malformed_lines_skipped(self):
        out = parse_gpcdr("one two three\nsingleton\ntraffic_Y+ 5\n")
        assert out == {"traffic_Y+": 5}
