"""Arena backing and interned set layouts.

The arena is a lazily-faulted private mapping and every set of one
shape shares one compiled layout; neither may be visible in any output.
The pins below were computed before either change: the row digest of a
small sock fan-in world and the metadata bytes of a set over every
value type.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

import repro.plugins  # noqa: F401
from repro.core import Ldmsd, SimEnv, wire
from repro.core.aggregator import SetState
from repro.core.memory import Arena
from repro.core.metric import MetricDesc, MetricType
from repro.core.metric_set import _DATA_HDR_SIZE, _META_HDR_SIZE, MetricSet
from repro.sim.engine import Engine
from repro.sim.shard import run_parallel
from repro.transport.simfabric import SimFabric, SimTransport

#: ``fanin._rows_digest`` of 256 sock samplers, 10 metrics, 5 s, 40 sim-s.
FANIN_256_DIGEST = "a1150b52fc6bf2170b26a284ffb76810d815911dc413dc37ef8b803c2f2a9a20"

#: SHA-256 and length of the metadata chunk of :func:`all_types_set`.
ALL_TYPES_META_SHA = "d482e14c6a746aaf248c61e2f29159df3ecbd54fb22148cd5894d625feae8d14"
ALL_TYPES_META_LEN = 982

SYN10 = [(f"metric_{i}", MetricType.U64, 1) for i in range(10)]


def all_types_set(arena):
    metrics = [(f"m_{t.name.lower()}", t, 100 + i) for i, t in enumerate(MetricType)]
    return MetricSet.create("node7/all_types", "all_types", metrics, arena, mgn=3)


class TestArenaBacking:
    def test_fresh_region_reads_zero(self):
        a = Arena(1 << 20)
        off = a.alloc(4096)
        assert bytes(a.view(off, 4096)) == bytes(4096)
        assert bytes(a.buf) == bytes(a.size)

    def test_freed_and_reallocated_regions_read_zero(self):
        a = Arena(1 << 16)
        offs = [a.alloc(1000) for _ in range(8)]
        for off in offs:
            a.view(off, 1000)[:] = b"\xab" * 1000
        for off in offs[::2]:
            a.free(off)
        again = [a.alloc(1000) for _ in range(4)]
        assert sorted(again) == sorted(offs[::2])
        for off in again:
            assert bytes(a.view(off, 1000)) == bytes(1000)

    def test_forked_child_writes_stay_in_child(self):
        arena = Arena(1 << 16)
        off = arena.alloc(16)
        arena.view(off, 16)[:] = b"P" * 16
        s = MetricSet.create("n0/syn", "syn", SYN10, arena)
        s.set_all(list(range(10)), timestamp=1.0)

        def child(_payload):
            arena.view(off, 16)[:] = b"C" * 16
            s.set_all([99] * 10, timestamp=2.0)
            return bytes(arena.view(off, 16)), s.values()

        [(seen, values)] = run_parallel(child, [None], 1)
        assert seen == b"C" * 16 and values == [99] * 10
        assert bytes(arena.view(off, 16)) == b"P" * 16
        assert s.values() == list(range(10)) and s.timestamp == 1.0


class TestLayouts:
    def test_same_shape_sets_share_one_layout(self):
        arena = Arena(1 << 22)
        sets = [MetricSet.create(f"n{i}/syn", "syn",
                                 [(n, t, i) for n, t, _ in SYN10], arena)
                for i in range(1000)]
        assert len({id(s._layout) for s in sets}) == 1
        assert [s.component_ids()[0] for s in sets[:3]] == [0, 1, 2]
        mirror = MetricSet.from_meta(sets[7].meta_bytes(), arena)
        assert mirror._layout is sets[0]._layout
        assert mirror.component_ids() == (7,) * 10

    def test_descs_match_eager_list(self):
        s = all_types_set(Arena(1 << 16))
        off = _DATA_HDR_SIZE
        eager = []
        for i, t in enumerate(MetricType):
            off = (off + t.size - 1) & ~(t.size - 1)
            eager.append(MetricDesc(f"m_{t.name.lower()}", t, 100 + i, off))
            off += t.size
        assert s.descs == eager
        assert s.data_size == off
        mirror = MetricSet.from_meta(s.meta_bytes(), Arena(1 << 16))
        assert mirror.descs == eager

    def test_meta_bytes_pinned_across_round_trip(self):
        s = all_types_set(Arena(1 << 16))
        meta = s.meta_bytes()
        assert len(meta) == ALL_TYPES_META_LEN
        assert hashlib.sha256(meta).hexdigest() == ALL_TYPES_META_SHA
        mirror = MetricSet.from_meta(meta, Arena(1 << 16))
        assert mirror.meta_bytes() == meta
        assert (mirror.name, mirror.schema, mirror.mgn) == ("node7/all_types", "all_types", 3)

    def test_probe_collision_falls_back_to_full_decode(self):
        """Two shapes agreeing on data size, card and first name."""
        arena = Arena(1 << 16)
        a = MetricSet.create("n/a", "s", [("x", MetricType.U64, 1),
                                          ("y", MetricType.U64, 1)], arena)
        b = MetricSet.create("n/b", "s", [("x", MetricType.U64, 1),
                                          ("z", MetricType.U64, 1)], arena)
        for src in (a, b, a):
            mirror = MetricSet.from_meta(src.meta_bytes(), arena)
            assert mirror._layout is src._layout
            assert mirror.metric_names() == src.metric_names()


def _one_metric_meta():
    return bytearray(MetricSet.create("n/h", "h", [("v", MetricType.U64, 1)],
                                      Arena(4096)).meta_bytes())


#: Byte offsets inside the first descriptor of a metadata chunk.
_NAME = _META_HDR_SIZE
_TAG = _META_HDR_SIZE + 72
_OFFSET = _META_HDR_SIZE + 73


class TestHostileMetadata:
    def test_offset_past_data_chunk_rejected(self):
        meta = _one_metric_meta()
        struct.pack_into("<I", meta, _OFFSET, 4000)
        with pytest.raises(ValueError, match="outside"):
            MetricSet.from_meta(bytes(meta), Arena(1 << 16))

    def test_offset_inside_header_rejected(self):
        meta = _one_metric_meta()
        struct.pack_into("<I", meta, _OFFSET, 8)
        with pytest.raises(ValueError, match="outside"):
            MetricSet.from_meta(bytes(meta), Arena(1 << 16))

    def test_unknown_type_tag_rejected(self):
        meta = _one_metric_meta()
        meta[_TAG] = 99
        with pytest.raises(ValueError, match="MetricType"):
            MetricSet.from_meta(bytes(meta), Arena(1 << 16))

    @pytest.mark.parametrize("name", [b"", b"\xff\xfe", b"a\x00b", b"n" * 64])
    def test_bad_names_rejected(self, name):
        meta = _one_metric_meta()
        meta[_NAME:_NAME + 64] = name.ljust(64, b"\x00")
        with pytest.raises(ValueError):
            MetricSet.from_meta(bytes(meta), Arena(1 << 16))

    def test_duplicate_names_rejected(self):
        s = MetricSet.create("n/d", "d", [("a", MetricType.U64, 1),
                                          ("b", MetricType.U64, 1)], Arena(4096))
        meta = bytearray(s.meta_bytes())
        second = _NAME + MetricDesc.WIRE_SIZE
        meta[second:second + 64] = b"a".ljust(64, b"\x00")
        with pytest.raises(ValueError, match="duplicate"):
            MetricSet.from_meta(bytes(meta), Arena(1 << 16))

    def test_data_chunk_smaller_than_header_rejected(self):
        meta = _one_metric_meta()
        struct.pack_into("<I", meta, 8, 16)  # data_size
        with pytest.raises(ValueError):
            MetricSet.from_meta(bytes(meta), Arena(1 << 16))

    def test_descriptor_count_must_fill_the_chunk(self):
        meta = _one_metric_meta()
        struct.pack_into("<I", meta, 12, 2)  # card
        with pytest.raises(ValueError, match="descriptors"):
            MetricSet.from_meta(bytes(meta), Arena(1 << 16))

    def test_rejected_mirror_leaks_no_arena_space(self):
        arena = Arena(1 << 16)
        meta = _one_metric_meta()
        struct.pack_into("<I", meta, _OFFSET, 4000)
        with pytest.raises(ValueError):
            MetricSet.from_meta(bytes(meta), arena)
        assert arena.used == 0


def _lookup_world():
    eng = Engine()
    env = SimEnv(eng)
    fabric = SimFabric(eng)
    samp = Ldmsd("n0", env=env,
                 transports={"rdma": SimTransport(fabric, "rdma", node_id="n0")})
    samp.load_sampler("synthetic", instance="n0/syn", component_id=1,
                      num_metrics=4)
    samp.start_sampler("n0/syn", interval=1.0)
    samp.listen("rdma", "n0:411")
    agg = Ldmsd("agg", env=env,
                transports={"rdma": SimTransport(fabric, "rdma", node_id="agg")})
    store = agg.add_store("memory")
    agg.add_producer("n0", "rdma", "n0:411", interval=1.0, sets=("n0/syn",))
    return eng, samp, agg, store


class TestCorruptedLookupReply:
    """A LOOKUP_REPLY that will not decode is a failed lookup, not an
    exception out of ``Engine.run``."""

    def _check_rejected(self, eng, agg, store):
        eng.run(until=6.0)
        prod = agg.producers["n0"]
        assert prod.stats.lookups_failed >= 3
        assert prod.updaters["n0/syn"].state in (SetState.NEW,
                                                 SetState.LOOKUP_PENDING)
        assert prod.updaters["n0/syn"].mirror is None
        assert store.rows == []
        events = [e for e in agg.flight.snapshot() if e["event"] == "bad_meta"]
        assert len(events) == prod.stats.lookups_failed
        assert agg.arena.used == 0

    def test_descriptor_offset_past_data_chunk(self, monkeypatch):
        eng, samp, agg, store = _lookup_world()
        mset = samp._sets["n0/syn"]
        meta = bytearray(mset.meta_bytes())
        struct.pack_into("<I", meta, _OFFSET, 4000)
        monkeypatch.setattr(mset, "meta_bytes", lambda: bytes(meta))
        self._check_rejected(eng, agg, store)

    def test_reply_length_field_overruns(self, monkeypatch):
        eng, samp, agg, store = _lookup_world()
        pack = wire.pack_lookup_reply
        monkeypatch.setattr(wire, "pack_lookup_reply",
                            lambda *a: pack(*a) + b"junk")
        self._check_rejected(eng, agg, store)

    def test_collection_resumes_once_metadata_is_sound(self, monkeypatch):
        eng, samp, agg, store = _lookup_world()
        mset = samp._sets["n0/syn"]
        meta = bytearray(mset.meta_bytes())
        meta[_TAG] = 0
        monkeypatch.setattr(mset, "meta_bytes", lambda: bytes(meta))
        eng.run(until=4.0)
        assert agg.producers["n0"].stats.lookups_failed > 0
        monkeypatch.undo()
        eng.run(until=12.0)
        assert len(store.rows) > 0


def test_fanin_rows_digest_pinned():
    from repro.experiments.fanin import run_point

    point, info = run_point(256, "sock", interval=5.0, metrics=10,
                            duration=40.0, digest=True)
    assert point.completeness == 1.0
    assert info["digest"] == FANIN_256_DIGEST
