"""Micro-benchmarks of the hot core operations.

These are the operations whose cost model the simulator parameterises
(sampling cost per metric, update processing, store formatting); the
benches keep the implementation honest about them.
"""

import numpy as np

from repro.core import wire
from repro.core.memory import Arena
from repro.core.metric import MetricType
from repro.core.metric_set import MetricSet


def _make_set(n=194):
    arena = Arena(1 << 20)
    return MetricSet.create(
        "n0/bench", "bench",
        [(f"metric_{i:03d}", MetricType.U64, 1) for i in range(n)], arena,
    )


def test_set_all_194_metrics(benchmark):
    """One full sampling transaction of a BW-sized set."""
    mset = _make_set(194)
    values = list(range(194))
    benchmark(mset.set_all, values, 1.0)


def test_set_value_single(benchmark):
    mset = _make_set(16)
    mset.begin_transaction()
    benchmark(mset.set_value, 3, 12345)


def test_data_bytes_copy(benchmark):
    """The producer-side cost of servicing one one-sided read."""
    mset = _make_set(194)
    mset.set_all(list(range(194)), 1.0)
    out = benchmark(mset.data_bytes)
    assert len(out) == mset.data_size


def test_apply_data(benchmark):
    """The consumer-side cost of installing one update."""
    src = _make_set(194)
    src.set_all(list(range(194)), 1.0)
    mirror = MetricSet.from_meta(src.meta_bytes(), Arena(1 << 20))
    data = src.data_bytes()
    benchmark(mirror.apply_data, data)


def test_values_bulk_decode(benchmark):
    """Whole-row decode of a BW-sized set (the store pipeline path)."""
    mset = _make_set(194)
    mset.set_all(list(range(194)), 1.0)
    out = benchmark(mset.values_tuple)
    assert len(out) == 194


def test_values_array_decode(benchmark):
    """numpy bulk decode of a homogeneous U64 set (analysis path)."""
    mset = _make_set(194)
    mset.set_all(list(range(194)), 1.0)
    out = benchmark(mset.values_array)
    assert len(out) == 194 and int(out[5]) == 5


def test_store_record_from_set(benchmark):
    """Building one StoreRecord from a mirrored set (per stored sample)."""
    from repro.core.store import StoreRecord

    mset = _make_set(194)
    mset.set_all(list(range(194)), 1.0)
    rec = benchmark(StoreRecord.from_set, mset, "n0")
    assert len(rec.values) == 194


def test_csv_row_render(benchmark, tmp_path):
    """Formatting one 194-column CSV row (the store-side hot loop)."""
    from repro.core.store import StoreRecord
    from repro.plugins.stores.csv_store import CsvStore

    mset = _make_set(194)
    mset.set_all(list(range(194)), 1.0)
    rec = StoreRecord.from_set(mset, "n0")
    store = CsvStore()
    store.config(path=str(tmp_path), buffer_lines=1 << 30)
    store.submit(rec)  # creates the file / compiles the formatters
    buf = store._buffers[rec.schema]

    def render():
        store.store(rec)
        buf.clear()

    benchmark(render)
    store.close()


def test_frame_decoder_stream(benchmark):
    """Decoding a 64-frame burst through one persistent stream decoder."""
    payload = bytes(2048)
    raw = b"".join(
        wire.encode_frame(wire.MsgType.UPDATE_REPLY, i, payload) for i in range(64)
    )
    dec = wire.FrameDecoder()
    frames = benchmark(dec.feed, raw)
    assert len(frames) == 64


def test_wire_frame_roundtrip(benchmark):
    payload = bytes(2048)

    def roundtrip():
        raw = wire.encode_frame(wire.MsgType.UPDATE_REPLY, 7, payload)
        return wire.decode_frame(raw)

    frame = benchmark(roundtrip)
    assert frame.payload == payload


def _query_reply_rows(nrows=597, ncols=8):
    """query_mix's mean reply: 812,101 rows over 1,360 replies."""
    return [(float(i), 1 + i % 64, tuple(float(i * ncols + j) for j in range(ncols)))
            for i in range(nrows)]


def test_query_reply_frame_body(benchmark):
    """The served encode: a reply header in front of stored row bytes."""
    rows = _query_reply_rows()
    names = tuple(f"m{j}" for j in range(8))
    body = wire.pack_query_rows(rows, len(names))
    out = benchmark(wire.pack_query_reply, wire.E_OK, names,
                    flags=wire.QUERY_CACHE_HIT, body=body)
    assert out == wire.pack_query_reply(wire.E_OK, names, rows,
                                        wire.QUERY_CACHE_HIT)


def test_query_reply_encode_rows(benchmark):
    """Encoding the same reply from decoded row tuples."""
    rows = _query_reply_rows()
    names = tuple(f"m{j}" for j in range(8))
    out = benchmark(wire.pack_query_reply, wire.E_OK, names, rows)
    assert len(out) > 597 * wire.query_row_size(8)


def test_query_reply_decode(benchmark):
    """The client's one-pass decode of a 597-row x 8-column reply."""
    rows = _query_reply_rows()
    payload = wire.pack_query_reply(wire.E_OK, tuple(f"m{j}" for j in range(8)), rows)
    status, flags, names, out = benchmark(wire.unpack_query_reply, payload)
    assert out == rows


def test_arena_alloc_free(benchmark):
    arena = Arena(1 << 20)

    def cycle():
        offs = [arena.alloc(256) for _ in range(64)]
        for off in offs:
            arena.free(off)

    benchmark(cycle)


def test_meminfo_parse(benchmark):
    """Parser cost on a realistic meminfo body."""
    from repro.nodefs.host import HostModel
    from repro.plugins.samplers.parsers import parse_meminfo

    host = HostModel("n0", clock=lambda: 0.0)
    text = host.fs.read("/proc/meminfo")
    out = benchmark(parse_meminfo, text)
    assert out["MemTotal"] > 0


def test_pipeline_unit_bare(benchmark, tmp_path):
    """Full sample→transport→store traversal, telemetry disabled.

    The composed PR-1 fast path: one sampling transaction, one
    one-sided read service + mirror install, one store record build and
    CSV row render.  Baseline for the instrumented variant below.
    """
    from pipeline_unit import build_unit

    unit, close = build_unit(tmp_path, instrumented=False)
    benchmark(unit)
    close()


def test_pipeline_unit_instrumented(benchmark, tmp_path):
    """Same traversal with live telemetry: the hooks the daemon runs
    per stored sample (stage histograms, counters, pipeline trace).
    Must stay within 5% of the bare variant — asserted by
    ``check_obs_overhead.py`` in CI."""
    from pipeline_unit import build_unit

    unit, close = build_unit(tmp_path, instrumented=True)
    benchmark(unit)
    close()


def test_obs_histogram_observe(benchmark):
    """The single hottest telemetry call: one histogram observation."""
    from repro.obs import Telemetry

    h = Telemetry(enabled=True).histogram("bench")
    benchmark(h.observe, 12.5e-6)
    assert h.count > 0


def test_obs_disabled_noop(benchmark):
    """The disabled-registry null instrument (cost of leaving hooks in)."""
    from repro.obs import Telemetry

    h = Telemetry(enabled=False).histogram("bench")
    benchmark(h.observe, 12.5e-6)


def test_flow_engine_accumulate(benchmark):
    """One integration step over the full 24^3 torus link arrays."""
    from repro.network.torus import GeminiTorus
    from repro.network.traffic import FlowEngine

    torus = GeminiTorus(dims=(24, 24, 24))
    engine = FlowEngine(torus)
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = rng.integers(0, torus.n_nodes, 2)
        if a != b:
            engine.add_flow(int(a), int(b), 1e9)
    benchmark(engine.accumulate, 60.0)
