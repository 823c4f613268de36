"""QUERY replies as bytes: one row layout from SOS ingest to the wire.

The store hands the query tier each record encoded once (the SOS
record minus its ``card`` field); hot-window, LRU and scan answers are
blocks of those rows, and the daemon only puts a header in front.
These tests pin that the served byte stream is what the row-by-row
codec would have produced, and that the QUERY codec fails closed.
"""

import hashlib

import pytest
from hypothesis import given, strategies as st

import repro.plugins  # noqa: F401
from repro.core import Ldmsd, SimEnv, wire
from repro.core.store import StoreRecord
from repro.plugins.stores.sos import SosReader, SosStore
from repro.query import clients
from repro.query.clients import Poller
from repro.query.engine import QueryEngine
from repro.sim.engine import Engine
from repro.transport.simfabric import SimFabric, SimTransport
from repro.util.errors import ProtocolError


def rec(t, comp=1, values=(10.0, 20.0), schema="mem"):
    return StoreRecord(t, "n0", f"n0/{schema}", schema, ("a", "b"),
                       (comp, comp), tuple(values))


def assert_codec_consistent(res):
    """``res``'s served payload is the row-by-row encoding of its rows."""
    assert res.payload() == wire.pack_query_reply(
        res.status, res.names, res.rows, res.flags())
    assert len(res.rows) == res.nrows


class TestReplyByteStream:
    def test_query_load_reply_stream_pinned(self, monkeypatch):
        """Every QUERY_REPLY payload the clients of ``check_query.py``'s
        configuration receive, hashed in arrival order."""
        from repro.experiments.query_load import run_query_load

        h = hashlib.sha256()
        seen = {"replies": 0, "rows": 0}
        on_message = clients.QueryClient._on_message

        def spy(self, raw):
            frame = wire.decode_frame(raw)
            if frame.msg_type == wire.MsgType.QUERY_REPLY:
                h.update(frame.payload)
                seen["replies"] += 1
                seen["rows"] += len(wire.unpack_query_reply(frame.payload)[3])
            on_message(self, raw)

        monkeypatch.setattr(clients.QueryClient, "_on_message", spy)
        run_query_load(n_samplers=8, n_metrics=6, interval=1.0,
                       duration=120.0)
        assert seen == {"replies": 544, "rows": 38186}
        assert h.hexdigest()[:16] == "98b5cae232a20b83"

    def test_hot_lru_scan_answer_identically(self, tmp_path):
        store = SosStore()
        store.config(path=str(tmp_path))
        eng = QueryEngine(store, lambda: 0.0, hot_window=30.0)

        def feed(t_lo, t_hi):
            # Three components per step; comp 3 lags half a second
            # behind, so every step holds stragglers and equal
            # timestamps from different appends.
            for k in range(t_lo, t_hi):
                for comp in (1, 2):
                    store.submit(rec(float(k), comp, (k, comp * k)))
                store.submit(rec(k - 0.5, 3, (k, -k)))

        feed(0, 50)  # hot floor ends at 19
        windows = [dict(), dict(comp_id=2), dict(max_records=7),
                   dict(comp_id=3, max_records=4)]
        hot = [eng.query("mem", 20.0, 30.0, **w) for w in windows]
        feed(50, 60)  # floor passes 20: the window now scans
        scan = [eng.query("mem", 20.0, 30.0, **w) for w in windows]
        lru = [eng.query("mem", 20.0, 30.0, **w) for w in windows]
        for h, s, c in zip(hot, scan, lru):
            assert (h.source, s.source, c.source) == ("hot", "scan", "lru")
            assert h.body == s.body == c.body
            assert h.nrows == s.nrows == c.nrows > 0
            assert h.truncated == s.truncated == c.truncated
            assert h.payload() == c.payload()  # both cache hits
            for res in (h, s, c):
                assert_codec_consistent(res)
        # Time order, equal timestamps in append order.
        assert [r[:2] for r in hot[0].rows[:4]] == [
            (20.0, 1), (20.0, 2), (20.5, 3), (21.0, 1)]
        assert hot[2].truncated and hot[2].nrows == 7
        assert {r[1] for r in hot[1].rows} == {2}
        store.close()

    def test_range_rows_matches_range(self, tmp_path):
        store = SosStore()
        store.config(path=str(tmp_path))
        for k in (3, 1, 2, 2, 5, 4):
            store.submit(rec(float(k), comp=1 + k % 2, values=(k, -k)))
        store.close()
        reader = SosReader(str(tmp_path), "mem")
        expect = [(r.timestamp, r.component_id, r.values)
                  for r in reader.range(2.0, 5.0)]
        body, nrows, truncated = reader.range_rows(2.0, 5.0)
        assert wire.unpack_query_rows(body, 2) == expect
        assert (nrows, truncated) == (4, False)
        body, nrows, truncated = reader.range_rows(0.0, 9.0, comp_id=2,
                                                   max_records=2)
        assert [r[:2] for r in wire.unpack_query_rows(body, 2)] == [
            (1.0, 2), (3.0, 2)]
        assert (nrows, truncated) == (2, True)
        assert reader.range_rows(0.0, 9.0, comp_id=2, max_records=3)[1:] == (
            3, False)
        assert reader.range_rows(6.0, 9.0) == (b"", 0, False)


names_st = st.lists(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    max_size=4)


@st.composite
def replies(draw):
    names = tuple(draw(names_st))
    value = st.floats(allow_nan=False)
    rows = draw(st.lists(st.tuples(
        value, st.integers(0, 2**32 - 1),
        st.tuples(*[value] * len(names))), max_size=5))
    return wire.pack_query_reply(draw(st.integers(-2**31, 2**31 - 1)),
                                 names, rows,
                                 draw(st.integers(0, 255))), names, rows


def requests():
    return st.builds(
        wire.pack_query_req,
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
        st.floats(allow_nan=False), st.floats(allow_nan=False),
        st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1))


def only_protocol_error(fn, payload):
    try:
        fn(payload)
    except ProtocolError:
        pass


class TestCodecFailsClosed:
    @given(replies())
    def test_reply_roundtrip(self, case):
        payload, names, rows = case
        _, _, got_names, got_rows = wire.unpack_query_reply(payload)
        assert got_names == names
        assert got_rows == rows

    @given(replies(), st.data())
    def test_truncated_or_extended_reply_rejected(self, case, data):
        payload = case[0]
        cut = data.draw(st.integers(0, len(payload) - 1))
        for bad in (payload[:cut], payload + b"\x00"):
            with pytest.raises(ProtocolError):
                wire.unpack_query_reply(bad)

    @given(requests(), st.data())
    def test_truncated_or_extended_request_rejected(self, payload, data):
        cut = data.draw(st.integers(0, len(payload) - 1))
        for bad in (payload[:cut], payload + b"\x00"):
            with pytest.raises(ProtocolError):
                wire.unpack_query_req(bad)

    @given(st.binary(max_size=300))
    def test_garbage_raises_only_protocol_error(self, payload):
        only_protocol_error(wire.unpack_query_req, payload)
        only_protocol_error(wire.unpack_query_reply, payload)

    @given(st.one_of(replies().map(lambda c: c[0]), requests()), st.data())
    def test_corrupted_bytes_raise_only_protocol_error(self, payload, data):
        buf = bytearray(payload)
        for _ in range(data.draw(st.integers(1, 4))):
            i = data.draw(st.integers(0, len(buf) - 1))
            buf[i] = data.draw(st.integers(0, 255))
        only_protocol_error(wire.unpack_query_req, bytes(buf))
        only_protocol_error(wire.unpack_query_reply, bytes(buf))

    def test_invalid_utf8_name(self):
        payload = bytearray(wire.pack_query_reply(wire.E_OK, ("ab",)))
        payload[11:13] = b"\xff\xfe"
        with pytest.raises(ProtocolError):
            wire.unpack_query_reply(bytes(payload))
        req = bytearray(wire.pack_query_req("ab", 0.0, 1.0))
        req[30:32] = b"\xc3\x28"
        with pytest.raises(ProtocolError):
            wire.unpack_query_req(bytes(req))

    def test_huge_counts_rejected_before_allocating(self):
        head = wire.pack_query_reply(wire.E_OK)
        many_cols = head[:5] + (2**32 - 1).to_bytes(4, "little") + head[9:]
        many_rows = head[:9] + (2**32 - 1).to_bytes(4, "little")
        for bad in (many_cols, many_rows):
            with pytest.raises(ProtocolError):
                wire.unpack_query_reply(bad)


class TestMalformedIsCounted:
    def test_daemon_drops_and_counts_malformed_request(self, tmp_path):
        eng = Engine()
        env = SimEnv(eng)
        fabric = SimFabric(eng)
        agg = Ldmsd("agg", env=env, transports={
            "sock": SimTransport(fabric, "sock", node_id="agg")})
        agg.add_store("sos", path=str(tmp_path))
        agg.enable_query()
        agg.listen("sock", "agg:412")
        replies = []

        def connected(ep):
            ep.on_message = replies.append
            ep.send(wire.encode_frame(wire.MsgType.QUERY_REQ, 1, b"\x00" * 7))
            ep.send(wire.encode_frame(wire.MsgType.QUERY_REQ, 2,
                                      wire.pack_query_req("mem", 0.0, 1.0)))

        SimTransport(fabric, "sock", node_id="c").connect("agg:412", connected)
        eng.run(until=1.0)
        answered = [f.request_id for f in map(wire.decode_frame, replies)
                    if f.msg_type == wire.MsgType.QUERY_REPLY]
        assert answered == [2]
        assert agg.obs.counter("query.malformed").value == 1
        agg.shutdown()

    def test_client_counts_malformed_reply(self):
        class Env:
            def now(self):
                return 1.0

        from repro.obs.registry import Telemetry

        p = Poller("p0", Env(), None, None, "mem",
                   Telemetry(enabled=False), interval=1.0)
        p._pending = {1: 0.5, 2: 0.5}
        p._on_message(wire.encode_frame(wire.MsgType.QUERY_REPLY, 1,
                                        b"\x00" * 11))
        p._on_message(b"\x03\x00")  # not even a frame
        p._on_message(wire.encode_frame(
            wire.MsgType.QUERY_REPLY, 2,
            wire.pack_query_reply(wire.E_OK, ("a",), [(1.0, 1, (2.0,))])))
        assert p.malformed == 2
        assert (p.replies, p.rows_received) == (1, 1)


def test_offline_cli_reports_truncation(tmp_path, capsys):
    from repro.cli.query_cli import main

    store = SosStore()
    store.config(path=str(tmp_path))
    for k in range(6):
        store.submit(rec(float(k), comp=1 + k % 2, values=(k, 2 * k)))
    store.close()
    assert main(["--path", str(tmp_path), "--schema", "mem", "--comp-id",
                 "2", "--max-records", "2"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == ["1.000000,2,1,2", "3.000000,2,3,6"]
    assert "truncated at 2 records" in err

