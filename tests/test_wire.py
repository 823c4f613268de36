"""Unit tests for the wire protocol: framing and message codecs."""

import inspect

import pytest
from hypothesis import given, strategies as st

from repro.core import wire
from repro.core.metric_set import SetInfo
from repro.util.errors import ProtocolError, ReproError


class TestFraming:
    def test_roundtrip_single(self):
        raw = wire.encode_frame(wire.MsgType.DIR_REQ, 7, b"payload")
        frames = wire.FrameDecoder().feed(raw)
        assert len(frames) == 1
        f = frames[0]
        assert f.msg_type == wire.MsgType.DIR_REQ
        assert f.request_id == 7
        assert f.payload == b"payload"

    def test_multiple_frames_in_one_chunk(self):
        raw = wire.encode_frame(1, 1, b"a") + wire.encode_frame(2, 2, b"bb")
        frames = wire.FrameDecoder().feed(raw)
        assert [f.msg_type for f in frames] == [1, 2]
        assert [f.payload for f in frames] == [b"a", b"bb"]

    def test_byte_by_byte_feed(self):
        raw = wire.encode_frame(3, 99, b"hello world")
        dec = wire.FrameDecoder()
        frames = []
        for i in range(len(raw)):
            frames.extend(dec.feed(raw[i : i + 1]))
        assert len(frames) == 1
        assert frames[0].payload == b"hello world"

    def test_split_across_chunks(self):
        raw = wire.encode_frame(3, 1, b"x" * 1000)
        dec = wire.FrameDecoder()
        assert dec.feed(raw[:500]) == []
        frames = dec.feed(raw[500:])
        assert frames[0].payload == b"x" * 1000

    def test_decode_frame_rejects_trailing_garbage(self):
        raw = wire.encode_frame(1, 1) + wire.encode_frame(1, 2)
        with pytest.raises(ReproError):
            wire.decode_frame(raw)

    def test_corrupt_length_rejected(self):
        with pytest.raises(ReproError):
            wire.FrameDecoder().feed(b"\x01\x00\x00\x00abcdefgh")

    @given(st.binary(max_size=2048), st.integers(0, 127),
           st.integers(0, 2**64 - 1))
    def test_any_payload_roundtrips(self, payload, mtype, rid):
        # msg_type is 7 bits on the wire: the high bit is the
        # trace-context flag (wire.TRACE_FLAG).
        f = wire.decode_frame(wire.encode_frame(mtype, rid, payload))
        assert (f.msg_type, f.request_id, f.payload) == (mtype, rid, payload)

    @given(st.binary(max_size=512), st.integers(0, 127),
           st.integers(0, 2**64 - 1))
    def test_traced_payload_roundtrips(self, payload, mtype, rid):
        ctx = ((0, 42, 7, 2),)
        f = wire.decode_frame(wire.encode_frame(mtype, rid, payload,
                                                trace=ctx))
        assert (f.msg_type, f.request_id, f.payload, f.trace) == (
            mtype, rid, payload, ctx)

    def _traced_overrun(self, count):
        """A traced frame whose trace blob claims ``count`` entries but
        carries none."""
        return wire._HDR_STRUCT.pack(wire._HDR_SIZE - 4 + 1,
                                     wire.MsgType.DIR_REQ | wire.TRACE_FLAG,
                                     9) + bytes([count])

    def test_trace_blob_bounded_by_its_frame_in_stream(self):
        """The entry count may not read into the next frame's bytes."""
        nxt = wire.encode_frame(wire.MsgType.DIR_REQ, 10, b"n" * 40)
        with pytest.raises(ProtocolError, match="trace context"):
            wire.FrameDecoder().feed(self._traced_overrun(2) + nxt)

    def test_trace_blob_bounded_by_its_frame_in_datagram(self):
        with pytest.raises(ProtocolError, match="trace context"):
            wire.decode_frame(self._traced_overrun(1))

    def test_traced_frame_without_count_rejected(self):
        raw = wire._HDR_STRUCT.pack(wire._HDR_SIZE - 4, wire.TRACE_FLAG | 1, 1)
        for decode in (wire.decode_frame, wire.FrameDecoder().feed):
            with pytest.raises(ProtocolError):
                decode(raw)


class TestDirCodec:
    def test_roundtrip(self):
        infos = [
            SetInfo("n0/meminfo", "meminfo", 7, 1000, 100),
            SetInfo("n0/lustre", "lustre", 42, 4000, 400),
        ]
        out = wire.unpack_dir_reply(wire.pack_dir_reply(infos))
        assert out == infos

    def test_empty_dir(self):
        assert wire.unpack_dir_reply(wire.pack_dir_reply([])) == []


class TestLookupCodec:
    def test_req_roundtrip(self):
        assert wire.unpack_lookup_req(wire.pack_lookup_req("node9/gpcdr")) == "node9/gpcdr"

    def test_reply_ok(self):
        status, rid, meta = wire.unpack_lookup_reply(
            wire.pack_lookup_reply(wire.E_OK, 55, b"metadata-bytes")
        )
        assert status == wire.E_OK
        assert rid == 55
        assert meta == b"metadata-bytes"

    def test_reply_error_carries_no_meta(self):
        status, rid, meta = wire.unpack_lookup_reply(
            wire.pack_lookup_reply(wire.E_NOENT)
        )
        assert status == wire.E_NOENT
        assert meta == b""


class TestUpdateCodec:
    def test_req_roundtrip(self):
        assert wire.unpack_update_req(wire.pack_update_req(1234)) == 1234

    def test_reply_roundtrip(self):
        status, data = wire.unpack_update_reply(
            wire.pack_update_reply(wire.E_OK, b"\x00\x01\x02")
        )
        assert status == wire.E_OK
        assert data == b"\x00\x01\x02"


# ---------------------------------------------------------------------------
# Read-path decoders fail closed
# ---------------------------------------------------------------------------

names = st.text(st.characters(min_codepoint=33, max_codepoint=0x2FF), max_size=12)
u32 = st.integers(0, 2**32 - 1)
set_infos = st.builds(SetInfo, names, names, u32, u32, u32)
read_parts = st.lists(st.one_of(st.none(), st.binary(max_size=24)), max_size=5)

#: decoder -> strategy of (valid payload, what it decodes to)
READ_PATH = {
    wire.unpack_dir_reply: st.lists(set_infos, max_size=3).map(
        lambda infos: (wire.pack_dir_reply(infos), infos)),
    wire.unpack_lookup_req: names.map(
        lambda n: (wire.pack_lookup_req(n), n)),
    wire.unpack_lookup_reply: st.tuples(
        st.integers(-2**31, 2**31 - 1), st.integers(0, 2**64 - 1),
        st.binary(max_size=40)).map(
        lambda t: (wire.pack_lookup_reply(*t), t)),
    wire.unpack_read_multi_req: st.lists(st.integers(0, 2**64 - 1), max_size=6).map(
        lambda ids: (wire.pack_read_multi_req(ids), ids)),
    wire.unpack_read_multi_reply: read_parts.map(
        lambda parts: (wire.pack_read_multi_reply(parts), parts)),
    wire.unpack_advertise: names.map(
        lambda n: (wire.pack_advertise(n), n)),
    wire.unpack_update_req: st.integers(0, 2**64 - 1).map(
        lambda r: (wire.pack_update_req(r), r)),
    wire.unpack_update_reply: st.tuples(
        st.integers(-2**31, 2**31 - 1), st.binary(max_size=40)).map(
        lambda t: (wire.pack_update_reply(*t), t)),
    wire.unpack_read_req: st.integers(0, 2**64 - 1).map(
        lambda r: (wire.pack_read_req(r), r)),
    wire.unpack_hello: st.tuples(
        st.floats(allow_nan=False),
        st.frozensets(st.text("abcdef-", min_size=1, max_size=8), max_size=4)).map(
        lambda t: (wire.pack_hello(*t), t)),
}
read_path_cases = st.sampled_from(sorted(READ_PATH, key=lambda f: f.__name__)).flatmap(
    lambda fn: READ_PATH[fn].map(lambda case: (fn, *case)))


def only_protocol_error(fn, payload):
    try:
        fn(payload)
    except ProtocolError:
        pass


class TestReadPathFailsClosed:
    @given(read_path_cases)
    def test_roundtrip(self, case):
        fn, payload, value = case
        assert fn(payload) == value

    @given(read_path_cases, st.data())
    def test_truncated_or_extended_rejected(self, case, data):
        fn, payload, _ = case
        cut = data.draw(st.integers(0, len(payload) - 1))
        for bad in (payload[:cut], payload + b"\x00"):
            with pytest.raises(ProtocolError):
                fn(bad)

    @given(st.binary(max_size=300))
    def test_garbage_raises_only_protocol_error(self, payload):
        for fn in READ_PATH:
            only_protocol_error(fn, payload)

    @given(read_path_cases, st.data())
    def test_corrupted_bytes_raise_only_protocol_error(self, case, data):
        fn, payload, _ = case
        buf = bytearray(payload)
        for _ in range(data.draw(st.integers(1, 4))):
            i = data.draw(st.integers(0, len(buf) - 1))
            buf[i] = data.draw(st.integers(0, 255))
        only_protocol_error(fn, bytes(buf))

    def test_invalid_utf8_names(self):
        dir_reply = bytearray(wire.pack_dir_reply([SetInfo("ab", "s", 1, 2, 3)]))
        dir_reply[16:18] = b"\xff\xfe"
        lookup = bytearray(wire.pack_lookup_req("ab"))
        lookup[2:4] = b"\xc3\x28"
        hello = bytearray(wire.pack_hello(1.0, {"ab"}))
        hello[10:12] = b"\xff\xff"
        advertise = bytearray(wire.pack_advertise("ab"))
        advertise[2:4] = b"\xff\xfe"
        for fn, bad in ((wire.unpack_dir_reply, dir_reply),
                        (wire.unpack_lookup_req, lookup),
                        (wire.unpack_hello, hello),
                        (wire.unpack_advertise, advertise)):
            with pytest.raises(ProtocolError, match="UTF-8"):
                fn(bytes(bad))

    def test_huge_counts_rejected_before_allocating(self):
        huge = (2**32 - 1).to_bytes(4, "little")
        for fn in (wire.unpack_dir_reply, wire.unpack_read_multi_req,
                   wire.unpack_read_multi_reply):
            with pytest.raises(ProtocolError):
                fn(huge)
        meta_len = wire.pack_lookup_reply(wire.E_OK, 1)[:12] + huge
        with pytest.raises(ProtocolError):
            wire.unpack_lookup_reply(meta_len)


#: Every payload decoder the wire module defines, found by name so a
#: future ``unpack_*`` is covered without editing this list.
UNPACKERS = sorted(
    (fn for name, fn in vars(wire).items()
     if name.startswith("unpack_") and inspect.isfunction(fn)),
    key=lambda fn: fn.__name__)


def _required_extra_args(fn) -> int:
    params = list(inspect.signature(fn).parameters.values())[1:]
    return sum(1 for p in params if p.default is inspect.Parameter.empty)


class TestEveryUnpackerFailsClosed:
    def test_introspection_finds_the_decoders(self):
        found = {fn.__name__ for fn in UNPACKERS}
        assert {"unpack_advertise", "unpack_update_req", "unpack_update_reply",
                "unpack_trace_ctx", "unpack_read_req", "unpack_read_reply",
                "unpack_query_rows", "unpack_hello"} <= found

    @given(st.sampled_from(UNPACKERS), st.binary(max_size=300), st.data())
    def test_garbage_raises_only_protocol_error(self, fn, payload, data):
        extra = [data.draw(st.integers(0, 64))
                 for _ in range(_required_extra_args(fn))]
        try:
            fn(payload, *extra)
        except ProtocolError:
            pass

    def test_trace_ctx_roundtrip_and_bounds(self):
        ctx = ((0, 42, 7, 2), (3, 2**64 - 1, 9, 1))
        blob = wire.pack_trace_ctx(ctx)
        assert wire.unpack_trace_ctx(blob + b"payload") == (ctx, len(blob))
        assert wire.unpack_trace_ctx(b"xx" + blob, 2) == (ctx, len(blob))
        with pytest.raises(ProtocolError):
            wire.unpack_trace_ctx(blob + b"payload", 0, len(blob) - 1)
        with pytest.raises(ProtocolError):
            wire.unpack_trace_ctx(b"")
