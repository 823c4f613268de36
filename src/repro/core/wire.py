"""LDMS wire protocol: framed request/reply messages.

The protocol has three operations an aggregator performs against a peer
(paper Fig. 2):

* **DIR** — list the metric sets the peer publishes.
* **LOOKUP** — fetch a set's metadata chunk once; the reply also carries
  a *region id* under which the peer has registered the set's data
  chunk for direct fetch.
* **UPDATE** — fetch the current data chunk.  Over RDMA transports this
  is a one-sided read of the registered region (no peer CPU); over the
  socket transport the peer's protocol handler services it.

Frames are length-prefixed little-endian:

    u32 frame_len | u8 msg_type | u64 request_id | payload

``frame_len`` counts everything after the length field itself.

**Trace context (version-negotiated).**  The high bit of ``msg_type``
(:data:`TRACE_FLAG`) marks a frame that carries a compact trace-context
blob between the header and the payload:

    u8 count | count × (u16 index | u64 trace_id | u32 parent_span | u8 hop)

``index`` names the region position a context applies to inside a
coalesced multi-read (0 for single-region frames); ``trace_id`` /
``parent_span`` / ``hop`` are the exemplar trace id, the sender's span
id, and the sender's hop number (:mod:`repro.obs.spans`).  Because the
flag bit was reserved (``msg_type`` ≤ 14), old decoders would reject
flagged frames — so senders only set it after the peer advertised the
``trace-ctx`` feature in its :data:`MsgType.HELLO` greeting, keeping
mixed-version fleets interoperable.  The query messages (13/14) are
gated the same way behind the ``query`` feature.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.core.metric_set import SetInfo
from repro.util.errors import ProtocolError

__all__ = [
    "MsgType",
    "Frame",
    "encode_frame",
    "FrameDecoder",
    "pack_dir_req",
    "unpack_dir_reply",
    "pack_dir_reply",
    "pack_lookup_req",
    "unpack_lookup_req",
    "pack_lookup_reply",
    "unpack_lookup_reply",
    "pack_update_req",
    "unpack_update_req",
    "pack_update_reply",
    "unpack_update_reply",
    "pack_read_multi_req",
    "unpack_read_multi_req",
    "pack_read_multi_reply",
    "unpack_read_multi_reply",
    "pack_query_req",
    "unpack_query_req",
    "pack_query_reply",
    "unpack_query_reply",
    "pack_query_rows",
    "unpack_query_rows",
    "query_row_size",
    "QUERY_TRUNCATED",
    "QUERY_CACHE_HIT",
    "TRACE_FLAG",
    "pack_trace_ctx",
    "unpack_trace_ctx",
    "pack_hello",
    "unpack_hello",
]

_HDR_FMT = "<IBQ"
_HDR_STRUCT = struct.Struct(_HDR_FMT)
_HDR_SIZE = _HDR_STRUCT.size
_LEN_STRUCT = struct.Struct("<I")

E_OK = 0
E_NOENT = 2  # set not found
E_AGAIN = 11  # try later


class MsgType:
    DIR_REQ = 1
    DIR_REPLY = 2
    LOOKUP_REQ = 3
    LOOKUP_REPLY = 4
    UPDATE_REQ = 5
    UPDATE_REPLY = 6
    RDMA_READ_REQ = 7  # transport-internal: sock emulation of a read
    RDMA_READ_REPLY = 8
    ADVERTISE = 9  # passive mode: a sampler announces itself to an
    # aggregator it connected to (asymmetric network access, §IV-B)
    RDMA_READ_MULTI_REQ = 10  # coalesced read: N regions, one frame each way
    RDMA_READ_MULTI_REPLY = 11
    HELLO = 12  # transport-internal greeting: peer clock + feature list
    QUERY_REQ = 13  # serving tier: time-range query over the SOS store
    QUERY_REPLY = 14  # (feature-gated: peer must advertise "query")


#: High bit of ``msg_type``: the frame carries a trace-context blob.
TRACE_FLAG = 0x80
_MSG_TYPE_MASK = 0x7F

#: One trace-context entry: region index, trace id, parent span, hop.
_TRACE_ENTRY = struct.Struct("<HQIB")
_TRACE_ENTRY_SIZE = _TRACE_ENTRY.size


def pack_trace_ctx(entries: tuple) -> bytes:
    out = [struct.pack("<B", len(entries))]
    for idx, trace_id, parent_span, hop in entries:
        out.append(_TRACE_ENTRY.pack(idx, trace_id, parent_span, hop))
    return b"".join(out)


def unpack_trace_ctx(buf, pos: int = 0) -> tuple[tuple, int]:
    """Decode a trace blob at ``pos``; returns (entries, bytes consumed)."""
    (n,) = struct.unpack_from("<B", buf, pos)
    entries = tuple(
        _TRACE_ENTRY.unpack_from(buf, pos + 1 + i * _TRACE_ENTRY_SIZE)
        for i in range(n)
    )
    return entries, 1 + n * _TRACE_ENTRY_SIZE


@dataclass(frozen=True)
class Frame:
    msg_type: int
    request_id: int
    payload: bytes
    #: Decoded trace-context entries, or None for untraced frames.
    trace: tuple | None = field(default=None)


def encode_frame(msg_type: int, request_id: int, payload: bytes = b"",
                 trace: tuple | None = None) -> bytes:
    if trace is None:
        body = _HDR_STRUCT.pack(
            _HDR_SIZE - 4 + len(payload), msg_type, request_id)
        return body + payload
    blob = pack_trace_ctx(trace)
    body = _HDR_STRUCT.pack(
        _HDR_SIZE - 4 + len(blob) + len(payload),
        msg_type | TRACE_FLAG, request_id)
    return body + blob + payload


class FrameDecoder:
    """Incremental frame decoder for stream transports.

    Feed arbitrary byte chunks; complete frames pop out.  Decoding is
    cursor-based: complete frames advance a read offset into the buffer
    and compaction is amortized (the consumed prefix is only dropped
    once it is both large and the majority of the buffer), instead of
    recompacting the entire remainder once per frame.

    >>> dec = FrameDecoder()
    >>> frames = dec.feed(encode_frame(MsgType.DIR_REQ, 7))
    >>> frames[0].msg_type == MsgType.DIR_REQ
    True
    """

    #: Consumed-prefix size below which compaction is never worth it.
    _COMPACT_MIN = 4096

    def __init__(self) -> None:
        self._buf = bytearray()
        self._pos = 0

    def feed(self, chunk: bytes) -> list[Frame]:
        buf = self._buf
        buf += chunk
        pos = self._pos
        end = len(buf)
        frames: list[Frame] = []
        mv = memoryview(buf)
        try:
            while end - pos >= 4:
                (flen,) = _LEN_STRUCT.unpack_from(buf, pos)
                if flen < _HDR_SIZE - 4:
                    raise ProtocolError(f"corrupt frame length {flen}")
                if end - pos < 4 + flen:
                    break
                _, mtype, rid = _HDR_STRUCT.unpack_from(buf, pos)
                if mtype & TRACE_FLAG:
                    trace, used = unpack_trace_ctx(buf, pos + _HDR_SIZE)
                    payload = bytes(mv[pos + _HDR_SIZE + used : pos + 4 + flen])
                    frames.append(Frame(mtype & _MSG_TYPE_MASK, rid,
                                        payload, trace))
                else:
                    payload = bytes(mv[pos + _HDR_SIZE : pos + 4 + flen])
                    frames.append(Frame(mtype, rid, payload))
                pos += 4 + flen
        finally:
            mv.release()
        if pos == end:
            buf.clear()
            pos = 0
        elif pos >= self._COMPACT_MIN and pos * 2 >= end:
            del buf[:pos]
            pos = 0
        self._pos = pos
        return frames


def decode_frame(raw: bytes) -> Frame:
    """Decode exactly one frame from a complete datagram.

    Decodes directly from the buffer — no intermediate decoder state.
    """
    if len(raw) < _HDR_SIZE:
        raise ProtocolError(f"expected exactly one frame, got a {len(raw)}-byte fragment")
    flen, mtype, rid = _HDR_STRUCT.unpack_from(raw, 0)
    if flen < _HDR_SIZE - 4:
        raise ProtocolError(f"corrupt frame length {flen}")
    if 4 + flen != len(raw):
        raise ProtocolError(
            f"expected exactly one {4 + flen}-byte frame, got {len(raw)} bytes"
        )
    if mtype & TRACE_FLAG:
        trace, used = unpack_trace_ctx(raw, _HDR_SIZE)
        return Frame(mtype & _MSG_TYPE_MASK, rid,
                     bytes(raw[_HDR_SIZE + used:]), trace)
    return Frame(mtype, rid, bytes(raw[_HDR_SIZE:]))


# ---------------------------------------------------------------------------
# DIR
# ---------------------------------------------------------------------------

_SETINFO_FMT = "<III128s64s"
_SETINFO_SIZE = struct.calcsize(_SETINFO_FMT)


def pack_dir_req() -> bytes:
    return b""


def pack_dir_reply(infos: list[SetInfo]) -> bytes:
    out = [struct.pack("<I", len(infos))]
    for i in infos:
        out.append(
            struct.pack(
                _SETINFO_FMT,
                i.card,
                i.meta_size,
                i.data_size,
                i.name.encode("utf-8"),
                i.schema.encode("utf-8"),
            )
        )
    return b"".join(out)


def unpack_dir_reply(payload: bytes) -> list[SetInfo]:
    (n,) = struct.unpack_from("<I", payload, 0)
    infos = []
    pos = 4
    for _ in range(n):
        card, msz, dsz, name_b, schema_b = struct.unpack_from(_SETINFO_FMT, payload, pos)
        pos += _SETINFO_SIZE
        infos.append(
            SetInfo(
                name=name_b.rstrip(b"\x00").decode(),
                schema=schema_b.rstrip(b"\x00").decode(),
                card=card,
                meta_size=msz,
                data_size=dsz,
            )
        )
    return infos


# ---------------------------------------------------------------------------
# LOOKUP
# ---------------------------------------------------------------------------


def pack_lookup_req(set_name: str) -> bytes:
    b = set_name.encode("utf-8")
    return struct.pack("<H", len(b)) + b


def unpack_lookup_req(payload: bytes) -> str:
    (n,) = struct.unpack_from("<H", payload, 0)
    return payload[2 : 2 + n].decode("utf-8")


def pack_lookup_reply(status: int, region_id: int = 0, meta: bytes = b"") -> bytes:
    return struct.pack("<iQI", status, region_id, len(meta)) + meta


def unpack_lookup_reply(payload: bytes) -> tuple[int, int, bytes]:
    status, region_id, mlen = struct.unpack_from("<iQI", payload, 0)
    return status, region_id, payload[16 : 16 + mlen]


# ---------------------------------------------------------------------------
# UPDATE (socket-transport path; RDMA transports bypass this and read the
# registered region directly)
# ---------------------------------------------------------------------------


def pack_advertise(name: str) -> bytes:
    b = name.encode("utf-8")
    return struct.pack("<H", len(b)) + b


def unpack_advertise(payload: bytes) -> str:
    (n,) = struct.unpack_from("<H", payload, 0)
    return payload[2 : 2 + n].decode("utf-8")


def pack_update_req(region_id: int) -> bytes:
    return struct.pack("<Q", region_id)


def unpack_update_req(payload: bytes) -> int:
    return struct.unpack_from("<Q", payload, 0)[0]


def pack_update_reply(status: int, data: bytes = b"") -> bytes:
    return struct.pack("<iI", status, len(data)) + data


def unpack_update_reply(payload: bytes) -> tuple[int, bytes]:
    status, dlen = struct.unpack_from("<iI", payload, 0)
    return status, payload[8 : 8 + dlen]


# ---------------------------------------------------------------------------
# Coalesced READ (update batching, §IV-A/§IV-D): one request frame names N
# registered regions; one reply frame carries N per-region results.  The
# framing/dispatch overhead of an update transaction is thereby paid once
# per producer per collection interval instead of once per metric set.
# ---------------------------------------------------------------------------


def pack_read_multi_req(region_ids: list[int]) -> bytes:
    return struct.pack(f"<I{len(region_ids)}Q", len(region_ids), *region_ids)


def unpack_read_multi_req(payload: bytes) -> list[int]:
    (n,) = struct.unpack_from("<I", payload, 0)
    return list(struct.unpack_from(f"<{n}Q", payload, 4))


def pack_read_multi_reply(parts: list[bytes | None]) -> bytes:
    out = [struct.pack("<I", len(parts))]
    for data in parts:
        if data is None:
            out.append(struct.pack("<iI", E_NOENT, 0))
        else:
            out.append(struct.pack("<iI", E_OK, len(data)))
            out.append(data)
    return b"".join(out)


def unpack_read_multi_reply(payload: bytes) -> list[bytes | None]:
    (n,) = struct.unpack_from("<I", payload, 0)
    pos = 4
    parts: list[bytes | None] = []
    for _ in range(n):
        status, dlen = struct.unpack_from("<iI", payload, pos)
        pos += 8
        parts.append(bytes(payload[pos : pos + dlen]) if status == E_OK else None)
        pos += dlen
    return parts


# ---------------------------------------------------------------------------
# QUERY (serving tier, PR 9): a client asks an aggregator for a time
# range of stored records — base data (level=0) or a pre-computed
# rollup (level=N seconds).  Feature-gated like TRACE_FLAG: MsgType 13
# and 14 did not exist before this build, so clients only send
# QUERY_REQ after the peer's HELLO advertised the "query" feature.
#
# Request:  f64 t0 | f64 t1 | u32 level | u32 comp_id | u32 max_records
#           | u16 schema_len | schema — comp_id 0 means all components;
#           max_records 0 means unbounded.
# Reply:    i32 status | u8 flags | u32 ncols | ncols x (u16 len | name)
#           | u32 nrows | nrows x (f64 ts | u32 comp_id | ncols x f64)
#
# The reply's row layout is the SOS record (plugins.stores.sos) minus
# its u32 card field, so the store hands the query tier each row
# encoded once at ingest and a served reply is a header in front of
# bytes already held (``pack_query_reply(..., body=)``).
#
# Both decoders fail closed: every length field is checked against the
# bytes left before anything is unpacked or allocated, and malformed
# input raises ProtocolError only.
# ---------------------------------------------------------------------------

#: Reply flag bits: the row set was cut at ``max_records``; the reply
#: was served from the hot-window / LRU cache.
QUERY_TRUNCATED = 0x01
QUERY_CACHE_HIT = 0x02

_QUERY_REQ_SIZE = struct.calcsize("<ddIIIH")


def query_row_size(ncols: int) -> int:
    """Bytes of one QUERY row: ``f64 ts | u32 comp_id | ncols x f64``."""
    return 12 + 8 * ncols


def _utf8(raw) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"QUERY name is not UTF-8: {exc}") from None


def pack_query_req(schema: str, t0: float, t1: float, level: int = 0,
                   comp_id: int = 0, max_records: int = 0) -> bytes:
    b = schema.encode("utf-8")
    return struct.pack("<ddIIIH", t0, t1, level, comp_id, max_records, len(b)) + b


def unpack_query_req(payload: bytes) -> tuple[str, float, float, int, int, int]:
    if len(payload) < _QUERY_REQ_SIZE:
        raise ProtocolError(f"QUERY_REQ of {len(payload)} bytes: "
                            f"the header alone is {_QUERY_REQ_SIZE}")
    t0, t1, level, comp_id, max_records, n = struct.unpack_from("<ddIIIH", payload, 0)
    if len(payload) != _QUERY_REQ_SIZE + n:
        raise ProtocolError(f"QUERY_REQ schema of {n} bytes in a "
                            f"{len(payload)}-byte payload")
    schema = _utf8(payload[30 : 30 + n])
    return schema, t0, t1, level, comp_id, max_records


def pack_query_rows(rows, ncols: int) -> bytes:
    """Encode ``(ts, comp_id, values)`` rows in the QUERY row layout."""
    return b"".join([struct.pack(f"<dI{ncols}d", ts, comp_id, *values)
                     for ts, comp_id, values in rows])


def unpack_query_rows(body, ncols: int) -> list:
    """Decode a row block in one pass: ``[(ts, comp_id, values)]``."""
    if len(body) % query_row_size(ncols):
        raise ProtocolError(f"QUERY row block of {len(body)} bytes is not "
                            f"whole {query_row_size(ncols)}-byte rows")
    return [(r[0], r[1], r[2:])
            for r in struct.iter_unpack(f"<dI{ncols}d", body)]


def pack_query_reply(status: int, names: tuple[str, ...] = (),
                     rows: list | tuple = (), flags: int = 0,
                     body: bytes | None = None) -> bytes:
    """A QUERY_REPLY payload.  ``body`` is a block of rows already in
    the QUERY row layout (the query tier's stored form); without it
    ``rows`` are encoded here."""
    out = [struct.pack("<iBI", status, flags, len(names))]
    for name in names:
        b = name.encode("utf-8")
        out.append(struct.pack("<H", len(b)))
        out.append(b)
    if body is None:
        body = pack_query_rows(rows, len(names))
    out.append(struct.pack("<I", len(body) // query_row_size(len(names))))
    out.append(body)
    return b"".join(out)


def unpack_query_reply(payload: bytes) -> tuple[int, int, tuple[str, ...], list]:
    end = len(payload)
    if end < 13:
        raise ProtocolError(f"QUERY_REPLY of {end} bytes: at least 13 needed")
    status, flags, ncols = struct.unpack_from("<iBI", payload, 0)
    if 13 + 2 * ncols > end:
        raise ProtocolError(f"QUERY_REPLY claims {ncols} columns in {end} bytes")
    pos = 9
    names = []
    for _ in range(ncols):
        (n,) = struct.unpack_from("<H", payload, pos)
        pos += 2
        if pos + n + 4 > end:
            raise ProtocolError(f"QUERY_REPLY column name of {n} bytes "
                                f"overruns the payload")
        names.append(_utf8(payload[pos : pos + n]))
        pos += n
    (nrows,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    if nrows * query_row_size(ncols) != end - pos:
        raise ProtocolError(f"QUERY_REPLY claims {nrows} rows of {ncols} "
                            f"columns; {end - pos} bytes follow")
    rows = unpack_query_rows(memoryview(payload)[pos:], ncols)
    return status, flags, tuple(names), rows


# ---------------------------------------------------------------------------
# HELLO (transport-internal, stream transports): sent once per direction
# right after connect.  Carries the sender's daemon clock (so a peer can
# convert transaction timestamps into ages without sharing an epoch —
# daemon clocks are monotonic-since-start, not wall time) and its
# feature list for version negotiation (currently just "trace-ctx").
# Peers that never send a HELLO are treated as featureless old builds.
# ---------------------------------------------------------------------------


def pack_hello(now: float, features: frozenset[str] | set[str]) -> bytes:
    b = ",".join(sorted(features)).encode("utf-8")
    return struct.pack("<dH", now, len(b)) + b


def unpack_hello(payload: bytes) -> tuple[float, frozenset[str]]:
    now, n = struct.unpack_from("<dH", payload, 0)
    raw = payload[10 : 10 + n].decode("utf-8")
    return now, (frozenset(raw.split(",")) if raw else frozenset())
