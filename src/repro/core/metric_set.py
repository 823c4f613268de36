"""Metric sets: the unit of collection, transport, and storage.

A metric set is two contiguous chunks of memory (paper §IV-B):

* **metadata chunk** — describes the elements of the data chunk (name,
  user-defined component id, value type, offset of the element from the
  beginning of the data chunk) plus a *metadata generation number* (MGN)
  which changes whenever the metadata changes.

* **data chunk** — the sampled values, plus the MGN, a *data generation
  number* (DGN) incremented as each element is updated, a *consistent*
  flag telling a consumer whether all values came from the same sampling
  event, and the sample timestamp.

Only the data chunk moves on an update; consumers keep a cached copy of
the metadata from the initial lookup and use the MGN to detect staleness
and the DGN to discriminate new data from old.  The data chunk is
roughly 10% of the total set size in the paper's deployments — a ratio
this implementation reproduces (64-byte names + descriptor overhead in
metadata vs 8-byte values in data).

Set layouts
-----------

A set's layout is frozen at :meth:`MetricSet.create` / :meth:`from_meta`
time — that is the whole point of the MGN — and a daemon holds thousands
of sets of a handful of shapes.  Each shape is therefore compiled once
into an interned :class:`_Layout` that every producer set and mirror of
it shares: the metric names, name→index map, types and offsets, both
chunk sizes, one :class:`struct.Struct` for the whole descriptor block,
and the data-chunk codecs — a single whole-row ``Struct`` with explicit
pad bytes matching the natural-alignment layout, per-metric ``Struct``
objects, and the per-metric clamp callables.  A set itself keeps only
its component ids.  The hot producer path (:meth:`set_all` /
:meth:`set_values`) is then one ``pack_into`` plus one DGN write, and
the hot consumer path (:meth:`values` / :meth:`values_tuple` /
:meth:`values_array`) is one ``unpack_from`` — the paper's ~1.3
µs/metric collect cost (§IV-E) depends on exactly this "pay layout cost
once" property.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.core import sanitize
from repro.core.memory import Arena, OutOfMemory
from repro.core.metric import METRIC_NAME_LEN, MetricDesc, MetricType
from repro.util.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.set_arena import SetArenaPool

__all__ = ["MetricSet", "SetInfo", "SET_NAME_LEN", "SCHEMA_NAME_LEN"]

SET_NAME_LEN = 128
SCHEMA_NAME_LEN = 64

_STRUCT_META_HDR = struct.Struct(f"<4sIIII{SET_NAME_LEN}s{SCHEMA_NAME_LEN}s")
_META_HDR_SIZE = _STRUCT_META_HDR.size
_META_MAGIC = b"LDMS"

# data header: MGN u32, DGN u64, consistent u8, 3 pad, timestamp f64
_DATA_HDR_FMT = "<IQB3xd"
_DATA_HDR_SIZE = struct.calcsize(_DATA_HDR_FMT)

_DGN_OFF = 4
_CONSISTENT_OFF = 12
_TS_OFF = 16

_U64_MASK = 0xFFFFFFFFFFFFFFFF

_STRUCT_Q = struct.Struct("<Q")
_STRUCT_D = struct.Struct("<d")
_STRUCT_DATA_HDR = struct.Struct(_DATA_HDR_FMT)
# Leading (mgn, dgn, consistent) of a data chunk, for peeking at raw
# fetches without installing them.
_STRUCT_DATA_PEEK = struct.Struct("<IQB")

#: One shared Struct per scalar type code.
_SCALAR_STRUCTS = {t.struct_code: struct.Struct("<" + t.struct_code) for t in MetricType}

_NUMPY_CODE = {
    MetricType.U8: "u1",
    MetricType.S8: "i1",
    MetricType.U16: "u2",
    MetricType.S16: "i2",
    MetricType.U32: "u4",
    MetricType.S32: "i4",
    MetricType.U64: "u8",
    MetricType.S64: "i8",
    MetricType.F32: "f4",
    MetricType.F64: "f8",
}


class SchemaMismatch(ReproError):
    """The data chunk's MGN does not match the cached metadata's MGN."""


#: One on-wire descriptor: name[64] | component id u64 | type u8 | offset u32.
_DESC_FIELDS = MetricDesc.WIRE_FMT.lstrip("<")
_DESC_SIZE = MetricDesc.WIRE_SIZE
#: The component-id field of one descriptor, the rest skipped.
_DESC_COMP_FMT = f"{METRIC_NAME_LEN}xQ{_DESC_SIZE - METRIC_NAME_LEN - 8}x"

#: tag -> MetricType without the IntEnum constructor's overhead.
_TYPE_BY_TAG = {int(t): t for t in MetricType}


class _Layout:
    """One set shape, compiled once and shared by every set of it.

    Everything here is fixed by the metric names, types and offsets; a
    set adds only its own name, schema, MGN and component ids.  The
    constructor validates the shape once: unique, non-empty UTF-8 names
    that fit the descriptor's name field, and every metric inside the
    data chunk, after its header.
    """

    __slots__ = (
        "names",
        "index",
        "mtypes",
        "offsets",
        "card",
        "data_size",
        "meta_size",
        "shape",
        "probe",
        "desc_struct",
        "desc_args",
        "comp_struct",
        "row_struct",
        "metric_structs",
        "clamps",
        "first_offset",
        "array_dtype",
        "mixed_dtype",
    )

    def __init__(self, names: tuple, mtypes: tuple, offsets: tuple, data_size: int):
        if data_size < _DATA_HDR_SIZE:
            raise ValueError(f"data chunk of {data_size} bytes is smaller "
                             f"than its {_DATA_HDR_SIZE}-byte header")
        encoded = []
        for n in names:
            b = n.encode("utf-8")
            if not b or b"\x00" in b:
                raise ValueError(f"bad metric name {n!r}")
            if len(b) >= METRIC_NAME_LEN:
                raise ValueError(
                    f"metric name too long ({len(b)} bytes, max "
                    f"{METRIC_NAME_LEN - 1}): {n!r}")
            encoded.append(b)
        self.index = {n: i for i, n in enumerate(names)}
        if len(self.index) != len(names):
            dup = next(n for i, n in enumerate(names) if self.index[n] != i)
            raise ValueError(f"duplicate metric name {dup!r}")
        for n, t, off in zip(names, mtypes, offsets):
            if off < _DATA_HDR_SIZE or off + t.size > data_size:
                raise ValueError(
                    f"metric {n!r} at offset {off} lies outside the "
                    f"{data_size}-byte data chunk")
        self.names = names
        self.mtypes = mtypes
        self.offsets = offsets
        self.card = card = len(names)
        self.data_size = data_size
        self.meta_size = _META_HDR_SIZE + card * _DESC_SIZE
        #: What the columnar arenas and the store's batch decode key on:
        #: layouts that differ only in metric names decode alike.
        self.shape = (data_size, mtypes, offsets)
        #: A mirror's cheap first guess, read straight off a metadata
        #: chunk: (data_size, card, first descriptor's name field).
        self.probe = (data_size, card,
                      encoded[0].ljust(METRIC_NAME_LEN, b"\x00") if card else b"")

        # Descriptor block: one Struct; the component ids are the only
        # per-set fields, so packing splices them into a fixed template.
        self.desc_struct = struct.Struct("<" + _DESC_FIELDS * card)
        self.desc_args = [
            f for b, t, off in zip(encoded, mtypes, offsets)
            for f in (b, 0, int(t), off)
        ]
        self.comp_struct = struct.Struct("<" + _DESC_COMP_FMT * card)

        self.clamps = tuple(t.clamp for t in mtypes)
        self.metric_structs = tuple(_SCALAR_STRUCTS[t.struct_code] for t in mtypes)
        self.first_offset = offsets[0] if card else _DATA_HDR_SIZE

        # Whole-row Struct with explicit pad bytes ("4x") for the alignment
        # holes.  Only well-formed layouts compile: offsets strictly
        # increasing in descriptor order, no overlap.  create() always
        # produces such a layout; a mirror of foreign metadata might not,
        # and falls back to per-metric access.
        fmt = ["<"]
        cur = _DATA_HDR_SIZE
        ok = True
        for t, off in zip(mtypes, offsets):
            gap = off - cur
            if gap < 0:
                ok = False
                break
            if gap:
                fmt.append(f"{gap}x")
            fmt.append(t.struct_code)
            cur = off + t.size
        self.row_struct = struct.Struct("".join(fmt)) if ok else None

        # Mixed-layout values_array target dtype, resolved lazily on first
        # use (numpy promotion over the column types, computed once).
        self.mixed_dtype: Any = None

        # Homogeneous contiguous layouts additionally decode as one numpy
        # frombuffer (the common all-U64 case: meminfo, lustre, bw, ...).
        self.array_dtype: Optional[str] = None
        if self.row_struct is not None and card:
            t0 = mtypes[0]
            if all(t is t0 for t in mtypes) and all(
                off == self.first_offset + i * t0.size for i, off in enumerate(offsets)
            ):
                self.array_dtype = "<" + _NUMPY_CODE[t0]

    def pack_descs(self, comp_ids) -> bytes:
        """The descriptor block of a set of this layout."""
        args = self.desc_args.copy()
        args[1::4] = comp_ids
        return self.desc_struct.pack(*args)


#: The layout cache.  Three kinds of key name a layout: its full
#: ``(names, types, offsets, data_size)``, a producer's ``(names,
#: types)``, and a mirror's :attr:`_Layout.probe`.  Shapes are few in
#: any deployment; the bound only guards against pathological churn
#: (e.g. fuzzed metadata).  Live sets keep their layout when it is
#: cleared.
_LAYOUTS: dict[tuple, _Layout] = {}
_LAYOUTS_MAX = 1024


def _intern(names: tuple, mtypes: tuple, offsets: tuple, data_size: int) -> _Layout:
    key = (names, mtypes, offsets, data_size)
    lay = _LAYOUTS.get(key)
    if lay is None:
        lay = _Layout(names, mtypes, offsets, data_size)
        if len(_LAYOUTS) >= _LAYOUTS_MAX:
            _LAYOUTS.clear()
        _LAYOUTS[key] = lay
        _LAYOUTS[lay.probe] = lay
    return lay


def _producer_layout(names: tuple, mtypes: tuple) -> _Layout:
    """The layout :meth:`MetricSet.create` assigns: offsets sequential,
    each metric naturally aligned."""
    key = (names, mtypes)
    lay = _LAYOUTS.get(key)
    if lay is None:
        offsets = []
        off = _DATA_HDR_SIZE
        for t in mtypes:
            size = t.size
            off = (off + size - 1) & ~(size - 1)
            offsets.append(off)
            off += size
        lay = _intern(names, mtypes, tuple(offsets), off)
        _LAYOUTS[key] = lay
    return lay


def _mirror_layout(meta: bytes, data_size: int, card: int) -> tuple[_Layout, tuple]:
    """The layout a whole metadata chunk describes, and its component ids.

    A known shape costs one probe, one component-id unpack and a byte
    compare of the repacked descriptor block; only a new shape is
    decoded descriptor by descriptor (and validated, by interning it).
    """
    end = _META_HDR_SIZE + METRIC_NAME_LEN
    lay = _LAYOUTS.get((data_size, card, meta[_META_HDR_SIZE:end]))
    if lay is not None:
        comp_ids = lay.comp_struct.unpack_from(meta, _META_HDR_SIZE)
        if meta[_META_HDR_SIZE:] == lay.pack_descs(comp_ids):
            return lay, comp_ids
    names, mtypes, comp_ids, offsets = [], [], [], []
    block = meta[_META_HDR_SIZE:]
    for name_b, comp_id, tag, off in struct.iter_unpack(MetricDesc.WIRE_FMT, block):
        mtype = _TYPE_BY_TAG.get(tag)
        if mtype is None:
            raise ValueError(f"{tag} is not a valid MetricType")
        names.append(name_b.rstrip(b"\x00").decode("utf-8"))
        mtypes.append(mtype)
        comp_ids.append(comp_id)
        offsets.append(off)
    lay = _intern(tuple(names), tuple(mtypes), tuple(offsets), data_size)
    # The probe remembers the latest shape seen under it.
    _LAYOUTS[lay.probe] = lay
    return lay, tuple(comp_ids)


@dataclass(frozen=True)
class SetInfo:
    """Summary of a set as reported by the directory protocol."""

    name: str
    schema: str
    card: int
    meta_size: int
    data_size: int

    @property
    def total_size(self) -> int:
        return self.meta_size + self.data_size


class MetricSet:
    """A typed, fixed-layout record of metric values.

    Producer side (sampler plugins)::

        s = MetricSet.create("node1/meminfo", "meminfo",
                             [("Active", MetricType.U64, 1),
                              ("MemFree", MetricType.U64, 1)], arena=arena)
        s.begin_transaction()
        s.set_value("Active", 12345)
        s.end_transaction(timestamp=now)

    Consumer side (aggregators)::

        mirror = MetricSet.from_meta(s.meta_bytes(), arena=agg_arena)
        mirror.apply_data(s.data_bytes())
        mirror.get("Active")
    """

    def __init__(
        self,
        name: str,
        schema: str,
        layout: _Layout,
        comp_ids: tuple[int, ...],
        arena: Arena,
        mgn: int,
        meta_src: Optional[bytes] = None,
        pool: Optional["SetArenaPool"] = None,
    ):
        self.name = name
        self.schema = schema
        self._layout = layout
        self._comp_ids = comp_ids
        self.arena = arena
        self.mgn = mgn
        self.meta_size = layout.meta_size
        self.data_size = data_size = layout.data_size
        # Python-int DGN shadow: producers bump this instead of
        # unpack/repacking 8 bytes from the data chunk per update.
        self._dgn = 0

        self._meta_off = arena.alloc(self.meta_size)
        try:
            self._data_off = arena.alloc(data_size)
        except (OutOfMemory, ValueError):
            # Data chunk failed after the metadata chunk succeeded:
            # release the metadata chunk so a half-built set never
            # leaks arena space, then let the caller count the failure.
            arena.free(self._meta_off)
            raise
        self._meta = arena.view(self._meta_off, self.meta_size)
        if pool is not None:
            # Columnar backing (REPRO_ARENA): the data chunk is a row of
            # a shared per-layout numpy block, so population-wide sweeps
            # can touch every same-schema set in one vectorized op.  The
            # daemon Arena reservation above still stands — footprint
            # accounting (used/peak/OOM) is identical either way — but
            # the reserved region goes unused while the row backs _data.
            self._ab, self._arow = pool.acquire_row(layout)
            self._data = memoryview(self._ab.block[self._arow])
        else:
            self._ab = None
            self._arow = -1
            self._data = arena.view(self._data_off, data_size)
        self._in_transaction = False
        self._deleted = False

        # Serialize metadata into the metadata chunk.  A mirror already
        # holds the wire-format chunk it was built from, so copying it
        # wholesale beats re-packing the header + every descriptor (the
        # aggregator builds one mirror per connected sampler).
        if meta_src is not None:
            self._meta[:] = meta_src
        else:
            _STRUCT_META_HDR.pack_into(
                self._meta,
                0,
                _META_MAGIC,
                self.meta_size,
                data_size,
                layout.card,
                mgn,
                name.encode("utf-8"),
                schema.encode("utf-8"),
            )
            self._meta[_META_HDR_SIZE:] = layout.pack_descs(comp_ids)
        # Data header: MGN mirrored, DGN 0, consistent 0, ts 0
        _STRUCT_DATA_HDR.pack_into(self._data, 0, mgn, 0, 0, 0.0)

        # Shadow state for REPRO_SANITIZE runs; None when disabled, so
        # the hot paths pay a single is-None branch.
        self._shadow = sanitize.attach(self)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        name: str,
        schema: str,
        metrics: list[tuple[str, MetricType, int]],
        arena: Arena,
        mgn: int = 1,
        pool: Optional["SetArenaPool"] = None,
    ) -> "MetricSet":
        """Create a producer-side set; assigns data offsets sequentially."""
        if not name or len(name.encode()) >= SET_NAME_LEN:
            raise ValueError(f"bad set name {name!r}")
        if not schema or len(schema.encode()) >= SCHEMA_NAME_LEN:
            raise ValueError(f"bad schema name {schema!r}")
        if not metrics:
            raise ValueError("metric set must contain at least one metric")
        names, mtypes, comp_ids = zip(*metrics)
        if min(comp_ids) < 0:
            raise ValueError("component_id must be >= 0")
        return cls(name, schema, _producer_layout(names, mtypes), comp_ids,
                   arena, mgn=mgn, pool=pool)

    @classmethod
    def from_meta(
        cls, meta: bytes | memoryview, arena: Arena,
        pool: Optional["SetArenaPool"] = None,
    ) -> "MetricSet":
        """Construct a consumer-side mirror from a metadata chunk.

        Malformed metadata raises :class:`ValueError`: a truncated or
        mis-sized chunk, bad magic, a non-UTF-8 name, or a descriptor
        that fails the layout checks (unknown type, bad or duplicate
        name, a value outside the data chunk).
        """
        meta = bytes(meta)
        if len(meta) < _META_HDR_SIZE:
            raise ValueError("truncated metadata chunk")
        magic, meta_size, data_size, card, mgn, name_b, schema_b = (
            _STRUCT_META_HDR.unpack_from(meta, 0))
        if magic != _META_MAGIC:
            raise ValueError("bad metadata magic")
        if len(meta) != meta_size:
            raise ValueError(f"metadata size mismatch: header says {meta_size}, got {len(meta)}")
        if meta_size != _META_HDR_SIZE + card * _DESC_SIZE:
            raise ValueError(f"metadata of {meta_size} bytes does not hold "
                             f"{card} descriptors")
        layout, comp_ids = _mirror_layout(meta, data_size, card)
        mset = cls(
            name_b.rstrip(b"\x00").decode("utf-8"),
            schema_b.rstrip(b"\x00").decode("utf-8"),
            layout,
            comp_ids,
            arena,
            mgn=mgn,
            meta_src=meta,
            pool=pool,
        )
        if mset._shadow is not None:
            # Mirrors get the consumer-side checks: decoding values
            # while the consistent flag is clear is a violation here.
            mset._shadow.is_mirror = True
        return mset

    def delete(self) -> None:
        """Release the set's arena memory (and its columnar row)."""
        if not self._deleted:
            self._deleted = True
            self._meta.release()
            self._data.release()
            if self._ab is not None:
                self._ab.free_row(self._arow)
                self._ab = None
            self.arena.free(self._meta_off)
            self.arena.free(self._data_off)

    # ------------------------------------------------------------------
    # identity / geometry
    # ------------------------------------------------------------------
    @property
    def card(self) -> int:
        """Number of metrics in the set."""
        return self._layout.card

    @property
    def descs(self) -> list[MetricDesc]:
        """The set's metric descriptors, built on demand."""
        lay = self._layout
        return [MetricDesc(n, t, c, off) for n, t, c, off
                in zip(lay.names, lay.mtypes, self._comp_ids, lay.offsets)]

    @property
    def total_size(self) -> int:
        return self.meta_size + self.data_size

    @property
    def data_fraction(self) -> float:
        """Data chunk as a fraction of total set size (paper: ~10%)."""
        return self.data_size / self.total_size

    def info(self) -> SetInfo:
        return SetInfo(self.name, self.schema, self.card, self.meta_size, self.data_size)

    def metric_names(self) -> list[str]:
        return list(self._layout.names)

    def metric_types(self) -> tuple[MetricType, ...]:
        return self._layout.mtypes

    def component_ids(self) -> tuple[int, ...]:
        return self._comp_ids

    def index_of(self, name: str) -> int:
        return self._layout.index[name]

    def indices_of(self, names) -> list[int]:
        """Resolve metric names to indices once (plugin config() time)."""
        idx = self._layout.index
        return [idx[n] for n in names]

    # ------------------------------------------------------------------
    # generation numbers / consistency
    # ------------------------------------------------------------------
    @property
    def dgn(self) -> int:
        return _STRUCT_Q.unpack_from(self._data, _DGN_OFF)[0]

    @property
    def is_consistent(self) -> bool:
        return self._data[_CONSISTENT_OFF] == 1

    @property
    def timestamp(self) -> float:
        return _STRUCT_D.unpack_from(self._data, _TS_OFF)[0]

    @property
    def data_mgn(self) -> int:
        """MGN as carried in the data chunk (for mismatch detection)."""
        return struct.unpack_from("<I", self._data, 0)[0]

    # ------------------------------------------------------------------
    # producer API
    # ------------------------------------------------------------------
    def begin_transaction(self) -> None:
        """Start a sampling transaction: clears the consistent flag."""
        if self._in_transaction:
            raise ReproError(f"nested transaction on set {self.name!r}")
        if self._shadow is not None:
            sanitize.check(self, "begin_transaction")
        self._in_transaction = True
        self._data[_CONSISTENT_OFF] = 0

    def end_transaction(self, timestamp: float) -> None:
        """Finish a transaction: stamp time, set consistent."""
        if not self._in_transaction:
            raise ReproError(f"end_transaction without begin on {self.name!r}")
        if self._shadow is not None:
            sanitize.check(self, "end_transaction")
        _STRUCT_D.pack_into(self._data, _TS_OFF, timestamp)
        self._data[_CONSISTENT_OFF] = 1
        self._in_transaction = False

    def set_value(self, metric: str | int, value: float | int) -> None:
        """Write one metric value; increments the DGN (paper §IV-B).

        The common case (an in-range value) is one cached-``Struct``
        pack; out-of-range/mistyped values fall back to the type's clamp
        (C-like wraparound), exactly as the unconditional-clamp path did.
        """
        lay = self._layout
        i = metric if isinstance(metric, int) else lay.index[metric]
        st = lay.metric_structs[i]
        off = lay.offsets[i]
        try:
            st.pack_into(self._data, off, value)
        except (struct.error, TypeError, OverflowError):
            st.pack_into(self._data, off, lay.clamps[i](value))
        self._dgn = dgn = (self._dgn + 1) & _U64_MASK
        _STRUCT_Q.pack_into(self._data, _DGN_OFF, dgn)
        if self._shadow is not None:
            sanitize.commit(self)

    def set_values(self, values) -> None:
        """Write every metric in descriptor order with one compiled pack.

        This is the mid-transaction bulk setter used by sampler plugins
        from ``do_sample``: one whole-row ``pack_into`` (pad bytes
        written as zero, matching the arena's zero-fill) plus a single
        transaction-scoped DGN bump of ``card`` — the same final DGN the
        per-metric path produces.
        """
        lay = self._layout
        card = lay.card
        if len(values) != card:
            raise ValueError(f"expected {card} values, got {len(values)}")
        rs = lay.row_struct
        if rs is not None:
            try:
                rs.pack_into(self._data, _DATA_HDR_SIZE, *values)
            except (struct.error, TypeError, OverflowError):
                rs.pack_into(
                    self._data,
                    _DATA_HDR_SIZE,
                    *[c(v) for c, v in zip(lay.clamps, values)],
                )
        else:
            data = self._data
            structs, offs, clamps = lay.metric_structs, lay.offsets, lay.clamps
            for i, v in enumerate(values):
                try:
                    structs[i].pack_into(data, offs[i], v)
                except (struct.error, TypeError, OverflowError):
                    structs[i].pack_into(data, offs[i], clamps[i](v))
        self._dgn = dgn = (self._dgn + card) & _U64_MASK
        _STRUCT_Q.pack_into(self._data, _DGN_OFF, dgn)
        if self._shadow is not None:
            sanitize.commit(self)

    def set_all(self, values, timestamp: float) -> None:
        """Whole-set update in one transaction (the common sampler path)."""
        if len(values) != self.card:
            raise ValueError(f"expected {self.card} values, got {len(values)}")
        self.begin_transaction()
        self.set_values(values)
        self.end_transaction(timestamp)

    # ------------------------------------------------------------------
    # consumer API
    # ------------------------------------------------------------------
    def get(self, metric: str | int) -> float | int:
        if self._shadow is not None:
            sanitize.check_read(self)
        lay = self._layout
        i = metric if isinstance(metric, int) else lay.index[metric]
        return lay.metric_structs[i].unpack_from(self._data, lay.offsets[i])[0]

    def values_tuple(self) -> tuple[float | int, ...]:
        """All values in descriptor order, decoded with one unpack."""
        if self._shadow is not None:
            sanitize.check_read(self)
        rs = self._layout.row_struct
        if rs is not None:
            return rs.unpack_from(self._data, _DATA_HDR_SIZE)
        return tuple(self.get(i) for i in range(self.card))

    def values(self) -> list[float | int]:
        return list(self.values_tuple())

    def values_array(self):
        """Values as a numpy array (bulk store/analysis decode path).

        Homogeneous contiguous layouts decode as a single ``frombuffer``
        (copied out so the result does not alias the live data chunk);
        mixed layouts go through the compiled row unpack into a result
        dtype resolved once per schema (``np.asarray`` without a dtype
        re-ran full type inference over every element on every call).
        """
        import numpy as np

        if self._shadow is not None:
            sanitize.check_read(self)
        lay = self._layout
        dtype = lay.array_dtype
        if dtype is not None:
            return np.frombuffer(
                self._data, dtype=dtype, count=self.card,
                offset=lay.first_offset,
            ).copy()
        mixed = lay.mixed_dtype
        if mixed is None:
            mixed = lay.mixed_dtype = np.result_type(
                *(np.dtype(_NUMPY_CODE[t]) for t in lay.mtypes)
            )
        return np.asarray(self.values_tuple(), dtype=mixed)

    def snapshot_values(self, data: bytes) -> tuple[float | int, ...]:
        """Decode a raw data-chunk snapshot taken from this set's layout.

        The columnar flush path stages ``bytes(set._data)`` at delivery
        time and materializes records later; this is the scalar decode
        for layouts (or batch sizes) the vectorized sweep doesn't cover.
        No sanitize check: the snapshot is already detached from the
        live chunk.
        """
        lay = self._layout
        rs = lay.row_struct
        if rs is not None:
            return rs.unpack_from(data, _DATA_HDR_SIZE)
        return tuple(
            st.unpack_from(data, off)[0]
            for st, off in zip(lay.metric_structs, lay.offsets)
        )

    def as_dict(self) -> dict[str, float | int]:
        return dict(zip(self._layout.names, self.values_tuple()))

    # ------------------------------------------------------------------
    # wire representation
    # ------------------------------------------------------------------
    def meta_bytes(self) -> bytes:
        """A copy of the metadata chunk (sent once, on lookup)."""
        return bytes(self._meta)

    def data_bytes(self) -> bytes:
        """A copy of the data chunk (what an update transfers).

        Note: this is a *raw memory read*, exactly like an RDMA fetch —
        if a transaction is in flight the consistent flag in the copy is
        clear and the consumer must discard the sample.
        """
        if self._shadow is not None:
            sanitize.check(self, "data_bytes")
        return bytes(self._data)

    def data_view(self) -> memoryview:
        """Zero-copy read-only view of the data chunk (local transport)."""
        if self._shadow is not None:
            sanitize.check(self, "data_view")
        return self._data.toreadonly()

    def peek_data_header(self, raw: bytes | memoryview) -> tuple[int, bool]:
        """Validate a fetched data chunk and return ``(dgn, consistent)``
        without installing it.

        This is the aggregator's skip-on-stale fast path: three header
        fields are read straight from the raw buffer, so a fetch whose
        DGN has not advanced (or that is torn) costs no data copy.

        Raises :class:`ValueError` on a size mismatch and
        :class:`SchemaMismatch` if the data's MGN does not match this
        mirror's metadata MGN — the consumer must re-lookup.
        """
        if len(raw) != self.data_size:
            raise ValueError(f"data size mismatch: expected {self.data_size}, got {len(raw)}")
        mgn, dgn, consistent = _STRUCT_DATA_PEEK.unpack_from(raw, 0)
        if mgn != self.mgn:
            raise SchemaMismatch(
                f"set {self.name!r}: data MGN {mgn} != metadata MGN {self.mgn}"
            )
        return dgn, consistent == 1

    def apply_data(self, raw: bytes | memoryview) -> None:
        """Install a fetched data chunk into this (mirror) set.

        Raises :class:`SchemaMismatch` if the data's MGN does not match
        this mirror's metadata MGN — the consumer must re-lookup.
        """
        dgn, consistent = self.peek_data_header(raw)
        self._install(raw, dgn, consistent)

    def _install(self, raw: bytes | memoryview, dgn: int, consistent: bool) -> None:
        """Install an already-peeked data chunk (skips re-validation —
        the aggregator's completion path peeks first to drop stale and
        torn fetches, so validating again per update would be pure
        overhead)."""
        if self._shadow is not None:
            sanitize.check_apply(self, dgn, consistent)
        self._data[:] = raw
        self._dgn = dgn
        if self._shadow is not None:
            sanitize.commit(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetricSet {self.name!r} schema={self.schema!r} card={self.card} "
            f"meta={self.meta_size}B data={self.data_size}B dgn={self.dgn}>"
        )
