"""SOS store: binary records with a time index, plus rollup levels.

A stand-in for LDMS's Scalable Object Store: per schema, a pair of
files —

* ``<schema>.sos``  — fixed-width little-endian records:
  ``f64 timestamp | u32 comp_id | u32 card | card x f64 values``;
* ``<schema>.sidx`` — ``(f64 timestamp, u64 offset)`` pairs enabling
  binary-searched time-range scans without reading the data file.

The first record freezes the schema's metric names into a JSON sidecar
``<schema>.schema.json`` so readers can label columns.  Reopening an
existing container validates incoming records against that sidecar: a
layout change across daemon restarts is rejected with a
:class:`~repro.util.errors.StoreError` instead of silently corrupting
the fixed-width record stream.

**Rollups.**  ``rollups="10,60"`` maintains pre-computed downsampling
levels on ingest: every base record is folded into a per-component
mean bucket of ``level`` seconds, and a completed bucket is appended
to a sibling container named ``<schema>.r<level>`` (same column
layout, one record per component per bucket, timestamped at the bucket
start).  Range scans over a rollup container touch ``1/level`` of the
base data — the alert-evaluator and range-scanner workloads read these
instead of the raw stream.

**Component ids.**  The record format has one ``u32`` component-id
slot, so only records whose ``component_ids`` are uniform can be
stored faithfully; heterogeneous rows are rejected loudly (counted in
``multi_component_rejected``, exported via ``ldmsd_self``) rather than
silently dropping ``component_ids[1:]``.

:class:`SosReader` provides the query side (used by the query tier and
``repro-query``): read a ``[t0, t1)`` time range as wire QUERY rows
(:meth:`SosReader.range_rows` — a record minus its ``card`` field is a
QUERY row, so a served scan decodes no value), or as decoded records.
The index is sorted ``(timestamp, offset)`` at load — store-arrival
timestamps are *not* monotone across multiple producers or
phase-staggered samplers, so the raw append order is not
binary-searchable.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import struct
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterator, Optional

from repro.core.store import StorePlugin, StoreRecord, register_store
from repro.core.wire import unpack_query_rows
from repro.util.errors import ConfigError, StoreError

__all__ = ["SosStore", "SosReader", "rollup_schema"]

_REC_HDR = struct.Struct("<dII")
_IDX_ENT = struct.Struct("<dQ")


def rollup_schema(schema: str, level: int) -> str:
    """Container name of ``schema``'s ``level``-second rollup."""
    return f"{schema}.r{int(level)}"


class _Bucket:
    """One open rollup bucket: running sums for a component."""

    __slots__ = ("start", "count", "sums")

    def __init__(self, start: float, values: list[float]):
        self.start = start
        self.count = 1
        self.sums = values

    def fold(self, values: list[float]) -> None:
        self.count += 1
        sums = self.sums
        for i, v in enumerate(values):
            sums[i] += v


@register_store("sos")
class SosStore(StorePlugin):
    """Binary time-indexed store.

    Config options
    --------------
    path:
        Container directory.
    rollups:
        Comma-separated bucket widths in whole seconds (e.g.
        ``"10,60"``); each maintains a mean-per-component rollup
        container ``<schema>.r<level>``.  Empty: no rollups.
    """

    def config(self, path: str = "", rollups: str = "", **kwargs) -> None:
        super().config(**kwargs)
        if not path:
            raise ConfigError("sos: path= is required")
        self.path = path
        os.makedirs(path, exist_ok=True)
        self._data: dict[str, BinaryIO] = {}
        self._index: dict[str, BinaryIO] = {}
        self._names: dict[str, tuple[str, ...]] = {}
        self._bytes = 0
        self.rollups: tuple[int, ...] = self._parse_rollups(rollups)
        #: (base schema, level) -> comp_id -> open bucket.
        self._acc: dict[tuple[str, int], dict[int, _Bucket]] = {}
        #: Schemas whose data file already held records when this
        #: session first opened them (the query tier's hot-window cache
        #: must not claim to cover rows it never saw ingested).
        self.preexisting: set[str] = set()
        #: Per-container append counter — the query tier's cache
        #: validity version.
        self.rows_written: dict[str, int] = {}
        #: Heterogeneous-component records rejected (ldmsd_self).
        self.multi_component_rejected = 0
        self._observer: Optional[Callable[[str, float, bytes], None]] = None

    @staticmethod
    def _parse_rollups(spec) -> tuple[int, ...]:
        if not spec:
            return ()
        if isinstance(spec, str):
            parts = [p.strip() for p in spec.split(",") if p.strip()]
        else:
            parts = list(spec)
        levels = sorted({int(p) for p in parts})
        if any(lv <= 0 for lv in levels):
            raise ConfigError(f"sos: rollup levels must be positive: {spec!r}")
        return tuple(levels)

    def set_observer(self, fn: Optional[Callable[[str, float, bytes], None]]) -> None:
        """Install the per-append hook (the query engine's hot-window
        feed): ``fn(container, timestamp, row)`` fires for every base
        and rollup record written, ``row`` being the record in the wire
        QUERY row layout (the record minus ``card``)."""
        self._observer = fn

    # -- container handling -------------------------------------------------
    def _ensure(self, schema: str, names: tuple[str, ...]) -> None:
        """Open (and on reopen, validate) ``schema``'s container."""
        if schema in self._data:
            if self._names[schema] != names:
                raise StoreError(f"sos: schema {schema!r} layout changed")
            return
        base = os.path.join(self.path, schema)
        meta_path = base + ".schema.json"
        if os.path.exists(meta_path):
            # Reopening an existing container: the on-disk sidecar is
            # the layout contract.  Appending fixed-width records of a
            # different shape would corrupt the container silently.
            with open(meta_path, "r", encoding="utf-8") as f:
                meta = json.load(f)
            disk_names = tuple(meta.get("metrics", ()))
            if disk_names != names:
                raise StoreError(
                    f"sos: schema {schema!r} layout mismatch with on-disk "
                    f"container: disk={list(disk_names)} record={list(names)}"
                )
            self.preexisting.add(schema)
        else:
            with open(meta_path, "w", encoding="utf-8") as f:
                json.dump({"schema": schema, "metrics": list(names)}, f)
        self._data[schema] = open(base + ".sos", "ab")
        self._index[schema] = open(base + ".sidx", "ab")
        self._names[schema] = names

    def _handle(self, record: StoreRecord) -> str:
        self._ensure(record.schema, record.names)
        return record.schema

    # -- write path ---------------------------------------------------------
    def _append(self, schema: str, ts: float, comp_id: int,
                values: list[float]) -> None:
        df, xf = self._data[schema], self._index[schema]
        offset = df.tell()
        head = _REC_HDR.pack(ts, comp_id, len(values))
        vals = struct.pack(f"<{len(values)}d", *values)
        df.write(head + vals)
        xf.write(_IDX_ENT.pack(ts, offset))
        self._bytes += len(head) + len(vals) + _IDX_ENT.size
        self.rows_written[schema] = self.rows_written.get(schema, 0) + 1
        if self._observer is not None:
            # The QUERY row: this record minus its card field.
            self._observer(schema, ts, head[:12] + vals)

    def store(self, record: StoreRecord) -> None:
        schema = self._handle(record)
        comps = record.component_ids
        comp_id = comps[0] if comps else 0
        if comps and any(c != comp_id for c in comps):
            # One u32 component slot per record: a row spanning several
            # components cannot be stored faithfully — reject loudly
            # instead of silently dropping component_ids[1:].
            self.multi_component_rejected += 1
            raise StoreError(
                f"sos: record for {record.set_name!r} spans component ids "
                f"{sorted(set(comps))}; the SOS record format holds one"
            )
        values = [float(v) for v in record.values]
        self._append(schema, record.timestamp, comp_id, values)
        for level in self.rollups:
            self._roll(schema, level, record.timestamp, comp_id, values)

    def _roll(self, schema: str, level: int, ts: float, comp_id: int,
              values: list[float]) -> None:
        start = ts // level * level
        comps = self._acc.setdefault((schema, level), {})
        bucket = comps.get(comp_id)
        if bucket is None:
            comps[comp_id] = _Bucket(start, list(values))
            return
        if bucket.start == start:
            bucket.fold(values)
            return
        # Bucket boundary crossed (or an out-of-order straggler landed
        # outside the open bucket): seal the open bucket and start a
        # fresh one.  Readers sort by timestamp, so sealing order does
        # not need to be time order.
        self._seal(schema, level, comp_id, bucket)
        comps[comp_id] = _Bucket(start, list(values))

    def _seal(self, schema: str, level: int, comp_id: int,
              bucket: _Bucket) -> None:
        target = rollup_schema(schema, level)
        if target not in self._data:
            base = os.path.join(self.path, target)
            meta_path = base + ".schema.json"
            names = self._names[schema]
            if not os.path.exists(meta_path):
                with open(meta_path, "w", encoding="utf-8") as f:
                    json.dump({"schema": target, "metrics": list(names),
                               "base": schema, "level": level,
                               "agg": "mean"}, f)
            self._data[target] = open(base + ".sos", "ab")
            self._index[target] = open(base + ".sidx", "ab")
            self._names[target] = names
        mean = [s / bucket.count for s in bucket.sums]
        self._append(target, bucket.start, comp_id, mean)

    def flush(self) -> None:
        for f in list(self._data.values()) + list(self._index.values()):
            f.flush()

    def close(self) -> None:
        # Seal every open rollup bucket (deterministic order) so the
        # tail of the stream is queryable after shutdown.
        for (schema, level) in sorted(self._acc):
            comps = self._acc[(schema, level)]
            for comp_id in sorted(comps):
                self._seal(schema, level, comp_id, comps[comp_id])
        self._acc.clear()
        self.flush()
        for f in list(self._data.values()) + list(self._index.values()):
            f.close()
        self._data.clear()
        self._index.clear()

    def bytes_written(self) -> int:
        return self._bytes


@dataclass(frozen=True)
class SosRecord:
    timestamp: float
    component_id: int
    values: tuple[float, ...]


class SosReader:
    """Reads one schema's SOS container, in timestamp order.

    The on-disk index is append-ordered, and arrival timestamps are not
    monotone across producers — the index is sorted ``(timestamp,
    offset)`` at load (stable: equal timestamps keep append order), so
    both iteration and :meth:`range` see time order.  :meth:`refresh`
    folds in entries appended since the last load, letting a serving
    tier keep one reader per container instead of re-reading the whole
    index per query.
    """

    def __init__(self, path: str, schema: str):
        base = os.path.join(path, schema)
        with open(base + ".schema.json", "r", encoding="utf-8") as f:
            meta = json.load(f)
        self.schema = schema
        self.metric_names: list[str] = meta["metrics"]
        self._rec_size = _REC_HDR.size + 8 * len(self.metric_names)
        self._data_path = base + ".sos"
        self._idx_path = base + ".sidx"
        self._times: list[float] = []
        self._offsets: list[int] = []
        self._idx_consumed = 0
        self.refresh()

    def refresh(self) -> int:
        """Load index entries appended since construction (or the last
        refresh); returns how many were added."""
        try:
            with open(self._idx_path, "rb") as f:
                f.seek(self._idx_consumed)
                raw = f.read()
        except OSError:
            return 0
        n = len(raw) // _IDX_ENT.size
        if n == 0:
            return 0
        tail = [_IDX_ENT.unpack_from(raw, i * _IDX_ENT.size) for i in range(n)]
        self._idx_consumed += n * _IDX_ENT.size
        if self._times and tail[0][0] >= self._times[-1] and _sorted_pairs(tail):
            pairs = tail
        else:
            pairs = sorted(list(zip(self._times, self._offsets)) + tail)
            self._times = []
            self._offsets = []
        self._times.extend(t for t, _ in pairs)
        self._offsets.extend(off for _, off in pairs)
        return n

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[SosRecord]:
        return iter(self.range(-math.inf, math.inf))

    def range_rows(self, t0: float, t1: float, comp_id: int = 0,
                   max_records: int = 0) -> tuple[bytes, int, bool]:
        """Records with t0 <= timestamp < t1, in time order, as one
        block of wire QUERY rows (each record minus its ``card``
        field): ``(body, nrows, truncated)``.

        ``comp_id`` 0 keeps every component.  ``max_records`` 0 is
        unbounded; otherwise the rows stop there and ``truncated`` says
        a further matching record existed.  One read covers the span of
        the data file that holds the range's records.
        """
        lo = bisect.bisect_left(self._times, t0)
        hi = bisect.bisect_left(self._times, t1, lo)
        offsets = self._offsets[lo:hi]
        if not offsets:
            return b"", 0, False
        size = self._rec_size
        first = min(offsets)
        span = max(offsets) + size - first
        with open(self._data_path, "rb") as f:
            f.seek(first)
            buf = f.read(span)
        if len(buf) != span:
            raise StoreError(f"sos: {self.schema!r} data file is shorter "
                             f"than its index")
        pos = [o - first for o in offsets]
        if comp_id:
            key = comp_id.to_bytes(4, "little")
            pos = [p for p in pos if buf[p + 8 : p + 12] == key]
        truncated = bool(max_records) and len(pos) > max_records
        if truncated:
            pos = pos[:max_records]
        body = b"".join([buf[p : p + 12] + buf[p + 16 : p + size]
                         for p in pos])
        return body, len(pos), truncated

    def range(self, t0: float, t1: float) -> list[SosRecord]:
        """Records with t0 <= timestamp < t1, via the sorted index."""
        body = self.range_rows(t0, t1)[0]
        return [SosRecord(*row)
                for row in unpack_query_rows(body, len(self.metric_names))]


def _sorted_pairs(pairs: list[tuple[float, int]]) -> bool:
    return all(pairs[i] <= pairs[i + 1] for i in range(len(pairs) - 1))
