"""The aggregator-side query engine: SOS range scans, cached.

Serving structure (the CMS monitoring workload, PAPERS.md):

* **Rows are bytes, encoded once** — the attached
  :class:`~repro.plugins.stores.sos.SosStore` hands over every record
  it appends (base and rollup) already in the wire QUERY row layout
  (the SOS record minus its ``card`` field).  Every path below answers
  with a block of such rows, and the daemon puts a reply header in
  front of it: no served row is ever decoded or re-encoded.
* **Hot window** — dashboard pollers overwhelmingly ask for the last
  few seconds of data.  Each container keeps its recent rows in time
  order (inserted from the right, equal timestamps in append order);
  a query whose window lies entirely inside the covered span is two
  bisects and a join, without touching the container files.
* **LRU result cache** — repeated identical queries (alert evaluators
  re-checking a rollup window, several dashboards showing one panel)
  return the cached row block as it is.  Validity is by append-version: the store
  counts appends per container, and a cached entry is good only while
  its container's count is unchanged, so a cache hit can never serve a
  stale row set.
* **Rollup redirection** — ``level=N`` queries read the
  ``<schema>.rN`` rollup container maintained on ingest, touching
  ``1/N`` of the base data.

The engine is DES-pure: time comes from the injected ``clock``
callable (``env.now``), there is no ambient randomness, and every
data structure iterates in a deterministic order — required for the
same-seed byte-identical replay the experiments assert.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable

from repro.core import wire
from repro.plugins.stores.sos import SosReader, SosStore, rollup_schema

__all__ = ["QueryEngine", "QueryResult"]

_INF = float("inf")


@dataclass(frozen=True)
class QueryResult:
    """One answered query: wire status, column names, and ``nrows``
    rows in ``(timestamp, append)`` order, encoded in ``body`` as wire
    QUERY rows."""

    status: int
    names: tuple[str, ...]
    body: bytes = b""
    nrows: int = 0
    cache_hit: bool = False
    truncated: bool = False
    #: Which path answered: "hot", "lru", "scan", or "noent".
    source: str = "scan"

    @property
    def rows(self) -> tuple:
        """Decoded view of ``body``: ``(timestamp, comp_id, values)``."""
        return tuple(wire.unpack_query_rows(self.body, len(self.names)))

    def flags(self) -> int:
        f = 0
        if self.truncated:
            f |= wire.QUERY_TRUNCATED
        if self.cache_hit:
            f |= wire.QUERY_CACHE_HIT
        return f

    def payload(self) -> bytes:
        """The QUERY_REPLY payload: a header in front of ``body``."""
        return wire.pack_query_reply(self.status, self.names,
                                     flags=self.flags(), body=self.body)


class _HotRows:
    """One container's recent rows, time-ordered.

    ``times``/``rows`` are parallel lists; entries before
    ``start`` are evicted and dropped in bulk.  ``arrivals`` keeps the
    appended timestamps in append order: the window is trimmed from
    the oldest *append* while that one is older than the cutoff, and
    ``floor`` is the cutoff of the last trim — the oldest timestamp
    from which every ingested row is still held.  -inf until the first
    trim when the container was empty when the store opened it; +inf
    while a pre-existing container may hold rows never seen ingested.
    """

    __slots__ = ("times", "rows", "start", "arrivals", "floor")

    #: Evicted-prefix length below which compaction is never worth it.
    _COMPACT_MIN = 1024

    def __init__(self, floor: float):
        self.times: list[float] = []
        self.rows: list[bytes] = []
        self.start = 0
        self.arrivals: deque = deque()
        self.floor = floor

    def add(self, ts: float, row: bytes, cutoff: float) -> None:
        times = self.times
        if not times or ts >= times[-1]:
            times.append(ts)
            self.rows.append(row)
        else:  # a straggler: after every row of an equal timestamp
            i = bisect_right(times, ts, self.start)
            times.insert(i, ts)
            self.rows.insert(i, row)
        arrivals = self.arrivals
        arrivals.append(ts)
        if arrivals[0] < cutoff:
            while arrivals and arrivals[0] < cutoff:
                arrivals.popleft()
            # Everything at or above the cutoff arrived after attach
            # (nothing older was ever trimmed), so from here the window
            # is authoritative for [cutoff, now].
            self.floor = cutoff
            start = self.start = bisect_left(times, cutoff, self.start)
            if start >= self._COMPACT_MIN and start * 2 >= len(times):
                del times[:start], self.rows[:start]
                self.start = 0

    def select(self, t0: float, t1: float, comp_id: int,
               max_records: int) -> tuple[list[bytes], bool]:
        """Rows with t0 <= ts < t1 (of ``comp_id`` unless 0), cut at
        ``max_records`` unless 0; and whether the cut dropped any."""
        lo = bisect_left(self.times, t0, self.start)
        hi = bisect_left(self.times, t1, lo)
        sel = self.rows[lo:hi]
        if comp_id:  # a row's u32 comp_id sits at bytes 8..12
            key = comp_id.to_bytes(4, "little")
            sel = [row for row in sel if row[8:12] == key]
        truncated = bool(max_records) and len(sel) > max_records
        if truncated:
            del sel[max_records:]
        return sel, truncated


class QueryEngine:
    """Range-query service over one live :class:`SosStore`."""

    def __init__(self, store: SosStore, clock: Callable[[], float],
                 obs=None, hot_window: float = 60.0,
                 cache_entries: int = 128):
        if obs is None:
            from repro.obs.registry import Telemetry

            obs = Telemetry(enabled=False)
        self.store = store
        self.clock = clock
        self.hot_window = float(hot_window)
        self.cache_entries = int(cache_entries)
        self._hot: dict[str, _HotRows] = {}
        #: query key -> (container append-version, QueryResult).
        self._lru: "OrderedDict[tuple, tuple[int, QueryResult]]" = OrderedDict()
        self._readers: dict[str, SosReader] = {}
        self._c_requests = obs.counter("query.requests")
        self._c_hits = obs.counter("query.cache_hits")
        self._c_misses = obs.counter("query.cache_misses")
        self._c_rows = obs.counter("query.rows_served")
        store.set_observer(self._ingest)

    # -- ingest side --------------------------------------------------------
    def _ingest(self, container: str, ts: float, row: bytes) -> None:
        hot = self._hot.get(container)
        if hot is None:
            hot = self._hot[container] = _HotRows(
                _INF if container in self.store.preexisting else -_INF)
        hot.add(ts, row, ts - self.hot_window)

    # -- query side ---------------------------------------------------------
    def query(self, schema: str, t0: float, t1: float, level: int = 0,
              comp_id: int = 0, max_records: int = 0) -> QueryResult:
        self._c_requests.inc()
        container = rollup_schema(schema, level) if level else schema
        version = self.store.rows_written.get(container, 0)
        key = (container, t0, t1, comp_id, max_records)
        cached = self._lru.get(key)
        if cached is not None and cached[0] == version:
            self._lru.move_to_end(key)
            self._c_hits.inc()
            res = cached[1]
            self._c_rows.inc(res.nrows)
            if res.source != "lru":
                res = QueryResult(res.status, res.names, res.body, res.nrows,
                                  cache_hit=True, truncated=res.truncated,
                                  source="lru")
                self._lru[key] = (version, res)
            return res

        hot = self._hot.get(container)
        if hot is not None and t0 >= hot.floor:
            rows, truncated = hot.select(t0, t1, comp_id, max_records)
            names = self.store._names.get(container, ())
            self._c_hits.inc()
            self._c_rows.inc(len(rows))
            return QueryResult(wire.E_OK, tuple(names), b"".join(rows),
                               len(rows), cache_hit=True,
                               truncated=truncated, source="hot")

        self._c_misses.inc()
        res = self._scan(container, t0, t1, comp_id, max_records)
        self._c_rows.inc(res.nrows)
        if res.status == wire.E_OK:
            self._lru[key] = (version, res)
            while len(self._lru) > self.cache_entries:
                self._lru.popitem(last=False)
        return res

    def _scan(self, container: str, t0: float, t1: float, comp_id: int,
              max_records: int) -> QueryResult:
        self.store.flush()
        reader = self._readers.get(container)
        if reader is None:
            try:
                reader = SosReader(self.store.path, container)
            except OSError:
                return QueryResult(wire.E_NOENT, (), source="noent")
            self._readers[container] = reader
        else:
            reader.refresh()
        body, nrows, truncated = reader.range_rows(t0, t1, comp_id,
                                                   max_records)
        return QueryResult(wire.E_OK, tuple(reader.metric_names), body,
                           nrows, truncated=truncated, source="scan")

    # -- introspection ------------------------------------------------------
    def stats(self) -> dict:
        return {
            "requests": self._c_requests.value,
            "cache_hits": self._c_hits.value,
            "cache_misses": self._c_misses.value,
            "rows_served": self._c_rows.value,
            "lru_entries": len(self._lru),
            "hot_containers": len(self._hot),
        }
