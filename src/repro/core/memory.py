"""Arena memory manager for metric-set storage.

The paper (§IV-D): "A custom memory manager is employed to manage memory
allocation."  ldmsd reserves a fixed region at start (the ``-m`` option)
and carves metric-set metadata and data chunks out of it; an aggregator
sizes its region for every set it collects.

This implementation is a first-fit free-list allocator over one private
anonymous mapping.  It exists for behavioural fidelity — daemon memory
footprint is a *measured quantity* in the reproduction, and set creation
must fail when the configured region is exhausted, as it does in ldmsd.
The footprint it reports is the allocator's accounting (``used``,
``peak_used``, ``size``), not resident memory: the mapping reads as
zeros and the OS faults a page in only when a set first writes to it,
so a daemon whose ``-m`` region is mostly idle costs only the pages its
sets touch.
"""

from __future__ import annotations

import bisect
import mmap

from repro.util.errors import OutOfMemory

__all__ = ["Arena"]

_ALIGN = 8


def _align(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


class Arena:
    """First-fit allocator over a contiguous reserved region.

    >>> a = Arena(1024)
    >>> off = a.alloc(100)
    >>> mv = a.view(off, 100)
    >>> a.free(off)
    """

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("arena size must be positive")
        self.size = _align(size)
        # Private, not mmap's default MAP_SHARED: a forked worker
        # (run_parallel) must get copy-on-write pages, or its writes
        # would show through in the parent's sets.
        self.buf = mmap.mmap(-1, self.size,
                             flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        # Free list: sorted list of (offset, length) holes.
        self._free: list[tuple[int, int]] = [(0, self.size)]
        # Live allocations: offset -> length (aligned).
        self._live: dict[int, int] = {}
        self._used = 0  # incremental live-byte total (alloc is hot)
        self.peak_used = 0

    @property
    def used(self) -> int:
        return self._used

    @property
    def available(self) -> int:
        return self.size - self.used

    @property
    def n_allocs(self) -> int:
        return len(self._live)

    def alloc(self, nbytes: int) -> int:
        """Allocate ``nbytes`` (rounded up to 8-byte alignment); return offset."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        need = _align(nbytes)
        for i, (off, length) in enumerate(self._free):
            if length >= need:
                if length == need:
                    del self._free[i]
                else:
                    self._free[i] = (off + need, length - need)
                self._live[off] = need
                self._used += need
                if self._used > self.peak_used:
                    self.peak_used = self._used
                return off
        raise OutOfMemory(
            f"arena exhausted: need {need}B, {self.available}B free "
            f"(fragmented into {len(self._free)} holes) of {self.size}B total"
        )

    def free(self, offset: int) -> None:
        """Return an allocation to the free list, coalescing neighbours."""
        try:
            length = self._live.pop(offset)
        except KeyError:
            raise ValueError(f"free of unallocated offset {offset}") from None
        self._used -= length
        # Hygiene: zero the region so stale data never leaks into new sets.
        self.buf[offset : offset + length] = bytes(length)
        # The free list is sorted by offset and fully coalesced, so the
        # new hole can only merge with its two neighbours.
        free = self._free
        i = bisect.bisect_left(free, (offset, 0))
        if i < len(free) and free[i][0] == offset + length:
            length += free.pop(i)[1]
        if i > 0 and free[i - 1][0] + free[i - 1][1] == offset:
            free[i - 1] = (free[i - 1][0], free[i - 1][1] + length)
        else:
            free.insert(i, (offset, length))

    def view(self, offset: int, nbytes: int) -> memoryview:
        """A writable view of an allocated region."""
        length = self._live.get(offset)
        if length is None:
            raise ValueError(f"view of unallocated offset {offset}")
        if nbytes > length:
            raise ValueError(f"view of {nbytes}B exceeds allocation of {length}B")
        return memoryview(self.buf)[offset : offset + nbytes]
