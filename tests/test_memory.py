"""Unit tests for the arena memory manager."""

import pytest
from hypothesis import given, strategies as st

from repro.core.memory import Arena
from repro.util.errors import OutOfMemory


class TestArenaBasics:
    def test_alloc_returns_aligned_offsets(self):
        a = Arena(1024)
        assert a.alloc(10) % 8 == 0
        assert a.alloc(10) % 8 == 0

    def test_alloc_distinct_regions(self):
        a = Arena(1024)
        o1, o2 = a.alloc(100), a.alloc(100)
        assert abs(o1 - o2) >= 100

    def test_used_and_available(self):
        a = Arena(1024)
        a.alloc(100)
        assert a.used == 104  # aligned to 8
        assert a.available == 1024 - 104

    def test_exhaustion_raises(self):
        a = Arena(256)
        a.alloc(200)
        with pytest.raises(OutOfMemory):
            a.alloc(200)

    def test_free_enables_reuse(self):
        a = Arena(256)
        off = a.alloc(200)
        a.free(off)
        assert a.alloc(200) == off

    def test_free_unknown_offset_rejected(self):
        a = Arena(256)
        with pytest.raises(ValueError):
            a.free(8)

    def test_double_free_rejected(self):
        a = Arena(256)
        off = a.alloc(64)
        a.free(off)
        with pytest.raises(ValueError):
            a.free(off)

    def test_zero_size_alloc_rejected(self):
        with pytest.raises(ValueError):
            Arena(256).alloc(0)

    def test_bad_arena_size_rejected(self):
        with pytest.raises(ValueError):
            Arena(0)

    def test_coalescing_allows_large_realloc(self):
        a = Arena(300)
        offs = [a.alloc(64) for _ in range(4)]
        for off in offs:
            a.free(off)
        # All memory coalesced back into one hole.
        a.alloc(256)

    def test_freed_memory_is_zeroed(self):
        a = Arena(256)
        off = a.alloc(16)
        a.view(off, 16)[:] = b"X" * 16
        a.free(off)
        off2 = a.alloc(16)
        assert bytes(a.view(off2, 16)) == bytes(16)

    def test_peak_tracking(self):
        a = Arena(1024)
        o = a.alloc(512)
        a.free(o)
        a.alloc(8)
        assert a.peak_used == 512

    def test_view_bounds_checked(self):
        a = Arena(256)
        off = a.alloc(16)
        with pytest.raises(ValueError):
            a.view(off, 64)

    def test_view_of_unallocated_rejected(self):
        with pytest.raises(ValueError):
            Arena(256).view(0, 8)

    def test_view_writes_visible(self):
        a = Arena(256)
        off = a.alloc(8)
        a.view(off, 8)[:4] = b"abcd"
        assert bytes(a.view(off, 8))[:4] == b"abcd"


class TestArenaPropertyBased:
    @given(st.lists(st.integers(min_value=1, max_value=128), min_size=1, max_size=50))
    def test_alloc_free_conserves_capacity(self, sizes):
        a = Arena(64 * 1024)
        offs = [a.alloc(s) for s in sizes]
        assert a.used == sum((s + 7) & ~7 for s in sizes)
        for off in offs:
            a.free(off)
        assert a.used == 0
        assert a.available == a.size
        # Whole arena is one hole again.
        a.alloc(a.size)

    @given(st.lists(st.tuples(st.integers(1, 64), st.booleans()),
                    min_size=1, max_size=60))
    def test_interleaved_alloc_free_no_overlap(self, ops):
        a = Arena(16 * 1024)
        live: dict[int, int] = {}
        for size, do_free in ops:
            if do_free and live:
                off = next(iter(live))
                a.free(off)
                del live[off]
            else:
                off = a.alloc(size)
                live[off] = (size + 7) & ~7
        # No two live allocations overlap.
        spans = sorted(live.items())
        for (o1, l1), (o2, _l2) in zip(spans, spans[1:]):
            assert o1 + l1 <= o2


class _SortedRebuildArena(Arena):
    """Reference free: append the hole, sort the whole list and rebuild
    it with every run of touching holes merged."""

    def free(self, offset: int) -> None:
        length = self._live.pop(offset)
        self._used -= length
        merged: list[tuple[int, int]] = []
        for off, ln in sorted(self._free + [(offset, length)]):
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + ln)
            else:
                merged.append((off, ln))
        self._free = merged
        self.buf[offset : offset + length] = bytes(length)


class TestFreeMatchesSortedRebuild:
    @given(st.lists(st.tuples(st.integers(1, 96), st.integers(0, 3)),
                    min_size=1, max_size=120))
    def test_same_free_list_and_offsets(self, ops):
        """Random alloc/free sequences: the neighbour-merge free gives
        the sorted-rebuild free list after every step, and so every
        later first-fit offset is the same."""
        a, ref = Arena(4096), _SortedRebuildArena(4096)
        live: list[int] = []
        for size, pick in ops:
            if pick and live:
                off = live.pop((size * pick) % len(live))
                a.free(off)
                ref.free(off)
            else:
                try:
                    off = a.alloc(size)
                except OutOfMemory:
                    with pytest.raises(OutOfMemory):
                        ref.alloc(size)
                    continue
                assert ref.alloc(size) == off
                a.view(off, size)[:] = b"\xff" * size
                live.append(off)
            assert a._free == ref._free
            assert a.used == ref.used
        for off in live:
            a.free(off)
        assert a._free == [(0, a.size)]
        assert bytes(a.buf) == bytes(a.size)
