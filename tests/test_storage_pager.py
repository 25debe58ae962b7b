"""Tests for the simulated pager, I/O statistics, and buffer pool."""

from __future__ import annotations

import pytest

from repro.errors import PageNotFoundError
from repro.storage.buffer import BufferPool
from repro.storage.pager import IOStats, Pager, PagerGroup, estimate_size


class TestPager:
    def test_allocate_read_write(self):
        pager = Pager()
        pid = pager.allocate({"hello": 1})
        assert pager.read(pid) == {"hello": 1}
        pager.write(pid, [1, 2, 3])
        assert pager.read(pid) == [1, 2, 3]
        assert pager.num_pages == 1

    def test_free_and_missing_page(self):
        pager = Pager()
        pid = pager.allocate("x")
        pager.free(pid)
        with pytest.raises(PageNotFoundError):
            pager.read(pid)
        with pytest.raises(PageNotFoundError):
            pager.free(pid)
        with pytest.raises(PageNotFoundError):
            pager.write(pid, "y")

    def test_stats_counting(self):
        pager = Pager()
        pid = pager.allocate("payload")
        pager.read(pid)
        pager.read(pid, physical=False)
        assert pager.stats.logical_reads == 2
        assert pager.stats.physical_reads == 1
        assert pager.stats.writes == 1  # allocation with payload counts a write
        snapshot = pager.reset_stats()
        assert snapshot.physical_reads == 1
        assert pager.stats.physical_reads == 0

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            Pager(page_size=0)

    def test_iostats_diff(self):
        stats = IOStats(logical_reads=10, physical_reads=4, writes=2)
        earlier = IOStats(logical_reads=3, physical_reads=1, writes=1)
        diff = stats.diff(earlier)
        assert diff.logical_reads == 7
        assert diff.physical_reads == 3
        assert diff.writes == 1

    def test_estimate_size_handles_common_types(self):
        assert estimate_size(None) == 0
        assert estimate_size(3) == 8
        assert estimate_size("abcd") == 4
        assert estimate_size(b"abcd") == 4
        assert estimate_size([1, 2, 3]) == 8 + 24
        assert estimate_size({"a": 1}) > 0


class TestPagerGroup:
    def test_group_totals(self):
        group = PagerGroup()
        a = group.add("a")
        b = group.add("b")
        pid = a.allocate([1, 2, 3])
        a.read(pid)
        assert group.total_physical_reads() == 1
        assert group.total_bytes() > 0
        group.reset_stats()
        assert group.total_physical_reads() == 0
        assert group.get("b") is b


class TestBufferPool:
    def test_hits_and_misses(self):
        pager = Pager()
        pid = pager.allocate("payload")
        pool = BufferPool(pager, capacity=4)
        pool.read(pid)
        pool.read(pid)
        assert pool.misses == 1
        assert pool.hits == 1
        assert pager.stats.physical_reads == 1

    def test_eviction_lru(self):
        pager = Pager()
        pids = [pager.allocate(i) for i in range(5)]
        pool = BufferPool(pager, capacity=2)
        for pid in pids:
            pool.read(pid)
        # Only the last two pages remain cached.
        assert pool.contains(pids[-1]) and pool.contains(pids[-2])
        assert not pool.contains(pids[0])

    def test_unbounded_capacity(self):
        pager = Pager()
        pids = [pager.allocate(i) for i in range(10)]
        pool = BufferPool(pager, capacity=0)
        for pid in pids:
            pool.read(pid)
        assert all(pool.contains(pid) for pid in pids)

    def test_write_through_and_invalidate(self):
        pager = Pager()
        pid = pager.allocate("x")
        pool = BufferPool(pager, capacity=2)
        pool.write(pid, "y")
        assert pager.read(pid, physical=False) == "y"
        pool.invalidate(pid)
        assert not pool.contains(pid)
        pool.read(pid)
        pool.invalidate()
        assert not pool.contains(pid)

    def test_allocate_through_pool(self):
        pager = Pager()
        pool = BufferPool(pager, capacity=2)
        pid = pool.allocate("fresh")
        assert pool.contains(pid)
        assert pool.read(pid) == "fresh"
        assert pool.reset_counters() is None
        assert pool.hits == 0
