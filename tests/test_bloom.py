"""Tests for the Bloom filter used by compressed join-signatures."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.paper.indexmerge import BloomFilter


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(num_bits=256, num_hashes=3)
        items = [(i, i * 2) for i in range(50)]
        bloom.update(items)
        assert all(item in bloom for item in items)
        assert bloom.count == 50

    def test_rejects_most_absent_items(self):
        bloom = BloomFilter.sized_for(expected_items=100, max_bits=4096)
        bloom.update([("present", i) for i in range(100)])
        false_positives = sum(("absent", i) in bloom for i in range(1000))
        assert false_positives < 100  # well under 10% at this sizing
        assert 0 <= bloom.false_positive_rate() < 0.2

    def test_sizing_respects_cap(self):
        bloom = BloomFilter.sized_for(expected_items=10 ** 6, max_bits=1024)
        assert bloom.size_in_bits() == 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 1)
        with pytest.raises(ValueError):
            BloomFilter(8, 0)

    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilter(64, 2)
        assert ("x",) not in bloom
        assert bloom.false_positive_rate() == 0.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(), st.integers()), max_size=40))
def test_membership_property(items):
    """Everything inserted is always reported present (no false negatives)."""
    bloom = BloomFilter.sized_for(expected_items=max(1, len(items)), max_bits=2048)
    bloom.update(items)
    for item in items:
        assert item in bloom
