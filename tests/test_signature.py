"""Tests for the signature tree: construction, algebra, SIDs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SignatureError
from repro.paper.signature import Signature, path_to_sid, sid_to_path


class TestSignatureBasics:
    def test_from_paths_and_test(self):
        # Paths of t1 and t3 in the thesis example: <1,1,1> and <1,2,1>.
        sig = Signature.from_paths([(1, 1, 1), (1, 2, 1)], fanout=2)
        assert sig.test(())
        assert sig.test((1,))
        assert sig.test((1, 1))
        assert sig.test((1, 1, 1))
        assert sig.test((1, 2, 1))
        assert not sig.test((2,))
        assert not sig.test((1, 1, 2))
        assert sig.node_bits(()) == [1]
        assert sig.node_bits((1,)) == [1, 1]

    def test_invalid_fanout_and_paths(self):
        with pytest.raises(SignatureError):
            Signature(0)
        sig = Signature(2)
        with pytest.raises(SignatureError):
            sig.set_path(())
        with pytest.raises(SignatureError):
            sig.set_path((3,))
        with pytest.raises(SignatureError):
            sig.clear_path(())

    def test_clear_path_cascades(self):
        sig = Signature.from_paths([(1, 1), (1, 2)], fanout=2)
        sig.clear_path((1, 1))
        assert not sig.test((1, 1))
        assert sig.test((1, 2))
        assert sig.test((1,))
        sig.clear_path((1, 2))
        assert sig.is_empty()

    def test_clear_missing_path_is_noop(self):
        sig = Signature.from_paths([(1, 1)], fanout=2)
        sig.clear_path((2, 2))
        assert sig.test((1, 1))

    def test_counts_and_copy(self):
        sig = Signature.from_paths([(1, 1), (2, 1)], fanout=2)
        assert len(sig.nodes) == 3
        assert sum(len(bits) for bits in sig.nodes.values()) == 4
        clone = sig.copy()
        clone.clear_path((1, 1))
        assert sig.test((1, 1))
        assert sig == Signature.from_paths([(2, 1), (1, 1)], fanout=2)

    def test_breadth_first_iteration(self):
        sig = Signature.from_paths([(1, 1), (2, 2)], fanout=2)
        order = [path for path, _ in sig.iter_nodes_breadth_first()]
        assert order[0] == ()
        assert set(order) == {(), (1,), (2,)}


class TestSignatureAlgebra:
    def test_union(self):
        a = Signature.from_paths([(1, 1)], fanout=2)
        b = Signature.from_paths([(2, 2)], fanout=2)
        u = a.union(b)
        assert u.test((1, 1)) and u.test((2, 2))

    def test_intersection_exact_at_leaves(self):
        a = Signature.from_paths([(1, 1), (2, 1)], fanout=2)
        b = Signature.from_paths([(1, 1), (2, 2)], fanout=2)
        i = a.intersection(b)
        assert i.test((1, 1))
        assert not i.test((2, 1))
        assert not i.test((2, 2))

    def test_intersection_prunes_empty_subtrees(self):
        # Both signatures set bit 2 of the root, but their subtrees under it
        # do not overlap, so the recursive intersection clears the root bit.
        a = Signature.from_paths([(2, 1)], fanout=2)
        b = Signature.from_paths([(2, 2)], fanout=2)
        i = a.intersection(b)
        assert not i.test((2,))
        assert i.is_empty()

    def test_intersection_with_empty(self):
        a = Signature.from_paths([(1, 1)], fanout=2)
        empty = Signature(2)
        assert a.intersection(empty).is_empty()
        assert empty.intersection(a).is_empty()

    def test_thesis_figure_4_7(self):
        # (A=a2) covers t2 <1,1,2> and t6 <2,1,2>;
        # (B=b2) covers t2 <1,1,2> and t7 <2,2,1> (Table 4.1).
        a2 = Signature.from_paths([(1, 1, 2), (2, 1, 2)], fanout=2)
        b2 = Signature.from_paths([(1, 1, 2), (2, 2, 1)], fanout=2)
        union = a2.union(b2)
        inter = a2.intersection(b2)
        assert union.test((2, 2, 1)) and union.test((2, 1, 2))
        assert inter.test((1, 1, 2))
        assert not inter.test((2,))


class TestSid:
    def test_thesis_example(self):
        # M = 2, node N3 has path <1, 1> -> SID = 1*(2+1) + 1 = 4.
        assert path_to_sid((1, 1), fanout=2) == 4
        assert sid_to_path(4, fanout=2) == (1, 1)

    def test_root(self):
        assert path_to_sid((), 8) == 0
        assert sid_to_path(0, 8) == ()

    @given(st.lists(st.integers(min_value=1, max_value=7), max_size=6))
    def test_roundtrip(self, path):
        assert sid_to_path(path_to_sid(tuple(path), 7), 7) == tuple(path)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
                min_size=0, max_size=20))
def test_signature_membership_property(paths):
    """A signature answers True exactly for prefixes of inserted paths."""
    paths = [tuple(p) for p in paths]
    sig = Signature.from_paths(paths, fanout=4)
    prefixes = {p[:i] for p in paths for i in range(1, len(p) + 1)}
    for prefix in prefixes:
        assert sig.test(prefix)
    assert sig.test(()) == bool(paths)
    # A path that extends beyond any inserted path is absent.
    for p in paths:
        assert not sig.test(p + (4,)) or (p + (4,)) in prefixes
