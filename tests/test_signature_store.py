"""Tests for partial-signature decomposition and the paged signature store."""

from __future__ import annotations

import pytest

from repro.errors import SignatureError
from repro.paper.signature import (
    Signature,
    SignatureStore,
    decompose_signature,
    reassemble_signature,
)
from repro.paper.signature.store import CombinedSignatureReader
from repro.storage.pager import Pager


def wide_signature(paths, fanout=8):
    return Signature.from_paths(paths, fanout=fanout)


@pytest.fixture()
def deep_signature():
    paths = [(i % 4 + 1, j % 4 + 1, (i + j) % 4 + 1) for i in range(6) for j in range(6)]
    return wide_signature(paths, fanout=4)


class TestDecomposition:
    def test_roundtrip(self, deep_signature):
        partials = decompose_signature(deep_signature, budget_bits=64)
        assert len(partials) > 1
        rebuilt = reassemble_signature(partials, deep_signature.fanout)
        assert rebuilt == deep_signature

    def test_single_partial_when_budget_large(self, deep_signature):
        partials = decompose_signature(deep_signature, budget_bits=10 ** 6)
        assert len(partials) == 1
        assert partials[0].ref_path == ()

    def test_refs_are_distinct_and_cover_all_nodes(self, deep_signature):
        partials = decompose_signature(deep_signature, budget_bits=64)
        refs = [p.ref_path for p in partials]
        assert len(refs) == len(set(refs))
        covered = set()
        for partial in partials:
            covered.update(partial.nodes)
        assert covered == set(deep_signature.nodes)

    def test_invalid_budget(self, deep_signature):
        with pytest.raises(SignatureError):
            decompose_signature(deep_signature, budget_bits=0)

    def test_empty_signature(self):
        assert decompose_signature(Signature(4), budget_bits=64) == []


class TestSignatureStore:
    def test_put_reader_roundtrip(self, deep_signature):
        store = SignatureStore(fanout=4, pager=Pager(page_size=64), alpha=0.5)
        pages = store.put(("A",), (1,), deep_signature)
        assert pages >= 1
        reader = store.reader(("A",), (1,))
        for path in deep_signature.nodes:
            assert reader.test(path)
            for position in deep_signature.nodes[path]:
                assert reader.test(path + (position,))
        assert not reader.test((4, 4, 4, 4))
        assert reader.pages_loaded >= 1

    def test_reader_of_missing_cell(self):
        store = SignatureStore(fanout=4)
        reader = store.reader(("A",), (9,))
        assert not reader.test(())
        assert not reader.test((1,))

    def test_lazy_loading_counts_pages(self, deep_signature):
        store = SignatureStore(fanout=4, pager=Pager(page_size=64), alpha=0.5)
        store.put(("A",), (1,), deep_signature)
        reader = store.reader(("A",), (1,))
        reader.test((1,))
        first = reader.pages_loaded
        # Probing a deep path may require more partial signatures.
        deep_path = max(deep_signature.nodes, key=len)
        reader.test(deep_path + (next(iter(deep_signature.nodes[deep_path])),))
        assert reader.pages_loaded >= first

    def test_replace_cell_frees_old_pages(self, deep_signature):
        pager = Pager(page_size=64)
        store = SignatureStore(fanout=4, pager=pager, alpha=0.5)
        store.put(("A",), (1,), deep_signature)
        pages_before = pager.num_pages
        store.put(("A",), (1,), Signature.from_paths([(1, 1, 1)], 4))
        assert pager.num_pages <= pages_before
        reader = store.reader(("A",), (1,))
        assert reader.test((1, 1, 1))
        assert not reader.test((2,))

    def test_load_signature_reassembles(self, deep_signature):
        store = SignatureStore(fanout=4, pager=Pager(page_size=64))
        store.put(("A",), (1,), deep_signature)
        assert store.load_signature(("A",), (1,)) == deep_signature

    def test_sizes_and_cells(self, deep_signature):
        store = SignatureStore(fanout=4)
        store.put(("A",), (1,), deep_signature)
        store.put(("B",), (2,), Signature.from_paths([(1, 1, 1)], 4))
        assert store.total_size_bits() > 0
        assert store.total_size_bytes() > 0
        assert store.num_pages() >= 2
        assert set(store.cells()) == {(("A",), (1,)), (("B",), (2,))}

    def test_alpha_validation(self):
        with pytest.raises(SignatureError):
            SignatureStore(fanout=4, alpha=0.0)

    def test_combined_reader_is_conjunction(self):
        store = SignatureStore(fanout=4)
        store.put(("A",), (1,), Signature.from_paths([(1, 1), (2, 1)], 4))
        store.put(("B",), (1,), Signature.from_paths([(1, 1), (3, 1)], 4))
        combined = CombinedSignatureReader([
            store.reader(("A",), (1,)), store.reader(("B",), (1,))])
        assert combined.test((1, 1))
        assert not combined.test((2, 1))
        assert not combined.test((3, 1))
        assert combined.pages_loaded >= 2
        with pytest.raises(SignatureError):
            CombinedSignatureReader([])
