"""Partial-signature decomposition and paged storage (Section 4.2.3).

A cell's signature is decomposed into *partial signatures*, each holding a
breadth-first chunk of the tree sized to roughly ``alpha * page_size`` so it
fits a data page with room for in-place growth.  Each partial signature is
referenced by the path (equivalently, SID) of its shallowest node; at query
time partial signatures are loaded lazily — only when the search asks about
a node they encode — and every load costs one counted page access.

Page layout
-----------
A partial-signature page is ``{"ref": path, "nodes": {path: bits}}`` where
``bits`` is a read-only ``bool`` array, one element per entry position,
truncated after the node's last set bit (position ``p`` is ``bits[p - 1]``;
positions past the end are 0).  A reader merges a loaded page's ``nodes``
into its own map and answers a single entry (:meth:`CellSignatureReader.test`)
or a whole node at a time (:meth:`CellSignatureReader.mask`) from the same
arrays.

**Pages are immutable once handed out; writers replace arrays.**
:meth:`SignatureStore.put` frees a cell's old pages and allocates new ones;
it never flips a bit inside an array a reader may still hold (the rule
``BaseBlockTable.insert`` follows for base blocks).

**One walk, one closed form.**  Signature trees reach the store as one
breadth-first bit matrix — a whole cuboid from the cube build, one
:class:`Signature` from :func:`decompose_signature` — which
:func:`decompose_nodes` sizes with ``adaptive_code_bits_batch`` and cuts into
partials: the only budget walk.  A page's arrays are row slices of the matrix.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import SignatureError
from repro.paper.signature.encoding import adaptive_code_bits_batch
from repro.paper.signature.signature import Path, Signature
from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager

CellKey = Tuple[int, ...]
CuboidKey = Tuple[str, ...]


class PartialSignature(NamedTuple):
    """One decomposed chunk of a signature tree."""

    ref_path: Path
    nodes: Dict[Path, np.ndarray]
    size_bits: int


def decompose_nodes(paths: List[Path], bits: np.ndarray, child_counts: np.ndarray,
                    fanout: int, budget_bits: int) -> List[List[PartialSignature]]:
    """Split every tree of a breadth-first node matrix into partials, one list per root.

    Row ``i`` of the ``(N, fanout)`` bool matrix ``bits`` is the node at
    ``paths[i]``; ``child_counts[i]`` of its set bits lead to a node of their
    own.  Rows are breadth first — the roots, then the children of row 0 by
    position, those of row 1, and so on — so a row's children are
    consecutive and follow those of the row before.

    A tree's first partial starts at its root; whenever the accumulated
    encoded size reaches ``budget_bits``, the nodes still waiting in the
    traversal queue become the reference nodes of subsequent partials
    (Section 4.2.3).
    """
    if budget_bits <= 0:
        raise SignatureError("the partial-signature budget must be positive")
    bits.setflags(write=False)
    # Every node holds a set bit; its array is cut after the last one.
    lengths = bits.shape[1] - np.argmax(bits[:, ::-1], axis=1)
    widths, sizes = lengths.tolist(), adaptive_code_bits_batch(bits, lengths, fanout).tolist()
    num_roots = len(paths) - int(child_counts.sum())
    after = np.cumsum(child_counts) + num_roots
    child_ranges = list(zip((after - child_counts).tolist(), after.tolist()))
    trees: List[List[PartialSignature]] = []
    for root in range(num_roots):
        trees.append(partials := [])
        pending: deque = deque([root])
        while pending:
            start = pending.popleft()
            nodes: Dict[Path, np.ndarray] = {}
            size = 0
            queue: deque = deque([start])
            while queue and size < budget_bits:
                row = queue.popleft()
                size += sizes[row]
                nodes[paths[row]] = bits[row, :widths[row]]
                queue.extend(range(*child_ranges[row]))
            pending.extend(queue)
            partials.append(PartialSignature(paths[start], nodes, size))
    return trees


def decompose_signature(signature: Signature, budget_bits: int) -> List[PartialSignature]:
    """Split a signature into breadth-first partial signatures."""
    nodes, paths = signature.nodes, signature.paths_breadth_first()
    bits = np.zeros((len(paths), signature.fanout), dtype=bool)
    bits[[row for row, path in enumerate(paths) for _ in nodes[path]],
         [position - 1 for path in paths for position in nodes[path]]] = True
    children = Counter(path[:-1] for path in paths[1:])
    child_counts = np.array([children[path] for path in paths], dtype=np.int64)
    trees = decompose_nodes(paths, bits, child_counts, signature.fanout, budget_bits)
    return trees[0] if trees else []


def reassemble_signature(partials: Iterable[PartialSignature], fanout: int) -> Signature:
    """Rebuild the full signature tree from its partial signatures."""
    nodes: Dict[Path, Set[int]] = {}
    for partial in partials:
        for path, bits in partial.nodes.items():
            nodes[path] = set((np.flatnonzero(bits) + 1).tolist())
    return Signature(fanout, nodes)


class SignatureStore:
    """Paged storage of the partial signatures of every (cuboid, cell)."""

    def __init__(self, fanout: int, pager: Optional[Pager] = None,
                 alpha: float = 0.5, buffer_capacity: int = 512) -> None:
        if not 0 < alpha <= 1:
            raise SignatureError("alpha must be in (0, 1]")
        self.fanout = fanout
        self.pager = pager or Pager()
        self.buffer = BufferPool(self.pager, capacity=buffer_capacity)
        self.budget_bits = int(alpha * self.pager.page_size * 8)
        # (cuboid dims, cell) -> {ref_path: page_id}
        self._index: Dict[Tuple[CuboidKey, CellKey], Dict[Path, int]] = {}
        self._size_bits: Dict[Tuple[CuboidKey, CellKey], int] = {}

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(self, cuboid: CuboidKey, cell: CellKey, signature: Signature) -> int:
        """Store (or replace) the signature of one cell; returns pages written."""
        return self.put_partials(cuboid, cell,
                                 decompose_signature(signature, self.budget_bits))

    def put_partials(self, cuboid: CuboidKey, cell: CellKey,
                     partials: List[PartialSignature]) -> int:
        """:meth:`put` for a signature already decomposed under ``budget_bits``."""
        key = (tuple(cuboid), tuple(cell))
        for page_id in self._index.pop(key, {}).values():
            self.pager.free(page_id)
            self.buffer.invalidate(page_id)
        refs: Dict[Path, int] = {}
        total_bits = 0
        for partial in partials:
            payload = {"ref": partial.ref_path, "nodes": partial.nodes}
            refs[partial.ref_path] = self.pager.allocate(
                payload, size=-(-partial.size_bits // 8))
            total_bits += partial.size_bits
        self._index[key] = refs
        self._size_bits[key] = total_bits
        return len(refs)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def reader(self, cuboid: CuboidKey, cell: CellKey) -> "CellSignatureReader":
        """Lazy reader over one cell's partial signatures."""
        key = (tuple(cuboid), tuple(cell))
        refs = self._index.get(key, {})
        return CellSignatureReader(self, refs)

    def load_signature(self, cuboid: CuboidKey, cell: CellKey) -> Signature:
        """Load and reassemble the whole signature of one cell (maintenance)."""
        key = (tuple(cuboid), tuple(cell))
        refs = self._index.get(key, {})
        partials = []
        for page_id in refs.values():
            payload = self.buffer.read(page_id)
            partials.append(PartialSignature(ref_path=payload["ref"],
                                             nodes=payload["nodes"], size_bits=0))
        return reassemble_signature(partials, self.fanout)

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------
    def total_size_bits(self) -> int:
        """Encoded size of every stored signature, in bits."""
        return sum(self._size_bits.values())

    def total_size_bytes(self) -> int:
        """Encoded size of every stored signature, in bytes."""
        return -(-self.total_size_bits() // 8)

    def num_pages(self) -> int:
        """Number of partial-signature pages currently stored."""
        return sum(len(refs) for refs in self._index.values())

    def cells(self) -> List[Tuple[CuboidKey, CellKey]]:
        """Every (cuboid, cell) with a stored signature."""
        return list(self._index.keys())


class CellSignatureReader:
    """Lazily loads one cell's partial signatures during query processing."""

    def __init__(self, store: SignatureStore, refs: Dict[Path, int]) -> None:
        self.store = store
        self.refs = dict(refs)
        self._nodes: Dict[Path, np.ndarray] = {}
        self._loaded_refs: Set[Path] = set()
        self.pages_loaded = 0

    def _load_ref(self, ref: Path) -> None:
        if ref in self._loaded_refs or ref not in self.refs:
            return
        payload = self.store.buffer.read(self.refs[ref])
        self.pages_loaded += 1
        self._loaded_refs.add(ref)
        self._nodes.update(payload["nodes"])

    def _node_bits(self, path: Path) -> Optional[np.ndarray]:
        """The bit array of the node at ``path``, loading pages as needed."""
        bits = self._nodes.get(path)
        if bits is not None:
            return bits
        # Load the partial signatures referenced by prefixes of the path,
        # shallowest first (the thesis walks the first-level node, then the
        # second-level node, and so on).
        for depth in range(len(path) + 1):
            prefix = path[:depth]
            if prefix in self.refs and prefix not in self._loaded_refs:
                self._load_ref(prefix)
                bits = self._nodes.get(path)
                if bits is not None:
                    return bits
        return None

    def test(self, path: Path) -> bool:
        """Whether the node / entry at ``path`` may hold a qualifying tuple."""
        if not self.refs:
            return False
        if not path:
            return self._node_bits(()) is not None
        bits = self._node_bits(path[:-1])
        return bits is not None and 0 < path[-1] <= len(bits) and bool(bits[path[-1] - 1])

    def mask(self, parent: Path, count: int) -> np.ndarray:
        """``test(parent + (i,))`` for ``i = 1..count`` as one ``bool`` array.

        Loads exactly the pages the first of those ``test`` calls would.
        The result may be a view of the stored page: read it, do not write.
        """
        bits = self._node_bits(parent)
        if bits is None:
            return np.zeros(count, dtype=bool)
        if count <= len(bits):
            return bits[:count]
        padded = np.zeros(count, dtype=bool)
        padded[:len(bits)] = bits
        return padded


class CombinedSignatureReader:
    """AND-combination of several cell readers (on-line predicate assembly).

    At internal nodes the conjunction is conservative (it may fail to prune
    a node whose subtrees do not actually intersect), and at leaf-entry
    level it is exact, so query results never need re-verification.
    """

    def __init__(self, readers: Sequence[CellSignatureReader]) -> None:
        if not readers:
            raise SignatureError("at least one signature reader is required")
        self.readers = list(readers)

    def test(self, path: Path) -> bool:
        return all(reader.test(path) for reader in self.readers)

    def mask(self, parent: Path, count: int) -> np.ndarray:
        """Entry-wise conjunction of the member readers' masks.

        A later reader is consulted — and so page-loaded — only while some
        entry survives the earlier ones, the short-circuit of :meth:`test`.
        """
        mask = self.readers[0].mask(parent, count)
        for reader in self.readers[1:]:
            if not mask.any():
                break
            mask = mask & reader.mask(parent, count)
        return mask

    @property
    def pages_loaded(self) -> int:
        """Signature pages loaded across all member readers."""
        return sum(reader.pages_loaded for reader in self.readers)
