"""Signature measure: a tree of bit arrays mirroring a hierarchical partition.

A signature (Section 4.2.1) answers, for any node of the R-tree partition,
"does this subtree contain at least one tuple satisfying the cell's boolean
condition?".  Each tree node carries a bit array with one bit per child
entry; a 0 bit has no subtree below it.  Signatures are built from tuple
*paths* (the 1-based entry positions from the root down to the tuple's slot
in its leaf), combined with union / intersection operators for on-line
assembly of arbitrary boolean predicates (Section 4.3.3), and updated in
place by the incremental maintenance of Section 4.2.5.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import SignatureError

Path = Tuple[int, ...]


class Signature:
    """A tree of bit arrays indexed by node path.

    ``nodes`` maps a node's path (``()`` for the root) to the set of 1-bit
    positions (1-based child positions).  A node appears in ``nodes`` only if
    it has at least one set bit, so an empty signature has no entries at all.
    """

    def __init__(self, fanout: int, nodes: Optional[Dict[Path, Set[int]]] = None) -> None:
        if fanout < 1:
            raise SignatureError("signature fanout must be at least 1")
        self.fanout = fanout
        self.nodes: Dict[Path, Set[int]] = {k: set(v) for k, v in (nodes or {}).items()}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_paths(cls, paths: Iterable[Path], fanout: int) -> "Signature":
        """Build a signature from the paths of the qualifying tuples.

        Each path contributes a 1 bit at every level: bit ``p_i`` of the node
        reached by the prefix ``p_0..p_{i-1}``.
        """
        signature = cls(fanout)
        for path in paths:
            signature.set_path(tuple(path))
        return signature

    # ------------------------------------------------------------------
    # point operations
    # ------------------------------------------------------------------
    def set_path(self, path: Path) -> None:
        """Set every bit along ``path`` to 1."""
        if not path:
            raise SignatureError("cannot set an empty path")
        for depth in range(len(path)):
            prefix = path[:depth]
            position = path[depth]
            if not 1 <= position <= self.fanout:
                raise SignatureError(
                    f"position {position} exceeds the fanout {self.fanout}")
            self.nodes.setdefault(prefix, set()).add(position)

    def clear_path(self, path: Path) -> None:
        """Clear the leaf bit of ``path``; recursively clear emptied ancestors.

        Mirrors the maintenance rule of Algorithm 2: only the leaf bit is
        cleared directly, and a node whose bits all become 0 clears the bit
        pointing to it in its parent.
        """
        if not path:
            raise SignatureError("cannot clear an empty path")
        for depth in range(len(path) - 1, -1, -1):
            prefix = path[:depth]
            position = path[depth]
            bits = self.nodes.get(prefix)
            if bits is None:
                return
            bits.discard(position)
            if bits:
                return
            del self.nodes[prefix]

    def test(self, path: Path) -> bool:
        """Whether the node / entry identified by ``path`` may contain a
        qualifying tuple.  The empty path asks about the root."""
        if not path:
            return bool(self.nodes.get((), set()))
        bits = self.nodes.get(path[:-1])
        return bits is not None and path[-1] in bits

    def node_bits(self, path: Path) -> List[int]:
        """The node's bit array as a 0/1 list truncated at the last set bit."""
        bits = self.nodes.get(path, set())
        if not bits:
            return []
        width = max(bits)
        return [1 if position in bits else 0 for position in range(1, width + 1)]

    # ------------------------------------------------------------------
    # set algebra (Section 4.3.3)
    # ------------------------------------------------------------------
    def union(self, other: "Signature") -> "Signature":
        """Bit-or of two signatures (``A = a or B = b`` predicates)."""
        merged: Dict[Path, Set[int]] = {k: set(v) for k, v in self.nodes.items()}
        for path, bits in other.nodes.items():
            merged.setdefault(path, set()).update(bits)
        return Signature(max(self.fanout, other.fanout), merged)

    def intersection(self, other: "Signature") -> "Signature":
        """Recursive bit-and of two signatures.

        A bit survives only if it is set in both signatures *and* (for
        non-leaf bits) the intersection below it is non-empty — the
        recursive rule of Section 4.3.3.
        """
        fanout = max(self.fanout, other.fanout)
        result = Signature(fanout)

        def recurse(path: Path) -> bool:
            mine = self.nodes.get(path)
            theirs = other.nodes.get(path)
            if not mine or not theirs:
                return False
            common = mine & theirs
            surviving: Set[int] = set()
            for position in common:
                child = path + (position,)
                child_is_internal = child in self.nodes or child in other.nodes
                if not child_is_internal:
                    surviving.add(position)
                elif recurse(child):
                    surviving.add(position)
            if surviving:
                result.nodes[path] = surviving
                return True
            return False

        recurse(())
        return result

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """True when no tuple satisfies the signature's condition."""
        return not self.nodes

    def paths_breadth_first(self) -> List[Path]:
        """Node paths in breadth-first order (storage order)."""
        paths: List[Path] = [()] if () in self.nodes else []
        for path in paths:  # grows while it is walked
            paths.extend([child for position in sorted(self.nodes[path])
                          if (child := path + (position,)) in self.nodes])
        return paths

    def iter_nodes_breadth_first(self) -> Iterator[Tuple[Path, List[int]]]:
        """Yield ``(path, bit array)`` in breadth-first order (storage order)."""
        for path in self.paths_breadth_first():
            yield path, self.node_bits(path)

    def copy(self) -> "Signature":
        """Deep copy."""
        return Signature(self.fanout, {k: set(v) for k, v in self.nodes.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return self.nodes == other.nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signature(fanout={self.fanout}, nodes={len(self.nodes)})"


def path_to_sid(path: Path, fanout: int) -> int:
    """One-to-one map of a node path to a signature id (Section 4.2.1).

    ``SID = p0*(M+1)^l + p1*(M+1)^(l-1) + ... + p_{l-1}`` where ``M`` is the
    fanout; the root (empty path) has SID 0.
    """
    sid = 0
    base = fanout + 1
    for position in path:
        sid = sid * base + position
    return sid


def sid_to_path(sid: int, fanout: int) -> Path:
    """Inverse of :func:`path_to_sid`."""
    base = fanout + 1
    digits: List[int] = []
    while sid > 0:
        digits.append(sid % base)
        sid //= base
    return tuple(reversed(digits))
