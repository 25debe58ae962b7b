"""A small Bloom filter for compressed state-signatures (Section 5.3.1).

When a joint state has more child combinations than fit in a page, its
state-signature is stored as a Bloom filter over the non-empty child
coordinates: membership tests may return false positives (a pruned-state
opportunity missed) but never false negatives (a non-empty child is never
pruned), which is exactly the guarantee the selective-merge algorithm needs.
"""

from __future__ import annotations

import hashlib
import math
from typing import Hashable, Iterable, List


class BloomFilter:
    """Fixed-size Bloom filter with ``k`` double-hashing probes."""

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray(-(-num_bits // 8))
        self.count = 0

    @classmethod
    def sized_for(cls, expected_items: int, max_bits: int,
                  max_hashes: int = 8) -> "BloomFilter":
        """Filter sized by the thesis' rule ``b = min(P, k_max * n_e / ln 2)``."""
        expected_items = max(1, expected_items)
        ideal_bits = int(max_hashes * expected_items / math.log(2)) + 1
        num_bits = max(8, min(max_bits, ideal_bits))
        num_hashes = max(1, min(max_hashes, int(round(num_bits / expected_items * math.log(2)))))
        return cls(num_bits, num_hashes)

    def _probes(self, item: Hashable) -> List[int]:
        digest = hashlib.blake2b(repr(item).encode("utf-8"), digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        return [(h1 + i * h2) % self.num_bits for i in range(self.num_hashes)]

    def add(self, item: Hashable) -> None:
        """Insert one item."""
        for probe in self._probes(item):
            self._bits[probe // 8] |= 1 << (probe % 8)
        self.count += 1

    def update(self, items: Iterable[Hashable]) -> None:
        """Insert many items."""
        for item in items:
            self.add(item)

    def __contains__(self, item: Hashable) -> bool:
        return all(
            self._bits[probe // 8] & (1 << (probe % 8)) for probe in self._probes(item)
        )

    def size_in_bits(self) -> int:
        """Size of the bit array."""
        return self.num_bits

    def false_positive_rate(self) -> float:
        """Expected false-positive probability at the current fill level."""
        if self.count == 0:
            return 0.0
        exponent = -self.num_hashes * self.count / self.num_bits
        return (1.0 - math.exp(exponent)) ** self.num_hashes
