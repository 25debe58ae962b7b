"""Node-level signature compression (Section 4.2.2).

Each signature node's bit array is stored as a bit string with the unified
coding structure of Figure 4.4: a 3-bit ``CS`` field naming the scheme, a
length field, and the coding region.  Four lossless schemes are implemented,
each with a *sparse* variant (encoding the 1 positions / 0-runs) and a
*dense* variant (encoding the 0 positions / 1-runs):

* ``BL`` — baseline: the raw (tail-truncated) bit array,
* ``RL`` — run-length coding of runs terminated by a 1 (or 0 in the dense
  variant), using Elias-gamma-style length prefixes,
* ``PI`` — position index: the positions of the 1s (0s), each in
  ``ceil(log2 M)`` bits,
* ``PC`` — prefix compression of the position index: positions grouped by a
  shared prefix.

``encode_adaptive`` picks whichever scheme yields the shortest code for a
node — the adaptive choice the thesis uses — and ``decode`` reverses any of
them.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import EncodingError

#: Scheme identifiers for the 2 high bits of the CS field.
SCHEME_BL = "BL"
SCHEME_PI = "PI"
SCHEME_RL = "RL"
SCHEME_PC = "PC"

_SCHEME_BITS = {SCHEME_BL: "00", SCHEME_PI: "01", SCHEME_RL: "10", SCHEME_PC: "11"}
_BITS_SCHEME = {v: k for k, v in _SCHEME_BITS.items()}

#: Width of the explicit length field following CS.
_LEN_FIELD_BITS = 16

#: Rows sized per pass of the batch closed form; bounds its temporaries.
_BATCH_ROWS = 256


def _to_binary(value: int, width: int) -> str:
    if value < 0 or value >= (1 << width):
        raise EncodingError(f"value {value} does not fit in {width} bits")
    return format(value, f"0{width}b")


def _bits_needed(fanout: int) -> int:
    return max(1, math.ceil(math.log2(max(2, fanout))))


def _positions(bits: List[int], target: int) -> List[int]:
    return [i + 1 for i, b in enumerate(bits) if b == target]


# ----------------------------------------------------------------------
# individual schemes (coding region only)
# ----------------------------------------------------------------------
def _encode_bl(bits: List[int], dense: bool) -> str:
    # Baseline stores the raw array; the dense variant stores the complement
    # so that trailing-one truncation applies symmetrically.
    stored = [1 - b for b in bits] if dense else list(bits)
    while stored and stored[-1] == 0:
        stored.pop()
    return "".join(str(b) for b in stored)


def _decode_bl(region: str, length: int, dense: bool) -> List[int]:
    stored = [int(c) for c in region]
    stored += [0] * (length - len(stored))
    return [1 - b for b in stored] if dense else stored


def _gamma_encode(value: int) -> str:
    # Elias-gamma-like: (ceil(log2(v+1)) - 1) ones, a zero, then v in binary.
    width = max(1, math.ceil(math.log2(value + 2)))
    return "1" * (width - 1) + "0" + _to_binary(value, width)


def _gamma_decode(stream: str, offset: int) -> Tuple[int, int]:
    width = 1
    while offset < len(stream) and stream[offset] == "1":
        width += 1
        offset += 1
    offset += 1  # skip the terminating zero
    value = int(stream[offset:offset + width], 2)
    return value, offset + width


def _encode_rl(bits: List[int], dense: bool) -> str:
    # Runs of zeros terminated by a one (sparse) or of ones terminated by a
    # zero (dense).  A sentinel terminator is appended so the final run is
    # recoverable, matching the thesis' artificial trailing symbol.
    symbol = 0 if dense else 1
    runs: List[int] = []
    run = 0
    for bit in bits:
        if bit == symbol:
            runs.append(run)
            run = 0
        else:
            run += 1
    runs.append(run)
    return "".join(_gamma_encode(r) for r in runs)


def _decode_rl(region: str, length: int, dense: bool) -> List[int]:
    symbol = 0 if dense else 1
    other = 1 - symbol
    bits: List[int] = []
    offset = 0
    runs: List[int] = []
    while offset < len(region):
        value, offset = _gamma_decode(region, offset)
        runs.append(value)
    for run in runs[:-1]:
        bits.extend([other] * run)
        bits.append(symbol)
    bits.extend([other] * runs[-1])
    bits = bits[:length]
    bits += [other if dense else 0] * (length - len(bits))
    return bits


def _encode_pi(bits: List[int], dense: bool, fanout: int) -> str:
    width = _bits_needed(fanout)
    positions = _positions(bits, 0 if dense else 1)
    return "".join(_to_binary(p - 1, width) for p in positions)


def _decode_pi(region: str, length: int, dense: bool, fanout: int) -> List[int]:
    width = _bits_needed(fanout)
    fill = 1 if dense else 0
    mark = 0 if dense else 1
    bits = [fill] * length
    for start in range(0, len(region), width):
        chunk = region[start:start + width]
        if len(chunk) < width:
            break
        position = int(chunk, 2)
        if position < length:
            bits[position] = mark
    return bits


def _pc_prefix_bits(fanout: int) -> int:
    n = _bits_needed(fanout)
    # Optimal prefix length from the thesis: log2(2^n / (n ln 2)).
    value = (2 ** n) / (n * math.log(2))
    return max(1, min(n - 1, int(round(math.log2(value)))))


def _encode_pc(bits: List[int], dense: bool, fanout: int) -> str:
    n = _bits_needed(fanout)
    p = _pc_prefix_bits(fanout)
    suffix_bits = n - p
    positions = _positions(bits, 0 if dense else 1)
    groups: dict = {}
    for position in positions:
        code = _to_binary(position - 1, n)
        groups.setdefault(code[:p], []).append(code[p:])
    out: List[str] = []
    for prefix in sorted(groups):
        suffixes = groups[prefix]
        out.append(prefix)
        out.append(_to_binary(len(suffixes) - 1, suffix_bits))
        out.extend(suffixes)
    return "".join(out)


def _decode_pc(region: str, length: int, dense: bool, fanout: int) -> List[int]:
    n = _bits_needed(fanout)
    p = _pc_prefix_bits(fanout)
    suffix_bits = n - p
    fill = 1 if dense else 0
    mark = 0 if dense else 1
    bits = [fill] * length
    offset = 0
    while offset + p + suffix_bits <= len(region):
        prefix = region[offset:offset + p]
        offset += p
        count = int(region[offset:offset + suffix_bits], 2) + 1
        offset += suffix_bits
        for _ in range(count):
            suffix = region[offset:offset + suffix_bits]
            offset += suffix_bits
            position = int(prefix + suffix, 2)
            if position < length:
                bits[position] = mark
    return bits


# ----------------------------------------------------------------------
# unified coding structure
# ----------------------------------------------------------------------
def encode(bits: List[int], fanout: int, scheme: str, dense: bool) -> str:
    """Encode a node with one scheme, producing CS + Len + coding region."""
    if scheme not in _SCHEME_BITS:
        raise EncodingError(f"unknown coding scheme {scheme!r}")
    if any(b not in (0, 1) for b in bits):
        raise EncodingError("bit arrays may only contain 0 and 1")
    if scheme == SCHEME_BL:
        region = _encode_bl(bits, dense)
    elif scheme == SCHEME_RL:
        region = _encode_rl(bits, dense)
    elif scheme == SCHEME_PI:
        region = _encode_pi(bits, dense, fanout)
    else:
        region = _encode_pc(bits, dense, fanout)
    header = _SCHEME_BITS[scheme] + ("1" if dense else "0")
    return header + _to_binary(len(bits), _LEN_FIELD_BITS) + region


def decode(code: str, fanout: int) -> List[int]:
    """Decode a node encoded by :func:`encode` (any scheme)."""
    if len(code) < 3 + _LEN_FIELD_BITS:
        raise EncodingError("code is too short to contain a header")
    scheme = _BITS_SCHEME[code[:2]]
    dense = code[2] == "1"
    length = int(code[3:3 + _LEN_FIELD_BITS], 2)
    region = code[3 + _LEN_FIELD_BITS:]
    if scheme == SCHEME_BL:
        return _decode_bl(region, length, dense)
    if scheme == SCHEME_RL:
        return _decode_rl(region, length, dense)
    if scheme == SCHEME_PI:
        return _decode_pi(region, length, dense, fanout)
    return _decode_pc(region, length, dense, fanout)


def encode_adaptive(bits: List[int], fanout: int) -> str:
    """Encode with every scheme/variant and keep the shortest code."""
    best: str = ""
    for scheme in (SCHEME_BL, SCHEME_RL, SCHEME_PI, SCHEME_PC):
        for dense in (False, True):
            try:
                code = encode(bits, fanout, scheme, dense)
            except EncodingError:
                continue
            if not best or len(code) < len(best):
                best = code
    if not best:
        raise EncodingError("no scheme could encode the node")
    return best


def adaptive_code_bits_batch(bits: np.ndarray, widths: np.ndarray,
                             fanout: int) -> np.ndarray:
    """``len(encode_adaptive(row[:width], fanout))`` for every row of ``bits``.

    ``bits`` is an ``(m, c)`` bool matrix, one node per row, and ``widths``
    the ``(m,)`` lengths of the nodes' bit arrays.  Every scheme's coding
    region has a closed-form length, so no bit string is built; this is the
    only place those lengths are written down.
    """
    if len(bits) > _BATCH_ROWS:
        cuts = range(_BATCH_ROWS, len(bits), _BATCH_ROWS)
        return np.concatenate([adaptive_code_bits_batch(rows, lengths, fanout) for rows, lengths
                               in zip(np.split(bits, cuts), np.split(widths, cuts))])
    if widths.size and widths.max() >= 1 << _LEN_FIELD_BITS:
        raise EncodingError("no scheme could encode the node")
    width = _bits_needed(fanout)
    suffix_bits = width - _pc_prefix_bits(fanout)
    columns = np.arange(bits.shape[1], dtype=np.int32)
    inside = columns < widths[:, None]
    # (2, m, c): the sparse variants mark the 1s, the dense ones the 0s.
    marked = np.stack([bits & inside, ~bits & inside])
    count = marked.sum(axis=2)
    at = np.where(marked, columns, -1)
    last = at.max(axis=2, initial=-1)
    before = np.full_like(at, -1)  # the last marked position left of each column
    before[..., 1:] = np.maximum.accumulate(at, axis=2)[..., :-1]
    # BL: the array up to its last marked position.  RL: one gamma code
    # (2 * bit_length(run + 1) bits; frexp's exponent of a positive integer
    # is its bit length) per run of unmarked bits, trailing run included.
    runs = np.where(marked, 2 * np.frexp(columns - before)[1], 0).sum(axis=2)
    smallest = np.minimum(last + 1, runs + 2 * np.frexp(widths - last)[1])
    # PI: a fixed-width position per marked bit.  PC: per shared prefix, the
    # prefix and a count; per position, a suffix.  Neither can hold a
    # position wider than the field.
    groups = (marked & (columns >> suffix_bits != before >> suffix_bits)).sum(axis=2)
    positional = np.minimum(count * width, groups * width + count * suffix_bits)
    smallest = np.where(last < 1 << width, np.minimum(smallest, positional), smallest)
    return 3 + _LEN_FIELD_BITS + smallest.min(axis=0)


def adaptive_code_bits(bits: Sequence[int], fanout: int) -> int:
    """``len(encode_adaptive(bits, fanout))``: the one-row call of the batch form."""
    row = np.asarray(bits, dtype=bool).reshape(1, -1)
    return int(adaptive_code_bits_batch(row, np.array([row.shape[1]]), fanout)[0])


def code_size_bits(code: str) -> int:
    """Length of a node code in bits."""
    return len(code)


def code_size_bytes(code: str) -> int:
    """Length of a node code rounded up to whole bytes."""
    return -(-len(code) // 8)
