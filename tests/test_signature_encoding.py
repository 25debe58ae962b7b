"""Tests for node-level signature compression (BL / RL / PI / PC coding)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EncodingError
from repro.paper.signature.encoding import (
    SCHEME_BL,
    SCHEME_PC,
    SCHEME_PI,
    SCHEME_RL,
    code_size_bits,
    code_size_bytes,
    decode,
    encode,
    encode_adaptive,
)

ALL_SCHEMES = (SCHEME_BL, SCHEME_RL, SCHEME_PI, SCHEME_PC)

#: The sparse example node of thesis Table 4.2 (M = 32): bits 5, 11 set... the
#: exact bit array used there is a 28-bit sparse node; we use an equivalent.
TABLE_4_2_NODE = [0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0,
                  0, 0, 0, 0, 0, 0, 0, 1]


class TestRoundTrips:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("bits", [
        [1],
        [0, 1],
        [1, 0, 0, 1, 1, 0],
        [1] * 16,
        [0] * 15 + [1],
        TABLE_4_2_NODE,
    ])
    def test_roundtrip(self, scheme, dense, bits):
        code = encode(bits, fanout=32, scheme=scheme, dense=dense)
        assert decode(code, fanout=32)[: len(bits)] == bits

    def test_adaptive_picks_shortest(self):
        best = encode_adaptive(TABLE_4_2_NODE, fanout=32)
        for scheme in ALL_SCHEMES:
            for dense in (False, True):
                assert len(best) <= len(encode(TABLE_4_2_NODE, 32, scheme, dense))
        assert decode(best, 32)[: len(TABLE_4_2_NODE)] == TABLE_4_2_NODE

    def test_sparse_nodes_beat_baseline(self):
        # A very sparse wide node should compress well below the raw coding.
        bits = [0] * 200
        bits[3] = 1
        baseline = encode(bits, fanout=204, scheme=SCHEME_BL, dense=False)
        adaptive = encode_adaptive(bits, fanout=204)
        assert len(adaptive) <= len(baseline)

    def test_dense_nodes_beat_baseline(self):
        bits = [1] * 200
        bits[100] = 0
        adaptive = encode_adaptive(bits, fanout=204)
        assert decode(adaptive, 204)[:200] == bits

    def test_size_helpers(self):
        code = encode([1, 0, 1], 8, SCHEME_BL, False)
        assert code_size_bits(code) == len(code)
        assert code_size_bytes(code) == -(-len(code) // 8)


class TestValidation:
    def test_unknown_scheme(self):
        with pytest.raises(EncodingError):
            encode([1], 8, "XX", False)

    def test_invalid_bits(self):
        with pytest.raises(EncodingError):
            encode([2], 8, SCHEME_BL, False)

    def test_truncated_code(self):
        with pytest.raises(EncodingError):
            decode("01", 8)


bit_lists = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64)


@settings(max_examples=120, deadline=None)
@given(bit_lists, st.sampled_from(ALL_SCHEMES), st.booleans())
def test_every_scheme_roundtrips_random_nodes(bits, scheme, dense):
    """Property: every scheme/variant decodes back to the original bits."""
    code = encode(bits, fanout=64, scheme=scheme, dense=dense)
    assert decode(code, fanout=64)[: len(bits)] == bits


@settings(max_examples=80, deadline=None)
@given(bit_lists)
def test_adaptive_roundtrips_and_never_loses_bits(bits):
    code = encode_adaptive(bits, fanout=64)
    decoded = decode(code, fanout=64)
    assert decoded[: len(bits)] == bits
    assert all(b == 0 for b in decoded[len(bits):])
