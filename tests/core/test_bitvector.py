"""Tests for bit-vector signatures and the mask-based popcount."""

import pytest

from repro.core.bitvector import BitVector, build_signatures, popcount_tree


class TestPopcountTree:
    def test_paper_example(self):
        # B(o1) = 0 1 1 0 1 1 0 0 in the paper's Figure 3 table; as an
        # integer with bit 0 = first cluster this is 0b00110110.
        value = 0b00110110
        assert popcount_tree(value, 8) == 4

    def test_matches_builtin_bit_count(self):
        for value in range(0, 1 << 10):
            assert popcount_tree(value, 10) == bin(value).count("1")

    def test_wide_vectors(self):
        value = (1 << 100) | (1 << 63) | 1
        assert popcount_tree(value, 101) == 3

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            popcount_tree(-1, 8)
        with pytest.raises(ValueError):
            popcount_tree(3, 0)


class TestBitVector:
    def test_from_positions_and_get(self):
        bv = BitVector.from_positions(8, [0, 3, 7])
        assert bv.get(0) and bv.get(3) and bv.get(7)
        assert not bv.get(1)
        assert bv.positions() == [0, 3, 7]

    def test_from_bits_round_trip(self):
        bits = [1, 0, 1, 1, 0]
        assert BitVector.from_bits(bits).bits() == bits

    def test_from_bits_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BitVector.from_bits([0, 2, 1])
        with pytest.raises(ValueError):
            BitVector.from_bits([])

    def test_out_of_range_position(self):
        with pytest.raises(ValueError):
            BitVector.from_positions(4, [4])
        bv = BitVector(4)
        with pytest.raises(IndexError):
            bv.get(4)
        with pytest.raises(IndexError):
            bv.set(-1)

    def test_and_or(self):
        a = BitVector.from_bits([1, 1, 0, 0])
        b = BitVector.from_bits([1, 0, 1, 0])
        assert (a & b).bits() == [1, 0, 0, 0]
        assert (a | b).bits() == [1, 1, 1, 0]

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            BitVector(4) & BitVector(5)

    def test_hamming_weight(self):
        assert BitVector.from_bits([1, 0, 1, 1, 0, 1]).hamming_weight() == 4

    def test_count_in_mask(self):
        signature = BitVector.from_bits([1, 1, 1, 1, 0, 0, 1, 1])
        mask = BitVector.from_positions(8, range(0, 4))
        assert signature.count_in_mask(mask) == 4
        mask_tail = BitVector.from_positions(8, range(5, 8))
        assert signature.count_in_mask(mask_tail) == 2

    def test_equality_and_hash(self):
        assert BitVector.from_bits([1, 0, 1]) == BitVector.from_positions(3, [0, 2])
        assert hash(BitVector.from_bits([1, 0, 1])) == hash(BitVector.from_positions(3, [0, 2]))
        assert BitVector.from_bits([1, 0, 1]) != BitVector.from_bits([1, 0, 1, 0])

    def test_repr_shows_bits(self):
        assert "101" in repr(BitVector.from_bits([1, 0, 1]))


class TestBuildSignatures:
    def test_paper_figure3_signatures(self, crowd_factory):
        # Figure 3 membership table: columns are clusters c1..c8.
        membership = [
            {2, 3, 4},          # c1
            {1, 2, 3, 5},       # c2
            {1, 2, 4, 5},       # c3
            {2, 3, 4, 5},       # c4
            {1, 4, 6},          # c5
            {1, 3, 4, 6},       # c6
            {2, 3, 4},          # c7
            {2, 3, 4},          # c8
        ]
        crowd = crowd_factory(membership)
        signatures = build_signatures(crowd)
        assert signatures[1].bits() == [0, 1, 1, 0, 1, 1, 0, 0]
        assert signatures[2].bits() == [1, 1, 1, 1, 0, 0, 1, 1]
        assert signatures[3].bits() == [1, 1, 0, 1, 0, 1, 1, 1]
        assert signatures[4].bits() == [1, 0, 1, 1, 1, 1, 1, 1]
        assert signatures[5].bits() == [0, 1, 1, 1, 0, 0, 0, 0]
        assert signatures[6].bits() == [0, 0, 0, 0, 1, 1, 0, 0]

    def test_signature_width_matches_crowd_length(self, crowd_factory):
        crowd = crowd_factory([{1, 2}, {1, 2}, {2, 3}])
        signatures = build_signatures(crowd)
        assert all(bv.width == 3 for bv in signatures.values())

    def test_counts_match_occurrences(self, crowd_factory):
        crowd = crowd_factory([{1, 2}, {1, 3}, {1, 2, 3}, {2}])
        signatures = build_signatures(crowd)
        occurrences = crowd.occurrences()
        for oid, signature in signatures.items():
            assert signature.hamming_weight() == occurrences[oid]
