"""Property-based tests for bit-vector signatures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitvector import BitVector, popcount_tree


class TestPopcountProperties:
    @given(st.integers(min_value=0, max_value=(1 << 128) - 1), st.integers(min_value=1, max_value=128))
    @settings(max_examples=200, deadline=None)
    def test_matches_python_bit_count(self, value, width):
        masked = value & ((1 << width) - 1)
        assert popcount_tree(value, width) == bin(masked).count("1")

    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=96))
    @settings(max_examples=100, deadline=None)
    def test_hamming_weight_equals_sum_of_bits(self, bits):
        assert BitVector.from_bits(bits).hamming_weight() == sum(bits)


class TestMaskProperties:
    @given(
        st.lists(st.sampled_from([0, 1]), min_size=1, max_size=64),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_count_in_mask_equals_slice_sum(self, bits, data):
        width = len(bits)
        start = data.draw(st.integers(min_value=0, max_value=width - 1))
        end = data.draw(st.integers(min_value=start + 1, max_value=width))
        signature = BitVector.from_bits(bits)
        mask = BitVector.from_positions(width, range(start, end))
        assert signature.count_in_mask(mask) == sum(bits[start:end])

    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_and_or_de_morgan_style_counts(self, bits):
        width = len(bits)
        a = BitVector.from_bits(bits)
        b = BitVector.from_bits(list(reversed(bits)))
        union = (a | b).hamming_weight()
        intersection = (a & b).hamming_weight()
        assert union + intersection == a.hamming_weight() + b.hamming_weight()
