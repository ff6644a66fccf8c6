"""Tests for the Hausdorff distance implementations."""

import numpy as np
import pytest

from repro.geometry.hausdorff import hausdorff, hausdorff_naive, hausdorff_within
from repro.geometry.point import Point


SQUARE = [Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0), Point(1.0, 1.0)]
SHIFTED = [Point(3.0, 0.0), Point(4.0, 0.0), Point(3.0, 1.0), Point(4.0, 1.0)]


class TestExactDistance:
    def test_identical_sets_have_zero_distance(self):
        assert hausdorff(SQUARE, SQUARE) == pytest.approx(0.0)

    def test_shifted_square(self):
        assert hausdorff(SQUARE, SHIFTED) == pytest.approx(3.0)

    def test_symmetry(self):
        assert hausdorff(SQUARE, SHIFTED) == pytest.approx(hausdorff(SHIFTED, SQUARE))

    def test_accepts_numpy_arrays(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 2.0], [1.0, 2.0]])
        assert hausdorff(a, b) == pytest.approx(2.0)

    def test_accepts_tuples(self):
        assert hausdorff([(0.0, 0.0)], [(3.0, 4.0)]) == pytest.approx(5.0)

    def test_empty_set_raises(self):
        with pytest.raises(ValueError):
            hausdorff([], SQUARE)

    def test_naive_matches_vectorised(self):
        rng = np.random.default_rng(0)
        a = [Point(float(x), float(y)) for x, y in rng.uniform(0, 100, (15, 2))]
        b = [Point(float(x), float(y)) for x, y in rng.uniform(0, 100, (12, 2))]
        assert hausdorff_naive(a, b) == pytest.approx(hausdorff(a, b))


class TestThresholdedCheck:
    def test_within_true_at_exact_threshold(self):
        assert hausdorff_within(SQUARE, SHIFTED, 3.0)

    def test_within_false_below_distance(self):
        assert not hausdorff_within(SQUARE, SHIFTED, 2.9)

    def test_within_true_above_distance(self):
        assert hausdorff_within(SQUARE, SHIFTED, 3.1)

    def test_negative_threshold_raises(self):
        with pytest.raises(ValueError):
            hausdorff_within(SQUARE, SHIFTED, -1.0)

    def test_within_agrees_with_exact_on_random_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.uniform(0, 50, (rng.integers(1, 12), 2))
            b = rng.uniform(0, 50, (rng.integers(1, 12), 2))
            exact = hausdorff(a, b)
            # Stay clear of the exact boundary where floating-point rounding
            # of the squared-distance comparison could go either way.
            for threshold in (exact * 0.5, exact * 0.99, exact * 1.01, exact * 1.5):
                assert hausdorff_within(a, b, threshold) == (exact <= threshold)
