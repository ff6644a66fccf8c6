"""Tests for temporal linear interpolation."""

import pytest

from repro.geometry.interpolation import interpolate_position
from repro.geometry.point import Point


SAMPLES = [
    (0.0, Point(0.0, 0.0)),
    (10.0, Point(10.0, 0.0)),
    (20.0, Point(10.0, 10.0)),
]


class TestInterpolatePosition:
    def test_exact_sample_returned(self):
        assert interpolate_position(SAMPLES, 10.0) == Point(10.0, 0.0)

    def test_midpoint_interpolation(self):
        assert interpolate_position(SAMPLES, 5.0) == Point(5.0, 0.0)
        assert interpolate_position(SAMPLES, 15.0) == Point(10.0, 5.0)

    def test_fractional_interpolation(self):
        p = interpolate_position(SAMPLES, 2.5)
        assert p.x == pytest.approx(2.5)
        assert p.y == pytest.approx(0.0)

    def test_outside_lifespan_returns_none(self):
        assert interpolate_position(SAMPLES, -1.0) is None
        assert interpolate_position(SAMPLES, 21.0) is None

    def test_empty_samples_return_none(self):
        assert interpolate_position([], 0.0) is None

    def test_max_gap_blocks_interpolation(self):
        sparse = [(0.0, Point(0.0, 0.0)), (100.0, Point(100.0, 0.0))]
        assert interpolate_position(sparse, 50.0, max_gap=10.0) is None
        assert interpolate_position(sparse, 50.0, max_gap=200.0) == Point(50.0, 0.0)

    def test_max_gap_does_not_affect_exact_samples(self):
        sparse = [(0.0, Point(0.0, 0.0)), (100.0, Point(100.0, 0.0))]
        assert interpolate_position(sparse, 100.0, max_gap=10.0) == Point(100.0, 0.0)

    def test_boundaries_are_inclusive(self):
        assert interpolate_position(SAMPLES, 0.0) == Point(0.0, 0.0)
        assert interpolate_position(SAMPLES, 20.0) == Point(10.0, 10.0)

