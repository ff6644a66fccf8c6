"""Tests for repro.geometry.point."""

import pytest

from repro.geometry.point import Point, centroid, points_to_array


class TestPoint:
    def test_distance_to_is_euclidean(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_distance_is_symmetric(self):
        a, b = Point(1.5, -2.0), Point(-3.0, 7.25)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_squared_distance_matches_distance(self):
        a, b = Point(2.0, 3.0), Point(-1.0, 1.0)
        assert a.squared_distance_to(b) == pytest.approx(a.distance_to(b) ** 2)

    def test_translate_shifts_coordinates(self):
        assert Point(1.0, 2.0).translate(3.0, -1.0) == Point(4.0, 1.0)

    def test_points_are_hashable_and_equal_by_value(self):
        assert Point(1.0, 2.0) == Point(1.0, 2.0)
        assert len({Point(1.0, 2.0), Point(1.0, 2.0)}) == 1

    def test_as_tuple_and_iteration(self):
        p = Point(3.0, 4.0)
        assert p.as_tuple() == (3.0, 4.0)
        assert tuple(p) == (3.0, 4.0)

    def test_points_are_orderable(self):
        assert Point(1.0, 5.0) < Point(2.0, 0.0)


class TestFreeFunctions:
    def test_points_to_array_round_trip(self):
        pts = [Point(0.0, 1.0), Point(2.0, 3.0)]
        arr = points_to_array(pts)
        assert arr.shape == (2, 2)
        assert [Point(float(x), float(y)) for x, y in arr] == pts

    def test_points_to_array_empty(self):
        assert points_to_array([]).shape == (0, 2)

    def test_centroid(self):
        pts = [Point(0.0, 0.0), Point(2.0, 0.0), Point(1.0, 3.0)]
        assert centroid(pts) == Point(1.0, 1.0)

    def test_centroid_empty_raises(self):
        with pytest.raises(ValueError):
            centroid([])
