"""Property-based tests for the geometric primitives."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.hausdorff import hausdorff, hausdorff_naive, hausdorff_within
from repro.geometry.mbr import mbr_of_points, min_distance_rects, side_distance
from repro.geometry.point import Point

coordinate = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)
point_strategy = st.builds(Point, coordinate, coordinate)
point_set = st.lists(point_strategy, min_size=1, max_size=12)


class TestHausdorffProperties:
    @given(point_set, point_set)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a, b):
        assert hausdorff(a, b) == hausdorff(b, a)

    @given(point_set)
    @settings(max_examples=40, deadline=None)
    def test_identity(self, a):
        assert hausdorff(a, a) == 0.0

    @given(point_set, point_set)
    @settings(max_examples=40, deadline=None)
    def test_non_negative(self, a, b):
        assert hausdorff(a, b) >= 0.0

    @given(point_set, point_set, point_set)
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        # The Hausdorff distance is a metric on compact sets.
        assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-6

    @given(point_set, point_set)
    @settings(max_examples=40, deadline=None)
    def test_naive_matches_vectorised(self, a, b):
        assert abs(hausdorff_naive(a, b) - hausdorff(a, b)) < 1e-6

    @given(point_set, point_set, st.floats(min_value=0.0, max_value=2e4))
    @settings(max_examples=60, deadline=None)
    def test_within_consistent_with_exact(self, a, b, threshold):
        exact = hausdorff(a, b)
        if abs(exact - threshold) > 1e-6:
            assert hausdorff_within(a, b, threshold) == (exact <= threshold)


class TestMBRBoundProperties:
    @given(point_set, point_set)
    @settings(max_examples=60, deadline=None)
    def test_lemma2_and_lemma3_lower_bounds(self, a, b):
        box_a = mbr_of_points(a)
        box_b = mbr_of_points(b)
        exact = hausdorff(a, b)
        d_min = min_distance_rects(box_a, box_b)
        d_side = side_distance(box_a, box_b)
        assert d_min <= exact + 1e-6
        assert d_side <= exact + 1e-6
        # d_side is at least as tight as d_min.
        assert d_side >= d_min - 1e-9

