"""Tests for the from-scratch R-tree."""

import pytest

from repro.geometry.mbr import MBR
from repro.index.rtree import RTree, RTreeEntry


def random_boxes(rng, n, extent=1000.0, size=20.0):
    boxes = []
    for i in range(n):
        x, y = rng.uniform(0, extent, 2)
        w, h = rng.uniform(1, size, 2)
        boxes.append(MBR(x, y, x + w, y + h))
    return boxes


class TestInsertionAndStructure:
    def test_empty_tree(self):
        tree = RTree()
        assert len(tree) == 0
        assert tree.window_query(MBR(0, 0, 10, 10)) == []

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            RTree(max_entries=1)

    def test_size_tracks_insertions(self, rng):
        tree = RTree(max_entries=4)
        for i, box in enumerate(random_boxes(rng, 50)):
            tree.insert(box, i)
        assert len(tree) == 50
        assert len(tree.all_entries()) == 50

    def test_tree_grows_in_height(self, rng):
        tree = RTree(max_entries=4)
        for i, box in enumerate(random_boxes(rng, 200)):
            tree.insert(box, i)
        assert tree.height >= 2

    def test_payloads_preserved(self, rng):
        tree = RTree(max_entries=4)
        boxes = random_boxes(rng, 30)
        for i, box in enumerate(boxes):
            tree.insert(box, ("payload", i))
        payloads = {entry.payload for entry in tree.all_entries()}
        assert payloads == {("payload", i) for i in range(30)}


class TestWindowQuery:
    def test_matches_brute_force(self, rng):
        boxes = random_boxes(rng, 120)
        tree = RTree.build((RTreeEntry(mbr=b, payload=i) for i, b in enumerate(boxes)), max_entries=5)
        for _ in range(20):
            x, y = rng.uniform(0, 1000, 2)
            window = MBR(x, y, x + 150, y + 150)
            expected = {i for i, b in enumerate(boxes) if b.intersects(window)}
            found = {entry.payload for entry in tree.window_query(window)}
            assert found == expected

    def test_disjoint_window_returns_nothing(self, rng):
        boxes = random_boxes(rng, 40)
        tree = RTree.build((RTreeEntry(mbr=b, payload=i) for i, b in enumerate(boxes)))
        assert tree.window_query(MBR(5000, 5000, 5100, 5100)) == []

    def test_window_covering_everything(self, rng):
        boxes = random_boxes(rng, 40)
        tree = RTree.build((RTreeEntry(mbr=b, payload=i) for i, b in enumerate(boxes)))
        assert len(tree.window_query(MBR(-10, -10, 2000, 2000))) == 40


class TestMultiWindowQuery:
    def test_requires_intersection_with_all_windows(self, rng):
        boxes = [MBR(0, 0, 10, 10), MBR(100, 0, 110, 10), MBR(50, 0, 60, 10)]
        tree = RTree.build((RTreeEntry(mbr=b, payload=i) for i, b in enumerate(boxes)))
        windows = [MBR(-5, -5, 70, 15), MBR(40, -5, 200, 15)]
        found = {entry.payload for entry in tree.multi_window_query(windows)}
        # Only the middle box intersects both windows.
        assert found == {2}

    def test_empty_window_list(self, rng):
        tree = RTree.build(
            (RTreeEntry(mbr=b, payload=i) for i, b in enumerate(random_boxes(rng, 10)))
        )
        assert tree.multi_window_query([]) == []

    def test_matches_brute_force(self, rng):
        boxes = random_boxes(rng, 100)
        tree = RTree.build((RTreeEntry(mbr=b, payload=i) for i, b in enumerate(boxes)), max_entries=6)
        for _ in range(10):
            x, y = rng.uniform(0, 900, 2)
            windows = [MBR(x, y, x + 200, y + 200), MBR(x + 50, y - 50, x + 260, y + 160)]
            expected = {
                i for i, b in enumerate(boxes) if all(b.intersects(w) for w in windows)
            }
            found = {entry.payload for entry in tree.multi_window_query(windows)}
            assert found == expected
