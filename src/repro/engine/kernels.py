"""Vectorized NumPy kernels for the mining hot paths.

These kernels replace the per-:class:`~repro.geometry.point.Point` Python
loops of the snapshot-clustering and crowd-discovery phases with columnar
array operations:

* :func:`bucket_cells` / :func:`pack_cells` — grid-cell bucketing for the
  GRID index (Section III-A-2) and the DBSCAN neighbour grid.
* :func:`directed_within` — chunked δ-ball membership test for one pair of
  point sets (the thresholded directed Hausdorff decision).
* :func:`hausdorff_within_many` — the same decision against *many* candidate
  clusters at once, stored as one contiguous coordinate block with CSR
  offsets (segment-reduced with ``np.ufunc.reduceat``).
* :func:`neighbor_pairs` — all point pairs within ``eps``, found via grid
  bucketing plus ``searchsorted`` range lookups; the neighbourhood kernel of
  the vectorized DBSCAN backend.
* :func:`neighbor_pairs_batched` — the same pair kernel over *many*
  independent point groups (e.g. one group per snapshot) in a single sweep:
  grid-cell keys are offset per group so pairs can never cross groups.
* :func:`gather_ranges` — flat gather of many ``[start, end)`` ranges out of
  a CSR ``indices`` array without a Python-level loop.

The module deliberately imports nothing from the rest of the library so it
can be used from any layer (geometry, clustering, index, core) without
import cycles.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "bucket_cells",
    "pack_cells",
    "gather_ranges",
    "sorted_unique_pairs",
    "pair_chunks",
    "sq_dist_matrix",
    "directed_within",
    "hausdorff_within_many",
    "hausdorff_within_pairs",
    "neighbor_pairs",
    "neighbor_pairs_batched",
    "mbrs_of_segments",
]

#: Default number of query rows processed per distance-matrix block.  Bounds
#: peak memory at roughly ``chunk * n_candidate_points * 8`` bytes.
DEFAULT_CHUNK_SIZE = 2048

#: Offset applied when packing signed cell coordinates into one int64 key.
_CELL_OFFSET = np.int64(1) << np.int64(31)


def bucket_cells(coords: np.ndarray, cell_size: float) -> np.ndarray:
    """Grid-cell bucketing: map ``(n, 2)`` coordinates to integer cells.

    Equivalent to calling ``floor(x / cell_size), floor(y / cell_size)`` per
    point, but in one vectorized pass.
    """
    if cell_size <= 0:
        raise ValueError("cell_size must be positive")
    arr = np.asarray(coords, dtype=float).reshape(-1, 2)
    return np.floor(arr / cell_size).astype(np.int64)


def pack_cells(cells: np.ndarray) -> np.ndarray:
    """Pack ``(n, 2)`` integer cells into sortable/searchable int64 keys.

    Injective for cell coordinates within ``[-2**31, 2**31)``, which covers
    any realistic planar extent.
    """
    cells = np.asarray(cells, dtype=np.int64)
    return ((cells[:, 0] + _CELL_OFFSET) << np.int64(32)) | (cells[:, 1] + _CELL_OFFSET)


def gather_ranges(values: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``values[starts[i]:ends[i]]`` for every ``i``, vectorized."""
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    lengths = ends - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=values.dtype)
    out_starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    positions = np.arange(total, dtype=np.int64) + np.repeat(starts - out_starts, lengths)
    return values[positions]


def sorted_unique_pairs(
    primary: np.ndarray, secondary: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Lexsort ``(primary, secondary)`` pairs and drop duplicates.

    When both columns are non-negative and their ranges let one int64
    composite key encode a pair, the sort-and-dedup runs as a single
    ``np.unique`` over that key (one fast scalar sort); otherwise it falls
    back to a lexsort plus a consecutive-difference dedup.  Shared by the
    grid's cell→cluster inverted index, the cluster→cell CSR, and the
    proximity graph's candidate-pair dedup.
    """
    if len(primary):
        p_min = int(primary.min())
        s_min = int(secondary.min())
        if p_min >= 0 and s_min >= 0:
            span = np.int64(int(secondary.max()) + 1)
            if float(int(primary.max()) + 1) * float(span) < float(
                np.iinfo(np.int64).max
            ):
                keys = primary.astype(np.int64) * span + secondary
                keys.sort()
                keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
                return keys // span, keys % span
    order = np.lexsort((secondary, primary))
    first = primary[order]
    second = secondary[order]
    keep = np.concatenate(
        ([True], (first[1:] != first[:-1]) | (second[1:] != second[:-1]))
    )
    return first[keep], second[keep]


def pair_chunks(pair_work: np.ndarray, budget: int):
    """Split pairs into chunks of bounded total rows-times-columns work.

    ``pair_work[i]`` is the distance-matrix size of pair ``i`` (query rows
    times candidate columns); successive pairs are grouped until their summed
    work crosses ``budget``, yielding ``(begin, end)`` index ranges.  A
    single oversized pair still forms its own chunk.
    """
    cumulative = np.cumsum(pair_work)
    total = len(pair_work)
    begin = 0
    while begin < total:
        base = int(cumulative[begin - 1]) if begin else 0
        end = int(np.searchsorted(cumulative, base + budget, side="right"))
        if end <= begin:
            end = begin + 1
        yield begin, end
        begin = end


def sq_dist_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance matrix between ``(m, 2)`` and ``(n, 2)``."""
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def directed_within(
    src: np.ndarray,
    dst: np.ndarray,
    limit_sq: float,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> bool:
    """Decide whether every point of ``src`` has a ``dst`` neighbour within limit.

    The thresholded directed-Hausdorff decision ``h(src, dst) <= sqrt(limit_sq)``,
    evaluated block-by-block so a failing block abandons the rest early.
    """
    for start in range(0, len(src), chunk_size):
        block = src[start : start + chunk_size]
        d2 = sq_dist_matrix(block, dst)
        if not bool(np.all(d2.min(axis=1) <= limit_sq)):
            return False
    return True


def hausdorff_within_many(
    query: np.ndarray,
    coords: np.ndarray,
    offsets: np.ndarray,
    threshold: float,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> np.ndarray:
    """Thresholded Hausdorff decision against many clusters at once.

    ``coords`` holds the member coordinates of ``k`` clusters back to back;
    ``offsets`` is the ``(k + 1,)`` CSR boundary array (all segments must be
    non-empty).  Returns a ``(k,)`` boolean array whose ``i``-th entry is
    ``d_H(query, cluster_i) <= threshold``.
    """
    query = np.asarray(query, dtype=float).reshape(-1, 2)
    coords = np.asarray(coords, dtype=float).reshape(-1, 2)
    offsets = np.asarray(offsets, dtype=np.int64)
    k = len(offsets) - 1
    if k == 0:
        return np.zeros(0, dtype=bool)
    n = len(coords)
    if n == 0 or len(query) == 0:
        raise ValueError("Hausdorff distance of an empty point set is undefined")
    limit_sq = float(threshold) * float(threshold)
    starts = offsets[:-1]

    # forward: every query point needs a neighbour inside the segment;
    # backward: every segment point needs a neighbour among the query points.
    forward_ok = np.ones(k, dtype=bool)
    col_any = np.zeros(n, dtype=bool)
    for begin in range(0, len(query), chunk_size):
        block = query[begin : begin + chunk_size]
        within = sq_dist_matrix(block, coords) <= limit_sq
        col_any |= within.any(axis=0)
        seg_any = np.maximum.reduceat(within, starts, axis=1)
        forward_ok &= seg_any.all(axis=0)
    backward_ok = np.minimum.reduceat(col_any, starts)
    return forward_ok & backward_ok


def hausdorff_within_pairs(
    query_coords: np.ndarray,
    query_offsets: np.ndarray,
    cand_coords: np.ndarray,
    cand_offsets: np.ndarray,
    pair_query: np.ndarray,
    pair_cand: np.ndarray,
    limit_sq: float,
) -> np.ndarray:
    """Thresholded Hausdorff decision for many (query, candidate) pairs.

    Both point collections are CSR blocks (``query_offsets`` /
    ``cand_offsets``); each pair ``(pair_query[i], pair_cand[i])`` names one
    query segment and one candidate segment.  Returns a ``(P,)`` boolean
    array of ``d_H(query_i, cand_i) <= sqrt(limit_sq)`` decisions.

    Unlike a dense query-block × candidate-block matrix, the flattened
    layout only materialises the rows × columns of the requested pairs, so
    the arithmetic matches what the scalar refinement would do — just in a
    handful of array passes.
    """
    pair_query = np.asarray(pair_query, dtype=np.int64)
    pair_cand = np.asarray(pair_cand, dtype=np.int64)
    pairs = len(pair_query)
    if pairs == 0:
        return np.zeros(0, dtype=bool)

    rows_per_pair = query_offsets[pair_query + 1] - query_offsets[pair_query]
    cols_per_pair = cand_offsets[pair_cand + 1] - cand_offsets[pair_cand]
    if np.any(rows_per_pair == 0) or np.any(cols_per_pair == 0):
        raise ValueError("Hausdorff distance of an empty point set is undefined")

    # One "row block" per (pair, query row); each spans that pair's columns.
    query_rows = np.arange(len(query_coords), dtype=np.int64)
    cand_rows = np.arange(len(cand_coords), dtype=np.int64)
    block_pair = np.repeat(np.arange(pairs, dtype=np.int64), rows_per_pair)
    block_query_row = gather_ranges(
        query_rows, query_offsets[pair_query], query_offsets[pair_query + 1]
    )
    block_cols = cols_per_pair[block_pair]
    block_starts = np.zeros(len(block_pair), dtype=np.int64)
    np.cumsum(block_cols[:-1], out=block_starts[1:])
    total = int(block_cols.sum()) if len(block_cols) else 0

    flat_query_row = np.repeat(block_query_row, block_cols)
    flat_cand_row = gather_ranges(
        cand_rows,
        cand_offsets[pair_cand[block_pair]],
        cand_offsets[pair_cand[block_pair] + 1],
    )
    diff = query_coords[flat_query_row] - cand_coords[flat_cand_row]
    within = np.einsum("ij,ij->i", diff, diff) <= limit_sq

    # forward: every query row of the pair has a neighbour in the candidate.
    row_any = np.maximum.reduceat(within, block_starts)
    pair_row_starts = np.zeros(pairs, dtype=np.int64)
    np.cumsum(rows_per_pair[:-1], out=pair_row_starts[1:])
    forward = np.minimum.reduceat(row_any, pair_row_starts)

    # backward: every candidate column of the pair has a neighbouring query
    # row; counted per (pair, column) with a bincount over the hits.
    pair_col_starts = np.zeros(pairs, dtype=np.int64)
    np.cumsum(cols_per_pair[:-1], out=pair_col_starts[1:])
    local_col = np.arange(total, dtype=np.int64) - np.repeat(block_starts, block_cols)
    flat_pair_col = np.repeat(pair_col_starts[block_pair], block_cols) + local_col
    hits = np.bincount(flat_pair_col[within], minlength=int(cols_per_pair.sum()))
    backward = np.minimum.reduceat(hits > 0, pair_col_starts)

    return forward & backward


def neighbor_pairs(
    coords: np.ndarray, eps: float, include_self: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """All ordered pairs ``(i, j)`` with ``d(coords[i], coords[j]) <= eps``.

    Points are bucketed into cells of side ``eps``; candidates for a point are
    the points of its 3x3 cell block, located with two ``searchsorted`` calls
    per block offset.  Self-pairs are included by default, matching the
    convention that a DBSCAN epsilon-neighbourhood contains the point itself.
    """
    arr = np.asarray(coords, dtype=float).reshape(-1, 2)
    n = len(arr)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    cells = bucket_cells(arr, eps)
    keys = pack_cells(cells)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    eps_sq = float(eps) * float(eps)
    point_ids = np.arange(n, dtype=np.int64)

    src_parts = []
    dst_parts = []
    offset = np.empty_like(cells)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            offset[:, 0] = cells[:, 0] + dx
            offset[:, 1] = cells[:, 1] + dy
            shifted = pack_cells(offset)
            left = np.searchsorted(sorted_keys, shifted, side="left")
            right = np.searchsorted(sorted_keys, shifted, side="right")
            lengths = right - left
            if not lengths.any():
                continue
            src = np.repeat(point_ids, lengths)
            dst = order[gather_ranges(np.arange(n, dtype=np.int64), left, right)]
            diff = arr[src] - arr[dst]
            within = np.einsum("ij,ij->i", diff, diff) <= eps_sq
            src_parts.append(src[within])
            dst_parts.append(dst[within])

    if not src_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    if not include_self:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    return src, dst


def neighbor_pairs_batched(
    coords: np.ndarray,
    groups: np.ndarray,
    eps: float,
    include_self: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """All within-``eps`` ordered pairs ``(i, j)`` that share a group.

    Generalises :func:`neighbor_pairs` to many independent point groups —
    one group per snapshot in the batched phase-1 path — answered in a
    *single* bucketed sweep.  Every point's grid cell is combined with its
    group id into one composite integer key, so two points in different
    groups can never land in the same (or an adjacent) bucket: pairs cannot
    cross groups by construction, and one global sort + nine ``searchsorted``
    passes replace one pair-kernel invocation per group.
    """
    arr = np.asarray(coords, dtype=float).reshape(-1, 2)
    n = len(arr)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    groups = np.asarray(groups, dtype=np.int64)
    if len(groups) != n:
        raise ValueError("groups must assign one group id to every coordinate row")

    cells = bucket_cells(arr, eps)
    # Normalising to the global minimum cell keeps the composite keys small;
    # a uniform shift never changes which points share or neighbour a cell.
    cells -= cells.min(axis=0)
    # +3 leaves room for the +1 normalisation offset and the ±1 block shifts.
    nx = np.int64(int(cells[:, 0].max()) + 3)
    ny = np.int64(int(cells[:, 1].max()) + 3)
    n_groups = np.int64(int(groups.max()) + 1)
    if float(n_groups) * float(nx) * float(ny) >= float(np.iinfo(np.int64).max):
        # Composite keys would overflow int64 (astronomically large extents
        # only); fall back to one plain pair kernel per group.
        return _neighbor_pairs_grouped_fallback(arr, groups, eps, include_self)

    keys = (groups * nx + cells[:, 0] + 1) * ny + (cells[:, 1] + 1)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    # Collapse to unique occupied cells: the per-offset bucket lookups then
    # run over ~#cells keys instead of ~#points, which is the dominant cost
    # for dense snapshots (many points per cell).
    boundary = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    cell_starts = np.flatnonzero(boundary)
    unique_keys = sorted_keys[cell_starts]
    cell_bounds = np.append(cell_starts, n)
    cell_of_point = np.empty(n, dtype=np.int64)
    cell_of_point[order] = np.cumsum(boundary) - 1
    eps_sq = float(eps) * float(eps)
    point_ids = np.arange(n, dtype=np.int64)

    src_parts = []
    dst_parts = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            shifted = unique_keys + np.int64(dx) * ny + np.int64(dy)
            pos = np.searchsorted(unique_keys, shifted, side="left")
            clipped = np.minimum(pos, len(unique_keys) - 1)
            occupied = unique_keys[clipped] == shifted
            has_neighbours = occupied[cell_of_point]
            if not has_neighbours.any():
                continue
            src_cells = cell_of_point[has_neighbours]
            target = clipped[src_cells]
            lengths = cell_bounds[target + 1] - cell_bounds[target]
            src = np.repeat(point_ids[has_neighbours], lengths)
            dst = order[
                gather_ranges(point_ids, cell_bounds[target], cell_bounds[target + 1])
            ]
            diff = arr[src] - arr[dst]
            within = np.einsum("ij,ij->i", diff, diff) <= eps_sq
            src_parts.append(src[within])
            dst_parts.append(dst[within])
            del src, dst, diff, within

    if not src_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # Joining the pair lists is phase 1's memory peak: release the cell
    # index first, and each list's parts before the next join.
    del keys, order, sorted_keys, cell_of_point, point_ids, cells
    src = np.concatenate(src_parts)
    del src_parts
    dst = np.concatenate(dst_parts)
    del dst_parts
    if not include_self:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    return src, dst


def _neighbor_pairs_grouped_fallback(
    arr: np.ndarray, groups: np.ndarray, eps: float, include_self: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-group :func:`neighbor_pairs`, remapped to global row indices."""
    src_parts = []
    dst_parts = []
    for group in np.unique(groups):
        rows = np.flatnonzero(groups == group)
        src, dst = neighbor_pairs(arr[rows], eps, include_self=include_self)
        src_parts.append(rows[src])
        dst_parts.append(rows[dst])
    if not src_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(src_parts), np.concatenate(dst_parts)


def mbrs_of_segments(coords: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment bounding boxes ``(min_x, min_y, max_x, max_y)``.

    ``coords``/``offsets`` follow the same CSR layout as
    :func:`hausdorff_within_many`; all segments must be non-empty.
    """
    coords = np.asarray(coords, dtype=float).reshape(-1, 2)
    offsets = np.asarray(offsets, dtype=np.int64)
    k = len(offsets) - 1
    if k == 0:
        return np.zeros((0, 4), dtype=float)
    starts = offsets[:-1]
    mins = np.minimum.reduceat(coords, starts, axis=0)
    maxs = np.maximum.reduceat(coords, starts, axis=0)
    return np.concatenate([mins, maxs], axis=1)
