"""Seeded numpy input generator for the benchmark workloads.

Everything here is a pure function of its spec and seed: the same seed gives
byte-identical inputs.  The generator depends on numpy only -- it imports no
``repro`` module, so no change to the program (``repro.datagen`` and
``repro.loadtest`` included) can change what a workload feeds it.

Inputs produced:

* a hotspot fleet: background objects moving in straight lines that bounce
  off the region's walls, plus planted gatherings -- groups of members that
  approach a hotspot centre, dwell within a few tens of metres of it, then
  leave.  Dense fleets sample every object at every snapshot; sparse fleets
  sample background objects every ``sample_every`` snapshots and members
  only at their four waypoints, so phase 1 interpolates most positions;
* a CSV trace with corrupt rows injected under known reason codes and
  counts (the quality firewall's eight rules);
* a stream feed with arrival jitter, late fixes and garbage fixes;
* the serving query mix, as abstract requests resolved against the store
  once it has been mined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: Fields of a fix, in CSV column order.
CSV_HEADER = "object_id,t,x,y"

#: Quality-firewall reason codes, in the firewall's own order.
REASONS = (
    "schema",
    "parse",
    "non_finite",
    "out_of_bounds",
    "duplicate_timestamp",
    "non_monotone",
    "teleport",
    "too_few_samples",
)

#: Margin around the region that the firewall's bounds box still accepts.
BOUNDS_MARGIN = 50_000.0

#: Teleport gate (distance units per snapshot).  Clean motion stays far
#: below it: background speed is at most 120 and members approach at most
#: 2000 / MIN_LEAD per snapshot.
MAX_SPEED = 1000.0

#: Snapshots a member takes to reach its hotspot, and to leave it.
MIN_LEAD = 12

#: Minimum spacing between hotspot centres, so two events never merge.
HOTSPOT_SPACING = 4000.0


@dataclass(frozen=True)
class FleetSpec:
    """Shape of a generated fleet."""

    objects: int
    snapshots: int
    side: float
    events: int
    members: int
    dwell: int
    sample_every: int = 1


@dataclass(frozen=True)
class PlantedGathering:
    """A gathering the generator planted: who, where and when."""

    cx: float
    cy: float
    t_start: int
    t_end: int
    members: Tuple[int, ...]


@dataclass
class Fleet:
    """Clean fixes, sorted by (object, t), plus the planted gatherings."""

    object_id: np.ndarray
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    planted: List[PlantedGathering]
    spec: FleetSpec

    def __len__(self) -> int:
        return int(self.object_id.size)


def _reflect(position: np.ndarray, side: float) -> np.ndarray:
    """Fold unbounded straight-line motion back into ``[0, side]``."""
    folded = np.mod(position, 2.0 * side)
    return np.where(folded > side, 2.0 * side - folded, folded)


def _schedule(spec: FleetSpec, rng: np.random.Generator) -> List[Tuple[float, float, int]]:
    """Give every planted event its own hotspot centre and a start snapshot.

    Centres sit on a grid ``HOTSPOT_SPACING`` apart and each hosts at most
    one event: two groups converging on one centre at different times would
    meet on the way in or out and split or merge each other's crowds.
    """
    per_axis = int(spec.side // HOTSPOT_SPACING)
    cells = [
        ((i + 0.5) * HOTSPOT_SPACING, (j + 0.5) * HOTSPOT_SPACING)
        for i in range(per_axis)
        for j in range(per_axis)
    ]
    if spec.events > len(cells):
        raise ValueError(f"{spec.events} events do not fit in {len(cells)} hotspot cells")
    latest = spec.snapshots - spec.dwell - MIN_LEAD
    if latest < MIN_LEAD:
        raise ValueError("too few snapshots to arrive, dwell and leave")
    # Start times are evenly spread and only their order is drawn, so every
    # seed has the same number of events in each part of the time axis.
    chosen = rng.choice(len(cells), size=spec.events, replace=False)
    starts = rng.permutation(np.round(np.linspace(MIN_LEAD, latest, spec.events)).astype(int))
    return [(*cells[int(c)], int(t0)) for c, t0 in zip(sorted(chosen), starts)]


def make_fleet(spec: FleetSpec, seed: int) -> Fleet:
    """Generate a hotspot fleet with planted gatherings."""
    rng = np.random.default_rng(seed)
    members_total = spec.events * spec.members
    if members_total >= spec.objects:
        raise ValueError("planted members must leave room for background objects")
    T = spec.snapshots
    last = T - 1
    ids, ts, xs, ys = [], [], [], []
    planted: List[PlantedGathering] = []

    # Planted members: object ids 0 .. members_total-1, grouped by event.
    for event, (cx, cy, t0) in enumerate(_schedule(spec, rng)):
        t1 = t0 + spec.dwell - 1
        member_ids = np.arange(event * spec.members, (event + 1) * spec.members)
        planted.append(PlantedGathering(cx, cy, t0, t1, tuple(int(m) for m in member_ids)))
        m = spec.members
        angle_in, angle_out = rng.uniform(0, 2 * np.pi, (2, m))
        radius_in, radius_out = rng.uniform(1000.0, 2000.0, (2, m))
        home = rng.uniform(-30.0, 30.0, (2, m, 2))
        # Members appear MIN_LEAD snapshots before the dwell and leave as
        # long after it: a slow approach from the start of the trace would
        # chain the converging group into clusters long before it arrives.
        way_t = np.array([t0 - MIN_LEAD, t0, t1, t1 + MIN_LEAD], dtype=float)
        way_x = np.stack(
            [
                cx + radius_in * np.cos(angle_in),
                cx + home[0, :, 0],
                cx + home[1, :, 0],
                cx + radius_out * np.cos(angle_out),
            ],
            axis=1,
        )
        way_y = np.stack(
            [
                cy + radius_in * np.sin(angle_in),
                cy + home[0, :, 1],
                cy + home[1, :, 1],
                cy + radius_out * np.sin(angle_out),
            ],
            axis=1,
        )
        if spec.sample_every == 1:
            grid = np.arange(way_t[0], way_t[-1] + 1)
            for k in range(m):
                noise = np.clip(rng.normal(0, 5.0, (2, grid.size)), -12, 12)
                px = np.interp(grid, way_t, way_x[k]) + noise[0]
                py = np.interp(grid, way_t, way_y[k]) + noise[1]
                ids.append(np.full(grid.size, member_ids[k]))
                ts.append(grid)
                xs.append(px)
                ys.append(py)
        else:
            ids.append(np.repeat(member_ids, 4))
            ts.append(np.tile(way_t, m))
            xs.append(way_x.ravel())
            ys.append(way_y.ravel())

    # Background objects: straight lines bouncing off the walls.
    background = spec.objects - members_total
    grid = np.unique(np.append(np.arange(0, T, spec.sample_every), last)).astype(float)
    start = rng.uniform(0.0, spec.side, (background, 2))
    heading = rng.uniform(0, 2 * np.pi, background)
    speed = rng.uniform(20.0, 120.0, background)
    vx = (speed * np.cos(heading))[:, None]
    vy = (speed * np.sin(heading))[:, None]
    jitter = 5.0 if spec.sample_every == 1 else 0.0
    bx = _reflect(start[:, :1] + vx * grid, spec.side)
    by = _reflect(start[:, 1:] + vy * grid, spec.side)
    if jitter:
        bx = bx + np.clip(rng.normal(0, jitter, bx.shape), -12, 12)
        by = by + np.clip(rng.normal(0, jitter, by.shape), -12, 12)
    ids.append(np.repeat(np.arange(members_total, spec.objects), grid.size))
    ts.append(np.tile(grid, background))
    xs.append(bx.ravel())
    ys.append(by.ravel())

    object_id = np.concatenate(ids).astype(np.int64)
    t = np.concatenate(ts)
    order = np.lexsort((t, object_id))
    return Fleet(
        object_id=object_id[order],
        t=t[order],
        x=np.round(np.concatenate(xs)[order], 3),
        y=np.round(np.concatenate(ys)[order], 3),
        planted=planted,
        spec=spec,
    )


def firewall_bounds(spec: FleetSpec) -> Tuple[float, float, float, float]:
    """The firewall's accepted box: the region plus a wide margin."""
    return (-BOUNDS_MARGIN, -BOUNDS_MARGIN, spec.side + BOUNDS_MARGIN, spec.side + BOUNDS_MARGIN)


def _row(oid, t, x, y) -> str:
    return f"{int(oid)},{t:g},{x:.3f},{y:.3f}"


def write_trace_csv(
    fleet: Fleet, path: str, corrupt_share: float, seed: int
) -> Dict[str, int]:
    """Write ``fleet`` as a CSV trace with injected corrupt rows.

    Returns the number of rows injected per reason code.  Every injected row
    trips exactly the rule it is counted under: row-local faults (schema,
    parse, non-finite, out-of-bounds) go anywhere; sequence faults
    (duplicate, non-monotone, teleport) directly follow a distinct clean
    row that is neither its object's first nor its last fix; too-few-samples
    rows belong to extra single-fix objects.
    """
    rng = np.random.default_rng(seed + 7919)
    n = len(fleet)
    oid, t, x, y = fleet.object_id, fleet.t, fleet.x, fleet.y
    lines = [_row(oid[i], t[i], x[i], y[i]) for i in range(n)]
    injected = max(len(REASONS), int(round(n * corrupt_share)))
    counts = rng.multinomial(injected - len(REASONS), [1 / len(REASONS)] * len(REASONS)) + 1
    injected_by_reason = {reason: int(c) for reason, c in zip(REASONS, counts)}

    # Rows that have a clean predecessor and successor of the same object.
    interior = np.flatnonzero(
        (np.r_[False, oid[1:] == oid[:-1]]) & (np.r_[oid[:-1] == oid[1:], False])
    )
    sequence_total = sum(injected_by_reason[r] for r in REASONS[4:7])
    anchors = rng.choice(interior, size=sequence_total, replace=False)
    after: Dict[int, List[str]] = {}
    cursor = 0
    for reason in REASONS[4:7]:
        for i in anchors[cursor : cursor + injected_by_reason[reason]]:
            i = int(i)
            if reason == "duplicate_timestamp":
                row = _row(oid[i], t[i], x[i] + 3.0, y[i] + 3.0)
            elif reason == "non_monotone":
                row = _row(oid[i], t[i] - 0.5, x[i], y[i])
            else:
                row = _row(oid[i], t[i] + 0.5, x[i] + 30_000.0, y[i])
            after.setdefault(i, []).append(row)
        cursor += injected_by_reason[reason]

    loose: List[str] = []
    for reason in REASONS[:4]:
        for _ in range(injected_by_reason[reason]):
            i = int(rng.integers(n))
            if reason == "schema":
                loose.append(f"{int(oid[i])},{t[i]:g},{x[i]:.3f}")
            elif reason == "parse":
                loose.append(f"{int(oid[i])},{t[i]:g},x{x[i]:.1f},{y[i]:.3f}")
            elif reason == "non_finite":
                loose.append(f"{int(oid[i])},{t[i]:g},nan,{y[i]:.3f}")
            else:
                loose.append(_row(oid[i], t[i], x[i] + 10 * BOUNDS_MARGIN, y[i]))
    ghost_base = int(oid.max()) + 1
    for k in range(injected_by_reason["too_few_samples"]):
        i = int(rng.integers(n))
        loose.append(_row(ghost_base + k, t[i], x[i], y[i]))
    loose_at = rng.integers(0, n, size=len(loose))
    for position, row in zip(loose_at, loose):
        after.setdefault(int(position), []).append(row)

    with open(path, "w") as handle:
        handle.write(CSV_HEADER + "\n")
        for i, line in enumerate(lines):
            handle.write(line + "\n")
            extra = after.get(i)
            if extra:
                handle.write("\n".join(extra) + "\n")
    return injected_by_reason


def write_clean_csv(fleet: Fleet, path: str) -> None:
    """Write ``fleet`` as a CSV trace with no injected faults."""
    with open(path, "w") as handle:
        handle.write(CSV_HEADER + "\n")
        for i in range(len(fleet)):
            handle.write(_row(fleet.object_id[i], fleet.t[i], fleet.x[i], fleet.y[i]) + "\n")


def make_feed(
    fleet: Fleet,
    seed: int,
    jitter: float,
    late_share: float,
    late_delay: float,
    garbage_share: float,
) -> np.ndarray:
    """A live feed: ``(object_id, t, x, y)`` rows in arrival order.

    Each fix arrives ``U(0, jitter)`` snapshots after its timestamp.  A
    ``late_share`` of background fixes arrives ``late_delay`` snapshots late
    instead (behind the mined frontier, so the service counts them late);
    members' fixes are never delayed, so every planted gathering stays
    minable.  ``garbage_share`` extra fixes carry NaN or out-of-bounds
    coordinates and must be rejected by the service's firewall.
    """
    rng = np.random.default_rng(seed + 104729)
    n = len(fleet)
    arrival = fleet.t + rng.uniform(0.0, jitter, n)
    members = fleet.spec.events * fleet.spec.members
    background = np.flatnonzero(fleet.object_id >= members)
    late = rng.choice(background, size=int(round(n * late_share)), replace=False)
    arrival[late] = fleet.t[late] + late_delay
    rows = np.column_stack([fleet.object_id, fleet.t, fleet.x, fleet.y])

    garbage = rng.choice(n, size=int(round(n * garbage_share)), replace=False)
    bad = rows[garbage].copy()
    half = garbage.size // 2
    bad[:half, 2] = np.nan
    bad[half:, 2] = fleet.spec.side + 10 * BOUNDS_MARGIN
    bad_arrival = fleet.t[garbage] + rng.uniform(0.0, jitter, garbage.size)

    rows = np.vstack([rows, bad])
    arrival = np.concatenate([arrival, bad_arrival])
    return rows[np.argsort(arrival, kind="stable")]


# -- serving query mix -----------------------------------------------------------
#: Request kinds and shares of the repo's own serving load harness
#: (``repro.loadtest.DEFAULT_MIX``), copied here rather than imported.
MIX = (("bbox", 0.30), ("time", 0.25), ("object", 0.20), ("page", 0.15), ("stats", 0.10))
#: Also as in ``repro.loadtest``: a quarter of bbox and time filters add
#: ``min_lifetime=2``, and listings ask for one of these page sizes.
MIN_LIFETIME_SHARE = 0.25
PAGE_LIMITS = (5, 20, 50)

# The repo records no served traffic, and ``repro.loadtest`` never repeats
# a filter, so these are assumptions, not observed figures: half of the
# bbox, time and object requests re-ask one of a few popular filters
# (``popular_keys`` per kind), drawn with Zipf weights of the exponent
# below; a quarter of those re-asks send the ETag they hold.
REPEAT_SHARE = 0.5
REVALIDATE_SHARE = 0.25
ZIPF_EXPONENT = 1.1


def make_query_mix(
    fleet: Fleet, seed: int, count: int, popular_keys: int, page_walks: int
) -> List[Tuple[str, object]]:
    """Abstract serving requests: ``(kind, argument)`` pairs.

    A request first draws a ``MIX`` kind.  A bbox, time or object request
    is then ``repeat`` (one of ``popular_keys`` filters of that kind, Zipf
    weighted, so the result cache matters), ``revalidate`` (a repeat sent
    with its ETag) or ``unique`` (a fresh filter no other request shares, so
    it misses the cache).  Filters are drawn as ``repro.loadtest`` draws
    them: a random sub-range of the region or the time axis, or one member
    of a planted gathering.  ``page`` names one of ``page_walks`` cursor-
    paged listings and the page to fetch; ``stats`` is ``/stats`` or
    ``/healthz``.  Cursors and ETags depend on the mined store, so they are
    resolved after mining.
    """
    rng = np.random.default_rng(seed + 1299709)
    spec = fleet.spec
    members = [member for event in fleet.planted for member in event.members]

    def sub_range(hi: float, quantile: float) -> Tuple[float, float]:
        """A sub-range of ``[0, hi]`` at the given quantile of length.

        Lengths are distributed as those of ``repro.loadtest``'s two sorted
        uniform points, whose CDF is ``1 - (1 - l / hi)^2``.
        """
        length = (1.0 - np.sqrt(1.0 - quantile)) * hi
        a = float(rng.uniform(0.0, hi - length))
        return a, a + length

    def draw_filter(kind: str, index: int, shift=(0.0, 0.0)) -> str:
        # Range lengths follow that same distribution, but their quantiles
        # come from a low-discrepancy sequence instead of independent draws:
        # a popular filter's lengths are fixed by its rank, so every seed
        # repeats equally heavy filters equally often, and the unique ones
        # (a sequence shifted by the seed) cover the distribution evenly in
        # every stretch of the run.  Only the places are plain draws.
        qx = (_van_der_corput(index + 1, 2) + shift[0]) % 1.0
        qy = (_van_der_corput(index + 1, 3) + shift[1]) % 1.0
        route = "gatherings" if rng.random() < 0.5 else "crowds"
        if kind == "bbox":
            (x1, x2), (y1, y2) = sub_range(spec.side, qx), sub_range(spec.side, qy)
            target = f"/{route}?bbox={x1:.3f},{y1:.3f},{x2:.3f},{y2:.3f}"
        elif kind == "time":
            a, b = sub_range(spec.snapshots - 1.0, qx)
            target = f"/{route}?from={a:.3f}&to={b:.3f}"
        else:
            return f"/{route}?object_id={members[int(rng.integers(len(members)))]}"
        if rng.random() < MIN_LIFETIME_SHARE:
            target += "&min_lifetime=2"
        return target

    filter_kinds = ("bbox", "time", "object")
    popular = {
        kind: [draw_filter(kind, rank) for rank in range(popular_keys)] for kind in filter_kinds
    }
    shifts = {kind: tuple(rng.uniform(0.0, 1.0, 2)) for kind in filter_kinds}
    drawn_unique = {kind: 0 for kind in filter_kinds}
    weights = 1.0 / np.arange(1, popular_keys + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()

    kinds = [kind for kind, _ in MIX]
    shares = np.array([share for _, share in MIX])
    drawn = rng.choice(len(kinds), size=count, p=shares / shares.sum())
    pages = [0] * page_walks
    requests: List[Tuple[str, object]] = []
    for index in drawn:
        kind = kinds[int(index)]
        if kind in filter_kinds:
            if rng.random() < REPEAT_SHARE:
                key = popular[kind][int(rng.choice(popular_keys, p=weights))]
                label = "revalidate" if rng.random() < REVALIDATE_SHARE else "repeat"
                requests.append((label, key))
            else:
                requests.append(("unique", draw_filter(kind, drawn_unique[kind], shifts[kind])))
                drawn_unique[kind] += 1
        elif kind == "page":
            walk = int(rng.integers(page_walks))
            requests.append(("page", (walk, pages[walk])))
            pages[walk] += 1
        else:
            requests.append(("stats", "/stats" if rng.random() < 0.5 else "/healthz"))
    return requests


def _van_der_corput(index: int, base: int) -> float:
    """The ``index``-th point of the van der Corput sequence in ``base`` (in (0, 1))."""
    value, scale = 0.0, 1.0
    while index:
        scale /= base
        index, digit = divmod(index, base)
        value += digit * scale
    return value


def make_readback(fleet: Fleet, seed: int, count: int) -> List[Tuple[str, Dict]]:
    """Store read-back queries: ``(kind, keyword filters)`` pairs.

    The read a user makes of a freshly mined store, over crowds and
    gatherings alike: three in four look up one planted member (one pattern
    each), one in four asks for a time window (tens of patterns).  The
    median thus falls among the lookups and the tail among the windows,
    never on the edge between the two.  Window starts are evenly spread,
    like the planted events, so every seed reads back about as many rows.
    """
    rng = np.random.default_rng(seed + 15485863)
    windows = count // 4
    starts = np.round(np.linspace(0, fleet.spec.snapshots - 15, windows))
    queries: List[Tuple[str, Dict]] = []
    for i in range(count):
        kind = "gatherings" if i % 2 else "crowds"
        if i < windows:
            filters = {"time_from": float(starts[i]), "time_to": float(starts[i]) + 15.0}
        else:
            event = fleet.planted[int(rng.integers(len(fleet.planted)))]
            filters = {"object_id": int(rng.choice(event.members))}
        filters["limit"] = 50
        queries.append((kind, filters))
    order = rng.permutation(count)
    return [queries[int(i)] for i in order]
