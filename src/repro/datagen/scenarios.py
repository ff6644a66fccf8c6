"""Scenario presets mirroring the paper's dataset slices.

The effectiveness study (Figure 5) groups one day of Beijing taxi data by
time-of-day (peak / work / casual) and the 92 days by weather (clear / rainy
/ snowy).  These presets encode, per regime, how many durable gathering
events, transient drop-off crowds and travelling platoons a simulated slice
contains — chosen so that the mined pattern counts reproduce the qualitative
shape of Figure 5:

* peak time: heavy congestion — many gatherings, several platoons;
* work time: dispersed destinations — few of everything;
* casual time: entertainment drop-offs — many crowds but few gatherings,
  common destinations bring platoons back;
* clear → rainy → snowy: progressively more congestion (more gatherings),
  with snowy days full of short-lived incident crowds (large crowd-vs-
  gathering gap) and intermittently dispersing platoons (fewer convoys while
  swarms survive).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from ..geometry.point import Point
from ..trajectory.trajectory import TrajectoryDatabase
from .events import GatheringEvent, TransientCrowdEvent, TravelingGroupEvent
from .road_network import RoadNetwork
from .simulator import SimulationConfig, SimulationResult, TaxiFleetSimulator

__all__ = [
    "ScenarioProfile",
    "TIME_OF_DAY_PROFILES",
    "WEATHER_PROFILES",
    "STREAMING_PROFILE",
    "build_scenario",
    "time_of_day_scenario",
    "weather_scenario",
    "efficiency_scenario",
    "streaming_scenario",
    "city_scenario",
    "metro_scenario",
    "megacity_scenario",
    "arrival_stream",
]


@dataclass(frozen=True)
class ScenarioProfile:
    """Event mix of one regime (counts are per simulated slice)."""

    gatherings: int
    transients: int
    platoons: int
    gathering_participants: int = 18
    gathering_duration: int = 40
    transient_concurrent: int = 6
    transient_dwell: int = 3
    platoon_size: int = 16
    platoon_disperse_every: Optional[int] = None


TIME_OF_DAY_PROFILES: Dict[str, ScenarioProfile] = {
    "peak": ScenarioProfile(gatherings=5, transients=2, platoons=3),
    "work": ScenarioProfile(gatherings=2, transients=2, platoons=1),
    "casual": ScenarioProfile(gatherings=1, transients=5, platoons=3),
}

WEATHER_PROFILES: Dict[str, ScenarioProfile] = {
    "clear": ScenarioProfile(gatherings=2, transients=2, platoons=2),
    "rainy": ScenarioProfile(gatherings=4, transients=3, platoons=2),
    "snowy": ScenarioProfile(
        gatherings=6,
        transients=6,
        platoons=2,
        platoon_disperse_every=4,
    ),
}


def build_scenario(
    profile: ScenarioProfile,
    fleet_size: int = 300,
    duration: int = 80,
    seed: int = 17,
    network: Optional[RoadNetwork] = None,
) -> SimulationResult:
    """Simulate one slice of a day with the event mix of ``profile``."""
    network = network or RoadNetwork(rows=16, cols=16, block_size=500.0)
    rng = np.random.default_rng(seed)
    simulator = TaxiFleetSimulator(network=network, seed=seed)

    def random_location() -> Point:
        return Point(
            float(rng.uniform(0.15, 0.85)) * network.width,
            float(rng.uniform(0.15, 0.85)) * network.height,
        )

    gathering_events: List[GatheringEvent] = []
    for _ in range(profile.gatherings):
        start = int(rng.integers(5, max(6, duration - profile.gathering_duration - 5)))
        gathering_events.append(
            GatheringEvent(
                center=random_location(),
                start=start,
                end=min(start + profile.gathering_duration, duration - 2),
                participants=profile.gathering_participants,
            )
        )

    transient_events: List[TransientCrowdEvent] = []
    for _ in range(profile.transients):
        start = int(rng.integers(5, max(6, duration - 30)))
        transient_events.append(
            TransientCrowdEvent(
                center=random_location(),
                start=start,
                end=min(start + 30, duration - 2),
                concurrent=profile.transient_concurrent,
                dwell=profile.transient_dwell,
            )
        )

    traveling_groups: List[TravelingGroupEvent] = []
    for _ in range(profile.platoons):
        traveling_groups.append(
            TravelingGroupEvent(
                origin=random_location(),
                destination=random_location(),
                start=int(rng.integers(0, max(1, duration // 3))),
                size=profile.platoon_size,
                disperse_every=profile.platoon_disperse_every,
            )
        )

    config = SimulationConfig(fleet_size=fleet_size, duration=duration)
    return simulator.simulate(
        config,
        gathering_events=gathering_events,
        transient_events=transient_events,
        traveling_groups=traveling_groups,
    )


def time_of_day_scenario(
    period: str, fleet_size: int = 300, duration: int = 80, seed: int = 17
) -> SimulationResult:
    """Simulated slice for one time-of-day regime (Figure 5a)."""
    if period not in TIME_OF_DAY_PROFILES:
        raise ValueError(
            f"unknown period {period!r}; choose from {sorted(TIME_OF_DAY_PROFILES)}"
        )
    return build_scenario(
        TIME_OF_DAY_PROFILES[period], fleet_size=fleet_size, duration=duration, seed=seed
    )


def weather_scenario(
    weather: str, fleet_size: int = 420, duration: int = 80, seed: int = 29
) -> SimulationResult:
    """Simulated slice for one weather regime (Figure 5b)."""
    if weather not in WEATHER_PROFILES:
        raise ValueError(
            f"unknown weather {weather!r}; choose from {sorted(WEATHER_PROFILES)}"
        )
    return build_scenario(
        WEATHER_PROFILES[weather], fleet_size=fleet_size, duration=duration, seed=seed
    )


#: Event mix of the streaming replay workload: several staggered gatherings
#: (so crowds freeze at different frontiers), churny transients and platoons.
STREAMING_PROFILE = ScenarioProfile(
    gatherings=3,
    transients=2,
    platoons=2,
    gathering_duration=30,
)


def streaming_scenario(
    fleet_size: int = 200, duration: int = 80, seed: int = 51
) -> SimulationResult:
    """A fleet slice shaped for streaming replays (staggered group events).

    Use :func:`arrival_stream` on the resulting database to turn it into an
    arrival-ordered point feed (optionally with reordering and late points)
    for :class:`~repro.stream.StreamingGatheringService`.
    """
    return build_scenario(
        STREAMING_PROFILE, fleet_size=fleet_size, duration=duration, seed=seed
    )


def arrival_stream(
    database,
    jitter: float = 0.0,
    late_fraction: float = 0.0,
    late_delay: float = 15.0,
    seed: int = 0,
) -> List[tuple]:
    """Arrival-ordered ``(object_id, t, x, y)`` feed of a trajectory database.

    The baseline order is by sample timestamp (ties by object id) — a
    perfectly in-order feed.  Two kinds of transport imperfection can be
    layered on top, both deterministic in ``seed``:

    * ``jitter`` delays each fix's *arrival* by ``U(0, jitter)`` time units,
      shuffling points that lie within the jitter horizon of each other —
      absorbed losslessly by the service's ``slack`` knob;
    * ``late_fraction`` of fixes additionally arrive ``late_delay`` time
      units after their event time — typically behind the mined frontier, so
      they exercise the service's late-point policy.

    The fixes' event timestamps are never altered, only their order.
    """
    if jitter < 0:
        raise ValueError("jitter must be non-negative")
    if not 0.0 <= late_fraction <= 1.0:
        raise ValueError("late_fraction must be within [0, 1]")
    if late_delay < 0:
        raise ValueError("late_delay must be non-negative")
    rng = np.random.default_rng(seed)
    points = []
    for trajectory in database:
        for t, x, y in trajectory.sample_triples().tolist():
            points.append((trajectory.object_id, t, x, y))
    points.sort(key=lambda row: (row[1], row[0]))

    arrivals = np.asarray([row[1] for row in points], dtype=float)
    if jitter > 0:
        arrivals = arrivals + rng.uniform(0.0, jitter, size=len(points))
    if late_fraction > 0 and len(points):
        late = rng.random(len(points)) < late_fraction
        arrivals = arrivals + np.where(late, late_delay, 0.0)
    order = np.argsort(arrivals, kind="stable")
    return [points[int(i)] for i in order]


def city_scenario(
    fleet_size: int = 560,
    duration: int = 120,
    districts: int = 4,
    seed: int = 97,
    network: Optional[RoadNetwork] = None,
) -> SimulationResult:
    """A multi-region "city" workload sized for the sharded batch driver.

    The city is a large road grid divided into ``districts`` regions laid
    out on a square; every district hosts its own event mix:

    * two *staggered* gathering events — one in the first half of the day,
      one in the second — so crowds begin and end at different times and
      several of them span any contiguous partition of the snapshot range
      (so they cross phase-1 block boundaries);
    * one transient drop-off crowd;
    * a travelling platoon headed to the next district over, putting
      inter-region traffic on the roads between events.

    With the default sizes the scenario spans ~120 snapshots over hundreds
    of objects — long enough that ``repro mine --workers N`` has real
    per-worker work — while every district keeps mining activity spatially
    separable for region queries against the pattern store.
    """
    if districts < 1:
        raise ValueError("districts must be at least 1")
    network = network or RoadNetwork(rows=24, cols=24, block_size=500.0)
    rng = np.random.default_rng(seed)
    simulator = TaxiFleetSimulator(network=network, seed=seed)

    side = int(np.ceil(np.sqrt(districts)))
    centers: List[Point] = []
    for district in range(districts):
        row, col = divmod(district, side)
        centers.append(
            Point(
                (col + 0.5 + float(rng.uniform(-0.15, 0.15))) / side * network.width,
                (row + 0.5 + float(rng.uniform(-0.15, 0.15))) / side * network.height,
            )
        )

    span = max(duration // 3, 8)
    gathering_events: List[GatheringEvent] = []
    transient_events: List[TransientCrowdEvent] = []
    traveling_groups: List[TravelingGroupEvent] = []
    for district, center in enumerate(centers):
        early = int(rng.integers(4, max(5, duration // 6)))
        late = int(rng.integers(duration // 2, max(duration // 2 + 1, duration - span - 4)))
        for start in (early, late):
            gathering_events.append(
                GatheringEvent(
                    center=center,
                    start=start,
                    end=min(start + span, duration - 2),
                    participants=16,
                )
            )
        transient_start = int(rng.integers(5, max(6, duration - 24)))
        transient_events.append(
            TransientCrowdEvent(
                center=Point(
                    center.x + float(rng.uniform(-600.0, 600.0)),
                    center.y + float(rng.uniform(-600.0, 600.0)),
                ),
                start=transient_start,
                end=min(transient_start + 20, duration - 2),
                concurrent=6,
                dwell=3,
            )
        )
        traveling_groups.append(
            TravelingGroupEvent(
                origin=center,
                destination=centers[(district + 1) % len(centers)],
                start=int(rng.integers(0, max(1, duration // 3))),
                size=12,
            )
        )

    config = SimulationConfig(fleet_size=fleet_size, duration=duration)
    return simulator.simulate(
        config,
        gathering_events=gathering_events,
        transient_events=transient_events,
        traveling_groups=traveling_groups,
    )


def metro_scenario(
    fleet_size: int = 5000,
    duration: int = 150,
    districts: int = 9,
    seed: int = 101,
    network: Optional[RoadNetwork] = None,
) -> SimulationResult:
    """A metropolis-scale workload sized to stress phase-1 clustering.

    Same event grammar as :func:`city_scenario` — staggered gatherings,
    transient drop-offs and inter-district platoons per district — but on a
    much larger road grid with a fleet an order of magnitude bigger (the
    defaults put ≥5k objects on ≥150 snapshots, ~750k interpolated
    positions per full pass).  At this size snapshot clustering dominates
    the pipeline, which makes the batched whole-database phase 1 visible in
    the tracked benchmark trajectory: the per-snapshot scalar loop pays its
    per-call overhead 150 times, the arena path amortises it into a handful
    of columnar sweeps.
    """
    network = network or RoadNetwork(rows=36, cols=36, block_size=500.0)
    return city_scenario(
        fleet_size=fleet_size,
        duration=duration,
        districts=districts,
        seed=seed,
        network=network,
    )


def megacity_scenario(
    fleet_size: int = 100_000,
    duration: int = 60,
    districts: int = 16,
    seed: int = 211,
    participants: int = 40,
    extent: float = 120_000.0,
) -> SimulationResult:
    """A ≥100k-object workload sized for the out-of-core phase-1 path.

    The road-walking :class:`~repro.datagen.simulator.TaxiFleetSimulator`
    steps every taxi at every timestamp, which is both too slow and too
    sample-dense at this scale — 100k objects with per-step samples would
    make the *input* database as heavy as the arena it feeds.  This
    generator instead exploits the linear-interpolation model directly:

    * **Background traffic** gets four waypoint samples per object
      (endpoints pinned to the time domain, two interior instants drawn
      off-grid), so each object spans every snapshot while the input stays
      at ~4 samples/object.  The interpolated arena is the big artifact —
      ``fleet_size × duration`` rows — exactly the thing the spilled
      :class:`~repro.engine.arena.ArenaSpool` exists to keep out of RAM.
    * **Events**: each of ``districts`` city districts hosts one durable
      gathering — ``participants`` objects converge on the district
      centre, park inside an 80 m disc for ~``duration // 3`` snapshots
      (two identical samples bracket the dwell, so interpolation holds
      them exactly still) and disperse after.
    * The city ``extent`` keeps background density low enough (about
      7 objects/km²) that DBSCAN at the paper's ``eps=200 m`` sees mostly
      noise plus the engineered events, rather than one giant component.

    All coordinates are drawn vectorized and the database is built from
    them in one :meth:`~repro.trajectory.trajectory.TrajectoryDatabase.from_columns`
    call.  Returns a :class:`~repro.datagen.simulator.SimulationResult`
    whose ``event_members`` maps each district event to its participant
    ids, like the simulator-backed scenarios.
    """
    if fleet_size < districts * participants + 1:
        raise ValueError("fleet too small to host the district events")
    if duration < 12:
        raise ValueError("duration must cover at least 12 snapshots")
    rng = np.random.default_rng(seed)
    last = float(duration - 1)

    # District centres on a jittered sub-grid of the central city.
    side = int(np.ceil(np.sqrt(districts)))
    cell = extent / (side + 1)
    centers_x = np.empty(districts)
    centers_y = np.empty(districts)
    for district in range(districts):
        row, col = divmod(district, side)
        centers_x[district] = (col + 1.0) * cell + float(rng.uniform(-0.1, 0.1)) * cell
        centers_y[district] = (row + 1.0) * cell + float(rng.uniform(-0.1, 0.1)) * cell

    # Every object has four samples, collected object-major as one
    # (ids, t, x, y) block per group; the database is built once from them.
    blocks = []

    def add_objects(first_id: int, times: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> None:
        ids = np.repeat(np.arange(first_id, first_id + len(xs)), 4)
        blocks.append((ids, times.ravel(), xs.ravel(), ys.ravel()))

    gathering_events: List[GatheringEvent] = []
    event_members: Dict[int, Set[int]] = {}
    span = max(duration // 3, 10)
    object_id = 0
    for district in range(districts):
        center = Point(float(centers_x[district]), float(centers_y[district]))
        start = 3 + (district * 5) % max(1, duration - span - 6)
        end = min(start + span, duration - 3)
        gathering_events.append(
            GatheringEvent(
                center=center, start=start, end=end, participants=participants
            )
        )
        # Parked offsets inside an 80 m disc: everything mutually within
        # the paper's eps, so each event snapshot is one dense cluster.
        angle = rng.uniform(0.0, 2.0 * np.pi, size=participants)
        radius = 80.0 * np.sqrt(rng.uniform(0.0, 1.0, size=participants))
        park_x = centers_x[district] + radius * np.cos(angle)
        park_y = centers_y[district] + radius * np.sin(angle)
        approach = rng.uniform(0.0, extent, size=(participants, 2))
        depart = rng.uniform(0.0, extent, size=(participants, 2))
        add_objects(
            object_id,
            np.tile([0.0, float(start), float(end), last], participants),
            np.stack((approach[:, 0], park_x, park_x, depart[:, 0]), axis=1),
            np.stack((approach[:, 1], park_y, park_y, depart[:, 1]), axis=1),
        )
        event_members[district] = set(range(object_id, object_id + participants))
        object_id += participants

    # Background traffic: four waypoints per object, endpoints pinned to
    # the full time domain, interior instants off the snapshot grid.
    background = fleet_size - object_id
    waypoints = rng.uniform(0.0, extent, size=(background, 4, 2))
    interior = np.sort(rng.uniform(0.5, last - 0.5, size=(background, 2)), axis=1)
    add_objects(
        object_id,
        np.column_stack((np.zeros(background), interior, np.full(background, last))),
        waypoints[:, :, 0],
        waypoints[:, :, 1],
    )
    database = TrajectoryDatabase.from_columns(
        *(np.concatenate(column) for column in zip(*blocks))
    )

    config = SimulationConfig(fleet_size=fleet_size, duration=duration)
    return SimulationResult(
        database=database,
        config=config,
        gathering_events=gathering_events,
        event_members=event_members,
    )


def efficiency_scenario(
    fleet_size: int = 200,
    duration: int = 60,
    gatherings: int = 3,
    seed: int = 43,
) -> SimulationResult:
    """A balanced workload for the crowd-discovery runtime study (Figure 6)."""
    profile = ScenarioProfile(
        gatherings=gatherings,
        transients=2,
        platoons=2,
        gathering_duration=max(20, duration // 2),
    )
    return build_scenario(profile, fleet_size=fleet_size, duration=duration, seed=seed)
