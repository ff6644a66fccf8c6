"""Synthetic taxi-fleet simulator.

The simulator drives a fleet of taxis over a :class:`~repro.datagen.road_network.RoadNetwork`
and overlays the group events of :mod:`repro.datagen.events`:

* background taxis perform random trips between intersections,
* gathering-event participants drive to the event area and dwell there (with
  a small membership churn),
* transient-crowd vehicles visit a drop-off area for a couple of timestamps
  and move on,
* travelling groups follow a shared route as a platoon.

The output is a regular :class:`~repro.trajectory.TrajectoryDatabase`, so the
mining pipeline sees exactly the same data model it would see for real GPS
logs.  All randomness flows through one ``numpy`` generator seeded by the
caller, making every scenario reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..geometry.point import Point
from ..trajectory.trajectory import TrajectoryDatabase
from .events import GatheringEvent, TransientCrowdEvent, TravelingGroupEvent
from .road_network import RoadNetwork

__all__ = ["SimulationConfig", "SimulationResult", "TaxiFleetSimulator"]


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulation run."""

    fleet_size: int = 200
    duration: int = 120
    time_step: float = 1.0
    cruise_speed: float = 600.0
    speed_jitter: float = 0.2
    drop_rate: float = 0.0
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if self.fleet_size < 1:
            raise ValueError("fleet_size must be at least 1")
        if self.duration < 2:
            raise ValueError("duration must cover at least two timestamps")
        if self.time_step <= 0:
            raise ValueError("time_step must be positive")
        if self.cruise_speed <= 0:
            raise ValueError("cruise_speed must be positive")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError("drop_rate must be in [0, 1)")


@dataclass
class SimulationResult:
    """A generated database plus the ground truth that produced it."""

    database: TrajectoryDatabase
    config: SimulationConfig
    gathering_events: List[GatheringEvent] = field(default_factory=list)
    transient_events: List[TransientCrowdEvent] = field(default_factory=list)
    traveling_groups: List[TravelingGroupEvent] = field(default_factory=list)
    event_members: Dict[int, Set[int]] = field(default_factory=dict)

    def timestamps(self) -> List[float]:
        return [
            self.config.start_time + i * self.config.time_step
            for i in range(self.config.duration)
        ]


class _BackgroundDriver:
    """Random-trip movement state for one background taxi."""

    def __init__(self, network: RoadNetwork, rng: np.random.Generator) -> None:
        self.network = network
        origin = network.random_node(rng)
        destination = network.random_node(rng)
        self.path = network.shortest_path(origin, destination)
        self.offset = float(rng.uniform(0.0, max(network.path_length(self.path), 1.0)))

    def step(self, distance: float, rng: np.random.Generator) -> Point:
        point, self.offset = self.network.walk(self.path, self.offset, distance)
        if self.offset >= self.network.path_length(self.path) - 1e-6:
            start = self.path[-1]
            destination = self.network.random_node(rng)
            if destination == start:
                destination = self.network.random_node(rng)
            self.path = self.network.shortest_path(start, destination)
            self.offset = 0.0
        return point


class TaxiFleetSimulator:
    """Generates trajectory databases with injected group events."""

    #: Each transient-crowd event rotates through a pool this many times larger
    #: than its concurrency, so no vehicle revisits the area often enough to
    #: become a participator (the drop-off areas must stay crowds, not
    #: gatherings).
    _TRANSIENT_POOL_FACTOR = 5

    def __init__(self, network: Optional[RoadNetwork] = None, seed: int = 7) -> None:
        self.network = network or RoadNetwork()
        self.seed = seed

    # -- public API -------------------------------------------------------------
    def simulate(
        self,
        config: SimulationConfig,
        gathering_events: Sequence[GatheringEvent] = (),
        transient_events: Sequence[TransientCrowdEvent] = (),
        traveling_groups: Sequence[TravelingGroupEvent] = (),
    ) -> SimulationResult:
        """Run one simulation and return the database plus ground truth."""
        rng = np.random.default_rng(self.seed)
        n = config.fleet_size
        duration = config.duration

        # Assign taxis to roles.  Events own disjoint slices of the fleet so a
        # taxi's behaviour is unambiguous; everything left over is background.
        assignments = self._assign_fleet(
            n, gathering_events, transient_events, traveling_groups
        )
        positions = np.zeros((n, duration, 2), dtype=float)
        observed = np.ones((n, duration), dtype=bool)

        background_ids = assignments["background"]
        drivers = {oid: _BackgroundDriver(self.network, rng) for oid in background_ids}
        for t in range(duration):
            step_distance = config.cruise_speed * config.time_step
            for oid in background_ids:
                jitter = 1.0 + rng.uniform(-config.speed_jitter, config.speed_jitter)
                point = drivers[oid].step(step_distance * jitter, rng)
                positions[oid, t] = (point.x, point.y)

        event_members: Dict[int, Set[int]] = {}
        for event_index, (event, members) in enumerate(
            zip(gathering_events, assignments["gathering"])
        ):
            self._simulate_gathering(event, members, positions, config, rng)
            event_members[event_index] = set(members)

        for event, members in zip(transient_events, assignments["transient"]):
            self._simulate_transient(event, members, positions, config, rng)

        for group, members in zip(traveling_groups, assignments["traveling"]):
            self._simulate_traveling_group(group, members, positions, config, rng)

        if config.drop_rate > 0.0:
            observed &= rng.random((n, duration)) >= config.drop_rate
            # Keep the first and last samples so lifespans stay intact.
            observed[:, 0] = True
            observed[:, -1] = True

        database = self._to_database(positions, observed, config)
        return SimulationResult(
            database=database,
            config=config,
            gathering_events=list(gathering_events),
            transient_events=list(transient_events),
            traveling_groups=list(traveling_groups),
            event_members=event_members,
        )

    # -- fleet assignment -----------------------------------------------------------
    def _assign_fleet(
        self,
        fleet_size: int,
        gathering_events: Sequence[GatheringEvent],
        transient_events: Sequence[TransientCrowdEvent],
        traveling_groups: Sequence[TravelingGroupEvent],
    ) -> Dict[str, list]:
        needed = (
            sum(e.participants for e in gathering_events)
            + sum(e.concurrent * self._TRANSIENT_POOL_FACTOR for e in transient_events)
            + sum(g.size for g in traveling_groups)
        )
        if needed > fleet_size:
            raise ValueError(
                f"fleet of {fleet_size} taxis cannot host events needing {needed}"
            )
        cursor = 0
        gathering_slices = []
        for event in gathering_events:
            gathering_slices.append(list(range(cursor, cursor + event.participants)))
            cursor += event.participants
        transient_slices = []
        for event in transient_events:
            pool = event.concurrent * self._TRANSIENT_POOL_FACTOR
            transient_slices.append(list(range(cursor, cursor + pool)))
            cursor += pool
        traveling_slices = []
        for group in traveling_groups:
            traveling_slices.append(list(range(cursor, cursor + group.size)))
            cursor += group.size
        background = list(range(cursor, fleet_size))
        return {
            "gathering": gathering_slices,
            "transient": transient_slices,
            "traveling": traveling_slices,
            "background": background,
        }

    # -- event dynamics ----------------------------------------------------------------
    def _dwell_position(
        self, center: Point, radius: float, rng: np.random.Generator
    ) -> Tuple[float, float]:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        distance = radius * math.sqrt(rng.uniform(0.0, 1.0))
        return (center.x + distance * math.cos(angle), center.y + distance * math.sin(angle))

    def _simulate_gathering(
        self,
        event: GatheringEvent,
        members: Sequence[int],
        positions: np.ndarray,
        config: SimulationConfig,
        rng: np.random.Generator,
    ) -> None:
        duration = config.duration
        start = max(event.start, 0)
        end = min(event.end, duration)
        event_span = max(end - start, 1)
        # Each member gets an anchor spot it drifts around while dwelling.
        anchors = {oid: self._dwell_position(event.center, event.radius, rng) for oid in members}
        # Membership is staggered: every participant commits to one long
        # contiguous dwell window (just under half of the event), and the
        # windows are spread across the event so vehicles keep arriving and
        # leaving while the congregation as a whole persists.  This mirrors a
        # real traffic jam: no fixed sub-fleet spans enough consecutive time
        # to register as a convoy or swarm, yet every vehicle stays long
        # enough to be a participator.  ``churn`` shortens the windows
        # further.
        window_length = max(2, int(event_span * max(0.3, 0.45 - event.churn)))
        windows: Dict[int, Tuple[int, int]] = {}
        slack = max(event_span - window_length, 0)
        for rank, oid in enumerate(sorted(members)):
            if len(members) > 1:
                offset = int(round(slack * rank / (len(members) - 1)))
            else:
                offset = 0
            offset += int(rng.integers(-1, 2))
            offset = min(max(offset, 0), slack)
            windows[oid] = (start + offset, start + offset + window_length)
        for t in range(duration):
            for oid in members:
                ax, ay = anchors[oid]
                w_start, w_end = windows[oid]
                if w_start <= t < w_end:
                    positions[oid, t] = (
                        ax + rng.normal(0.0, event.radius * 0.1),
                        ay + rng.normal(0.0, event.radius * 0.1),
                    )
                else:
                    # Outside its dwell window the vehicle approaches or
                    # leaves: the farther from the window, the farther away.
                    positions[oid, t] = self._approach_position(
                        event, t, w_start, w_end, anchors[oid], config, rng
                    )

    def _approach_position(
        self,
        event: GatheringEvent,
        t: int,
        start: int,
        end: int,
        anchor: Tuple[float, float],
        config: SimulationConfig,
        rng: np.random.Generator,
    ) -> Tuple[float, float]:
        """Position of a member before/after its dwell window.

        The vehicle is kept well clear of the congregation (at least a couple
        of kilometres) so that arrivals and departures only change the
        cluster's membership, never smear its geometry: the Hausdorff
        distance between consecutive snapshot clusters of the event stays
        bounded by the dwell radius, as the crowd definition requires.
        """
        speed = config.cruise_speed * config.time_step
        if t < start:
            lead = start - t
        else:
            lead = t - end + 1
        distance = 2000.0 + speed * lead
        angle = rng.uniform(0.0, 2.0 * math.pi)
        return (
            anchor[0] + distance * math.cos(angle),
            anchor[1] + distance * math.sin(angle),
        )

    def _simulate_transient(
        self,
        event: TransientCrowdEvent,
        members: Sequence[int],
        positions: np.ndarray,
        config: SimulationConfig,
        rng: np.random.Generator,
    ) -> None:
        duration = config.duration
        start = max(event.start, 0)
        end = min(event.end, duration)
        pool = list(members)
        if not pool:
            return
        # Rotate through the pool: each vehicle dwells for `dwell` steps, then
        # the next batch takes over, so the area stays dense with no commitment.
        for t in range(duration):
            if start <= t < end:
                wave = (t - start) // event.dwell
                present = [
                    pool[(wave * event.concurrent + slot) % len(pool)]
                    for slot in range(min(event.concurrent, len(pool)))
                ]
            else:
                present = []
            present_set = set(present)
            for oid in pool:
                if oid in present_set:
                    x, y = self._dwell_position(event.center, event.radius, rng)
                    positions[oid, t] = (x, y)
                else:
                    # Off-site, roaming a ring around the venue.
                    angle = rng.uniform(0.0, 2.0 * math.pi)
                    ring = rng.uniform(1500.0, 4000.0)
                    positions[oid, t] = (
                        event.center.x + ring * math.cos(angle),
                        event.center.y + ring * math.sin(angle),
                    )

    def _simulate_traveling_group(
        self,
        group: TravelingGroupEvent,
        members: Sequence[int],
        positions: np.ndarray,
        config: SimulationConfig,
        rng: np.random.Generator,
    ) -> None:
        duration = config.duration
        origin_node = self.network.nearest_node(group.origin)
        destination_node = self.network.nearest_node(group.destination)
        path = self.network.shortest_path(origin_node, destination_node)
        path_length = self.network.path_length(path)
        speed = config.cruise_speed * config.time_step * group.speed_factor
        # Per-member lateral offsets keep the platoon loosely spread.
        offsets = {
            oid: (rng.normal(0.0, group.spread), rng.normal(0.0, group.spread))
            for oid in members
        }
        for t in range(duration):
            if t < group.start:
                travelled = 0.0
            else:
                travelled = min(speed * (t - group.start), path_length)
            head, _ = self.network.walk(path, 0.0, travelled)
            arrived = travelled >= path_length and t > group.start
            if arrived:
                # After arrival the platoon breaks up: members scatter away
                # from the destination so a parked platoon does not register
                # as a stationary gathering.
                steps_since_arrival = t - group.start - int(path_length / max(speed, 1e-9))
                for oid in members:
                    dx, dy = offsets[oid]
                    scatter = (steps_since_arrival + 1) * speed * 0.8
                    angle = rng.uniform(0.0, 2.0 * math.pi)
                    positions[oid, t] = (
                        head.x + dx + scatter * math.cos(angle),
                        head.y + dy + scatter * math.sin(angle),
                    )
                continue
            dispersing = (
                group.disperse_every is not None
                and t >= group.start
                and (t - group.start) % group.disperse_every == 0
            )
            for oid in members:
                dx, dy = offsets[oid]
                if dispersing:
                    # Briefly spread far apart: breaks consecutive grouping
                    # (convoys) but not gap-tolerant grouping (swarms).
                    angle = rng.uniform(0.0, 2.0 * math.pi)
                    far = rng.uniform(1200.0, 2000.0)
                    positions[oid, t] = (
                        head.x + far * math.cos(angle),
                        head.y + far * math.sin(angle),
                    )
                else:
                    positions[oid, t] = (head.x + dx, head.y + dy)

    # -- output ----------------------------------------------------------------------------
    def _to_database(
        self, positions: np.ndarray, observed: np.ndarray, config: SimulationConfig
    ) -> TrajectoryDatabase:
        # One row per observed (object, step), object-major: the objects
        # appear in id order with their samples in time order.
        object_ids, steps = np.nonzero(observed)
        x, y = positions[object_ids, steps].T
        times = config.start_time + steps * config.time_step
        return TrajectoryDatabase.from_columns(object_ids, times, x, y)
