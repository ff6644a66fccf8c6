"""Chaos: mining under worker crashes and spill corruption stays bit-identical."""

from __future__ import annotations

import os

from repro.core.config import GatheringParameters
from repro.core.pipeline import GatheringMiner
from repro.datagen.events import GatheringEvent
from repro.datagen.simulator import SimulationConfig, TaxiFleetSimulator
from repro.engine.arena import SPILL_MANIFEST
from repro.engine.registry import ExecutionConfig
from repro.geometry.point import Point

PARAMS = GatheringParameters(eps=200.0, min_points=3, mc=4, kc=4, kp=3, mp=3)


def _database(seed=9):
    # One injected event makes the fleet mine 1 crowd and 1 gathering (the
    # fleet alone mines none), so the parity checks compare a gathering.
    simulator = TaxiFleetSimulator(seed=seed)
    event = GatheringEvent(
        center=Point(1500.0, 2000.0), start=2, end=14, participants=12
    )
    config = SimulationConfig(fleet_size=40, duration=16)
    return simulator.simulate(config, gathering_events=[event]).database


def _signature(result):
    return (
        sorted(crowd.keys() for crowd in result.closed_crowds),
        sorted(gathering.keys() for gathering in result.gatherings),
    )


def _assert_no_orphans(spill_dir):
    if not os.path.isdir(spill_dir):
        return
    for entry in os.listdir(spill_dir):
        if not entry.startswith("arena-"):
            continue
        manifest = os.path.join(spill_dir, entry, SPILL_MANIFEST)
        assert os.path.exists(manifest), f"orphaned partial spill {entry}"


def _pooled_spilled_mine(database, spill_dir):
    config = ExecutionConfig(backend="numpy", workers=4, spill_dir=spill_dir)
    return GatheringMiner(PARAMS, config=config).mine(database)


class TestChaosMine:
    def test_worker_crashes_and_spill_corruption_keep_parity(self, arm, tmp_path):
        # The acceptance scenario: mine --workers 4 --spill-dir under worker
        # crashes plus a corrupted spill column: the pool and the parent's
        # spool recover together.
        database = _database()
        reference = _pooled_spilled_mine(database, str(tmp_path / "clean"))

        plan = arm("worker.crash:2,spill.corrupt:1,seed:7")
        chaotic = _pooled_spilled_mine(database, str(tmp_path / "chaos"))

        assert len(reference.gatherings) >= 1
        assert _signature(chaotic) == _signature(reference)
        assert chaotic.closed_crowds == reference.closed_crowds
        assert chaotic.gatherings == reference.gatherings
        fired = plan.fired_counts()
        assert fired.get("worker.crash", 0) >= 1
        assert fired.get("spill.corrupt", 0) == 1
        _assert_no_orphans(str(tmp_path / "chaos"))

    def test_chaotic_parallel_run_matches_unsharded_serial_run(self, arm, tmp_path):
        database = _database(seed=21)
        serial = GatheringMiner(PARAMS).mine(database)
        plan = arm("worker.crash:1,seed:3")
        chaotic = GatheringMiner(
            PARAMS,
            config=ExecutionConfig(backend="numpy", workers=2),
        ).mine(database)
        assert len(serial.gatherings) >= 1
        assert _signature(chaotic) == _signature(serial)
        assert plan.fired_counts().get("worker.crash", 0) == 1
        _assert_no_orphans(str(tmp_path))
