"""Property: pooled phase-1 mining equals single-process mining on random scenarios."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GatheringParameters
from repro.core.pipeline import GatheringMiner
from repro.datagen.scenarios import efficiency_scenario
from repro.engine.registry import ExecutionConfig

PARAMS = GatheringParameters(
    eps=200.0, min_points=3, mc=4, delta=300.0, kc=6, kp=4, mp=3, time_step=1.0
)

scenario_strategy = st.builds(
    efficiency_scenario,
    fleet_size=st.integers(min_value=130, max_value=170),
    duration=st.integers(min_value=24, max_value=40),
    gatherings=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
)


@given(scenario=scenario_strategy, workers=st.integers(min_value=2, max_value=4))
@settings(max_examples=8, deadline=None)
def test_shard_stitched_mining_matches_unsharded(scenario, workers):
    database = scenario.database
    reference = GatheringMiner(PARAMS).mine(database)
    config = ExecutionConfig(backend="python", workers=workers)
    pooled = GatheringMiner(PARAMS, config=config).mine(database)

    assert {c.keys() for c in pooled.closed_crowds} == {
        c.keys() for c in reference.closed_crowds
    }
    assert {(g.keys(), g.participator_ids) for g in pooled.gatherings} == {
        (g.keys(), g.participator_ids) for g in reference.gatherings
    }
    assert len(pooled.cluster_db) == len(reference.cluster_db)
