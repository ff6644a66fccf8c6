"""Pooled mining into a persistent store, then querying it back.

The full durable workflow in one script:

1. simulate the multi-district city workload;
2. mine it with phase 1 on a pool of 4 worker processes, persisting
   crowds and gatherings into a SQLite pattern store;
3. answer region / time-window / object queries through the cached
   serving core, :class:`~repro.serve.PatternApp` — the same code path
   ``repro query`` and the HTTP endpoint answer through.

Equivalent CLI::

    repro mine --input city.csv --workers 4 --store patterns.db ...
    repro query --store patterns.db --bbox 0,0,6000,6000 --from 10 --to 40
"""

from __future__ import annotations

import json

from repro.core.config import GatheringParameters
from repro.core.pipeline import GatheringMiner
from repro.datagen.scenarios import city_scenario
from repro.engine.registry import ExecutionConfig
from repro.serve import PatternApp, SingleStorePool
from repro.store import PatternStore

params = GatheringParameters(
    eps=200.0, min_points=4, mc=5, delta=300.0, kc=10, kp=6, mp=3, time_step=1.0
)

print("simulating the city workload ...")
database = city_scenario(fleet_size=320, duration=48, districts=4, seed=97).database
print(f"  {len(database)} objects, {database.total_samples()} samples")

print("mining on 4 workers into patterns.db ...")
miner = GatheringMiner(params, config=ExecutionConfig(workers=4))
result = miner.mine(database)
with PatternStore("patterns.db") as store:
    written = result.write_to(store)
    print(
        f"  {result.crowd_count()} crowds, {result.gathering_count()} gatherings "
        f"({written['crowds']} crowds, {written['gatherings']} gatherings new to the store)"
    )


def query(app, target):
    """One GET through the serving core, decoded."""
    return json.loads(app.handle_request("GET", target).body)


print("querying the store ...")
with PatternStore("patterns.db", readonly=True) as store:
    app = PatternApp(SingleStorePool(store))

    summary = store.summary()
    min_x, min_y, max_x, max_y = summary["bbox"]
    mid_x = (min_x + max_x) / 2.0
    west = query(app, f"/gatherings?bbox={min_x},{min_y},{mid_x},{max_y}")
    print(f"  gatherings in the western half of the city: {west['count']}")

    t0, t1 = summary["time_span"]
    mid_t = (t0 + t1) / 2.0
    first_half = query(app, f"/gatherings?from={t0}&to={mid_t}")
    print(f"  gatherings overlapping the first half-day:  {first_half['count']}")

    durable = query(app, f"/crowds?min_lifetime={int(params.kc) + 5}")
    print(f"  crowds lasting >= kc+5 snapshots:           {durable['count']}")

    if west["results"]:
        object_id = west["results"][0]["object_ids"][0]
        theirs = query(app, f"/gatherings?object_id={object_id}")
        print(f"  gatherings object {object_id} participated in:     {theirs['count']}")

    cache = app.cache_stats()
    print(f"  cache: {cache['hits']} hits / {cache['misses']} misses")
