"""FaultPlan: spec parsing, counter-driven firing, process-wide arming."""

from __future__ import annotations

import json
import os

import pytest

from repro.resilience.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    active_plan,
    clear_plan,
    install_plan,
    maybe_fault,
)


class TestParsing:
    def test_compact_spec(self):
        plan = FaultPlan.parse("worker.crash:2,worker.slow:1:2.5,seed:7")
        assert plan.sites == ("worker.crash", "worker.slow")
        assert plan.seed == 7
        assert plan.spec_for("worker.crash").times == 2
        assert plan.spec_for("worker.slow").param == 2.5

    def test_compact_defaults_to_one_firing(self):
        plan = FaultPlan.parse("store.locked")
        assert plan.spec_for("store.locked").times == 1

    def test_json_spec_with_at_indices(self):
        text = json.dumps(
            {"seed": 3, "faults": [{"site": "spill.corrupt", "at": [1, 4], "param": 0.5}]}
        )
        plan = FaultPlan.parse(text)
        assert plan.seed == 3
        spec = plan.spec_for("spill.corrupt")
        assert spec.at == (1, 4)
        assert spec.param == 0.5

    def test_empty_spec_is_an_empty_plan(self):
        plan = FaultPlan.parse("   ")
        assert plan.sites == ()

    def test_malformed_entries_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("a:b:c:d")
        with pytest.raises(ValueError):
            FaultPlan.parse("seed:1:2")
        with pytest.raises(ValueError):
            FaultPlan([FaultSpec("x"), FaultSpec("x")])


class TestFiring:
    def test_times_fires_first_n_hits(self):
        plan = FaultPlan([FaultSpec("site", times=2)])
        fired = [plan.should_fire("site") is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]
        assert plan.fired_counts() == {"site": 2}
        assert plan.hit_counts() == {"site": 5}

    def test_at_fires_exact_hit_indices(self):
        plan = FaultPlan([FaultSpec("site", at=(1, 3))])
        fired = [plan.should_fire("site") is not None for _ in range(5)]
        assert fired == [False, True, False, True, False]

    def test_unarmed_site_counts_hits_but_never_fires(self):
        plan = FaultPlan([FaultSpec("a")])
        assert plan.should_fire("b") is None
        assert plan.hit_counts() == {"b": 1}
        assert plan.fired_counts() == {}

    def test_identical_plans_replay_identically(self):
        a = FaultPlan.parse("x:2,y:1")
        b = FaultPlan.parse("x:2,y:1")
        trace_a = [(s, a.should_fire(s) is not None) for s in "xxyxy"]
        trace_b = [(s, b.should_fire(s) is not None) for s in "xxyxy"]
        assert trace_a == trace_b


class TestProcessWideArming:
    def test_install_and_clear(self):
        assert maybe_fault("anything") is None
        install_plan(FaultPlan([FaultSpec("site")]))
        assert maybe_fault("site") is not None
        assert maybe_fault("site") is None  # times=1 exhausted
        clear_plan()
        assert active_plan() is None

    def test_environment_arming_is_lazy(self):
        os.environ[FAULT_PLAN_ENV] = "env.site:1"
        clear_plan()  # forget the previous lookup so the env is re-read
        plan = active_plan()
        assert plan is not None
        assert plan.sites == ("env.site",)
        assert maybe_fault("env.site") is not None

    def test_install_overrides_environment(self):
        os.environ[FAULT_PLAN_ENV] = "env.site:1"
        install_plan(FaultPlan([FaultSpec("code.site")]))
        assert maybe_fault("env.site") is None
        assert maybe_fault("code.site") is not None
