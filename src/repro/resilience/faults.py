"""Deterministic fault-injection plans and named injection sites.

A :class:`FaultPlan` arms a set of *named sites* sprinkled through the
codebase.  Each site is probed with :func:`maybe_fault`; the plan
decides — purely from how many times the site has been hit so far —
whether this hit fires.  Because the decision is a function of the hit
counter (no wall clock, no shared randomness), a chaos run with a given
plan is exactly reproducible.

Known sites (new code is free to add more):

``worker.crash``
    A supervised pool worker hard-exits mid-job (armed per job index by the
    supervisor in the *parent*, so a retried job never re-crashes).
``worker.slow``
    A pool job stalls for ``param`` seconds (exercises per-job timeouts).
``spill.corrupt``
    One spill column file is corrupted right after finalize, before the
    checksum verification (exercises the rebuild path).
``checkpoint.torn``
    A checkpoint write is truncated mid-file (exercises rotation fallback).
``store.locked``
    A pooled read raises ``sqlite3.OperationalError: database is locked``
    (exercises the retry-with-backoff path).
``serve.drop``
    The async server abruptly drops a client connection after reading the
    request.
``ingest.garble``
    The quality firewall corrupts one raw record (NaN coordinates) before
    validation — both the batch loaders and the streaming ingest path probe
    it, so chaos runs can assert that corrupted records are rejected and
    fully accounted rather than mined.

Plans are armed three ways: programmatically via :func:`install_plan`, from
the CLI via ``--fault-plan``, or from the ``REPRO_FAULT_PLAN`` environment
variable (read lazily, so forked/spawned worker processes arm themselves
the same way).  Plan specs parse from a compact string
(``"worker.crash:1,worker.slow:1:2.5"`` — ``site:times[:param]``) or a JSON
document (``{"seed": 7, "faults": [{"site": ..., "times": ..., "at": [...],
"param": ...}]}``).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

__all__ = [
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "clear_plan",
    "install_plan",
    "maybe_fault",
]

#: Environment variable arming a process-wide plan (same spec formats).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


@dataclass(frozen=True)
class FaultSpec:
    """Arming rule for one site.

    ``times`` fires the first N hits of the site; ``at`` instead fires the
    exact 0-based hit indices listed (and wins over ``times`` when given).
    ``param`` carries a site-specific magnitude — sleep seconds for
    ``worker.slow``, unused elsewhere.
    """

    site: str
    times: int = 1
    at: Tuple[int, ...] = ()
    param: float = 0.0

    def fires_on(self, hit: int) -> bool:
        """Whether the ``hit``-th probe of this site fires."""
        if self.at:
            return hit in self.at
        return hit < self.times


class FaultPlan:
    """A seeded, counter-driven set of armed fault sites.

    Hit counters are per-plan and thread-safe; the ``seed`` is carried for
    components that want plan-scoped determinism (e.g. seeding a
    :class:`~repro.resilience.retry.RetryPolicy`'s jitter).
    """

    def __init__(self, specs: Iterable[FaultSpec] = (), seed: int = 0) -> None:
        self.seed = int(seed)
        self._specs: Dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.site in self._specs:
                raise ValueError(f"duplicate fault site {spec.site!r} in plan")
            self._specs[spec.site] = spec
        self._hits: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}
        self._lock = threading.Lock()

    # -- construction ------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Build a plan from a compact or JSON spec string (see module docs)."""
        text = text.strip()
        if not text:
            return cls()
        if text.startswith("{"):
            document = json.loads(text)
            specs = [
                FaultSpec(
                    site=str(entry["site"]),
                    times=int(entry.get("times", 1)),
                    at=tuple(int(i) for i in entry.get("at", ())),
                    param=float(entry.get("param", 0.0)),
                )
                for entry in document.get("faults", [])
            ]
            return cls(specs, seed=int(document.get("seed", 0)))
        specs = []
        seed = 0
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            if parts[0] == "seed":
                if len(parts) != 2:
                    raise ValueError(f"malformed seed entry {chunk!r}")
                seed = int(parts[1])
                continue
            if len(parts) > 3:
                raise ValueError(
                    f"malformed fault entry {chunk!r} (want site[:times[:param]])"
                )
            site = parts[0]
            times = int(parts[1]) if len(parts) > 1 else 1
            param = float(parts[2]) if len(parts) > 2 else 0.0
            specs.append(FaultSpec(site=site, times=times, param=param))
        return cls(specs, seed=seed)

    # -- probing -----------------------------------------------------------------
    @property
    def sites(self) -> Tuple[str, ...]:
        """The armed site names, sorted."""
        return tuple(sorted(self._specs))

    def spec_for(self, site: str) -> Optional[FaultSpec]:
        """The armed spec of a site (``None`` when the site is not in the plan)."""
        return self._specs.get(site)

    def should_fire(self, site: str) -> Optional[FaultSpec]:
        """Probe a site once: count the hit, return the spec iff it fires."""
        with self._lock:
            hit = self._hits.get(site, 0)
            self._hits[site] = hit + 1
            spec = self._specs.get(site)
            if spec is None or not spec.fires_on(hit):
                return None
            self._fired[site] = self._fired.get(site, 0) + 1
            return spec

    def fired_counts(self) -> Dict[str, int]:
        """How many times each site actually fired so far."""
        with self._lock:
            return dict(self._fired)

    def hit_counts(self) -> Dict[str, int]:
        """How many times each site was probed so far (fired or not)."""
        with self._lock:
            return dict(self._hits)


# -- process-wide activation ---------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None
_ENV_CHECKED = False
_INSTALL_LOCK = threading.Lock()


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Arm ``plan`` process-wide (``None`` disarms)."""
    global _ACTIVE, _ENV_CHECKED
    with _INSTALL_LOCK:
        _ACTIVE = plan
        _ENV_CHECKED = True


def clear_plan() -> None:
    """Disarm any active plan and forget the environment lookup."""
    global _ACTIVE, _ENV_CHECKED
    with _INSTALL_LOCK:
        _ACTIVE = None
        _ENV_CHECKED = False


def active_plan() -> Optional[FaultPlan]:
    """The armed plan, if any (reads :data:`FAULT_PLAN_ENV` on first call)."""
    global _ACTIVE, _ENV_CHECKED
    if _ENV_CHECKED:
        return _ACTIVE
    with _INSTALL_LOCK:
        if not _ENV_CHECKED:
            text = os.environ.get(FAULT_PLAN_ENV)
            if text:
                _ACTIVE = FaultPlan.parse(text)
            _ENV_CHECKED = True
    return _ACTIVE


def maybe_fault(site: str) -> Optional[FaultSpec]:
    """Probe ``site`` against the active plan; the armed spec iff it fires."""
    plan = active_plan()
    if plan is None:
        return None
    return plan.should_fire(site)
