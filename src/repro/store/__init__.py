"""Persistent pattern storage: the durable end product of mining.

The paper's deliverable is a *database of gatherings* users can query after
the fact.  This package provides it: a versioned, SQLite-backed
:class:`PatternStore` with spatial/temporal/per-object indexes and
fingerprint-deduplicated append semantics, so one-shot runs, pooled
runs and streaming evictions all land — exactly once — in one database.
Read it back through :mod:`repro.serve`.
"""

from .pattern_store import PatternRecord, PatternStore
from .schema import STORE_FORMAT, STORE_VERSION

__all__ = ["PatternRecord", "PatternStore", "STORE_FORMAT", "STORE_VERSION"]
