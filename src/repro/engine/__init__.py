"""Columnar execution engine: frames, vectorized kernels, execution config.

Every hot path of the paper's three-phase framework (snapshot clustering,
Algorithm 1 crowd discovery, Algorithm 2 gathering detection) has its
numpy implementation in this package.  :class:`ExecutionConfig` is imported
eagerly (it is dependency-light); the columnar modules are exposed lazily
so that low-level layers (e.g. :mod:`repro.geometry.hausdorff`) can import
the kernels without dragging the whole mining stack into their import
graph.
"""

from __future__ import annotations

from typing import Any

from .registry import BACKENDS, ExecutionConfig

__all__ = [
    "BACKENDS",
    "ExecutionConfig",
    "SnapshotFrame",
    "MembershipMatrix",
    "dbscan_numpy",
]

_LAZY = {
    "SnapshotFrame": ("repro.engine.frame", "SnapshotFrame"),
    "MembershipMatrix": ("repro.engine.bitmatrix", "MembershipMatrix"),
    "dbscan_numpy": ("repro.engine.dbscan", "dbscan_numpy"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
