"""Trajectory data model, IO and dataset readers."""

from .trajectory import Trajectory, TrajectoryDatabase
from .io import load_csv, load_jsonl, save_csv, save_jsonl
from .formats import load_geolife_plt, load_geolife_user, load_tdrive, load_tdrive_directory
from .geo import EARTH_RADIUS_M, LocalProjection, haversine_distance, project_database

__all__ = [
    "Trajectory",
    "TrajectoryDatabase",
    "load_csv",
    "load_jsonl",
    "save_csv",
    "save_jsonl",
    "load_geolife_plt",
    "load_geolife_user",
    "load_tdrive",
    "load_tdrive_directory",
    "EARTH_RADIUS_M",
    "LocalProjection",
    "haversine_distance",
    "project_database",
]
