"""Fit-once entry points that populate the serving registry.

This module is the bridge between the experiment harness (which knows
how to prepare datasets) and :mod:`repro.service` (which serves fitted
models): :func:`fit_and_save` is what ``python -m repro.service --fit``
runs.
"""

import time
from dataclasses import dataclass
from pathlib import Path

from repro.core import HabitConfig, HabitImputer
from repro.experiments import common

__all__ = ["FitReport", "fit_and_save"]


@dataclass(frozen=True)
class FitReport:
    """What one fit-and-save produced."""

    model_id: str
    path: Path
    dataset: str
    storage_bytes: int
    fit_seconds: float
    train_rows: int


def fit_and_save(
    dataset,
    registry,
    config=None,
    scale=1.0,
    seed=0,
    cache_dir=None,
):
    """Fit *dataset*'s train split and publish the model into *registry*.

    *registry* is a :class:`repro.service.registry.ModelRegistry`: the
    published ``.npz`` is immediately resolvable by any registry pointed
    at the same directory, and *registry* itself holds the model warm,
    so a process that goes on to serve from it answers without a disk
    load.  Returns a :class:`FitReport`.
    """
    started = time.perf_counter()
    prepared = common.prepare(dataset, scale=scale, cache_dir=cache_dir, seed=seed)
    imputer = HabitImputer(config or HabitConfig()).fit_from_trips(prepared.train)
    model_id, path = registry.publish(dataset, imputer)
    return FitReport(
        model_id=model_id,
        path=path,
        dataset=dataset,
        storage_bytes=imputer.storage_size_bytes(),
        fit_seconds=time.perf_counter() - started,
        train_rows=prepared.train.num_rows,
    )

