"""Fit-once entry points that populate the serving registry.

This module is the bridge between the experiment harness (which knows
how to prepare datasets) and :mod:`repro.service` (which serves fitted
models): :func:`fit_and_save` is what ``python -m repro.service --fit``
runs, and :func:`dataset_fitter` builds the fit-on-miss callback a
:class:`repro.service.registry.ModelRegistry` can fall back to.
"""

import time
from dataclasses import dataclass
from pathlib import Path

from repro.core import HabitConfig, HabitImputer, TypedHabitImputer
from repro.experiments import common

__all__ = ["FitReport", "dataset_fitter", "fit_and_save", "fit_habit"]


@dataclass(frozen=True)
class FitReport:
    """What one fit-and-save produced."""

    model_id: str
    path: Path
    dataset: str
    storage_bytes: int
    fit_seconds: float
    train_rows: int


def fit_habit(dataset, config=None, scale=1.0, seed=0, cache_dir=None, typed=False):
    """Prepare *dataset* and fit an imputer on its train split.

    With *typed*, a :class:`TypedHabitImputer` (one graph per vessel
    class plus a global fallback) is fitted instead of the plain model.
    """
    config = config or HabitConfig()
    prepared = common.prepare(dataset, scale=scale, cache_dir=cache_dir, seed=seed)
    cls = TypedHabitImputer if typed else HabitImputer
    imputer = cls(config).fit_from_trips(prepared.train)
    return imputer, prepared


def fit_and_save(
    dataset,
    registry,
    config=None,
    scale=1.0,
    seed=0,
    cache_dir=None,
    typed=False,
):
    """Fit *dataset* and publish the model into *registry*.

    *registry* is a :class:`repro.service.registry.ModelRegistry`: the
    published ``.npz`` is immediately resolvable by any registry pointed
    at the same directory, and *registry* itself holds the model warm,
    so a process that goes on to serve from it answers without a disk
    load.  Returns a :class:`FitReport`.
    """
    started = time.perf_counter()
    imputer, prepared = fit_habit(
        dataset, config=config, scale=scale, seed=seed, cache_dir=cache_dir, typed=typed
    )
    model_id, path = registry.publish(dataset, imputer)
    return FitReport(
        model_id=model_id,
        path=path,
        dataset=dataset,
        storage_bytes=imputer.storage_size_bytes(),
        fit_seconds=time.perf_counter() - started,
        train_rows=prepared.train.num_rows,
    )


def dataset_fitter(scale=1.0, seed=0, cache_dir=None):
    """A ``fitter(dataset, config, typed=False)`` fit-on-miss callback.

    The registry passes ``typed=True`` when a typed model misses, so one
    callback serves both model kinds.
    """

    def fit(dataset, config, typed=False):
        imputer, _ = fit_habit(
            dataset,
            config=config,
            scale=scale,
            seed=seed,
            cache_dir=cache_dir,
            typed=typed,
        )
        return imputer

    return fit
