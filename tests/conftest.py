"""Shared unit-test fixtures: one tiny prepared dataset per session."""

import numpy as np
import pytest

from repro.experiments import common


@pytest.fixture(scope="session")
def tiny_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("tiny_data"))


@pytest.fixture(scope="session")
def tiny_kiel(tiny_cache):
    """A miniature KIEL dataset shared by the integration-flavoured tests."""
    return common.prepare("KIEL", scale=0.02, cache_dir=tiny_cache)


@pytest.fixture(scope="session")
def service_model(tiny_kiel):
    """One fitted KIEL model shared by the serving-layer tests."""
    from repro.core import HabitConfig, HabitImputer

    return HabitImputer(HabitConfig(resolution=9)).fit_from_trips(tiny_kiel.train)


@pytest.fixture(scope="session")
def r10_model(tiny_kiel):
    """The service model's config at resolution 10, the resolution the
    socket benchmark serves: there RDP keeps a handful of vertices a
    path, so an answer's vertex block is far smaller than its samples."""
    from repro.core import HabitConfig, HabitImputer

    return HabitImputer(HabitConfig(resolution=10)).fit_from_trips(tiny_kiel.train)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)
