"""Shared helpers for the observatory tests."""

import pytest

from repro.driver.metrics import DriverMetrics
from repro.lithium.search import Stats
from repro.refinedc.checker import FunctionResult
from repro.report import casestudies_dir


def synthetic_metrics(wall_s, clean, dirty, **stats):
    """A one-unit record with ``clean`` reused functions and ``dirty``
    re-checked ones; the first dirty function, ``f``, took ``wall_s``
    (half of it in the solver) and carries the given ``Stats`` fields."""
    m = DriverMetrics(study="unit", jobs=1, cache_enabled=True,
                      wall_s=wall_s)
    for i in range(clean):
        m.add_function(FunctionResult(f"c{i}", True, Stats()), "clean", 0.0)
    m.add_function(FunctionResult(
        "f", True, Stats(solver_time=wall_s / 2, **stats)), "dirty", wall_s)
    for i in range(1, dirty):
        m.add_function(FunctionResult(f"d{i}", True, Stats()), "dirty", 0.0)
    return m


@pytest.fixture
def study_path():
    """Resolve a case-study stem to its annotated C file."""
    return lambda stem: casestudies_dir() / f"{stem}.c"
