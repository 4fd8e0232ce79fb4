"""Shared fixtures for the figure-regeneration benchmarks.

The experimental figures (6, 7, 8) are all views of the same SR-versus-AR
sweep, so that sweep runs once per pytest session and is shared by the three
benchmark modules.  Every benchmark writes the series it regenerates to
``benchmarks/results/*.csv`` so the numbers can be compared against the
paper's figures (see EXPERIMENTS.md) without re-running anything.

The sweep goes through an :class:`~repro.experiments.broker.ExperimentBroker`:

* ``REPRO_BENCH_JOBS=<n>`` runs the sweep's scenario groups on ``n`` worker
  processes (identical results, shorter session start-up);
* ``REPRO_BENCH_CACHE_DIR=<dir>`` persists the run records so repeated
  benchmark sessions skip the simulations entirely.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.figures import run_section5_experiment
from repro.experiments.broker import ExperimentBroker
from repro.experiments.persistence import RunCache
from repro.experiments.results import ExperimentResult
from repro.sim.scenario import ScenarioConfig

#: Spare-surplus sweep used by the benchmark suite.  It brackets the paper's
#: interesting region: below / at / above the N = 55 crossover, up to the
#: N = 1000 right edge of the figures.
BENCH_SPARE_VALUES = [10, 25, 55, 100, 200, 400, 600, 1000]

#: Where benchmarks drop their regenerated data series.
RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def section5_experiment() -> ExperimentResult:
    """One SR-vs-AR sweep over the paper's Section-5 workload (shared by Figs 6-8)."""
    config = ScenarioConfig(
        columns=16,
        rows=16,
        communication_range=10.0,
        deployed_count=5000,
        seed=2008,
    )
    cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR")
    cache = RunCache(cache_dir) if cache_dir else None
    workers = max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1")))
    with ExperimentBroker(cache=cache, workers=workers) as broker:
        return run_section5_experiment(
            spare_values=BENCH_SPARE_VALUES,
            config=config,
            trials=1,
            broker=broker,
        )


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR
