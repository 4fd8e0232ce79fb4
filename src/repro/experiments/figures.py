"""Per-figure experiment drivers (the reproduction of the paper's evaluation).

The paper's evaluation consists of Figures 3-8 (it has no numbered tables):

* Figure 1(b) and Figure 4 are structural — the directed Hamilton cycle of a
  4x5 grid and the dual-path construction of a 5x5 grid;
* Figures 3 and 5 are analytical — expected movements and expected moving
  distance of a single replacement as a function of the number of spares;
* Figures 6, 7 and 8 are experimental — number of replacement processes,
  success rate, node movements and total moving distance of SR versus AR on
  the 16x16 / 5000-sensor workload.

Every function returns either a rendered layout (structural figures) or an
:class:`~repro.experiments.results.ExperimentResult` whose rows are the data
series of the corresponding figure.  The benchmarks under ``benchmarks/``
call these functions and print the tables; EXPERIMENTS.md records the
paper-versus-measured comparison.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from repro.core import analysis
from repro.core.hamilton import (
    DualPathHamiltonCycle,
    SerpentineHamiltonCycle,
    build_hamilton_cycle,
)
from repro.experiments.persistence import RunCache
from repro.experiments.results import ExperimentResult
from repro.experiments.sweep import run_comparison
from repro.grid.virtual_grid import VirtualGrid
from repro.sim.scenario import ScenarioConfig
from repro.viz.ascii_grid import render_cycle, render_dual_paths

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.broker import ExperimentBroker

#: Spare-surplus sweep roughly matching the paper's x-axis (N from 10 to 1000).
PAPER_SPARE_VALUES: List[int] = [10, 25, 55, 100, 200, 300, 400, 600, 800, 1000]

#: Much smaller sweep used by unit tests and quick benchmark smoke runs.
QUICK_SPARE_VALUES: List[int] = [10, 55, 200, 600]

#: The paper's simulated deployment (Section 5): 16x16 grid, R = 10 m,
#: 5000 deployed sensors.
SECTION5_CONFIG = ScenarioConfig(
    columns=16, rows=16, communication_range=10.0, deployed_count=5000, seed=2008
)


# --------------------------------------------------------------------------- Fig 1
def figure1_hamilton_layout(columns: int = 4, rows: int = 5, cell_size: float = 1.0) -> str:
    """Figure 1(b): the directed Hamilton cycle threading a 4x5 grid system."""
    grid = VirtualGrid(columns, rows, cell_size)
    cycle = build_hamilton_cycle(grid)
    cycle.validate()
    header = (
        f"Directed Hamilton cycle over a {columns}x{rows} grid "
        f"({type(cycle).__name__}, L = {cycle.replacement_path_length})\n"
    )
    return header + render_cycle(cycle)


# --------------------------------------------------------------------------- Fig 3
def figure3_expected_movements(
    small_spares: Optional[Iterable[int]] = None,
    large_spares: Optional[Iterable[int]] = None,
) -> ExperimentResult:
    """Figure 3: analytical expected movements per replacement.

    Sub-figure (a) is the 4x5 grid (``L = 19``, N up to ~140); sub-figure (b)
    is the 16x16 grid (``L = 255``, N up to ~1400).
    """
    small_spares = list(small_spares) if small_spares is not None else list(range(0, 141, 10))
    large_spares = list(large_spares) if large_spares is not None else list(range(0, 1401, 100))
    result = ExperimentResult(
        name="Figure 3: expected node movements per replacement",
        columns=["grid", "L", "N", "expected_moves"],
        description="Theorem 2: M = sum_i i * P(i)",
    )
    for grid_name, path_length, spare_values in (
        ("4x5", 19, small_spares),
        ("16x16", 255, large_spares),
    ):
        for spares in spare_values:
            result.add_row(
                grid=grid_name,
                L=path_length,
                N=spares,
                expected_moves=analysis.expected_movements(spares, path_length),
            )
    return result


# --------------------------------------------------------------------------- Fig 4
def figure4_dual_path_layout(columns: int = 5, rows: int = 5, cell_size: float = 1.0) -> str:
    """Figure 4: the dual-path Hamilton construction of a 5x5 grid system."""
    grid = VirtualGrid(columns, rows, cell_size)
    cycle = DualPathHamiltonCycle(grid)
    cycle.validate()
    lines = [
        f"Dual-path Hamilton cycle over a {columns}x{rows} grid "
        f"(shared chain of {len(cycle.shared_chain())} cells, L = {cycle.replacement_path_length})",
        f"A = {cycle.cell_a.as_tuple()}, B = {cycle.cell_b.as_tuple()}, "
        f"C = {cycle.cell_c.as_tuple()} (common predecessor), "
        f"D = {cycle.cell_d.as_tuple()} (common successor)",
        "",
        render_dual_paths(cycle),
        "",
        "path one: " + " -> ".join(str(c.as_tuple()) for c in cycle.path_one()[:6]) + " -> ...",
        "path two: " + " -> ".join(str(c.as_tuple()) for c in cycle.path_two()[:6]) + " -> ...",
    ]
    return "\n".join(lines)


# --------------------------------------------------------------------------- Fig 5
def figure5_distance_estimates(
    cell_size: float = 10.0,
    small_spares: Optional[Iterable[int]] = None,
    large_spares: Optional[Iterable[int]] = None,
) -> ExperimentResult:
    """Figure 5: estimated total moving distance of a single replacement (r = 10)."""
    small_spares = list(small_spares) if small_spares is not None else list(range(0, 141, 10))
    large_spares = list(large_spares) if large_spares is not None else list(range(0, 1001, 100))
    result = ExperimentResult(
        name="Figure 5: estimated total moving distance per replacement",
        columns=["grid", "L", "r", "N", "expected_distance"],
        description="1.08 * r per hop times the Theorem-2 expected movements",
    )
    for grid_name, path_length, spare_values in (
        ("4x5", 19, small_spares),
        ("16x16", 255, large_spares),
    ):
        for spares in spare_values:
            result.add_row(
                grid=grid_name,
                L=path_length,
                r=cell_size,
                N=spares,
                expected_distance=analysis.expected_total_distance(
                    spares, path_length, cell_size
                ),
            )
    return result


# ------------------------------------------------------------------- Fig 6 / 7 / 8
def run_section5_experiment(
    spare_values: Optional[Sequence[int]] = None,
    config: Optional[ScenarioConfig] = None,
    trials: int = 1,
    max_rounds: Optional[int] = None,
    schemes: Sequence[str] = ("SR", "AR"),
    cache: Optional[RunCache] = None,
    broker: Optional[ExperimentBroker] = None,
) -> ExperimentResult:
    """The shared SR-versus-AR sweep behind Figures 6, 7 and 8.

    Adds the analytical SR predictions (Figures 7(b) and 8(b)) to the
    comparison table produced by
    :func:`repro.experiments.sweep.run_comparison`: the expected number of
    movements per hole is Theorem 2's ``M(N, L)`` and the per-hop distance is
    ``1.08 * r``, both multiplied by the number of holes in the scenario.

    ``cache`` and ``broker`` are forwarded to the sweep runner, so the
    three figure scripts sharing this sweep can run it on a worker pool and
    reuse each other's persisted run records — and the serve layer can
    answer figure queries through its long-running broker.  Cold cells
    additionally share one initial-state build per (N, trial) scenario: the
    broker runs each scenario group on clones of one build.
    """
    spare_values = list(spare_values) if spare_values is not None else list(PAPER_SPARE_VALUES)
    config = config if config is not None else SECTION5_CONFIG
    comparison = run_comparison(
        config,
        spare_values,
        schemes=schemes,
        trials=trials,
        max_rounds=max_rounds,
        cache=cache,
        broker=broker,
    )
    grid = config.make_grid()
    path_length = build_hamilton_cycle(grid).replacement_path_length

    columns = comparison.columns + ["SR_moves_analytic", "SR_distance_analytic"]
    result = ExperimentResult(
        name=f"Section 5 experiment ({config.columns}x{config.rows}, {config.deployed_count} deployed)",
        columns=columns,
        description=comparison.description,
    )
    for row in comparison.rows:
        spare_surplus = int(row["N"])
        holes = float(row["holes"])
        analytic_moves = analysis.expected_network_movements(
            int(round(holes)), spare_surplus, path_length
        )
        analytic_distance = analysis.expected_network_distance(
            int(round(holes)), spare_surplus, path_length, config.cell_size
        )
        result.add_row(
            **row,
            SR_moves_analytic=analytic_moves,
            SR_distance_analytic=analytic_distance,
        )
    return result


def _require_experiment(
    experiment: Optional[ExperimentResult],
    spare_values: Optional[Sequence[int]],
    trials: int,
) -> ExperimentResult:
    if experiment is not None:
        return experiment
    return run_section5_experiment(spare_values=spare_values, trials=trials)


def figure6_processes_and_success(
    experiment: Optional[ExperimentResult] = None,
    spare_values: Optional[Sequence[int]] = None,
    trials: int = 1,
) -> ExperimentResult:
    """Figure 6: replacement processes initiated (a) and success rate (b), AR vs SR."""
    experiment = _require_experiment(experiment, spare_values, trials)
    result = ExperimentResult(
        name="Figure 6: replacement processes and success rate",
        columns=[
            "N",
            "holes",
            "SR_processes",
            "AR_processes",
            "SR_success_pct",
            "AR_success_pct",
        ],
        description="one row per spare surplus N",
    )
    for row in experiment.rows:
        result.add_row(
            N=row["N"],
            holes=row["holes"],
            SR_processes=row["SR_processes"],
            AR_processes=row["AR_processes"],
            SR_success_pct=100.0 * float(row["SR_success_rate"]),
            AR_success_pct=100.0 * float(row["AR_success_rate"]),
        )
    return result


def figure7_node_movements(
    experiment: Optional[ExperimentResult] = None,
    spare_values: Optional[Sequence[int]] = None,
    trials: int = 1,
) -> ExperimentResult:
    """Figure 7: total node movements — experimental AR/SR (a) and analytical SR (b)."""
    experiment = _require_experiment(experiment, spare_values, trials)
    result = ExperimentResult(
        name="Figure 7: number of node movements",
        columns=["N", "holes", "SR_moves", "AR_moves", "SR_moves_analytic"],
        description="experimental (a) and analytical (b) series",
    )
    for row in experiment.rows:
        result.add_row(
            N=row["N"],
            holes=row["holes"],
            SR_moves=row["SR_moves"],
            AR_moves=row["AR_moves"],
            SR_moves_analytic=row["SR_moves_analytic"],
        )
    return result


def figure8_total_distance(
    experiment: Optional[ExperimentResult] = None,
    spare_values: Optional[Sequence[int]] = None,
    trials: int = 1,
) -> ExperimentResult:
    """Figure 8: total moving distance (m) — experimental AR/SR (a) and analytical SR (b)."""
    experiment = _require_experiment(experiment, spare_values, trials)
    result = ExperimentResult(
        name="Figure 8: total moving distance",
        columns=["N", "holes", "SR_distance", "AR_distance", "SR_distance_analytic"],
        description="experimental (a) and analytical (b) series, metres",
    )
    for row in experiment.rows:
        result.add_row(
            N=row["N"],
            holes=row["holes"],
            SR_distance=row["SR_distance"],
            AR_distance=row["AR_distance"],
            SR_distance_analytic=row["SR_distance_analytic"],
        )
    return result
