"""Experiment registry: every table/figure of the paper, by id.

The registry maps each experiment id used in DESIGN.md / EXPERIMENTS.md
to a short description and the callable that regenerates it.  The
benchmark suite iterates this registry so that every figure has a
bench target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .accuracy import FIG5_EXPERIMENTS, run_accuracy_experiment
from .cost import print_cost_accuracy
from .extrapolation import print_extrapolation
from .performance import FIGURE_SETUPS, print_epoch_bars
from .scalability import SCALABILITY_SETUPS, print_scalability
from .throughput import print_throughput_tables

__all__ = ["Experiment", "EXPERIMENTS", "run_experiment"]


@dataclass(frozen=True)
class Experiment:
    """One reproducible artefact of the paper."""

    exp_id: str
    paper_artefact: str
    description: str
    runner: Callable[[], object]


def _accuracy_runner(figure: str) -> Callable[[], object]:
    return lambda: run_accuracy_experiment(figure, scale="quick")


def _build_registry() -> dict[str, Experiment]:
    registry: dict[str, Experiment] = {}
    for figure, experiment in FIG5_EXPERIMENTS.items():
        registry[figure] = Experiment(
            exp_id=figure,
            paper_artefact=f"Figure 5 ({figure[-1]})",
            description=experiment.title,
            runner=_accuracy_runner(figure),
        )
    for figure in FIGURE_SETUPS:
        machine, exchange, _, _ = FIGURE_SETUPS[figure]
        registry[figure] = Experiment(
            exp_id=figure,
            paper_artefact=f"Figure {figure[3:]}",
            description=(
                f"time per epoch on {machine} over {exchange.upper()}"
            ),
            runner=lambda f=figure: print_epoch_bars(f),
        )
    registry["fig10"] = Experiment(
        "fig10",
        "Figure 10",
        "samples/second tables, EC2 over MPI",
        lambda: print_throughput_tables("mpi"),
    )
    registry["fig11"] = Experiment(
        "fig11",
        "Figure 11",
        "samples/second tables, EC2 over NCCL",
        lambda: print_throughput_tables("nccl"),
    )
    for figure in SCALABILITY_SETUPS:
        family, exchange, _, _ = SCALABILITY_SETUPS[figure]
        registry[figure] = Experiment(
            exp_id=figure,
            paper_artefact=f"Figure {figure[3:]}",
            description=f"scalability on {family} over {exchange.upper()}",
            runner=lambda f=figure: print_scalability(f),
        )
    registry["fig16-left"] = Experiment(
        "fig16-left",
        "Figure 16 (left)",
        "EC2 training cost vs accuracy",
        print_cost_accuracy,
    )
    registry["fig16-right"] = Experiment(
        "fig16-right",
        "Figure 16 (right)",
        "speedup vs model-size/compute ratio (dummy models)",
        print_extrapolation,
    )
    registry["fabric-sweep"] = Experiment(
        "fabric-sweep",
        "extension (fabric)",
        "collective makespans at K=64..256 on a leaf-spine Clos",
        # the quick registry cell stops at K=256; the benchmark suite
        # runs the full 64..1024 sweep
        _fabric_sweep_cell,
    )
    return registry


def _fabric_sweep_cell() -> None:
    from .fabric import print_fabric_sweep  # the simulator loads on use

    print_fabric_sweep(world_sizes=(64, 128, 256))


EXPERIMENTS: dict[str, Experiment] = _build_registry()


def run_experiment(exp_id: str) -> object:
    """Run one registered experiment by id."""
    try:
        experiment = EXPERIMENTS[exp_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {exp_id!r}; expected one of "
            f"{sorted(EXPERIMENTS)}"
        ) from None
    return experiment.runner()
