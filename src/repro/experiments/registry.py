"""Registry mapping experiment ids to their unified entry points.

Every entry speaks the :class:`~repro.experiments.api.RunRequest` →
:class:`~repro.experiments.api.RunResult` protocol through two
callables:

* ``execute`` — the whole experiment (``python -m repro run <id>``);
* ``point`` — one sweep point, which is what the plan runner
  (:func:`repro.runtime.executor.registry_runner`) calls. Entries with
  a cheaper per-point entry (fig6/fig9/fig10: one grid value per call)
  set it to their module's ``run_point``; for every other entry it is
  ``execute``, so a sweep point is a whole run with that point's
  parameters — which is what a replication-only sweep
  (``--replications N``) wants anyway.

Entries that support parameter sweeps additionally carry
``sweep_grid`` / ``sweep_base`` — the default grid (the figure's
x-axis values) and fixed parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.experiments import (
    ablations,
    fig1_cpu_scalability,
    fig2_memory_pressure,
    fig3_fairness,
    fig6_rule_scaling,
    fig7_topology,
    fig8_download_evolution,
    fig9_folding,
    fig10_scalability,
    fig11_completion,
    tbl_alias_overhead,
    tbl_connect_overhead,
)
from repro.experiments.api import Execute, make_execute
from repro.units import MB


@dataclass(frozen=True)
class ExperimentEntry:
    """One reproducible paper artefact."""

    id: str
    title: str
    #: Whole-experiment entry point: ``RunRequest -> RunResult``.
    execute: Execute
    #: What one sweep point runs (``execute`` unless the module has a
    #: per-point entry).
    point: Execute
    #: Default sweep grid: parameter name -> values (the figure's x-axis).
    sweep_grid: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    #: Fixed parameters every sweep point receives by default.
    sweep_base: Tuple[Tuple[str, Any], ...] = ()

    @property
    def sweep_grid_dict(self) -> Dict[str, Tuple[Any, ...]]:
        return dict(self.sweep_grid)

    @property
    def sweep_base_dict(self) -> Dict[str, Any]:
        return dict(self.sweep_base)


def _entry(
    id: str,
    title: str,
    execute: Execute,
    point: Optional[Execute] = None,
    sweep_grid: Optional[Dict[str, tuple]] = None,
    sweep_base: Optional[Dict[str, Any]] = None,
) -> ExperimentEntry:
    return ExperimentEntry(
        id=id,
        title=title,
        execute=execute,
        point=point if point is not None else execute,
        sweep_grid=tuple(sorted((k, tuple(v)) for k, v in (sweep_grid or {}).items())),
        sweep_base=tuple(sorted((sweep_base or {}).items())),
    )


EXPERIMENTS: Dict[str, ExperimentEntry] = {
    e.id: e
    for e in [
        _entry(
            "fig1",
            "CPU-bound process scalability",
            fig1_cpu_scalability.run,
        ),
        _entry(
            "fig2",
            "Memory-intensive processes and swap",
            fig2_memory_pressure.run,
        ),
        _entry(
            "fig3",
            "Scheduler fairness CDFs",
            fig3_fairness.run,
        ),
        _entry(
            "tblA",
            "libc interception connect overhead",
            tbl_connect_overhead.run,
        ),
        _entry(
            "tblB",
            "interface alias overhead",
            tbl_alias_overhead.run,
        ),
        _entry(
            "fig6",
            "RTT vs firewall rule count",
            fig6_rule_scaling.run,
            fig6_rule_scaling.run_point,
            sweep_grid={
                "rule_count": (0, 10000, 20000, 30000, 40000, 50000)
            },
            sweep_base={"pings_per_point": 5},
        ),
        _entry(
            "fig7",
            "Hierarchical topology emulation",
            fig7_topology.run,
        ),
        _entry(
            "fig8",
            "160-client BitTorrent download evolution",
            fig8_download_evolution.run,
        ),
        _entry(
            "fig9",
            "Folding ratio",
            fig9_folding.run,
            fig9_folding.run_point,
            sweep_grid={"num_pnodes": (160, 16, 8, 4, 2)},
            sweep_base={"leechers": 160, "seeders": 4, "file_size": 16 * MB},
        ),
        _entry(
            "fig10",
            "5754-client scalability (progress)",
            fig10_scalability.run,
            fig10_scalability.run_point,
            sweep_grid={"scale": (0.01, 0.02, 0.05)},
        ),
        _entry(
            "fig11",
            "5754-client scalability (completions)",
            fig11_completion.run,
        ),
        _entry(
            "abl-rule-lookup",
            "Linear vs hash-indexed firewall",
            make_execute(
                ablations.run_rule_lookup_ablation, ablations.print_rule_lookup_report
            ),
        ),
        _entry(
            "abl-uplink",
            "Folding overhead from port saturation",
            make_execute(
                ablations.run_uplink_saturation_ablation, ablations.print_uplink_report
            ),
        ),
        _entry(
            "abl-choker",
            "Tit-for-tat on/off",
            make_execute(ablations.run_choker_ablation, ablations.print_choker_report),
        ),
        _entry(
            "abl-stagger",
            "Client start stagger",
            make_execute(
                ablations.run_stagger_ablation, ablations.print_stagger_report
            ),
        ),
        _entry(
            "abl-acks",
            "Explicit TCP ACKs vs window-credit shortcut",
            make_execute(ablations.run_ack_ablation, ablations.print_ack_report),
        ),
        _entry(
            "abl-ule-gen",
            "ULE fairness: FreeBSD 5 vs 6",
            make_execute(
                ablations.run_ule_generation_ablation, ablations.print_ule_generation_report
            ),
        ),
        _entry(
            "abl-superseed",
            "Super-seeding vs normal initial seeding",
            make_execute(
                ablations.run_superseed_ablation, ablations.print_superseed_report
            ),
        ),
        _entry(
            "abl-departure",
            "Stay-and-seed vs selfish departure",
            make_execute(
                ablations.run_departure_ablation, ablations.print_departure_report
            ),
        ),
    ]
}


def get_experiment(experiment_id: str) -> ExperimentEntry:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}") from None
