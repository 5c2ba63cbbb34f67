"""One experiment driver per table and figure of the paper's evaluation,
plus its three ablations and the aggregation extension.

Every driver is ``(scale: float = 1.0) -> ExperimentResult``: a figure's
or table's module exposes it as ``run``; :mod:`.ablations` holds the four
others.  The registry maps the CLI names (``table1``, ``fig8``, ...) to
drivers.
"""

from typing import Callable, Dict

from repro.bench.harness import ExperimentResult

from repro.bench.experiments import (
    ablations,
    fig07_distribution,
    fig08_reevaluations,
    fig09_location,
    fig10_scalability,
    fig11_amortization,
    fig12_reference_time,
    fig13_result_size,
    table01_domains,
    table03_datasets,
    table04_cardinality,
    table05_storage,
)

__all__ = ["REGISTRY"]

REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": table01_domains.run,
    "table3": table03_datasets.run,
    "table4": table04_cardinality.run,
    "table5": table05_storage.run,
    "fig7": fig07_distribution.run,
    "fig8": fig08_reevaluations.run,
    "fig9": fig09_location.run,
    "fig10": fig10_scalability.run,
    "fig11": fig11_amortization.run,
    "fig12": fig12_reference_time.run,
    "fig13": fig13_result_size.run,
    "ablation_index": ablations.index,
    "ablation_planner": ablations.planner,
    "ablation_predicates": ablations.predicates,
    "extension_aggregation": ablations.aggregation,
}
