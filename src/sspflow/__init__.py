"""Min-cost flow by successive shortest paths, plus a perturbation lab.

The package has three layers:

* core: flow networks, the single source/sink transform, residual_arcs
  (the one rule for which residual arcs a flow leaves present),
  DIMACS-style file I/O (``network``, ``dimacs``)
* solver: the successive-shortest-path algorithm with full step traces
  and the value-vs-cost profile (``solver``)
* laboratory: structural checks on traces, flow reconstruction from a
  single residual arc, perturbed-instance generators, and the
  exponential worst-case family (``analysis``, ``generators``,
  ``lowerbound``)
"""

from .analysis import (
    check_lemmas,
    check_reconstruction,
    classify,
    exact_check,
    harvest_reconstruction_cases,
    reconstruct,
    reference_solve,
    replay_flows,
    verify_optimality,
)
from .dimacs import read_instance, write_instance
from .errors import (
    AuxiliaryArc,
    BadParams,
    BalanceMismatch,
    FlowError,
    InfeasibleFlow,
    InfeasibleShape,
    InternalInvariantError,
    InvalidInterval,
    InvariantError,
    IterationCapExceeded,
    NoPath,
    ParseError,
    PredictionMismatch,
)
from .generators import (
    SmoothedCostSpec,
    adversarial_spec,
    assign_integer_costs,
    bipartite_topology,
    effective_phi,
    erdos_topology,
    layered_topology,
    parse_cost_spec,
    perturbed_integer,
    random_topology,
    sample_costs,
)
from .lowerbound import (
    HardInstance,
    LowerBoundParams,
    StageInstance,
    build_hard_instance,
    build_worstcase,
    stage_sequence,
    verify_count,
)
from .network import (
    AUXILIARY,
    ORIGINAL,
    Edge,
    FlowNetwork,
    TransformedNetwork,
    as_transformed,
    check_feasible,
    residual_arcs,
    transform,
)
from .solver import (
    AugmentationStep,
    AugmentationTrace,
    Outcome,
    cost_function,
    cost_function_from_steps,
    run_ssp,
)

__version__ = "0.1.0"

__all__ = [
    "AUXILIARY",
    "ORIGINAL",
    "AugmentationStep",
    "AugmentationTrace",
    "AuxiliaryArc",
    "BadParams",
    "BalanceMismatch",
    "Edge",
    "FlowError",
    "FlowNetwork",
    "HardInstance",
    "InfeasibleFlow",
    "InfeasibleShape",
    "InternalInvariantError",
    "InvalidInterval",
    "InvariantError",
    "IterationCapExceeded",
    "LowerBoundParams",
    "NoPath",
    "Outcome",
    "ParseError",
    "PredictionMismatch",
    "SmoothedCostSpec",
    "StageInstance",
    "TransformedNetwork",
    "adversarial_spec",
    "as_transformed",
    "assign_integer_costs",
    "bipartite_topology",
    "build_hard_instance",
    "build_worstcase",
    "check_feasible",
    "check_lemmas",
    "check_reconstruction",
    "classify",
    "cost_function",
    "cost_function_from_steps",
    "effective_phi",
    "erdos_topology",
    "exact_check",
    "harvest_reconstruction_cases",
    "layered_topology",
    "parse_cost_spec",
    "perturbed_integer",
    "random_topology",
    "read_instance",
    "reconstruct",
    "reference_solve",
    "replay_flows",
    "residual_arcs",
    "run_ssp",
    "sample_costs",
    "stage_sequence",
    "transform",
    "verify_count",
    "verify_optimality",
    "write_instance",
]
