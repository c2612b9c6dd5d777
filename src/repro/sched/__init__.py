"""CDCS's core scheduling algorithms: the cost model (Eqs 1-2), latency-
aware allocation, optimistic VC placement, thread placement, trade-based
refinement, and the 4-step reconfiguration pipeline (Fig 4)."""

from repro.sched.allocation import (
    allocate_latency_aware,
    allocate_miss_driven,
    convex_hull_indices,
)
from repro.sched.engine import (
    STRATEGIES,
    EngineState,
    HierarchicalSolve,
    IncrementalSolve,
    ReconfigEngine,
    SolveStrategy,
    auto_regions,
    make_strategy,
    strategy_names,
)
from repro.sched.cost_model import (
    latency_curve,
    miss_only_curve,
    off_chip_latency,
    on_chip_latency,
    optimistic_on_chip_curve,
    total_latency,
)
from repro.sched.opcount import CYCLES_PER_OP, StepCounter
from repro.sched.problem import PlacementProblem, PlacementSolution, ThreadSpec
from repro.sched.reconfigure import (
    ReconfigPolicy,
    ReconfigResult,
    reconfigure,
    reconfigure_schemes,
)
from repro.sched.refinement import (
    greedy_placement,
    refined_placement,
    trade_refinement,
)
from repro.sched.thread_placement import (
    clustered_thread_placement,
    place_threads,
    random_thread_placement,
)
from repro.sched.vc_placement import OptimisticPlacement, place_optimistic

__all__ = [
    "CYCLES_PER_OP",
    "EngineState",
    "HierarchicalSolve",
    "IncrementalSolve",
    "OptimisticPlacement",
    "PlacementProblem",
    "PlacementSolution",
    "ReconfigEngine",
    "ReconfigPolicy",
    "ReconfigResult",
    "STRATEGIES",
    "SolveStrategy",
    "StepCounter",
    "ThreadSpec",
    "allocate_latency_aware",
    "allocate_miss_driven",
    "auto_regions",
    "make_strategy",
    "strategy_names",
    "clustered_thread_placement",
    "convex_hull_indices",
    "greedy_placement",
    "latency_curve",
    "miss_only_curve",
    "off_chip_latency",
    "on_chip_latency",
    "optimistic_on_chip_curve",
    "place_optimistic",
    "place_threads",
    "random_thread_placement",
    "reconfigure",
    "reconfigure_schemes",
    "refined_placement",
    "total_latency",
    "trade_refinement",
]
