"""Cache placement for small-cell networks via conflict-graph coloring."""

from .classify import (
    ClassWeights,
    ConvergenceError,
    classify_and_weigh,
    matern_type_i,
    matern_type_ii,
)
from .coloring import (
    CapacityError,
    Coloring,
    exact_min_coloring,
    greedy_color_by_degree,
    greedy_color_by_weight,
)
from .geometry import PointSet, pairs_within, sample_binomial_disk
from .netgraph import (
    SimpleGraph,
    access_pairs,
    build_class_graph,
    individual_thresholds,
    threshold_graph,
    universal_threshold,
)
from .placement import Placement, place_by_coloring, place_most_popular, placement_matrix
from .popularity import Catalog
from .sim import (
    ReplicationError,
    ScenarioConfig,
    SimResult,
    mbs_load_reduction,
    run_replication,
    run_scenario,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
