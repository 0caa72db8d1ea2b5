"""Lipschitz retractions of finite subset spaces over Hadamard geometries.

Gradient-flow construction: the sum-of-pairwise-distances objective is
driven by a cyclic proximal splitting until the first pair of points
merges, which retracts an n-point set to at most n-1 points with a
controlled Lipschitz constant.  Three concrete backends (Euclidean,
hyperboloid, metric tree) and a randomized harness that checks every
bound the construction relies on.
"""

from .geometry import (
    EuclideanSpace,
    GeometryError,
    HyperboloidSpace,
    Point,
    SpaceMismatchError,
    TreeEdge,
    TreeSpace,
    TreeTopology,
    make_space,
    space_from_json,
)
from .subset_space import (
    FiniteSubset,
    PointTuple,
    hausdorff_distance,
    make_subset,
    max_spread,
    min_gap,
    order_tuple,
    pairwise_distances,
    product_distance,
    to_set,
)
from .flow import (
    FlowConfig,
    FlowReport,
    flow_adaptive,
    full_resolvent_oracle,
    merge_time,
    pair_resolvent,
    splitting_flow,
    sum_pairwise_distances,
    sweep,
)
from .retraction import RetractReport, lipschitz_constant_bound, retract
from .verify import (
    CheckResult,
    ScanConfig,
    ScanReport,
    bound_suite,
    convergence_study,
    lipschitz_scan,
)

__all__ = [
    "CheckResult",
    "EuclideanSpace",
    "FiniteSubset",
    "FlowConfig",
    "FlowReport",
    "GeometryError",
    "HyperboloidSpace",
    "Point",
    "PointTuple",
    "RetractReport",
    "ScanConfig",
    "ScanReport",
    "SpaceMismatchError",
    "TreeEdge",
    "TreeSpace",
    "TreeTopology",
    "bound_suite",
    "convergence_study",
    "flow_adaptive",
    "full_resolvent_oracle",
    "hausdorff_distance",
    "lipschitz_constant_bound",
    "lipschitz_scan",
    "make_space",
    "make_subset",
    "max_spread",
    "merge_time",
    "min_gap",
    "order_tuple",
    "pair_resolvent",
    "pairwise_distances",
    "product_distance",
    "retract",
    "space_from_json",
    "splitting_flow",
    "sum_pairwise_distances",
    "sweep",
    "to_set",
]

__version__ = "0.1.0"
