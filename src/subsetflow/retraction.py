"""Lipschitz retraction from at-most-n subsets onto at-most-(n-1) subsets.

A subset of full cardinality n is flowed until some pair of its points
merges and collapsed back to a subset; anything smaller is already in the
target space and passes through untouched.  On a metric tree the flow runs
exactly, from the set's points in their canonical order (it needs no
numbering), and the output is the set of points where it stops: the pair
that met shares one point, and no tolerance merges anything else.  On the
euclidean and hyperboloid backends the set is numbered as a tuple with its
closest pair first, marched by the splitting sweeps, and collapsed with a
tolerance proportional to its starting min gap.  On every backend a
two-point set is not marched: its points meet at their geodesic midpoint,
so the output is that one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import GeometryError, TreeSpace, _check_count
from .flow import FlowConfig, merge_time
# min_gap is no longer called here, but stays a name of this module:
# bench/spans.py wraps retraction.min_gap when it traces a run.
from .subset_space import FiniteSubset, PointTuple, min_gap, order_tuple, to_set  # noqa: F401


@dataclass(frozen=True)
class RetractReport:
    """A retraction outcome plus the bookkeeping needed to audit it."""

    input: FiniteSubset
    output: FiniteSubset
    merge_time_used: float

    @property
    def input_cardinality(self) -> int:
        return len(self.input)

    @property
    def output_cardinality(self) -> int:
        return len(self.output)

    def to_json(self):
        return {
            "input": self.input.to_json(),
            "output": self.output.to_json(),
            "merge_time_used": self.merge_time_used,
            "input_cardinality": self.input_cardinality,
            "output_cardinality": self.output_cardinality,
        }


def lipschitz_constant_bound(n: int) -> float:
    """Proved Lipschitz constant for the retraction at cardinality bound n."""
    _check_count("n", n, 2)
    return max(4.0 * n**1.5 + 1.0, 2.0 * n**2 + math.sqrt(n))


def retract(a: FiniteSubset, n: int, cfg: FlowConfig = FlowConfig()) -> RetractReport:
    """Retract a subset of at most n points onto at most n-1 points.

    Subsets with fewer than n points are returned unchanged.  A full
    n-point subset is flowed by ``merge_time`` until a pair merges.  On a
    tree the flow starts from the points in their canonical order and runs
    exactly; the pair that met shares one point, so the output is the set of
    points it stops at, with no tolerance: ``cfg.merge_tolerance`` is
    not read, and a third point however close to the pair is kept.
    Elsewhere the subset is ordered with its closest pair first, marched by
    sweeps, and collapsed with ``cfg.merge_tolerance`` times its starting
    min gap, which removes at least one point.  For n = 2 ``merge_time``
    marches nothing and reads no ``cfg``: the two points meet at their
    geodesic midpoint at half their distance, and that point is the output.
    """
    _check_count("n", n, 2)
    if len(a) > n:
        raise GeometryError(f"subset has {len(a)} points, more than the bound {n}")
    if len(a) < n:
        return RetractReport(input=a, output=a, merge_time_used=0.0)
    if isinstance(a.space, TreeSpace):
        x, tol = PointTuple(a.space, a.points), 0.0
    else:
        x = order_tuple(a, n)
        # order_tuple puts the closest pair first; positive, because a
        # canonical n-point subset has no duplicates
        tol = cfg.merge_tolerance * x.space._gap(x.coords[0].data, x.coords[1].data)
    t_star, merged = merge_time(x, cfg)
    return RetractReport(input=a, output=to_set(merged, tol), merge_time_used=t_star)
