"""Lipschitz retraction from at-most-n subsets onto at-most-(n-1) subsets.

A subset of full cardinality n is numbered as a tuple with its closest
pair first, flowed until some pair of coordinates merges (by the splitting
sweeps; exactly on a metric tree), and collapsed back to a subset; anything
smaller is already in the target space and passes through untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import GeometryError
from .flow import FlowConfig, merge_time
# min_gap is no longer called here, but stays a name of this module:
# bench/spans.py wraps retraction.min_gap when it traces a run.
from .subset_space import FiniteSubset, min_gap, order_tuple, to_set  # noqa: F401


@dataclass(frozen=True)
class RetractReport:
    """A retraction outcome plus the bookkeeping needed to audit it."""

    input: FiniteSubset
    output: FiniteSubset
    merge_time_used: float
    input_cardinality: int
    output_cardinality: int

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
    if n < 2:
        raise GeometryError("the retraction is defined for n >= 2")
    return max(4.0 * n**1.5 + 1.0, 2.0 * n**2 + math.sqrt(n))


def retract(a: FiniteSubset, n: int, cfg: FlowConfig = FlowConfig()) -> RetractReport:
    """Retract a subset of at most n points onto at most n-1 points.

    Subsets with fewer than n points are returned unchanged.  A full
    n-point subset is ordered with its closest pair first, flowed by
    ``merge_time`` until a pair merges (marched by sweeps; exactly on a
    tree), and collapsed with a tolerance proportional to its starting min
    gap, which removes at least one point.
    """
    if n < 2:
        raise GeometryError("the retraction is defined for n >= 2")
    if len(a) > n:
        raise GeometryError(f"subset has {len(a)} points, more than the bound {n}")
    if len(a) < n:
        return RetractReport(
            input=a,
            output=a,
            merge_time_used=0.0,
            input_cardinality=len(a),
            output_cardinality=len(a),
        )
    x = order_tuple(a, n)
    # order_tuple puts the closest pair first; positive, because a canonical
    # n-point subset has no duplicates
    delta = x.space._gap(x.coords[0].data, x.coords[1].data)
    t_star, merged = merge_time(x, cfg)
    out = to_set(merged, cfg.merge_tolerance * delta)
    return RetractReport(
        input=a,
        output=out,
        merge_time_used=t_star,
        input_cardinality=len(a),
        output_cardinality=len(out),
    )
