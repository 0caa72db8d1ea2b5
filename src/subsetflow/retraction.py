"""Lipschitz retraction from at-most-n subsets onto at-most-(n-1) subsets.

A subset of full cardinality n is flowed until some pair of its points
merges and collapsed back to a subset; anything smaller is already in the
target space and passes through untouched.  Where the merge runs no march
(``geometry._merges_exactly``), the flow runs exactly from the set's points
in their canonical order (it needs no numbering), and the output is the set
of points where it stops: the points that met share one point, and no
tolerance merges anything else.  Elsewhere the set is numbered as a tuple
with its closest pair first, marched by the splitting sweeps, and collapsed
with a tolerance proportional to its starting min gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import GeometryError, _check_count, _check_type, _merges_exactly
from .flow import FlowConfig, merge_time
# min_gap is no longer called here, but stays a name of this module:
# bench/spans.py wraps retraction.min_gap when it traces a run.
from .subset_space import (FiniteSubset, PointTuple, _built, _set_of,  # noqa: F401
                           min_gap, order_tuple, to_set)


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
    n-point subset is flowed by ``merge_time`` until a pair merges.  Where
    that merge runs no march (``_merges_exactly``: two points, or a tree,
    the line or hyperboloid:1), the flow starts from the points in their
    canonical order and runs exactly, and ``cfg`` is not read: the output is
    the set of distinct points it stops at, in sort-key order, with no
    ``to_set`` and no tolerance, so a third point however close to the pair
    is kept.

    Elsewhere the subset is ordered with its closest pair first, marched by
    sweeps, and collapsed with ``cfg.merge_tolerance`` times its starting
    min gap, which removes at least one point.
    """
    _check_type("a", a, FiniteSubset)
    _check_type("cfg", cfg, FlowConfig)
    _check_count("n", n, 2)
    size = len(a.points)
    if size > n:
        raise GeometryError(f"subset has {size} points, more than the bound {n}")
    # RetractReport's constructor checks nothing, so each report is built in
    # one step (_built).
    if size < n:
        return _built(RetractReport, input=a, output=a, merge_time_used=0.0)
    space = a.space
    if _merges_exactly(space, n):
        # a's points were checked when a was built, so they go in as a tuple
        # and come out as a set by _set_of, with no second check.  The points
        # that met share one Point (two points share their midpoint), and two
        # points at one place are equal data (a tree place has one canonical
        # form; on the line -0.0 == 0.0, and hyperboloid:1 lifts each
        # arclength once), so the distinct Points are the
        # output set: to_set at tolerance 0 would merge only those.
        t_star, merged = merge_time(_built(PointTuple, space=space, coords=a.points), cfg)
        return _built(RetractReport, input=a, output=_set_of(space, dict.fromkeys(merged.coords)),
                      merge_time_used=t_star)
    x = order_tuple(a, n)
    # order_tuple puts the closest pair first; positive, because a
    # canonical n-point subset has no duplicates
    tol = cfg.merge_tolerance * space._gap(x.coords[0].data, x.coords[1].data)
    t_star, merged = merge_time(x, cfg)
    return _built(RetractReport, input=a, output=to_set(merged, tol), merge_time_used=t_star)
