"""Finite subsets and ordered tuples over a Hadamard backend.

``FiniteSubset`` models an element of the space of nonempty subsets with at
most n points under the Hausdorff metric; ``PointTuple`` models an element
of the n-fold product space.  Conversions between the two are the bridge
the retraction machinery is built on.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

from .geometry import (
    GeometryError,
    Point,
    SpaceDescriptor,
    SpaceMismatchError,
    _check_kind,
    _gaps,
    point_sort_key,
    space_from_json,
)


def pairwise_distances(space: SpaceDescriptor, pts) -> list[float]:
    """d(pts[i], pts[j]) for every i < j, in ``itertools.combinations`` order."""
    pts = tuple(pts)
    for p in pts:
        _check_kind(space, p)
    return _gaps(space, [p.data for p in pts])


def _points_from_json(obj, what: str, field: str):
    """The space and the points of a {"space": ..., field: [...]} payload."""
    if not isinstance(obj, dict) or "space" not in obj or field not in obj:
        raise GeometryError(f'{what} JSON must carry "space" and "{field}"')
    space = space_from_json(obj["space"])
    items = obj[field]
    if not isinstance(items, (list, tuple)):
        raise GeometryError(f'"{field}" must be a JSON array of points')
    if not items:
        raise GeometryError("empty set")
    return space, [space.point_from_json(p) for p in items]


@dataclass(frozen=True)
class PointTuple:
    """Ordered tuple of points, an element of the product space.

    Construction checks every coordinate once (``space._check_point``: its
    kind; its coordinate count, or on a tree its edge and offset); the flow
    kernels and the helpers below that take a tuple or subset rely on that
    check.
    """

    space: SpaceDescriptor
    coords: tuple[Point, ...]

    def __post_init__(self) -> None:
        coords = tuple(self.coords)
        if not coords:
            raise GeometryError("a tuple needs at least one coordinate")
        for p in coords:
            self.space._check_point(p)
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return len(self.coords)

    def to_json(self):
        return {
            "space": self.space.to_json(),
            "coords": [self.space.point_to_json(p) for p in self.coords],
        }

    @staticmethod
    def from_json(obj) -> "PointTuple":
        space, coords = _points_from_json(obj, "tuple", "coords")
        return PointTuple(space, tuple(coords))


@dataclass(frozen=True)
class FiniteSubset:
    """Canonical nonempty finite subset: deduplicated, deterministically ordered.

    Stored points are pairwise more than ``dedup_tolerance`` apart and sorted
    by their canonical serialization, so value equality is set equality.
    Build instances with :func:`make_subset` (or :func:`to_set`), which merge
    near-duplicates; the constructor itself rejects non-canonical input.
    """

    space: SpaceDescriptor
    points: tuple[Point, ...]
    # construction record only; two subsets with the same points are equal
    dedup_tolerance: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        points = tuple(self.points)
        if not points:
            raise GeometryError("a finite subset needs at least one point")
        if self.dedup_tolerance < 0.0:
            raise GeometryError("dedup tolerance must be >= 0")
        for p in points:
            self.space._check_point(p)
        keys = [point_sort_key(self.space, p) for p in points]
        if any(a > b for a, b in zip(keys, keys[1:])):
            raise GeometryError("points are not in canonical order; use make_subset")
        if any(d <= self.dedup_tolerance for d in _gaps(self.space, [p.data for p in points])):
            raise GeometryError("points closer than the dedup tolerance; use make_subset")
        object.__setattr__(self, "points", points)

    @classmethod
    def _sorted(cls, space: SpaceDescriptor, points: tuple[Point, ...],
                dedup_tolerance: float) -> "FiniteSubset":
        # make_subset's way in, past the constructor's checks, which it has
        # made already: it checked each point (canonicalize), found every
        # pair more than dedup_tolerance apart (its last _clusters pass,
        # whose seeds are the points) and sorted the points by their sort
        # keys.
        out = cls.__new__(cls)
        object.__setattr__(out, "space", space)
        object.__setattr__(out, "points", points)
        object.__setattr__(out, "dedup_tolerance", dedup_tolerance)
        return out

    def __len__(self) -> int:
        return len(self.points)

    def to_json(self):
        return {
            "space": self.space.to_json(),
            "points": [self.space.point_to_json(p) for p in self.points],
        }

    @staticmethod
    def from_json(obj) -> "FiniteSubset":
        space, points = _points_from_json(obj, "subset", "points")
        return make_subset(space, points, 0.0)


def _clusters(space: SpaceDescriptor, data: list[tuple], tol: float) -> list[list[int]]:
    # Single linkage: indices of the checked points' data within tol are
    # chained into one cluster.  Discovery order follows the input order, so
    # results are deterministic.
    gap = space._gap
    n = len(data)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i]:
            continue
        cluster = [i]
        seen[i] = True
        frontier = [i]
        while frontier:
            a = frontier.pop(0)
            for b in range(n):
                if not seen[b] and gap(data[a], data[b]) <= tol:
                    seen[b] = True
                    cluster.append(b)
                    frontier.append(b)
        out.append(cluster)
    return out


def make_subset(space: SpaceDescriptor, points, dedup_tolerance: float = 0.0) -> FiniteSubset:
    """Canonicalize raw points into a ``FiniteSubset``.

    Points within ``dedup_tolerance`` of each other (by chained single
    linkage) are replaced by one representative, built by folding the
    cluster through pairwise geodesic midpoints in discovery order.  Each
    point is checked once, on entry (``space.canonicalize``), and the
    clustering runs on the distance kernel over the checked data, and stops
    after a pass whose folds all returned their cluster's first point.  That
    pass found every pair of those points more than ``dedup_tolerance``
    apart, so the subset is built without the constructor's checks.
    """
    pts = [space.canonicalize(p) for p in points]
    if not pts:
        raise GeometryError("a finite subset needs at least one point")
    if dedup_tolerance < 0.0:
        raise GeometryError("dedup tolerance must be >= 0")
    while True:
        clusters = _clusters(space, [p.data for p in pts], dedup_tolerance)
        merged = []
        for cluster in clusters:
            rep = pts[cluster[0]]
            for idx in cluster[1:]:
                rep = space.geodesic_point(rep, pts[idx], 0.5)
            merged.append(rep)
        # Each seed (a cluster's first point) was compared with every later
        # seed as its cluster grew, so once every fold returns its seed (a
        # singleton, or equal points) the seeds are more than tol apart.
        done = all(rep is pts[cluster[0]] for rep, cluster in zip(merged, clusters))
        pts = merged
        if done:
            break
    pts.sort(key=lambda p: point_sort_key(space, p))
    return FiniteSubset._sorted(space, tuple(pts), dedup_tolerance)


def _check_same_space(a, b) -> None:
    if a.space != b.space:
        raise SpaceMismatchError("operands live in different spaces")


def hausdorff_distance(a: FiniteSubset, b: FiniteSubset) -> float:
    """Hausdorff distance: the larger of the two directed max-min distances."""
    _check_same_space(a, b)
    gap = a.space._gap
    ad = [p.data for p in a.points]
    bd = [q.data for q in b.points]
    worst = 0.0
    for p in ad:
        worst = max(worst, min(gap(p, q) for q in bd))
    for q in bd:
        worst = max(worst, min(gap(p, q) for p in ad))
    return worst


def product_distance(x: PointTuple, y: PointTuple) -> float:
    """l2 product metric: sqrt of the sum of squared coordinate distances."""
    _check_same_space(x, y)
    if len(x) != len(y):
        raise GeometryError(f"tuple lengths differ: {len(x)} vs {len(y)}")
    gap = x.space._gap
    # Summed left to right: the builtin sum rounds differently from Python 3.12 on.
    return math.sqrt(functools.reduce(
        operator.add, (gap(p.data, q.data) ** 2 for p, q in zip(x.coords, y.coords)), 0.0))


def min_gap(x: PointTuple) -> float:
    """Smallest pairwise coordinate distance; needs at least two coordinates."""
    if len(x) < 2:
        raise GeometryError("min gap needs at least two coordinates")
    return min(_gaps(x.space, [p.data for p in x.coords]))


def max_spread(x: PointTuple) -> float:
    """Largest pairwise coordinate distance; needs at least two coordinates."""
    if len(x) < 2:
        raise GeometryError("max spread needs at least two coordinates")
    return max(_gaps(x.space, [p.data for p in x.coords]))


def to_set(x: PointTuple, tol: float) -> FiniteSubset:
    """Collapse a tuple to the subset of its coordinates, merging within tol."""
    return make_subset(x.space, x.coords, tol)


def order_tuple(a: FiniteSubset, pad_to: int) -> PointTuple:
    """Deterministic numbering of a subset as a ``pad_to``-tuple.

    The closest pair comes first (ties broken by serialized order), the
    remaining points follow in canonical order, and the last point repeats
    to reach length ``pad_to``.  Singletons repeat their only point.
    """
    if pad_to < 1:
        raise GeometryError("pad_to must be >= 1")
    if len(a) > pad_to:
        raise GeometryError(f"cannot number {len(a)} points as a {pad_to}-tuple")
    pts = list(a.points)
    if len(pts) >= 2:
        ds = _gaps(a.space, [p.data for p in pts])
        i, j = list(itertools.combinations(range(len(pts)), 2))[ds.index(min(ds))]
        first = [pts[i], pts[j]]
        rest = [p for k, p in enumerate(pts) if k not in (i, j)]
        pts = first + rest
    coords = pts + [pts[-1]] * (pad_to - len(pts))
    return PointTuple(a.space, tuple(coords))
