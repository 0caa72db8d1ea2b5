"""Finite subsets and ordered tuples over a Hadamard backend.

``FiniteSubset`` models an element of the space of nonempty subsets with at
most n points under the Hausdorff metric; ``PointTuple`` models an element
of the n-fold product space.  Conversions between the two are the bridge
the retraction machinery is built on.

A subset the library builds from points it holds checked, canonical and
apart is ``_set_of`` them: sorted, past the constructor's checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .geometry import (
    GeometryError,
    Point,
    SpaceDescriptor,
    SpaceMismatchError,
    TreeSpace,
    _check_count,
    _check_space,
    _check_type,
    _gaps,
    _pair_indices,
    _real,
    _toward,
    _total,
    space_from_json,
)


def pairwise_distances(space: SpaceDescriptor, pts) -> list[float]:
    """d(pts[i], pts[j]) for every i < j, in ``itertools.combinations`` order; each is checked."""
    _check_space(space)
    pts = tuple(pts)
    for p in pts:
        space._check_point(p)
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

    The constructor checks every coordinate (``space._check_point``: its
    kind; its coordinate count, or on a tree its edge and offset); the flow
    kernels and the helpers below that take a tuple or subset rely on that
    check.  It is the way in for outside points; a tuple the library builds
    from checked points is not checked again.
    """

    space: SpaceDescriptor
    coords: tuple[Point, ...]

    def __post_init__(self) -> None:
        _check_space(self.space)
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
        # point_from_json has checked each point.
        space, coords = _points_from_json(obj, "tuple", "coords")
        return _built(PointTuple, space=space, coords=tuple(coords))


@dataclass(frozen=True)
class FiniteSubset:
    """Canonical nonempty finite subset: deduplicated, deterministically ordered.

    Stored points are pairwise more than ``dedup_tolerance`` apart and sorted
    by their canonical serialization, so value equality is set equality.
    Build instances with :func:`make_subset` (or :func:`to_set`), which merge
    near-duplicates; the constructor itself rejects non-canonical input,
    a tree vertex given on another edge than its canonical one included.
    Both check each point once, where it enters; a subset the library
    builds from checked points is not checked again.
    """

    space: SpaceDescriptor
    points: tuple[Point, ...]
    # construction record only; two subsets with the same points are equal
    dedup_tolerance: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        _check_space(self.space)
        points = tuple(self.points)
        if not points:
            raise GeometryError("a finite subset needs at least one point")
        _check_tolerance(self.dedup_tolerance)
        for p in points:
            if self.space.canonicalize(p) != p:
                raise GeometryError("point is not in canonical form; use make_subset")
        keys = [self.space._sort_key(p.data) for p in points]
        if any(a > b for a, b in zip(keys, keys[1:])):
            raise GeometryError("points are not in canonical order; use make_subset")
        if any(d <= self.dedup_tolerance for d in _gaps(self.space, [p.data for p in points])):
            raise GeometryError("points closer than the dedup tolerance; use make_subset")
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return len(self.points)

    def to_json(self):
        return {
            "space": self.space.to_json(),
            "points": [self.space.point_to_json(p) for p in self.points],
        }

    @staticmethod
    def from_json(obj) -> "FiniteSubset":
        # point_from_json has checked each point, and built it canonical.
        space, points = _points_from_json(obj, "subset", "points")
        return _merge(space, points, 0.0)


def _check_tolerance(tol) -> None:
    # A number >= 0: NaN and text are refused too.
    if not (_real(tol) and tol >= 0.0):
        raise GeometryError(f"dedup tolerance must be a number >= 0, got {tol!r}")


def _built(cls, **fields):
    """An instance of the frozen dataclass cls holding fields, past its checks.

    For a ``PointTuple`` or ``FiniteSubset`` built from points that were
    checked where they entered: the constructor would check each again.
    The caller vouches for what the constructor checks, so a subset's points
    must be canonical, sorted by sort key and more than its
    ``dedup_tolerance`` apart.  The fields go in with one update of the
    instance's ``__dict__``, which is where the frozen constructor's
    ``object.__setattr__`` calls put them one by one.
    """
    out = cls.__new__(cls)
    out.__dict__.update(fields)
    return out


def _set_of(space: SpaceDescriptor, points, tol: float = 0.0) -> FiniteSubset:
    # The subset of checked, canonical points more than tol apart, sorted by
    # point_sort_key (their data's _sort_key); it neither dedups nor measures.
    # One point is in order as it is, so it needs no sort key.
    points = tuple(points)
    if len(points) > 1:
        key = space._sort_key
        points = tuple(sorted(points, key=lambda p: key(p.data)))
    return _built(FiniteSubset, space=space, points=points, dedup_tolerance=tol)


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
    point is checked once, on entry (``space.canonicalize``); the merge
    (``_merge``) runs on the checked points.
    """
    _check_space(space)
    _check_tolerance(dedup_tolerance)
    pts = [space.canonicalize(p) for p in points]
    if not pts:
        raise GeometryError("a finite subset needs at least one point")
    return _merge(space, pts, dedup_tolerance)


def _merge(space: SpaceDescriptor, pts: list[Point], tol: float) -> FiniteSubset:
    """The subset of checked, canonical points pts, merged within tol >= 0.

    The clustering runs on the distance kernel over the points' data, and
    stops after a pass whose folds all returned their cluster's first point.
    That pass found every pair of those points more than tol apart, so the
    subset is built without the constructor's checks (``_set_of``).  The
    folds step by ``_toward``, with no point check: a fold of equal points
    returns the first, else the midpoint, or refuses a pair whose distance
    overflows, as the public ``geodesic_point`` would.
    """
    while True:
        clusters = _clusters(space, [p.data for p in pts], tol)
        merged = []
        for cluster in clusters:
            rep = pts[cluster[0]]
            for idx in cluster[1:]:
                q = pts[idx]
                rep = rep if rep == q else _toward(space, rep, q, 0.5, space._gap(rep.data, q.data))
            merged.append(rep)
        # Each seed (a cluster's first point) was compared with every later
        # seed as its cluster grew, so once every fold returns its seed (a
        # singleton, or equal points) the seeds are more than tol apart.
        done = all(rep is pts[cluster[0]] for rep, cluster in zip(merged, clusters))
        pts = merged
        if done:
            break
    return _set_of(space, pts, tol)


def _check_same_space(a, b, cls: type) -> None:
    # Two operands of type cls, in one space.
    _check_type("an operand", a, cls)
    _check_type("an operand", b, cls)
    if a.space != b.space:
        raise SpaceMismatchError("operands live in different spaces")


def hausdorff_distance(a: FiniteSubset, b: FiniteSubset) -> float:
    """Hausdorff distance: the larger of the two directed max-min distances.

    It trusts both subsets' points as checked where they entered, and
    measures each pair once, ``gap(p, q)`` with p from a and q from b; the
    pass from a reads the rows of those gaps, the pass from b their columns.
    """
    _check_same_space(a, b, FiniteSubset)
    gap = a.space._gap
    bd = [q.data for q in b.points]
    rows = [[gap(p.data, q) for q in bd] for p in a.points]
    worst = 0.0
    for row in rows:
        worst = max(worst, min(row))
    for col in zip(*rows):
        worst = max(worst, min(col))
    return worst


def product_distance(x: PointTuple, y: PointTuple) -> float:
    """l2 product metric: sqrt of the sum of squared coordinate distances."""
    _check_same_space(x, y, PointTuple)
    if len(x) != len(y):
        raise GeometryError(f"tuple lengths differ: {len(x)} vs {len(y)}")
    gap = x.space._gap
    # A float's ** raises OverflowError past the float range, where the
    # distance is inf; x * x would round some finite squares differently.
    try:
        return math.sqrt(_total(gap(p.data, q.data) ** 2 for p, q in zip(x.coords, y.coords)))
    except OverflowError:
        return math.inf


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
    """Collapse a tuple to the subset of its coordinates, merging within tol.

    The tuple's points were checked when it was built and are not checked
    again (``_merge``); on a tree, where a vertex has one form per incident
    edge, each is placed in its canonical form first."""
    _check_type("x", x, PointTuple)
    _check_tolerance(tol)
    space, pts = x.space, list(x.coords)
    if isinstance(space, TreeSpace):
        pts = [Point(space.kind, space._place(*p.data)) for p in pts]
    return _merge(space, pts, tol)


def order_tuple(a: FiniteSubset, pad_to: int) -> PointTuple:
    """Deterministic numbering of a subset as a ``pad_to``-tuple.

    The closest pair comes first (ties broken by serialized order), the
    remaining points follow in canonical order, and the last point repeats
    to reach length ``pad_to``.  Singletons repeat their only point.
    """
    _check_type("a", a, FiniteSubset)
    _check_count("pad_to", pad_to, 1)
    if len(a) > pad_to:
        raise GeometryError(f"cannot number {len(a)} points as a {pad_to}-tuple")
    pts = list(a.points)
    if len(pts) >= 2:
        ds = _gaps(a.space, [p.data for p in pts])
        i, j = _pair_indices(len(pts))[ds.index(min(ds))]
        first = [pts[i], pts[j]]
        rest = [p for k, p in enumerate(pts) if k not in (i, j)]
        pts = first + rest
    coords = pts + [pts[-1]] * (pad_to - len(pts))
    return _built(PointTuple, space=a.space, coords=tuple(coords))
