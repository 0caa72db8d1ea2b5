"""Hadamard-space backends: distances and geodesics.

Three concrete spaces of nonpositive curvature are provided: Euclidean
space, the hyperboloid model of hyperbolic space, and metric trees.  All
space and point values are immutable, and every operation is a pure
function of its arguments, so the module is safe to use from concurrent
samplers.

The public ``distance`` and ``geodesic_point`` check that their points
belong to the space, call a private kernel and wrap its result in a
``Point``.  The kernels take and return bare coordinate data, the
``Point.data`` of a point: a coordinate tuple, or an ``(edge_id, offset)``
pair on a tree.  They skip the kind check, because the flow passes them
the data of a ``PointTuple``, checked once when it was built, and it
builds Points again only once per run.  ``_gap(pd, qd)`` is the distance,
and ``_step(pd, qd, lam)`` is the two-point resolvent of distinct pd and
qd, which computes their distance d once and returns ``(p', q', d)``:
the shared midpoint twice when d <= 2 lam, else both points moved lam
toward each other, and d itself, which the merge march uses as a bound.
Both give the same bits as the public methods they stand in for.
On the coordinate backends ``_scale(data)`` bounds the magnitude of every
coordinate that a flow from that data works with; the merge march
compares its step size to it to tell when rounding may be as large as a
step.  A tree has no march: ``merge_time`` calls its
``_first_collision(data)``, the exact flow to the first collision.

``_check_point(p)`` is the check ``PointTuple`` and ``FiniteSubset`` make
of every point they hold: its kind and, on a tree, its edge and offset.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple, Union

# Tolerance for the Minkowski constraint <x,x> = -1 on hyperboloid input,
# relative to x0^2 (so absolute at the apex).
HYPERBOLOID_CONSTRAINT_TOL = 1e-9

# Random hyperboloid points are capped at this distance from the apex so
# cosh factors stay well conditioned in double precision.
HYPERBOLOID_SAMPLE_CAP = 3.0

# Below this separation the sinh interpolation formula degenerates to 0/0;
# an affine blend plus reprojection is exact to well past double precision.
_SMALL_ANGLE = 1e-8


class GeometryError(ValueError):
    """Invalid point, space, or operation parameter."""


class SpaceMismatchError(GeometryError):
    """A point was used with a space of a different kind."""


class Point(NamedTuple):
    """Backend-tagged point.

    ``data`` holds a coordinate tuple for the euclidean and hyperboloid
    backends and an ``(edge_id, offset)`` pair for trees.
    """

    kind: str
    data: tuple


def _check_kind(space, p: Point) -> None:
    if not isinstance(p, Point) or p.kind != space.kind:
        got = getattr(p, "kind", type(p).__name__)
        raise SpaceMismatchError(f"point of kind {got!r} used with {space.kind!r} space")


def _check_t(t: float) -> None:
    if not 0.0 <= t <= 1.0:
        raise GeometryError(f"geodesic parameter must lie in [0, 1], got {t}")


def _far_step(pd: tuple, qd: tuple, s: float, d: float) -> tuple[tuple, tuple, float]:
    # A pair step whose fraction lam/d is 0 (d overflowed) or NaN keeps the
    # checked composition's outcome: both points stay put, or GeometryError.
    _check_t(s)
    return pd, qd, d


def _coordinates(coords, count: int) -> tuple:
    """Exactly count finite floats; malformed input is a GeometryError."""
    try:
        data = tuple(float(c) for c in coords)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GeometryError(f"coordinates must be numbers, got {coords!r}") from exc
    if len(data) != count:
        raise GeometryError(f"expected {count} coordinates, got {len(data)}")
    if not all(math.isfinite(c) for c in data):
        raise GeometryError("coordinates must be finite")
    return data


def _project(raw: list) -> tuple:
    # Rescale a blend of hyperboloid points back onto the sheet.
    s = raw[0] * raw[0]
    for c in raw[1:]:
        s -= c * c
    if s <= 0.0 or raw[0] <= 0.0:
        raise GeometryError("interpolation left the hyperboloid sheet")
    inv = 1.0 / math.sqrt(s)
    return tuple([c * inv for c in raw])


@dataclass(frozen=True)
class _CoordinateSpace:
    """What the coordinate backends share: a dimension, the array codec, the pair step.

    Subclasses set ``kind`` and define ``point``, ``distance``,
    ``geodesic_point`` and ``random_point`` in their own class body, where
    per-backend call counters look the public methods up, and the kernels
    ``_gap``, ``_interp(pd, qd, t, d)`` (the point at fraction t from pd
    to qd, d apart) and ``_toward(pd, qd, s, d)`` (what ``_interp`` gives
    from pd and from qd at fraction s, from one set of weights, followed
    by d: the moving pair step's result).
    """

    dim: int

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
            raise GeometryError(f"dimension must be a positive integer, got {self.dim!r}")

    def canonicalize(self, p: Point) -> Point:
        return p

    def _check_point(self, p: Point) -> None:
        _check_kind(self, p)

    def point_to_json(self, p: Point):
        _check_kind(self, p)
        return list(p.data)

    def point_from_json(self, obj) -> Point:
        if not isinstance(obj, (list, tuple)):
            raise GeometryError(f"{self.kind} point JSON must be a coordinate array")
        return self.point(obj)

    def to_json(self):
        return {"kind": self.kind, "dim": self.dim}

    def _step(self, pd: tuple, qd: tuple, lam: float) -> tuple[tuple, tuple, float]:
        d = self._gap(pd, qd)
        if d <= 2.0 * lam:
            mid = self._interp(pd, qd, 0.5, d)
            return mid, mid, d
        s = lam / d
        if not s > 0.0:
            return _far_step(pd, qd, s, d)
        return self._toward(pd, qd, s, d)

    @staticmethod
    def _scale(data: list[tuple]) -> float:
        # The largest absolute coordinate of data bounds every coordinate the
        # flow from data reaches: the flow stays in the convex hull of data,
        # which on the hyperboloid lies in the ball around the apex that
        # holds data.
        return max(abs(c) for pd in data for c in pd)


class EuclideanSpace(_CoordinateSpace):
    """R^dim with the usual metric; geodesics are straight segments."""

    kind: ClassVar[str] = "euclidean"

    def point(self, coords) -> Point:
        return Point(self.kind, _coordinates(coords, self.dim))

    def distance(self, p: Point, q: Point) -> float:
        _check_kind(self, p)
        _check_kind(self, q)
        return math.dist(p.data, q.data)

    def geodesic_point(self, p: Point, q: Point, t: float) -> Point:
        _check_kind(self, p)
        _check_kind(self, q)
        _check_t(t)
        if t == 0.0 or p == q:
            return p
        if t == 1.0:
            return q
        return Point(self.kind, self._interp(p.data, q.data, t, None))

    _gap = staticmethod(math.dist)

    @staticmethod
    def _interp(pd: tuple, qd: tuple, t: float, d) -> tuple:
        return tuple([a + t * (b - a) for a, b in zip(pd, qd)])

    @staticmethod
    def _toward(pd: tuple, qd: tuple, s: float, d: float) -> tuple[tuple, tuple, float]:
        return (tuple([a + s * (b - a) for a, b in zip(pd, qd)]),
                tuple([b + s * (a - b) for a, b in zip(pd, qd)]), d)

    def random_point(self, rng: random.Random) -> Point:
        return Point(self.kind, tuple(rng.gauss(0.0, 1.0) for _ in range(self.dim)))


class HyperboloidSpace(_CoordinateSpace):
    """Hyperbolic space as the upper sheet of <x,x> = -1 in Minkowski R^{dim+1}.

    Points carry dim+1 coordinates with x0 > 0, accepted when the constraint
    holds within ``HYPERBOLOID_CONSTRAINT_TOL * x0**2``.  Every interpolation is
    reprojected onto the sheet before it is returned.
    """

    kind: ClassVar[str] = "hyperboloid"

    @staticmethod
    def minkowski(u: tuple, v: tuple) -> float:
        s = -u[0] * v[0]
        for a, b in zip(u[1:], v[1:]):
            s += a * b
        return s

    def point(self, coords) -> Point:
        data = _coordinates(coords, self.dim + 1)
        x0 = data[0]
        if x0 <= 0.0:
            raise GeometryError("hyperboloid points need a positive time coordinate")
        # <x,x> rounds at the scale of x0^2, so the tolerance scales with it.
        # Where x0^2 overflows, the same test runs on <x,x>/x0^2, in which the
        # 1/x0^2 term is below any tolerance.
        if math.isfinite(x0 * x0):
            off = abs(self.minkowski(data, data) + 1.0) > HYPERBOLOID_CONSTRAINT_TOL * x0 * x0
        else:
            off = abs(sum((c / x0) ** 2 for c in data[1:]) - 1.0) > HYPERBOLOID_CONSTRAINT_TOL
        if off:
            raise GeometryError("point is off the hyperboloid sheet")
        return Point(self.kind, data)

    def distance(self, p: Point, q: Point) -> float:
        _check_kind(self, p)
        _check_kind(self, q)
        return self._gap(p.data, q.data)

    @staticmethod
    def _gap(pd: tuple, qd: tuple) -> float:
        # Algebraically arcosh(-<p,q>), but evaluated through the Minkowski
        # norm of the difference: the arcosh form loses half the significant
        # digits for separations near sqrt(eps), which merge detection needs.
        pairs = zip(pd, qd)
        a, b = next(pairs)
        c = a - b
        md = -c * c
        for a, b in pairs:
            c = a - b
            md += c * c
        if md <= 0.0:
            return 0.0
        return 2.0 * math.asinh(0.5 * math.sqrt(md))

    def geodesic_point(self, p: Point, q: Point, t: float) -> Point:
        _check_kind(self, p)
        _check_kind(self, q)
        _check_t(t)
        if t == 0.0 or p == q:
            return p
        if t == 1.0:
            return q
        pd, qd = p.data, q.data
        return Point(self.kind, self._interp(pd, qd, t, self._gap(pd, qd)))

    @staticmethod
    def _interp(pd: tuple, qd: tuple, t: float, theta: float) -> tuple:
        # The point at fraction t from pd to qd, theta = d(pd, qd) apart.
        if theta < _SMALL_ANGLE:
            return _project([a + t * (b - a) for a, b in zip(pd, qd)])
        sh = math.sinh(theta)
        wp = math.sinh((1.0 - t) * theta) / sh
        wq = math.sinh(t * theta) / sh
        return _project([wp * a + wq * b for a, b in zip(pd, qd)])

    def _toward(self, pd: tuple, qd: tuple, s: float, theta: float) -> tuple[tuple, tuple, float]:
        # _interp(pd, qd, s, theta) and _interp(qd, pd, s, theta), with the
        # sinh weights computed once: the reverse point takes them swapped.
        if theta < _SMALL_ANGLE:
            return self._interp(pd, qd, s, theta), self._interp(qd, pd, s, theta), theta
        sh = math.sinh(theta)
        wp = math.sinh((1.0 - s) * theta) / sh
        wq = math.sinh(s * theta) / sh
        return (_project([wp * a + wq * b for a, b in zip(pd, qd)]),
                _project([wp * b + wq * a for a, b in zip(pd, qd)]), theta)

    def random_point(self, rng: random.Random) -> Point:
        gauss = [rng.gauss(0.0, 1.0) for _ in range(self.dim)]
        r = math.sqrt(sum(g * g for g in gauss))
        if r < 1e-12:
            return Point(self.kind, (1.0,) + (0.0,) * self.dim)
        length = min(r, HYPERBOLOID_SAMPLE_CAP)
        scale = math.sinh(length) / r
        return Point(self.kind, (math.cosh(length),) + tuple(g * scale for g in gauss))


@dataclass(frozen=True)
class TreeEdge:
    id: int
    from_node: int
    to_node: int
    length: float

    def __post_init__(self) -> None:
        if self.from_node == self.to_node:
            raise GeometryError(f"edge {self.id} is a self-loop")
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise GeometryError(f"edge {self.id} needs a positive finite length")

    def other(self, node: int) -> int:
        return self.to_node if node == self.from_node else self.from_node

    def endpoint_offset(self, node: int) -> float:
        return 0.0 if node == self.from_node else self.length


class _Move(NamedTuple):
    """How a tree point moves until the next event of the exact flow."""

    edge: TreeEdge  # the edge it moves along
    offset: float  # where it is on that edge
    sign: float  # +1.0 toward the edge's to_node, -1.0 toward its from_node
    speed: int
    toward: list  # per slot of the flow, whether it moves toward that slot's point

    def arrival(self) -> float:
        # When it reaches the vertex ahead, if no collision comes first.
        leg = self.edge.length - self.offset if self.sign > 0.0 else self.offset
        return leg / self.speed


@dataclass(frozen=True)
class TreeTopology:
    """A finite combinatorial tree with positive edge lengths."""

    edges: tuple[TreeEdge, ...]
    nodes: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        edges = tuple(self.edges)
        if not edges:
            raise GeometryError("a tree space needs at least one edge")
        ids = [e.id for e in edges]
        if len(set(ids)) != len(ids):
            raise GeometryError("edge ids must be unique")
        nodes = sorted({e.from_node for e in edges} | {e.to_node for e in edges})
        if len(edges) != len(nodes) - 1:
            raise GeometryError("edge count must be node count minus one (acyclic, connected)")
        adjacency: dict[int, list[int]] = {v: [] for v in nodes}
        for e in edges:
            adjacency[e.from_node].append(e.to_node)
            adjacency[e.to_node].append(e.from_node)
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != len(nodes):
            raise GeometryError("tree is not connected")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "nodes", tuple(nodes))

    def to_json(self):
        return [
            {"id": e.id, "from": e.from_node, "to": e.to_node, "length": e.length}
            for e in self.edges
        ]

    @staticmethod
    def from_json(obj) -> "TreeTopology":
        if not isinstance(obj, (list, tuple)):
            raise GeometryError("tree edges JSON must be an array")
        edges = []
        for item in obj:
            try:
                fields = (int(item["id"]), int(item["from"]), int(item["to"]),
                          float(item["length"]))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise GeometryError(f"malformed tree edge entry: {item!r}") from exc
            edges.append(TreeEdge(*fields))
        return TreeTopology(tuple(edges))


@dataclass(frozen=True)
class TreeSpace:
    """A metric tree; points live on edges as (edge_id, offset) pairs.

    Offsets are measured from an edge's ``from`` endpoint.  A vertex has
    one canonical representation: the lowest-id incident edge, with the
    offset at whichever end of that edge the vertex occupies.  All node
    distances and next-hop pointers are precomputed, so the instance is
    immutable after construction.
    """

    topology: TreeTopology
    _edge_by_id: dict = field(init=False, repr=False, compare=False)
    _vertex_rep: dict = field(init=False, repr=False, compare=False)
    _node_dist: dict = field(init=False, repr=False, compare=False)
    _next_edge: dict = field(init=False, repr=False, compare=False)
    kind: ClassVar[str] = "tree"

    def __post_init__(self) -> None:
        topo = self.topology
        edge_by_id = {e.id: e for e in topo.edges}
        incident: dict[int, list[TreeEdge]] = {v: [] for v in topo.nodes}
        for e in topo.edges:
            incident[e.from_node].append(e)
            incident[e.to_node].append(e)
        vertex_rep = {}
        for v, edges in incident.items():
            e = min(edges, key=lambda e: e.id)
            vertex_rep[v] = (e.id, e.endpoint_offset(v))
        # One BFS per target node yields distances plus, for every other
        # node, the first edge on the unique path toward that target.
        node_dist: dict[int, dict[int, float]] = {}
        next_edge: dict[int, dict[int, TreeEdge]] = {v: {} for v in topo.nodes}
        for target in topo.nodes:
            dist = {target: 0.0}
            stack = [target]
            while stack:
                u = stack.pop()
                for e in incident[u]:
                    w = e.other(u)
                    if w not in dist:
                        dist[w] = dist[u] + e.length
                        next_edge[w][target] = e
                        stack.append(w)
            node_dist[target] = dist
        object.__setattr__(self, "_edge_by_id", edge_by_id)
        object.__setattr__(self, "_vertex_rep", vertex_rep)
        object.__setattr__(self, "_node_dist", node_dist)
        object.__setattr__(self, "_next_edge", next_edge)

    def point(self, place) -> Point:
        try:
            edge_id, offset = place
        except (TypeError, ValueError) as exc:
            raise GeometryError("tree point is an (edge_id, offset) pair") from exc
        try:
            edge = self._edge_by_id.get(edge_id)
            offset = float(offset)
        except (TypeError, ValueError, OverflowError) as exc:
            raise GeometryError(f"malformed tree point {place!r}") from exc
        if edge is None:
            raise GeometryError(f"unknown edge id {edge_id!r}")
        if not (math.isfinite(offset) and 0.0 <= offset <= edge.length):
            raise GeometryError(f"offset {offset} outside [0, {edge.length}] on edge {edge_id}")
        return Point(self.kind, self._place(edge, offset))

    def _place(self, edge: TreeEdge, offset: float) -> tuple:
        # The canonical data of the point at offset along edge.
        if offset == 0.0:
            return self._vertex_rep[edge.from_node]
        if offset == edge.length:
            return self._vertex_rep[edge.to_node]
        return (edge.id, offset)

    def _edge(self, edge_id) -> TreeEdge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise SpaceMismatchError(f"edge id {edge_id!r} does not belong to this tree") from None

    def canonicalize(self, p: Point) -> Point:
        _check_kind(self, p)
        return Point(self.kind, self._place(self._edge(p.data[0]), p.data[1]))

    def _check_point(self, p: Point) -> None:
        # A point of another tree: an unknown edge id is a SpaceMismatchError,
        # an offset off this tree's edge a GeometryError.
        _check_kind(self, p)
        edge_id, offset = p.data
        edge = self._edge(edge_id)
        if not 0.0 <= offset <= edge.length:
            raise GeometryError(f"offset {offset} outside [0, {edge.length}] on edge {edge_id}")

    def _check_pair(self, p: Point, q: Point) -> None:
        # The kinds, and the edge of a pair on one edge: a route between two
        # edges looks both up itself.
        _check_kind(self, p)
        _check_kind(self, q)
        if p.data[0] == q.data[0]:
            self._edge(p.data[0])

    def distance(self, p: Point, q: Point) -> float:
        self._check_pair(p, q)
        return self._gap(p.data, q.data)

    def _gap(self, pd: tuple, qd: tuple) -> float:
        if pd[0] == qd[0]:
            return abs(pd[1] - qd[1])
        return self._route(pd, qd)[0]

    def _ends(self, pd: tuple) -> tuple[tuple, tuple]:
        # The endpoints of pd's edge, from then to, each as (node, leg from
        # pd, the node's row of _node_dist).
        edge = self._edge(pd[0])
        o = pd[1]
        dist = self._node_dist
        return ((edge.from_node, o, dist[edge.from_node]),
                (edge.to_node, edge.length - o, dist[edge.to_node]))

    def _route(self, pd: tuple, qd: tuple) -> tuple[float, float, int, int]:
        """Shortest route between points on two different edges.

        Returns (length, leg from p to the exit node of p's edge, exit node,
        entry node of q's edge).  The four endpoint pairings are tried in a
        fixed order and the first strict minimum wins, so distances and
        geodesics agree on which route a tie takes.
        """
        ends_p, ends_q = self._ends(pd), self._ends(qd)
        best = None
        for na, ra, row_a in ends_p:
            for nb, rb, _ in ends_q:
                length = ra + row_a[nb] + rb
                if best is None or length < best[0]:
                    best = (length, ra, na, nb)
        return best

    def _routes(self, pd: tuple, qd: tuple) -> tuple[tuple, tuple]:
        """``_route(pd, qd)`` and ``_route(qd, pd)`` from one pass over the pairings.

        Each direction sums its legs in its own order, from its own row of
        ``_node_dist``, so both keep their bits.  ``_route(qd, pd)`` tries
        q's endpoints in its outer loop, so among equal lengths its first
        strict minimum is the one with the earlier q endpoint j; this pass
        runs p's endpoints outside and reproduces that by the j test.
        """
        ends_p, ends_q = self._ends(pd), self._ends(qd)
        fwd = rev = None
        for na, ra, row_a in ends_p:
            for j, (nb, rb, row_b) in enumerate(ends_q):
                length = ra + row_a[nb] + rb
                if fwd is None or length < fwd[0]:
                    fwd = (length, ra, na, nb)
                length = rb + row_b[na] + ra
                if rev is None or length < rev[0] or (length == rev[0] and j < rev_j):
                    rev = (length, rb, nb, na)
                    rev_j = j
        return fwd, rev

    def _walk_from_node(self, start: int, target_edge: TreeEdge, target_offset: float,
                        target_node: int, s: float) -> tuple:
        # Walk arclength s from a vertex toward a point on target_edge whose
        # nearer endpoint (along this route) is target_node.
        u = start
        while u != target_node:
            e = self._next_edge[u][target_node]
            if s < e.length:
                return self._place(e, s if u == e.from_node else e.length - s)
            s -= e.length
            u = e.other(u)
        if target_node == target_edge.from_node:
            off = min(s, target_offset)
        else:
            off = max(target_edge.length - s, target_offset)
        return self._place(target_edge, off)

    def geodesic_point(self, p: Point, q: Point, t: float) -> Point:
        self._check_pair(p, q)
        _check_t(t)
        if t == 0.0 or p == q:
            return p
        if t == 1.0:
            return q
        return Point(self.kind, self._along(p.data, q.data, t))

    def _along(self, pd: tuple, qd: tuple, t: float, route=None) -> tuple:
        # The point at fraction t in (0, 1) from pd to qd != pd; route is
        # _route(pd, qd) when the caller has it already.
        e1, o1 = pd
        e2, o2 = qd
        if e1 == e2:
            return self._place(self._edge_by_id[e1], o1 + t * (o2 - o1))
        total, ra, na, nb = route or self._route(pd, qd)
        s = t * total
        if s <= ra:
            a = self._edge_by_id[e1]
            off = o1 - s if na == a.from_node else o1 + s
            return self._place(a, min(max(off, 0.0), a.length))
        return self._walk_from_node(na, self._edge_by_id[e2], o2, nb, s - ra)

    def _step(self, pd: tuple, qd: tuple, lam: float) -> tuple[tuple, tuple, float]:
        if pd[0] == qd[0]:
            fwd = rev = None
            d = abs(pd[1] - qd[1])
        else:
            # The reverse route is its own: _route(qd, pd) sums its legs in
            # the other order, and reusing the forward one would change the
            # last bit.
            fwd, rev = self._routes(pd, qd)
            d = fwd[0]
        if d <= 2.0 * lam:
            mid = self._along(pd, qd, 0.5, fwd)
            return mid, mid, d
        s = lam / d
        if not s > 0.0:
            return _far_step(pd, qd, s, d)
        return self._along(pd, qd, s, fwd), self._along(qd, pd, s, rev), d

    def _branch(self, node: int, qd: tuple) -> TreeEdge:
        # The first edge from the vertex node toward the point qd != node.  An
        # edge that does not end at node lies in one branch of it, with both
        # of its endpoints.
        edge = self._edge(qd[0])
        if node == edge.from_node or node == edge.to_node:
            return edge
        return self._next_edge[node][edge.from_node]

    def _motion(self, i: int, data: list[tuple]) -> _Move | None:
        # How point i of data moves until the next event of the exact flow;
        # None if it stays.
        edge = self._edge(data[i][0])
        o = data[i][1]
        others = len(data) - 1
        if 0.0 < o < edge.length:
            # Inside an edge: toward the side that holds more of the others,
            # at the difference of the two counts.
            ahead = [qd[1] > o if qd[0] == edge.id else self._branch(edge.to_node, qd) is not edge
                     for qd in data]
            ahead[i] = False
            speed = 2 * sum(ahead) - others
            if speed == 0:
                return None
            if speed > 0:
                return _Move(edge, o, 1.0, speed, ahead)
            return _Move(edge, o, -1.0, -speed, [not a for a in ahead])
        # At a vertex: into the branch that holds c > (n-1)/2 of the others,
        # at 2c - (n-1), or nowhere.
        v = edge.from_node if o == 0.0 else edge.to_node
        branches = [None if j == i else self._branch(v, qd) for j, qd in enumerate(data)]
        (b, count), = Counter(branches[:i] + branches[i + 1:]).most_common(1)
        speed = 2 * count - others
        if speed <= 0:
            return None
        sign = 1.0 if v == b.from_node else -1.0
        return _Move(b, b.endpoint_offset(v), sign, speed, [c is b for c in branches])

    def _first_collision(self, data: list[tuple]) -> tuple[float, list[tuple]]:
        """The exact flow of the total pairwise distance, up to its first collision.

        data holds distinct points.  Until two of them meet, each point moves
        at an integer speed that counts of the others decide (``_motion``),
        and those counts change only when two points meet.  Between events
        (a point reaches a vertex, or two points meet) every point moves
        along one edge and every gap changes linearly, so each event time is
        a leg over a speed or a gap over a closing rate.  A point whose
        arrival is the step is placed on its vertex exactly.

        Returns the collision time and the data there, in which the points
        that met share one tuple.  A point never turns back before the first
        collision, so it reaches each vertex at most once; past
        n (edge count + 1) events the run raises GeometryError.
        """
        n = len(data)
        data = list(data)
        pairs = list(itertools.combinations(range(n), 2))
        t = 0.0
        for _ in range(n * (len(self.topology.edges) + 1)):
            moves = [self._motion(i, data) for i in range(n)]
            arrivals = [math.inf if m is None else m.arrival() for m in moves]
            meets = []
            for i, j in pairs:
                d = self._gap(data[i], data[j])
                # The gap closes at the sum of what each point moves toward the other.
                rate = 0
                for a, b in ((i, j), (j, i)):
                    m = moves[a]
                    if m is not None:
                        rate += m.speed if m.toward[b] else -m.speed
                if d == 0.0:
                    meets.append(0.0)
                else:
                    meets.append(d / rate if rate > 0 else math.inf)
            h = min(min(arrivals), min(meets))
            if h == math.inf:
                raise GeometryError("no two points of the flow approach each other")
            for i, m in enumerate(moves):
                if m is None:
                    continue
                edge = m.edge
                if arrivals[i] == h:
                    o = edge.length if m.sign > 0.0 else 0.0
                else:
                    o = min(max(m.offset + m.sign * m.speed * h, 0.0), edge.length)
                data[i] = self._place(edge, o)
            t += h
            hits = [pair for pair, tc in zip(pairs, meets) if tc == h]
            if hits:
                for i, j in hits:
                    # Every slot at j's point takes i's, so three that meet
                    # share one tuple too.
                    old, new = data[j], data[i]
                    data = [new if d is old else d for d in data]
                return t, data
        raise GeometryError("the exact tree flow ran past its event bound")

    def random_point(self, rng: random.Random) -> Point:
        edges = self.topology.edges
        weights = [e.length for e in edges]
        e = rng.choices(edges, weights=weights)[0]
        return Point(self.kind, self._place(e, rng.uniform(0.0, e.length)))

    def point_to_json(self, p: Point):
        _check_kind(self, p)
        return {"edge": p.data[0], "offset": p.data[1]}

    def point_from_json(self, obj) -> Point:
        if not isinstance(obj, dict) or "edge" not in obj or "offset" not in obj:
            raise GeometryError('tree point JSON must be {"edge": ..., "offset": ...}')
        return self.point((obj["edge"], obj["offset"]))

    def to_json(self):
        return {"kind": self.kind, "edges": self.topology.to_json()}


SpaceDescriptor = Union[EuclideanSpace, HyperboloidSpace, TreeSpace]


def make_space(kind: str, dim: int | None = None, tree: TreeTopology | None = None) -> SpaceDescriptor:
    if kind == "euclidean":
        if dim is None:
            raise GeometryError("euclidean space needs a dimension")
        return EuclideanSpace(dim)
    if kind == "hyperboloid":
        if dim is None:
            raise GeometryError("hyperboloid space needs a dimension")
        return HyperboloidSpace(dim)
    if kind == "tree":
        if tree is None:
            raise GeometryError("tree space needs a topology")
        return TreeSpace(tree)
    raise GeometryError(f"unknown space kind {kind!r}")


def space_from_json(obj) -> SpaceDescriptor:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise GeometryError('space JSON must carry a "kind"')
    if obj["kind"] == "tree":
        if "edges" not in obj:
            raise GeometryError("tree space JSON needs an edges array")
        return make_space("tree", tree=TreeTopology.from_json(obj["edges"]))
    return make_space(obj["kind"], obj.get("dim"))


def point_sort_key(space: SpaceDescriptor, p: Point) -> str:
    """Canonical serialization, used wherever a deterministic order is needed."""
    return json.dumps(space.point_to_json(p), sort_keys=True)

