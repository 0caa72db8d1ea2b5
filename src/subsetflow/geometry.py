"""Hadamard-space backends: distances and geodesics.

Three concrete spaces of nonpositive curvature are provided: Euclidean
space, the hyperboloid model of hyperbolic space, and metric trees.  All
space and point values are immutable, and every operation is a pure
function of its arguments, so the module is safe to use from concurrent
samplers.

A backend supplies ``_check_point(p)`` and two kernels on bare coordinate
data, the ``Point.data`` of a point (a coordinate tuple, or an ``(edge_id,
offset)`` pair on a tree): ``_gap(pd, qd)``, the distance, and
``_interp(pd, qd, t, d)``, the point at fraction t from pd to qd, d being
their ``_gap``.  The kernels skip the check, because the flow passes them
the data of a ``PointTuple``, checked once when it was built.  Each backend
binds in its class body what this module writes once from those:
``distance = _distance`` and ``geodesic_point = _geodesic_point``, which
check each point (its kind; its coordinate count, or on a tree its edge and
offset) and call the kernels, and ``_step = _pair_step``, the two-point
resolvent of distinct pd and qd, which measures their distance d once and
returns ``(p', q', d)``: the shared midpoint twice when d <= 2 lam, else
both points moved lam toward each other, and d, which the merge march uses
as a bound.  ``_gaps(space, data)`` is ``_gap`` over every pair.
On the coordinate backends ``_scale(data)`` bounds the magnitude of every
coordinate that a flow from that data works with; the merge march
compares its step size to it to tell when rounding may be as large as a
step.  A tree has no march: ``merge_time`` calls its
``_first_collision(data, gaps)``, the exact flow to the first collision,
whose first event reuses the gaps ``merge_time`` measured.  The tree
kernels read one table per edge id (its ends, its length and both ends'
rows of node distances), the tree ``_gap`` builds no route, its ``_interp``
builds one (``_route``), and each event of the exact flow is one pass
(``_motions``) over every slot's edge ends.

Every space also has ``_march(coords, lam, sweeps, watch)``: up to
``sweeps`` cyclic sweeps of pair steps in place, stopping after the first
sweep whose smallest stepped distance ``low`` is at most ``watch``; it
returns how many sweeps ran and that sweep's ``low``.  This module alone
decides how a march runs.  The reference march, ``_pair_march``, calls
``_step`` pair by pair, and a tree's ``_march`` is that function.  A
coordinate backend writes its pair step once, as a template with ``_step``
inlined, and one generator builds its march from it: unrolled per dimension
and tuple size, with every coordinate in a local for the whole march, while
the source fits under ``_MARCH_MAX_SOURCE`` characters, else looped over
the pairs per dimension, else ``_pair_march``.  Every march keeps
``_step``'s bits.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import random
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


_OFF_SHEET = "interpolation left the hyperboloid sheet"


def _project(raw: list) -> tuple:
    # Rescale a blend of hyperboloid points back onto the sheet.
    s = raw[0] * raw[0]
    for c in raw[1:]:
        s -= c * c
    if s <= 0.0 or raw[0] <= 0.0:
        raise GeometryError(_OFF_SHEET)
    inv = 1.0 / math.sqrt(s)
    return tuple([c * inv for c in raw])


# A generated march source is at most this many characters long.  Compiling
# one holds 90 to 125 bytes of memory per character while it runs, so the
# cap bounds that transient whatever the dimension or the number of pairs:
# in a fresh process no march under it raised max RSS by more than 1.7 MB,
# and looped sources from 22,600 characters on raised it by 2.9 MB.
_MARCH_MAX_SOURCE = 22_000


def _gaps(space, data) -> list[float]:
    # _gap(data[i], data[j]) for every i < j, in itertools.combinations order,
    # on checked points' bare data: a PointTuple's, a FiniteSubset's, a flow's.
    gap = space._gap
    return [gap(p, q) for p, q in itertools.combinations(data, 2)]


def _pair_step(space, pd: tuple, qd: tuple, lam: float) -> tuple[tuple, tuple, float]:
    # The two-point resolvent of distinct pd and qd, bound as each backend's
    # _step.  Each end moves by its own _interp call, so a tree route is
    # summed in the direction that end walks it.
    d = space._gap(pd, qd)
    if d <= 2.0 * lam:
        mid = space._interp(pd, qd, 0.5, d)
        return mid, mid, d
    s = lam / d
    if not s > 0.0:
        _check_t(s)  # lam/d is 0 (d overflowed) or NaN: stay put, or GeometryError
        return pd, qd, d
    return space._interp(pd, qd, s, d), space._interp(qd, pd, s, d), d


def _distance(space, p: Point, q: Point) -> float:
    # Bound as each backend's public distance.
    space._check_point(p)
    space._check_point(q)
    return space._gap(p.data, q.data)


def _geodesic_point(space, p: Point, q: Point, t: float) -> Point:
    # Bound as each backend's public geodesic_point.
    space._check_point(p)
    space._check_point(q)
    _check_t(t)
    if t == 0.0 or p == q:
        return p
    if t == 1.0:
        return q
    pd, qd = p.data, q.data
    return Point(space.kind, space._interp(pd, qd, t, space._gap(pd, qd)))


def _pair_march(space, coords: list[tuple], lam: float, sweeps: int,
                watch: float) -> tuple[int, float]:
    # The reference march: each sweep calls space._step on the pairs ordered
    # by the larger index, then the smaller: (0,1), (0,2), (1,2), (0,3), ...
    # A sweep's low is the smallest distance a pair was stepped from, or 0.0
    # if a pair was skipped because its two slots held equal data.  The
    # generated marches run the same sweeps with the pair step inlined.
    step = space._step
    for done in range(1, sweeps + 1):
        low = math.inf
        for j in range(1, len(coords)):
            for i in range(j):
                p = coords[i]
                q = coords[j]
                if p != q:
                    coords[i], coords[j], d = step(p, q, lam)
                    if d < low:
                        low = d
                else:
                    low = 0.0
        if low <= watch:
            break
    return done, low


_KERNEL_NAMES = {"inf": math.inf, "hypot": math.hypot, "sqrt": math.sqrt, "asinh": math.asinh,
                 "sinh": math.sinh, "_SMALL_ANGLE": _SMALL_ANGLE, "_OFF_SHEET": _OFF_SHEET,
                 "_check_t": _check_t, "GeometryError": GeometryError}


@functools.cache
def _march_kernel(cls, dim: int, n: int | None):
    """The march of n-tuples in ``cls(dim)``, compiled from ``cls._march_source(dim, n)``;
    past the cap, the looped march that serves every n, ``_march_kernel(cls,
    dim, None)``, and past it too, ``_pair_march`` on ``cls(dim)``."""
    source = cls._march_source(dim, n)
    if source is not None:
        # Run the source by exec, the way dataclasses and
        # collections.namedtuple build their methods.
        namespace = dict(_KERNEL_NAMES)
        exec(source, namespace)
        return namespace["_march"]
    if n is not None:
        return _march_kernel(cls, dim, None)
    return functools.partial(_pair_march, cls(dim))


@dataclass(frozen=True)
class _CoordinateSpace:
    """What the coordinate backends share: a dimension, the array codec, the pair step, the march.

    Subclasses set ``kind``, define ``point``, ``random_point`` and the
    kernels ``_gap`` and ``_interp(pd, qd, t, d)``, and bind ``distance =
    _distance`` and ``geodesic_point = _geodesic_point`` in their own class
    body, where per-backend call counters look the public methods up.
    ``_step`` is ``_pair_step``: ``_gap`` followed by ``_interp`` from each
    end.

    Each subclass also sets its pair template: ``_MARCH_PAIR``, one pair
    step over the coordinates of two slots with ``_step``'s float operations
    in their order, and ``_MARCH_UNROLL``, its fields written out once per
    coordinate.  ``_march_source`` builds the march in two shapes from it:
    unrolled per dimension and n, with every coordinate of every slot in a
    local and ``coords`` written once, on return, or looped per dimension,
    with a slot written back after each of its pair steps.  So a march that
    raises leaves ``coords`` as it was in the unrolled shape and partly
    stepped in the looped one; nothing reads it after a raise.
    ``self._march`` runs the unrolled shape for ``len(coords)`` while its
    source fits under ``_MARCH_MAX_SOURCE``, else the looped one, else the
    reference march ``_pair_march``.  Every shape gives the same bits.
    """

    dim: int

    # Coordinates a point carries beyond dim: the hyperboloid's time coordinate.
    _EXTRA_COORDS: ClassVar[int] = 0

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
            raise GeometryError(f"dimension must be a positive integer, got {self.dim!r}")

    def canonicalize(self, p: Point) -> Point:
        self._check_point(p)
        return p

    def _check_point(self, p: Point) -> None:
        # The march kernels unpack a fixed number of coordinates per slot.
        _check_kind(self, p)
        count = self.dim + self._EXTRA_COORDS
        if len(p.data) != count:
            raise GeometryError(f"expected {count} coordinates, got {len(p.data)}")

    def point_to_json(self, p: Point):
        _check_kind(self, p)
        return list(p.data)

    def point_from_json(self, obj) -> Point:
        if not isinstance(obj, (list, tuple)):
            raise GeometryError(f"{self.kind} point JSON must be a coordinate array")
        return self.point(obj)

    def to_json(self):
        return {"kind": self.kind, "dim": self.dim}

    _step = _pair_step

    def _march(self, coords: list[tuple], lam: float, sweeps: int,
               watch: float) -> tuple[int, float]:
        return _march_kernel(type(self), self.dim, len(coords))(coords, lam, sweeps, watch)

    # The unrolled march holds coordinate k of slot i in x{i}_{k}; the looped
    # one holds coordinate k of a pair step's two slots in a{k} and b{k}.
    _MARCH_SOURCE: ClassVar[str] = """
def _march(coords, lam, sweeps, watch):
    {slots}, = coords
    lam2 = 2.0 * lam
    for done in range(1, sweeps + 1):
        low = inf{pairs}
        if low <= watch:
            break
    coords[:] = {slots},
    return done, low
"""
    _LOOP_SOURCE: ClassVar[str] = """
def _march(coords, lam, sweeps, watch):
    lam2 = 2.0 * lam
    for done in range(1, sweeps + 1):
        low = inf
        for j in range(1, len(coords)):
            {b}, = coords[j]
            for i in range(j):
                {a}, = coords[i]{pair}
                coords[i] = {a},
            coords[j] = {b},
        if low <= watch:
            break
    return done, low
"""

    @classmethod
    def _pair(cls, a: list[str], b: list[str]) -> str:
        # The pair template over the coordinate names a and b of two slots.
        # Each field of _MARCH_UNROLL is a pattern written out once per
        # coordinate k from its first one on, and the separator between them.
        fields = {name: sep.join(pattern.format(a=a[k], b=b[k], k=k) for k in range(first, len(a)))
                  for name, (pattern, sep, first) in cls._MARCH_UNROLL.items()}
        return cls._MARCH_PAIR.format(a0=a[0], b0=b[0], **fields)

    @classmethod
    def _march_source(cls, dim: int, n: int | None) -> str | None:
        """The unrolled march of n-tuples in dimension dim, or where n is None the
        looped march of any n; None if it is longer than ``_MARCH_MAX_SOURCE``."""
        count = dim + cls._EXTRA_COORDS
        if n is None:
            a, b = ([f"{s}{k}" for k in range(count)] for s in "ab")
            pair = cls._pair(a, b).replace("\n", "\n        ")
            source = cls._LOOP_SOURCE.format(a=", ".join(a), b=", ".join(b), pair=pair)
        else:
            x = [[f"x{i}_{k}" for k in range(count)] for i in range(n)]
            # No pair block is shorter than one over slot 0 twice, so this
            # skips building sources far past the cap.
            if n * (n - 1) // 2 * len(cls._pair(x[0], x[0])) > _MARCH_MAX_SOURCE:
                return None
            pairs = "".join(cls._pair(x[i], x[j]) for j in range(1, n) for i in range(j))
            slots = ", ".join(f"({', '.join(xi)},)" for xi in x)
            source = cls._MARCH_SOURCE.format(slots=slots, pairs=pairs)
        return source if len(source) <= _MARCH_MAX_SOURCE else None

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

    distance = _distance
    geodesic_point = _geodesic_point
    _gap = staticmethod(math.dist)

    @staticmethod
    def _interp(pd: tuple, qd: tuple, t: float, d) -> tuple:
        return tuple([a + t * (b - a) for a, b in zip(pd, qd)])

    # The pair step, _step inlined with every float operation in its
    # order: the equal-data skip, d = hypot of the differences, which has
    # math.dist's bits (CPython computes both as the vector_norm of
    # |p_k - q_k|), the shared midpoint, and both points moved s = lam / d
    # toward each other.  The reverse point keeps b + s * (a - b):
    # b - s * (b - a) is the same number except where a and b are both
    # -0.0, which it leaves at -0.0.  A shared midpoint leaves as equal
    # tuples, not one.
    _MARCH_PAIR: ClassVar[str] = """
        if {same}:
            low = 0.0
        else:
            d = hypot({diff})
            if d < low:
                low = d
            if d <= lam2:
                {mid}
            else:
                s = lam / d
                if s > 0.0:
                    {step}
                else:
                    _check_t(s)"""
    _MARCH_UNROLL: ClassVar[dict] = {
        "same": ("{a} == {b}", " and ", 0),
        "diff": ("{a} - {b}", ", ", 0),
        "mid": ("{a} = {b} = {a} + 0.5 * ({b} - {a})", "; ", 0),
        "step": ("{a}, {b} = {a} + s * ({b} - {a}), {b} + s * ({a} - {b})", "; ", 0),
    }

    def random_point(self, rng: random.Random) -> Point:
        return Point(self.kind, tuple(rng.gauss(0.0, 1.0) for _ in range(self.dim)))


class HyperboloidSpace(_CoordinateSpace):
    """Hyperbolic space as the upper sheet of <x,x> = -1 in Minkowski R^{dim+1}.

    Points carry dim+1 coordinates with x0 > 0, accepted when the constraint
    holds within ``HYPERBOLOID_CONSTRAINT_TOL * x0**2``.  Every interpolation is
    reprojected onto the sheet before it is returned.
    """

    kind: ClassVar[str] = "hyperboloid"
    _EXTRA_COORDS: ClassVar[int] = 1

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
            # Summed left to right: the builtin sum rounds differently from 3.12 on.
            norm2 = functools.reduce(operator.add, ((c / x0) ** 2 for c in data[1:]))
            off = abs(norm2 - 1.0) > HYPERBOLOID_CONSTRAINT_TOL
        if off:
            raise GeometryError("point is off the hyperboloid sheet")
        return Point(self.kind, data)

    distance = _distance
    geodesic_point = _geodesic_point

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

    @staticmethod
    def _interp(pd: tuple, qd: tuple, t: float, theta: float) -> tuple:
        # The point at fraction t from pd to qd, theta = d(pd, qd) apart.
        if theta < _SMALL_ANGLE:
            return _project([a + t * (b - a) for a, b in zip(pd, qd)])
        sh = math.sinh(theta)
        wp = math.sinh((1.0 - t) * theta) / sh
        wq = math.sinh(t * theta) / sh
        return _project([wp * a + wq * b for a, b in zip(pd, qd)])

    # The pair step, _step inlined with every float operation in its
    # order.  The midpoint's weights are one number: sinh((1.0 - 0.5) * d)
    # is sinh(0.5 * d).  u is the blend toward b, v the one toward a, each
    # projected as _project does.  md <= 0.0 is tested as _gap tests it, so
    # a NaN md gives a NaN d, whose step raises in _check_t.
    _MARCH_PAIR: ClassVar[str] = """
        if {same}:
            low = 0.0
        else:
            c = {a0} - {b0}; md = -c * c; {md}
            if md <= 0.0:
                d = 0.0
            else:
                d = 2.0 * asinh(0.5 * sqrt(md))
            if d < low:
                low = d
            if d <= lam2:
                if d < _SMALL_ANGLE:
                    {mid_affine}
                else:
                    w = sinh(0.5 * d) / sinh(d)
                    {mid_sinh}
                n2 = u0 * u0; {norm_u}
                if n2 <= 0.0 or u0 <= 0.0:
                    raise GeometryError(_OFF_SHEET)
                inv = 1.0 / sqrt(n2)
                {mid}
            else:
                s = lam / d
                if s > 0.0:
                    if d < _SMALL_ANGLE:
                        {fwd_affine}
                    else:
                        sh = sinh(d)
                        wp = sinh((1.0 - s) * d) / sh
                        wq = sinh(s * d) / sh
                        {fwd_sinh}
                    n2 = u0 * u0; {norm_u}
                    if n2 <= 0.0 or u0 <= 0.0:
                        raise GeometryError(_OFF_SHEET)
                    inv = 1.0 / sqrt(n2)
                    {fwd_a}
                    n2 = v0 * v0; {norm_v}
                    if n2 <= 0.0 or v0 <= 0.0:
                        raise GeometryError(_OFF_SHEET)
                    inv = 1.0 / sqrt(n2)
                    {fwd_b}
                else:
                    _check_t(s)"""
    _MARCH_UNROLL: ClassVar[dict] = {
        "same": ("{a} == {b}", " and ", 0),
        "md": ("c = {a} - {b}; md += c * c", "; ", 1),
        "mid_affine": ("u{k} = {a} + 0.5 * ({b} - {a})", "; ", 0),
        "mid_sinh": ("u{k} = w * {a} + w * {b}", "; ", 0),
        "fwd_affine": ("u{k} = {a} + s * ({b} - {a}); v{k} = {b} + s * ({a} - {b})", "; ", 0),
        "fwd_sinh": ("u{k} = wp * {a} + wq * {b}; v{k} = wp * {b} + wq * {a}", "; ", 0),
        "norm_u": ("n2 -= u{k} * u{k}", "; ", 1),
        "norm_v": ("n2 -= v{k} * v{k}", "; ", 1),
        "mid": ("{a} = {b} = u{k} * inv", "; ", 0),
        "fwd_a": ("{a} = u{k} * inv", "; ", 0),
        "fwd_b": ("{b} = v{k} * inv", "; ", 0),
    }

    def random_point(self, rng: random.Random) -> Point:
        gauss = [rng.gauss(0.0, 1.0) for _ in range(self.dim)]
        # Summed left to right: the builtin sum rounds differently from Python 3.12 on.
        r = math.sqrt(functools.reduce(operator.add, (g * g for g in gauss)))
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
                ids = (item["id"], item["from"], item["to"])
                fields = [int(v) for v in ids] + [float(item["length"])]
                # int() alone would truncate 0.5 to 0 and read True as 1.
                if any(isinstance(v, bool) or v != f for v, f in zip(ids, fields)):
                    raise ValueError("edge ids and nodes must be integers")
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

    The kernels read ``_table``, which maps an edge id to (from node, to
    node, length, from node's distances to every node, to node's), by
    plain indexing: ``_check_point`` has rejected every edge id the tree
    lacks.  ``_gap`` returns the least endpoint pairing's length without
    building a route, ``_interp`` walks the one ``_route`` picks, and
    ``_motions`` reads each slot's edge ends once per event and one
    ``_next_edge`` row per point.
    """

    topology: TreeTopology
    _edge_by_id: dict = field(init=False, repr=False, compare=False)
    _table: dict = field(init=False, repr=False, compare=False)
    _vertex_rep: dict = field(init=False, repr=False, compare=False)
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
        table = {e.id: (e.from_node, e.to_node, e.length,
                        node_dist[e.from_node], node_dist[e.to_node])
                 for e in topo.edges}
        object.__setattr__(self, "_edge_by_id", edge_by_id)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_vertex_rep", vertex_rep)
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

    def canonicalize(self, p: Point) -> Point:
        self._check_point(p)
        edge_id, offset = p.data
        return Point(self.kind, self._place(self._edge_by_id[edge_id], offset))

    def _check_point(self, p: Point) -> None:
        # Data that is no (edge_id, offset) pair with a comparable offset,
        # or an offset off its edge, is a GeometryError; an unknown edge id
        # (a point of another tree) a SpaceMismatchError.  The kernels index
        # the edge table with the data that passes.
        _check_kind(self, p)
        try:
            edge_id, offset = p.data
            edge = self._edge_by_id.get(edge_id)
            inside = edge is None or 0.0 <= offset <= edge.length
        except (TypeError, ValueError) as exc:
            raise GeometryError(f"malformed tree point data {p.data!r}") from exc
        if edge is None:
            raise SpaceMismatchError(f"edge id {edge_id!r} does not belong to this tree")
        if not inside:
            raise GeometryError(f"offset {offset} outside [0, {edge.length}] on edge {edge_id}")

    distance = _distance
    geodesic_point = _geodesic_point
    _step = _pair_step
    _march = _pair_march

    def _gap(self, pd: tuple, qd: tuple) -> float:
        # _route(pd, qd)[0] without a route: the least of the four endpoint
        # pairings, each summed as the route sums it.
        # Comparisons, not min(): a call of min() costs more than the sums.
        if pd[0] == qd[0]:
            return abs(pd[1] - qd[1])
        a, b, length, row_a, row_b = self._table[pd[0]]
        c, d, length_q, _, _ = self._table[qd[0]]
        o, oq = pd[1], qd[1]
        r, rq = length - o, length_q - oq
        best = o + row_a[c] + oq
        other = o + row_a[d] + rq
        if other < best:
            best = other
        other = r + row_b[c] + oq
        if other < best:
            best = other
        other = r + row_b[d] + rq
        return other if other < best else best

    def _route(self, pd: tuple, qd: tuple) -> tuple:
        # The shortest route from pd to qd on two edges: (length, leg from pd
        # to its edge's exit node, exit node, entry node of qd's edge).  It
        # tries the endpoint pairings in _gap's order, each summed as _gap
        # sums it, and the first strict minimum wins, so its length is _gap's
        # bit for bit.  The way back, _route(qd, pd), sums in its own order.
        a, b, length, row_a, row_b = self._table[pd[0]]
        c, d, length_q, _, _ = self._table[qd[0]]
        o, oq = pd[1], qd[1]
        r, rq = length - o, length_q - oq
        route = o + row_a[c] + oq, o, a, c
        other = o + row_a[d] + rq
        if other < route[0]:
            route = other, o, a, d
        other = r + row_b[c] + oq
        if other < route[0]:
            route = other, r, b, c
        other = r + row_b[d] + rq
        return (other, r, b, d) if other < route[0] else route

    def _interp(self, pd: tuple, qd: tuple, t: float, d: float) -> tuple:
        # The point at fraction t in (0, 1) from pd to qd != pd.  d is unread:
        # the way back walks its own route's length, which may differ in the last bit.
        e1, o1 = pd
        e2, o2 = qd
        if e1 == e2:
            return self._place(self._edge_by_id[e1], o1 + t * (o2 - o1))
        total, ra, u, nb = self._route(pd, qd)
        s = t * total
        if s <= ra:
            a = self._edge_by_id[e1]
            off = o1 - s if u == a.from_node else o1 + s
            return self._place(a, min(max(off, 0.0), a.length))
        # Walk on from the exit node u toward nb, where the route enters qd's edge.
        s -= ra
        while u != nb:
            e = self._next_edge[u][nb]
            if s < e.length:
                return self._place(e, s if u == e.from_node else e.length - s)
            s -= e.length
            u = e.other(u)
        b = self._edge_by_id[e2]
        return self._place(b, min(s, o2) if nb == b.from_node else max(b.length - s, o2))

    def _motions(self, data: list[tuple]) -> list[tuple | None]:
        # How each point of data moves until the next event of the exact
        # flow: (edge, offset, sign, speed, pull), sign +1.0 toward the
        # edge's to node, pull[j] what it moves toward slot j's point per
        # unit time; None if it stays.  Each slot's edge ends are read once,
        # and the first edge from a vertex v toward a point on the edge
        # (c, d) is row[d] if c == v else row[c], row being v's _next_edge.
        table = self._table
        slots = [(e, p) + table[e][:3] for e, p in data]
        others = len(data) - 1
        moves = []
        for i, (edge_id, o, a, b, length) in enumerate(slots):
            if 0.0 < o < length:
                # Inside an edge: toward the side that holds more of the
                # others, at the difference of the two counts.
                edge = self._edge_by_id[edge_id]
                row = self._next_edge[b]
                ahead = [p > o if e == edge_id else (row[d] if c == b else row[c]) is not edge
                         for e, p, c, d, _ in slots]
                ahead[i] = False
                vel = 2 * sum(ahead) - others
                pull = [vel if x else -vel for x in ahead]
                moves.append(None if vel == 0 else (edge, o, 1.0, vel, pull) if vel > 0
                             else (edge, o, -1.0, -vel, pull))
                continue
            # At a vertex: into the branch that holds c > (n-1)/2 of the
            # others, at 2c - (n-1), or nowhere.  Among branches tied for
            # the most, none holds more than half.
            v = a if o == 0.0 else b
            row = self._next_edge[v]
            # Counted by edge id: a TreeEdge hashes its fields in Python.
            branches = [(row[d] if c == v else row[c]).id for _, _, c, d, _ in slots]
            branches[i] = None
            counts = {}
            for x in branches:
                counts[x] = counts.get(x, 0) + 1
            del counts[None]
            best = max(counts, key=counts.get)
            speed = 2 * counts[best] - others
            if speed <= 0:
                moves.append(None)
                continue
            edge = self._edge_by_id[best]
            pull = [speed if x == best else -speed for x in branches]
            moves.append((edge, 0.0, 1.0, speed, pull) if v == edge.from_node
                         else (edge, edge.length, -1.0, speed, pull))
        return moves

    def _first_collision(self, data: list[tuple], gaps: list[float]) -> tuple[float, list[tuple]]:
        """The exact flow of the total pairwise distance, up to its first collision.

        data holds distinct points and gaps their distances in
        ``itertools.combinations`` order (``_gap(data[i], data[j])``, i < j),
        as ``merge_time`` has measured them for the first event.  Until two
        points meet, each moves at an integer speed that counts of the others
        decide (``_motions``), and those counts change only when two points
        meet.  Between events (a point reaches a vertex, or two points meet)
        every point moves along one edge and every gap changes linearly, so
        each event time is a leg over a speed or a gap over a closing rate.
        A point whose arrival is the step is placed on its vertex exactly.

        Returns the collision time and the data there, in which the points
        that met share one tuple.  A point never turns back before the first
        collision, so it reaches each vertex at most once; past
        n (edge count + 1) events the run raises GeometryError.
        """
        n = len(data)
        data = list(data)
        pairs = list(itertools.combinations(range(n), 2))
        still = [0] * n
        t = 0.0
        for _ in range(n * (len(self.topology.edges) + 1)):
            moves = self._motions(data)
            arrivals = [math.inf if m is None
                        else (m[0].length - m[1] if m[2] > 0.0 else m[1]) / m[3] for m in moves]
            pull = [still if m is None else m[4] for m in moves]
            # A gap closes at the sum of what each point moves toward the other.
            meets = [0.0 if d == 0.0 else d / rate if (rate := pull[i][j] + pull[j][i]) > 0
                     else math.inf for (i, j), d in zip(pairs, gaps)]
            h = min(min(arrivals), min(meets))
            if h == math.inf:
                raise GeometryError("no two points of the flow approach each other")
            for i, m in enumerate(moves):
                if m is None:
                    continue
                edge, o, sign, speed, _ = m
                if arrivals[i] == h:
                    o = edge.length if sign > 0.0 else 0.0
                else:
                    o = min(max(o + sign * speed * h, 0.0), edge.length)
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
            gaps = _gaps(self, data)
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


# json.dumps(obj, sort_keys=True) builds this encoder on every call.
_SORT_KEY_ENCODE = json.JSONEncoder(sort_keys=True).encode


def point_sort_key(space: SpaceDescriptor, p: Point) -> str:
    """Canonical serialization, used wherever a deterministic order is needed."""
    return _SORT_KEY_ENCODE(space.point_to_json(p))

