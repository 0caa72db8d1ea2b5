"""Hadamard-space backends: distances and geodesics.

Three concrete spaces of nonpositive curvature are provided: Euclidean
space, the hyperboloid model of hyperbolic space, and metric trees.  All
space and point values are immutable, and every operation is a pure
function of its arguments, so the module is safe to use from concurrent
samplers.

A backend supplies ``_check_point(p)``, which admits only data that its
``point()`` builds, ``_sort_key(data)``, that data's JSON text for
``point_sort_key``, and two kernels on bare coordinate data, the
``Point.data`` of a point (a coordinate tuple, or an ``(edge_id, offset)``
pair on a tree): ``_gap(pd, qd)``, the distance, and
``_interp(pd, qd, t, d)``, the point at fraction t from pd to qd, d being
their ``_gap``.  The kernels skip the check, because the flow passes them
the data of a ``PointTuple``, checked once, where its points entered the
library, and a kernel builds from admitted data only data the check
admits.  Outside numbers enter through ``point()``, which reads an ``int``
or ``float`` that is not a ``bool`` (``_real``) and refuses anything else
as a ``GeometryError``.  Each backend
binds in its class body what this module writes once from those:
``distance = _distance`` and ``geodesic_point = _geodesic_point``, which
check each point (its kind; its coordinate count, or on a tree its edge and
offset) and call the kernels.  ``_geodesic_point`` ends in ``_toward(space,
p, q, t, d)``, the step between checked points d apart, which the library's
own steps call directly; ``_total`` sums floats left to right for every
report.  Each backend also binds a pair step, ``space._pair_step(pd, qd,
lam)``, the two-point resolvent of distinct pd and qd, which measures their
distance d once and returns ``(p', q', d)``: the shared midpoint twice when
d <= 2 lam, else both points moved lam toward each other, and d, which the
merge march uses as a bound.  No step checks anything: lam and t are
checked where they enter, and an admitted pair's d is never NaN
(``HyperboloidSpace``), so a pair whose d overflowed stays put, and
``_toward`` refuses it.  The euclidean and tree backends bind the module's
``_pair_step(space, pd, qd, lam)``, written once over the kernels; the
hyperboloid writes its own in closed form in the squared gap md = 4
sinh^2(d/2) (``_squared_gap``), which its ``_gap`` reads too.
``_gaps(space, data)`` is ``_gap`` over every pair.
``_merges_exactly(space, n)`` alone decides which merges do not march: two
points, which meet at their midpoint, and any number on a tree, on the line
and on hyperboloid:1, where ``merge_time`` calls ``_first_collision(data,
gaps)``, the exact flow to the first collision, whose first event on a tree
reuses those gaps; hyperboloid:1 runs the line's in arclength.
Every tree kernel reads an edge by its id from one table (its ends, its
length and both ends' rows of node distances); the tree's ``_gap`` and
``_interp`` are rendered from its march template's route and move blocks
(``_gap`` without the route's own parts).  The exact tree flow
takes every point's motion (``_motions``, one pass over every point's edge
id) at its first event and afterwards only for a point placed on a vertex:
until two points meet, no point passes another, so every other point keeps
the counts that set its motion.  An event takes the motions it needs in one
``_motions`` call and gathers its times in plain loops, the pairs come from
one list per n (``_pair_indices``), and the last event, the meet, only moves
the points.

Every space also has ``_march(coords, lam, sweeps, watch)``: up to
``sweeps`` cyclic sweeps of pair steps in place, stopping after the first
sweep whose smallest stepped distance ``low`` is at most ``watch``; it
returns how many sweeps ran and that sweep's ``low``.  This module alone
decides how a march runs.  The reference march, ``_pair_march``, calls
the space's ``_pair_step`` pair by pair.  Every backend writes its pair
step once more, as a template with its ``_pair_step`` inlined over the
values of two slots (coordinates, or a tree's edge id and offset), and one
generator (``_MarchingSpace``) builds every backend's march from it in one
shape: the values of slots 0..k-1 in locals for the whole march, and each
later slot in a row that steps it against them and loops over the rest,
for the largest k <= n whose source fits under ``_MARCH_MAX_SOURCE``
characters, else ``_pair_march``.  A tree's template shares its blocks
with ``_gap`` and ``_interp`` (and ``_walk``), and the hyperboloid's
lifts both ends of every step in one place and turns its sweep's smallest
md into ``low`` once, at the sweep's end.  Every march keeps
``_pair_step``'s bits.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import re
import sys
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple, Union

# Tolerance for the Minkowski constraint <x,x> = -1 on hyperboloid input,
# relative to x0^2 (so absolute at the apex).
HYPERBOLOID_CONSTRAINT_TOL = 1e-9

# Random hyperboloid points are capped at this distance from the apex so
# cosh factors stay well conditioned in double precision.
HYPERBOLOID_SAMPLE_CAP = 3.0

# Below this separation _interp's sinh weights degenerate to 0/0; an affine
# blend of the spatial parts is exact to well past double precision.  Only
# _interp reads it: the hyperboloid pair step has no small-angle branch.
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


def _check_count(what: str, k, least: int) -> None:
    # A float count would end deep in its caller as a TypeError, or be used
    # as it is; a bool is an int to isinstance, but no count.
    if not isinstance(k, int) or isinstance(k, bool) or k < least:
        raise GeometryError(f"{what} must be an integer >= {least}, got {k!r}")


def _check_type(what: str, value, cls: type) -> None:
    # An argument of another type would fail deep in its caller as an AttributeError.
    if not isinstance(value, cls):
        raise GeometryError(f"{what} must be a {cls.__name__}, got {value!r}")


def _real(v) -> bool:
    # What an outside number must be: an int or a float, and no bool, which
    # is an int to isinstance; text such as "1.5" is no number either.
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _coordinates(coords, count: int) -> tuple:
    """Exactly count finite floats; malformed input is a GeometryError."""
    try:
        items = tuple(coords)
        if not all(_real(c) for c in items):
            raise TypeError("not a real number")
        data = tuple(map(float, items))
    except (TypeError, OverflowError) as exc:
        raise GeometryError(f"coordinates must be numbers, got {coords!r}") from exc
    if len(data) != count:
        raise GeometryError(f"expected {count} coordinates, got {len(data)}")
    if not all(math.isfinite(c) for c in data):
        raise GeometryError("coordinates must be finite")
    return data


_OVERFLOW = "a hyperboloid point's squared time coordinate overflows double precision"
_GAPS_OVERFLOW = "pairwise distances overflow double precision"


def _lift(spatial) -> tuple:
    # The point of the upper sheet with these spatial coordinates: x0 is
    # sqrt(1 + |xs|^2), summed left to right.  An overflowing or NaN sum is
    # refused.
    s = 1.0
    for c in spatial:
        s += c * c
    if not s < math.inf:
        raise GeometryError(_OVERFLOW)
    return (math.sqrt(s), *spatial)


def _squared_gap(pd: tuple, qd: tuple) -> float:
    # md = 4 sinh^2(d/2) of two hyperboloid points d apart: the Minkowski
    # norm of their difference, -(x0 - y0)^2 + sum of (x_k - y_k)^2, summed
    # left to right.  _gap and the pair step read a pair through it alone,
    # and the march templates write its lines out in the same order.
    pairs = zip(pd, qd)
    a, b = next(pairs)
    c = a - b
    md = -c * c
    for a, b in pairs:
        c = a - b
        md += c * c
    return md


def _step_weights(lam: float) -> tuple[float, float, float]:
    # What a hyperboloid march of step lam computes once: sinh lam, exp(-lam)
    # and the meeting bound (2 sinh lam)^2 on md, capped at the largest
    # float so that an infinite md never meets.  The bound reaches the cap
    # once lam passes about 355, where every finite md meets, so sinh is
    # taken at no more than 710: past that math.sinh raises OverflowError.
    sl = math.sinh(min(lam, 710.0))
    return sl, math.exp(-lam), min(4.0 * sl * sl, sys.float_info.max)


# A generated source, a march's or a dual solve's in flow.py, is at most this
# many characters long.  Compiling one holds 90 to 125 bytes of memory per
# character while it runs, so the cap bounds that transient whatever the
# dimension or the number of pairs:
# in a fresh process no march under it raised max RSS by more than 1.7 MB,
# and looped sources from 22,600 characters on raised it by 2.9 MB.
_MARCH_MAX_SOURCE = 22_000


@functools.cache
def _pair_indices(n: int) -> tuple[tuple[int, int], ...]:
    # (i, j) for every i < j < n, in itertools.combinations order: the order
    # of _gaps, built once per n.
    return tuple(itertools.combinations(range(n), 2))


def _gaps(space, data) -> list[float]:
    # _gap(data[i], data[j]) for every i < j, in itertools.combinations order,
    # on checked points' bare data: a PointTuple's, a FiniteSubset's, a flow's.
    gap = space._gap
    return [gap(p, q) for p, q in itertools.combinations(data, 2)]


def _pair_step(space, pd: tuple, qd: tuple, lam: float) -> tuple[tuple, tuple, float]:
    # The two-point resolvent of distinct pd and qd in space.  Each end
    # moves by its own _interp call, so a tree route is summed in the
    # direction that end walks it.
    d = space._gap(pd, qd)
    if d <= 2.0 * lam:
        mid = space._interp(pd, qd, 0.5, d)
        return mid, mid, d
    s = lam / d
    if not s > 0.0:  # d overflowed, or lam / d underflowed: stay put
        return pd, qd, d
    return space._interp(pd, qd, s, d), space._interp(qd, pd, s, d), d


def _distance(space, p: Point, q: Point) -> float:
    # Bound as each backend's public distance.
    space._check_point(p)
    space._check_point(q)
    return space._gap(p.data, q.data)


def _toward(space, p: Point, q: Point, t: float, d: float) -> Point:
    # The point at fraction t in [0, 1] from checked p to checked q, d being
    # their _gap: p at t = 0, q at t = 1, else one _interp of a finite d.
    if t == 0.0:
        return p
    if t == 1.0:
        return q
    if not d < math.inf:
        raise GeometryError(_GAPS_OVERFLOW)
    return Point(space.kind, space._interp(p.data, q.data, t, d))


def _geodesic_point(space, p: Point, q: Point, t: float) -> Point:
    # Bound as each backend's public geodesic_point.
    space._check_point(p)
    space._check_point(q)
    if not _real(t):
        raise GeometryError(f"geodesic parameter must be a number, got {t!r}")
    if not 0.0 <= t <= 1.0:
        raise GeometryError(f"geodesic parameter must lie in [0, 1], got {t}")
    if p == q:
        return p
    return _toward(space, p, q, t, space._gap(p.data, q.data))


def _total(values) -> float:
    # A nonempty iterable of floats summed left to right: from Python 3.12 on
    # the builtin sum compensates its rounding, so its bits vary by version.
    return functools.reduce(operator.add, values)


def _pair_march(space, coords: list[tuple], lam: float, sweeps: int,
                watch: float) -> tuple[int, float]:
    # The reference march: each sweep calls the space's _pair_step on the pairs ordered
    # by the larger index, then the smaller: (0,1), (0,2), (1,2), (0,3), ...
    # A sweep's low is the smallest distance a pair was stepped from, or 0.0
    # if a pair was skipped because its two slots held equal data.  The
    # generated marches run the same sweeps with the pair step inlined.
    step = space._pair_step
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
                 "_step_weights": _step_weights, "_OVERFLOW": _OVERFLOW, "GeometryError": GeometryError}


@functools.cache
def _compile(source: str, name: str, **names):
    """The function ``name`` that a generated source defines, run by exec the way
    dataclasses and collections.namedtuple build their methods, once per source
    and ``names``; the source sees ``_KERNEL_NAMES`` and ``names``.  Every
    source it runs is at most ``_MARCH_MAX_SOURCE`` characters long."""
    namespace = {**_KERNEL_NAMES, **names}
    exec(source, namespace)
    return namespace[name]


def _block(block: str, indent: int, **fields) -> str:
    # A template block, each line of which starts with a newline, with its
    # fields filled in and every line indented by indent spaces.
    return block.format(**fields).replace("\n", "\n" + " " * indent)


@functools.cache
def _march_kernel(cls, count: int, n: int):
    """The march of n-tuples of slots that hold count values each, in a ``cls``
    space: the largest k <= n whose source ``cls._march_source(count, k, k <
    n)`` fits, else ``_pair_march``.  Every n that takes the same k < n has
    the same source, so it runs one kernel."""
    for k in range(n, -1, -1):
        source = cls._march_source(count, k, k < n)
        if source is not None:
            return _compile(source, "_march")
    return _pair_march


class _MarchingSpace:
    """The march generator every backend shares.

    A subclass sets its pair template: ``_MARCH_PAIR``, one pair step over
    the values of two slots, ``{a0}, {a1}, ...`` and ``{b0}, {b1}, ...``, with
    its ``_pair_step``'s float operations in their order; ``_MARCH_UNROLL``,
    its fields written out once per value; ``_MARCH_SETUP``, the line that
    reads a march's per-step constants from ``space`` and ``lam`` once, and
    ``_MARCH_SETTLE``, empty or a line that ends each sweep, which turns
    what its pair steps kept in ``low`` into the sweep's smallest distance.
    ``_march_source`` builds every march from them in one
    shape, and ``self._march`` runs the one with the largest k <=
    ``len(coords)`` that fits under ``_MARCH_MAX_SOURCE``, else the reference
    march ``_pair_march`` (``_march_kernel``).  Every march has
    ``_pair_march``'s signature and gives its bits.
    """

    _MARCH_UNROLL: ClassVar[dict] = {}
    _MARCH_SETTLE: ClassVar[str] = ""

    def _march(self, coords: list[tuple], lam: float, sweeps: int,
               watch: float) -> tuple[int, float]:
        return _march_kernel(type(self), len(coords[0]), len(coords))(self, coords, lam, sweeps, watch)

    # Value c of slot i < k is x{i}_{c} for the whole call; in a row, that
    # of its slot j >= k is b{c}, and that of slot i >= k in its loop a{c}.
    _MARCH_SOURCE: ClassVar[str] = """
def _march(space, coords, lam, sweeps, watch):{load}
    {setup}
    for done in range(1, sweeps + 1):
        low = inf{pairs}{rows}{settle}
        if low <= watch:
            break{store}
    return done, low
"""
    _MARCH_ROWS: ClassVar[str] = """
        for j in range({first}, len(coords)):
            {b}, = coords[j]{fixed}
            for i in range({k}, j):
                {a}, = coords[i]{pair}
                coords[i] = {a},
            coords[j] = {b},"""

    @classmethod
    def _pair(cls, a: list[str], b: list[str]) -> str:
        # The pair template over the value names a and b of two slots.  Each
        # field of _MARCH_UNROLL is a pattern written out once per value k
        # from its first one on, and the separator between them.
        fields = {name: sep.join(pattern.format(a=a[k], b=b[k], k=k) for k in range(first, len(a)))
                  for name, (pattern, sep, first) in cls._MARCH_UNROLL.items()}
        names = {f"{s}{c}": v for s, slot in (("a", a), ("b", b)) for c, v in enumerate(slot)}
        return cls._MARCH_PAIR.format(**names, **fields)

    @classmethod
    def _march_source(cls, count: int, k: int, rows: bool) -> str | None:
        """The march of slots of count values that holds slots 0..k-1 in
        locals for the whole call, their pairs unrolled; None if it is longer
        than ``_MARCH_MAX_SOURCE``.  Without rows it marches k-tuples, and
        writes ``coords`` once, on return.  With rows it marches n-tuples of
        any n > k: each slot j >= k is a row, unpacked once per sweep, that
        steps its pairs with the locals unrolled and loops over those with
        slots k..j-1, each written back after its pair step; a raise leaves
        ``coords`` partly stepped, and nothing reads it then.  k = 0 loops
        over every pair."""
        a, b = ([f"{s}{c}" for c in range(count)] for s in "ab")
        # No pair block is shorter than one over a and b, so this skips
        # building sources far past the cap.
        if (k * (k - 1) // 2 + (k + 1 if rows else 0)) * len(cls._pair(a, b)) > _MARCH_MAX_SOURCE:
            return None
        x = [[f"x{i}_{c}" for c in range(count)] for i in range(k)]
        slots = ", ".join(f"({', '.join(xi)},)" for xi in x)
        cut = f"[:{k}]" if rows else ""
        section = "" if not rows else cls._MARCH_ROWS.format(
            first=max(k, 1), k=k, a=", ".join(a), b=", ".join(b),
            fixed="".join(cls._pair(xi, b) for xi in x).replace("\n", "\n    "),
            pair=cls._pair(a, b).replace("\n", "\n        "))
        source = cls._MARCH_SOURCE.format(
            load=f"\n    {slots}, = coords{cut}" if k else "", rows=section,
            pairs="".join(cls._pair(x[i], x[j]) for j in range(1, k) for i in range(j)),
            store=f"\n    coords{cut or '[:]'} = {slots}," if k else "",
            setup=cls._MARCH_SETUP, settle=cls._MARCH_SETTLE)
        return source if len(source) <= _MARCH_MAX_SOURCE else None


@dataclass(frozen=True)
class _CoordinateSpace(_MarchingSpace):
    """What the coordinate backends share: a dimension, the array codec, the march.

    Subclasses set ``kind``, define ``point``, ``random_point`` and the
    kernels ``_gap`` and ``_interp(pd, qd, t, d)``, and bind ``distance =
    _distance`` and ``geodesic_point = _geodesic_point`` in their own class
    body, where per-backend call counters look the public methods up.  Each
    binds or writes its ``_pair_step(pd, qd, lam)`` there too, and sets its
    pair template (``_MarchingSpace``) over the coordinates of two slots.
    """

    dim: int

    # Coordinates a point carries beyond dim: the hyperboloid's time coordinate.
    _EXTRA_COORDS: ClassVar[int] = 0

    def __post_init__(self) -> None:
        _check_count("dimension", self.dim, 1)

    def canonicalize(self, p: Point) -> Point:
        self._check_point(p)
        return p

    def _check_point(self, p: Point) -> None:
        # The march kernels unpack a fixed number of coordinates per slot,
        # and _sort_key writes each by float repr: finite floats only, as
        # point() builds them (no int, bool or text), and on the hyperboloid
        # an x0 whose square is a double, so that no gap is NaN.
        _check_kind(self, p)
        count = self.dim + self._EXTRA_COORDS
        if len(p.data) != count:
            raise GeometryError(f"expected {count} coordinates, got {len(p.data)}")
        for c in p.data:
            if type(c) is not float or not math.isfinite(c):
                raise GeometryError(f"coordinates must be finite floats, got {p.data!r}")
        if self._EXTRA_COORDS and not p.data[0] * p.data[0] < math.inf:
            raise GeometryError(_OVERFLOW)

    def point_to_json(self, p: Point):
        _check_kind(self, p)
        return list(p.data)

    @staticmethod
    def _sort_key(data: tuple) -> str:
        # json.dumps(list(data)) of checked data: the encoder writes a finite
        # float by its repr, and so does a list's repr, with the same ", ".
        return repr(list(data))

    def point_from_json(self, obj) -> Point:
        if not isinstance(obj, (list, tuple)):
            raise GeometryError(f"{self.kind} point JSON must be a coordinate array")
        return self.point(obj)

    def to_json(self):
        return {"kind": self.kind, "dim": self.dim}


class EuclideanSpace(_CoordinateSpace):
    """R^dim with the usual metric; geodesics are straight segments."""

    kind: ClassVar[str] = "euclidean"

    def point(self, coords) -> Point:
        return Point(self.kind, _coordinates(coords, self.dim))

    distance = _distance
    geodesic_point = _geodesic_point
    _pair_step = _pair_step
    _gap = staticmethod(math.dist)

    @staticmethod
    def _interp(pd: tuple, qd: tuple, t: float, d) -> tuple:
        return tuple([a + t * (b - a) for a, b in zip(pd, qd)])

    # The pair step, _pair_step inlined with every float operation in its
    # order: the equal-data skip, d = hypot of the differences, which has
    # math.dist's bits (CPython computes both as the vector_norm of
    # |p_k - q_k|), the shared midpoint, and both points moved s = lam / d
    # toward each other.  The reverse point keeps b + s * (a - b):
    # b - s * (b - a) is the same number except where a and b are both
    # -0.0, which it leaves at -0.0.  A shared midpoint leaves as equal
    # tuples, not one.
    _MARCH_SETUP: ClassVar[str] = "lam2 = 2.0 * lam"
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
                    {step}"""
    _MARCH_UNROLL: ClassVar[dict] = {
        "same": ("{a} == {b}", " and ", 0),
        "diff": ("{a} - {b}", ", ", 0),
        "mid": ("{a} = {b} = {a} + 0.5 * ({b} - {a})", "; ", 0),
        "step": ("{a}, {b} = {a} + s * ({b} - {a}), {b} + s * ({a} - {b})", "; ", 0),
    }

    @staticmethod
    def _first_collision(data: list[tuple], gaps: list[float]) -> tuple[float, list[tuple]]:
        """The line's (dim 1) exact flow to its first collision, as a tree's; gaps unread.

        Sorted, point k moves at n - 1 - 2k, so each gap between neighbours
        closes at rate 2 and the smallest, delta, at t = delta/2.  Gaps tie
        on exact values: a gap's key, its rounded value and that value's
        rounding error (TwoSum), orders as the exact difference does.  A run
        of points that met shares the tuple of its first point.
        """
        n = len(data)
        order = sorted(range(n), key=data.__getitem__)
        xs = [data[i][0] for i in order]
        keys = []
        for a, b in zip(xs, xs[1:]):
            s = b - a
            v = s - b
            keys.append((s, (b - (s - v)) + (-a - v)))
        low = min(keys)
        t = 0.5 * low[0]
        out = [(x + (n - 1 - 2 * k) * t,) for k, x in enumerate(xs)]
        for k, key in enumerate(keys):
            if key == low:
                out[k + 1] = out[k]
        return t, [p for _, p in sorted(zip(order, out))]

    def random_point(self, rng: random.Random) -> Point:
        return Point(self.kind, tuple(rng.gauss(0.0, 1.0) for _ in range(self.dim)))


class HyperboloidSpace(_CoordinateSpace):
    """Hyperbolic space as the upper sheet of <x,x> = -1 in Minkowski R^{dim+1}.

    Points carry dim+1 coordinates with x0 > 0, accepted when the constraint
    holds within ``HYPERBOLOID_CONSTRAINT_TOL * x0**2`` and x0^2 is a double
    (x0 <= 1.34e154, about 355.6 from the apex): so no squared gap, -(x0 -
    y0)^2 plus a sum of squares, is NaN.  Every point the library builds, an
    interpolation, a pair step or a random point, blends or draws the
    spatial coordinates alone and derives x0 from them (``_lift``), so it
    stays in its inputs' hull.  The pair step and ``_gap`` read a pair
    through its squared gap md = 4 sinh^2(d/2) alone (``_squared_gap``): the
    step's weights are algebraic in md and in sinh and exp of the step,
    computed once per march, so a pair step calls no sinh, and a march sweep
    takes asinh once, of its smallest md.  In dimension 1 a merge runs the
    line's exact flow in arclength (``_first_collision``).
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
        if not x0 * x0 < math.inf:
            raise GeometryError(_OVERFLOW)
        # <x,x> rounds at the scale of x0^2, so the tolerance scales with it.
        if abs(self.minkowski(data, data) + 1.0) > HYPERBOLOID_CONSTRAINT_TOL * x0 * x0:
            raise GeometryError("point is off the hyperboloid sheet")
        return Point(self.kind, data)

    distance = _distance
    geodesic_point = _geodesic_point

    @staticmethod
    def _gap(pd: tuple, qd: tuple) -> float:
        # Algebraically arcosh(-<p,q>), but evaluated through the Minkowski
        # norm of the difference, md = 4 sinh^2(d/2): the arcosh form loses
        # half the significant digits for separations near sqrt(eps), which
        # merge detection needs.
        md = _squared_gap(pd, qd)
        if md <= 0.0:
            return 0.0
        return 2.0 * math.asinh(0.5 * math.sqrt(md))

    @staticmethod
    def _interp(pd: tuple, qd: tuple, t: float, theta: float) -> tuple:
        # The point at fraction t from pd to qd, theta = d(pd, qd) apart: a
        # blend of the spatial parts, lifted to the sheet.
        if theta < _SMALL_ANGLE:
            return _lift([a + t * (b - a) for a, b in zip(pd[1:], qd[1:])])
        sh = math.sinh(theta)
        wp = math.sinh((1.0 - t) * theta) / sh
        wq = math.sinh(t * theta) / sh
        return _lift([wp * a + wq * b for a, b in zip(pd[1:], qd[1:])])

    @staticmethod
    def _pair_step(pd: tuple, qd: tuple, lam: float) -> tuple[tuple, tuple, float]:
        # The two-point resolvent of distinct pd and qd in closed form in
        # their squared gap md = 4 sinh^2(d/2) (_squared_gap): cosh d = 1 +
        # md/2 and sinh d = sqrt(md (1 + md/4)), written md sqrt(1/4 + 1/md)
        # so that it cannot overflow.  Where d <= 2 lam, that is md <= (2 sinh
        # lam)^2, both ends go to the midpoint, the spatial parts blended by
        # 1 / (2 cosh(d/2)) = 0.5 / sqrt(1 + md/4) each (0.5 where rounding
        # far from the apex leaves md <= 0).  Otherwise each end moves lam,
        # by the weights sinh(d - lam) / sinh d and wq = sinh lam / sinh d,
        # the first written exp(-lam) - wq exp(-d), exp(-d) = 1 / (cosh d +
        # sinh d): that difference loses at most a bit, where cosh lam - wq
        # cosh d loses them all once lam passes about 18.  An md that
        # overflowed stays put, as lam / d = 0 would.  Each x0 is derived
        # (_lift), and d is _gap's.
        md = _squared_gap(pd, qd)
        d = 0.0 if md <= 0.0 else 2.0 * math.asinh(0.5 * math.sqrt(md))
        sl, el, sl2 = _step_weights(lam)
        if md <= sl2:
            w = 0.5 / math.sqrt(1.0 + 0.25 * md) if md > 0.0 else 0.5
            mid = _lift([w * (a + b) for a, b in zip(pd[1:], qd[1:])])
            return mid, mid, d
        if not md < math.inf:
            return pd, qd, d
        sh = md * math.sqrt(0.25 + 1.0 / md)
        wq = sl / sh
        wp = el - wq / (1.0 + 0.5 * md + sh)
        return (_lift([wp * a + wq * b for a, b in zip(pd[1:], qd[1:])]),
                _lift([wp * b + wq * a for a, b in zip(pd[1:], qd[1:])]), d)

    # The pair step, _pair_step inlined with every float operation in its
    # order, its per-step constants computed once per march.  A pair whose md
    # overflowed stays put; one at a finite md meets (md <= sl2 <= the
    # largest float) or moves, its spatial coordinates set in place, and
    # then both ends take x0 as _lift derives it, an overflowing or NaN sum
    # at either end refused in one test (n2 < inf > m2 fails on inf and on
    # NaN); the ends of a meeting pair sum the same values.  The lift is
    # written here once, not called: a call of _lift costs more than the
    # whole meet.  Within a sweep low holds the smallest md, and the sweep's
    # end turns it into a distance once, with _gap's formula: asinh is
    # increasing, so that low is the smallest d.
    _MARCH_SETUP: ClassVar[str] = "sl, el, sl2 = _step_weights(lam)"
    _MARCH_SETTLE: ClassVar[str] = (
        "\n        low = 0.0 if low <= 0.0 else 2.0 * asinh(0.5 * sqrt(low))")
    _MARCH_PAIR: ClassVar[str] = """
        if {same}:
            low = 0.0
        else:
            c = {a0} - {b0}; md = -c * c; {md}
            if md < low:
                low = md
            if md < inf:
                if md <= sl2:
                    w = 0.5 / sqrt(1.0 + 0.25 * md) if md > 0.0 else 0.5
                    {meet}
                else:
                    sh = md * sqrt(0.25 + 1.0 / md)
                    wq = sl / sh
                    wp = el - wq / (1.0 + 0.5 * md + sh)
                    {blend}
                n2 = m2 = 1.0; {norm}
                if not n2 < inf > m2:
                    raise GeometryError(_OVERFLOW)
                {a0} = sqrt(n2); {b0} = sqrt(m2)"""
    _MARCH_UNROLL: ClassVar[dict] = {
        "same": ("{a} == {b}", " and ", 0),
        "md": ("c = {a} - {b}; md += c * c", "; ", 1),
        "meet": ("{a} = {b} = w * ({a} + {b})", "; ", 1),
        "blend": ("{a}, {b} = wp * {a} + wq * {b}, wp * {b} + wq * {a}", "; ", 1),
        "norm": ("n2 += {a} * {a}; m2 += {b} * {b}", "; ", 1),
    }

    @staticmethod
    def _first_collision(data: list[tuple], gaps: list[float]) -> tuple[float, list[tuple]]:
        """Dimension 1's exact flow to its first collision: the line's, in arclength.

        s = asinh(x1) maps hyperboloid:1 isometrically onto R and keeps its
        order, so the line's flow (``EuclideanSpace._first_collision``) runs
        on the s values, and each point maps back by x1 = sinh(s), lifted
        (``_lift``).  Ties are decided on the rounded arclengths: two gaps
        that tie exactly in x1 may round apart in s, so the line's exact tie
        rule holds in s.  The points stay within the input's hull, so sinh
        cannot overflow where the input did not.  Points that met share one
        tuple; gaps is unread.
        """
        t, out = EuclideanSpace._first_collision([(math.asinh(p[1]),) for p in data], gaps)
        lifted = {s: _lift([math.sinh(s[0])]) for s in out}
        return t, [lifted[s] for s in out]

    def random_point(self, rng: random.Random) -> Point:
        # A Gaussian direction, at its length capped at HYPERBOLOID_SAMPLE_CAP
        # from the apex; x0 is derived from the spatial part (_lift).
        gauss = [rng.gauss(0.0, 1.0) for _ in range(self.dim)]
        r = math.sqrt(_total(g * g for g in gauss))
        if r < 1e-12:
            return Point(self.kind, (1.0,) + (0.0,) * self.dim)
        scale = math.sinh(min(r, HYPERBOLOID_SAMPLE_CAP)) / r
        return Point(self.kind, _lift([g * scale for g in gauss]))


@dataclass(frozen=True)
class TreeEdge:
    id: int
    from_node: int
    to_node: int
    length: float

    def __post_init__(self) -> None:
        # Ids and nodes are ints, not bools, as from_json reads them; the
        # length is stored as a float, so every offset a point carries is one.
        if any(type(v) is not int for v in (self.id, self.from_node, self.to_node)):
            raise GeometryError(f"edge ids and nodes must be integers, got {self!r}")
        if self.from_node == self.to_node:
            raise GeometryError(f"edge {self.id} is a self-loop")
        length = self.length
        if not _real(length) or not 0.0 < length <= sys.float_info.max:
            raise GeometryError(f"edge {self.id} needs a positive finite length, got {length!r}")
        object.__setattr__(self, "length", float(length))

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
        edges = tuple(self.edges) if isinstance(self.edges, (list, tuple)) else ()
        if not edges:
            raise GeometryError(f"a tree needs a nonempty list or tuple of edges, got {self.edges!r}")
        for e in edges:
            _check_type("a tree edge", e, TreeEdge)
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
                # The length goes to TreeEdge as it is, which refuses all but
                # a real number: float() would read "1.0" and True as 1.0.
                fields = [int(v) for v in ids] + [item["length"]]
                # int() alone would truncate 0.5 to 0 and read True as 1.
                if any(isinstance(v, bool) or v != f for v, f in zip(ids, fields)):
                    raise ValueError("edge ids and nodes must be integers")
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise GeometryError(f"malformed tree edge entry: {item!r}") from exc
            edges.append(TreeEdge(*fields))
        return TreeTopology(tuple(edges))


@dataclass(frozen=True)
class TreeSpace(_MarchingSpace):
    """A metric tree; points live on edges as (edge_id, offset) pairs.

    Offsets are measured from an edge's ``from`` endpoint.  A vertex has
    one canonical representation: the lowest-id incident edge, with the
    offset at whichever end of that edge the vertex occupies.  All node
    distances and next-hop pointers are precomputed, so the instance is
    immutable after construction.

    Every kernel reads an edge by its id from ``_table``, which maps an edge
    id to (from node, to node, length, from node's distances to every node,
    to node's), by plain indexing: ``_check_point`` has rejected every edge
    id the tree lacks.  ``_branch`` rows hold edge ids too: ``_branch[v][f]``
    is the first edge from node v toward edge f, the one next-hop table.
    The march is the shared generator's (``_MarchingSpace``) over slots of
    (edge id, offset); its pair template and the kernels ``_gap`` and
    ``_interp`` are rendered from three blocks: the two table rows, the
    route, whose length ``_gap`` returns without the route, and the move
    along a point's own edge, which leaves a walk past the edge's end to
    ``_walk``.  ``_motions`` reads one ``_branch`` row per point.
    """

    topology: TreeTopology
    _table: dict = field(init=False, repr=False, compare=False)
    _vertex_rep: dict = field(init=False, repr=False, compare=False)
    _branch: dict = field(init=False, repr=False, compare=False)
    _cum_lengths: list = field(init=False, repr=False, compare=False)
    kind: ClassVar[str] = "tree"

    def __post_init__(self) -> None:
        topo = self.topology
        _check_type("topology", topo, TreeTopology)
        incident: dict[int, list[TreeEdge]] = {v: [] for v in topo.nodes}
        for e in topo.edges:
            incident[e.from_node].append(e)
            incident[e.to_node].append(e)
        vertex_rep = {}
        for v, edges in incident.items():
            e = min(edges, key=lambda e: e.id)
            vertex_rep[v] = (e.id, e.endpoint_offset(v))
        # One BFS per target node yields distances plus, for every other
        # node, the id of the first edge on the unique path toward that target.
        node_dist: dict[int, dict[int, float]] = {}
        next_edge: dict[int, dict[int, int]] = {v: {} for v in topo.nodes}
        for target in topo.nodes:
            dist = {target: 0.0}
            stack = [target]
            while stack:
                u = stack.pop()
                for e in incident[u]:
                    w = e.other(u)
                    if w not in dist:
                        dist[w] = dist[u] + e.length
                        next_edge[w][target] = e.id
                        stack.append(w)
            node_dist[target] = dist
        table = {e.id: (e.from_node, e.to_node, e.length,
                        node_dist[e.from_node], node_dist[e.to_node])
                 for e in topo.edges}
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_vertex_rep", vertex_rep)
        # The first edge from node v toward edge f: f itself at its ends, else
        # the first edge toward either end, which is on the same path.
        object.__setattr__(self, "_branch", {
            v: {e.id: e.id if v in (e.from_node, e.to_node) else next_edge[v][e.from_node]
                for e in topo.edges} for v in topo.nodes})
        object.__setattr__(self, "_cum_lengths", list(itertools.accumulate(e.length for e in topo.edges)))

    def point(self, place) -> Point:
        try:
            edge_id, offset = place
        except (TypeError, ValueError) as exc:
            raise GeometryError("tree point is an (edge_id, offset) pair") from exc
        # An integral float id such as 1.0 finds edge 1, as from_json reads it.
        try:
            if not (_real(edge_id) and _real(offset)):
                raise TypeError("not a real number")
            row = self._table.get(edge_id)
            offset = float(offset)
        except (TypeError, OverflowError) as exc:
            raise GeometryError(f"malformed tree point {place!r}") from exc
        if row is None:
            raise GeometryError(f"unknown edge id {edge_id!r}")
        if not (math.isfinite(offset) and 0.0 <= offset <= row[2]):
            raise GeometryError(f"offset {offset} outside [0, {row[2]}] on edge {edge_id}")
        return Point(self.kind, self._place(int(edge_id), offset))

    def _place(self, edge_id: int, offset: float) -> tuple:
        # The canonical data of the point at offset along edge edge_id.
        row = self._table[edge_id]
        if offset == 0.0:
            return self._vertex_rep[row[0]]
        if offset == row[2]:
            return self._vertex_rep[row[1]]
        return (edge_id, offset)

    def canonicalize(self, p: Point) -> Point:
        self._check_point(p)
        return Point(self.kind, self._place(*p.data))

    def _check_point(self, p: Point) -> None:
        # Data that is no (int edge id, float offset) tuple, as point()
        # builds it, or an offset off its edge, is a GeometryError; an
        # unknown edge id (a point of another tree) a SpaceMismatchError.
        # The kernels index the edge table with the data that passes, and
        # _sort_key writes it by repr.
        _check_kind(self, p)
        data = p.data
        if (type(data) is not tuple or len(data) != 2
                or type(data[0]) is not int or type(data[1]) is not float):
            raise GeometryError(f"malformed tree point data {data!r}")
        edge_id, offset = data
        row = self._table.get(edge_id)
        if row is None:
            raise SpaceMismatchError(f"edge id {edge_id!r} does not belong to this tree")
        if not 0.0 <= offset <= row[2]:
            raise GeometryError(f"offset {offset} outside [0, {row[2]}] on edge {edge_id}")

    distance = _distance
    geodesic_point = _geodesic_point
    _pair_step = _pair_step

    # Three blocks, each written once, render the pair template and the
    # kernels over two ends: end P at offset {p1} on edge {p0}, and end Q at
    # {q1} on {q0}.  The rows block reads end 1's and end 2's table rows: edge
    # P runs from node n{P} to m{P}, is l{P} long, has the node distances
    # ra{P} and rb{P} at its ends, and holds its end r{P} short of m{P}.
    _ROWS: ClassVar[str] = """
n1, m1, l1, ra1, rb1 = table[{p0}]
n2, m2, l2, ra2, rb2 = table[{q0}]
r1 = l1 - {p1}
r2 = l2 - {q1}"""
    # End P's shortest route to end Q: each line sums one endpoint pairing's
    # length, in this order, and the first strict minimum is the distance d
    # (comparisons, not min(), which costs more than the sums).  What follows
    # a ";" only the route needs, and _gap drops it: the leg to the exit node
    # u, and nb, where the route enters Q's edge.
    _ROUTE: ClassVar[str] = """
d = {p1} + ra{P}[n{Q}] + {q1}; leg, u, nb = {p1}, n{P}, n{Q}
x = {p1} + ra{P}[m{Q}] + r{Q}
if x < d:
    d = x; nb = m{Q}
x = r{P} + rb{P}[n{Q}] + {q1}
if x < d:
    d = x; leg = r{P}; u = m{P}; nb = n{Q}
x = r{P} + rb{P}[m{Q}] + r{Q}
if x < d:
    d = x; leg = r{P}; u = m{P}; nb = m{Q}"""
    # End P moved step along its route, the data that {to} takes: on its own
    # edge, or placed at the end it reaches or passes, or past it by _walk.
    # {on} is where the _place and _walk it calls are found.
    _MOVE: ClassVar[str] = """
if step <= leg:
    off = {p1} - step if u == n{P} else {p1} + step
    if 0.0 < off < l{P}:
        {to}{p0}, off
    else:
        {to}{on}place({p0}, 0.0 if off <= 0.0 else l{P})
else:
    {to}{on}walk(u, nb, step - leg, ({q0}, {q1}))"""
    # The ends in the pair template's slot names (end 1 at slot a), and in the kernels'.
    _END_A: ClassVar[dict] = dict(p0="{a0}", p1="{a1}", q0="{b0}", q1="{b1}", P=1, Q=2)
    _END_B: ClassVar[dict] = dict(p0="{b0}", p1="{b1}", q0="{a0}", q1="{a1}", P=2, Q=1)
    _END_PD: ClassVar[dict] = dict(p0="a0", p1="a1", q0="b0", q1="b1", P=1, Q=2)

    # The pair step, _pair_step inlined in one pass with every float operation
    # in its order, over slots of (edge id, offset).  The forward route's
    # length is d, _gap's, and the way back is routed only for a pair that
    # moves apart.  A meeting pair's step 0.5 * d is written s * d with s =
    # 0.5, on one edge too, so meeting and moving share the code that moves
    # the points.
    _MARCH_SETUP: ClassVar[str] = (
        "table, place, walk, lam2 = space._table, space._place, space._walk, 2.0 * lam")
    # Formatted here with each end's blocks; the slot names stay for _pair.
    _MARCH_PAIR: ClassVar[str] = """
        if {a0} != {b0}:{route_a}
            if d < low:
                low = d
            s = 0.5 if d <= lam2 else lam / d
            if s > 0.0:
                step = s * d{move_a}
                if d <= lam2:
                    {a0}, {a1} = {b0}, {b1} = e, o
                else:{route_b}
                    step = s * d{move_b}
                    {a0}, {a1} = e, o
        elif {a1} == {b1}:
            low = 0.0
        else:
            d = abs({a1} - {b1})
            if d < low:
                low = d
            s = 0.5 if d <= lam2 else lam / d
            if s > 0.0:
                o = {a1} + s * ({b1} - {a1})
                {b1} = o if d <= lam2 else {b1} + s * ({a1} - {b1})
                {a1} = o
                l1 = table[{a0}][2]
                if not 0.0 < {a1} < l1:
                    {a0}, {a1} = place({a0}, {a1})
                if not 0.0 < {b1} < l1:
                    {b0}, {b1} = place({b0}, {b1})""".format(
        a0="{a0}", a1="{a1}", b0="{b0}", b1="{b1}",
        route_a=_block(_ROWS + _ROUTE, 12, **_END_A),
        move_a=_block(_MOVE, 16, **_END_A, to="e, o = ", on=""),
        route_b=_block(_ROUTE, 20, **_END_B),
        move_b=_block(_MOVE, 20, **_END_B, to="{b0}, {b1} = ", on=""))

    # The kernels, which bind as methods: pd's route to qd over a0, a1 = pd
    # and b0, b1 = qd, or on one edge the offsets.  _interp reads no d: each
    # direction walks its own route, whose length may differ in the last bit.
    _KERNEL: ClassVar[str] = """
def {name}(space, pd, qd{args}):
    a0, a1 = pd
    b0, b1 = qd
    if a0 == b0:
        return {same}
    table = space._table{body}"""
    _gap = _compile(_KERNEL.format(name="_gap", args="", same="abs(a1 - b1)", body=_block(
        _ROWS + re.sub(";.*", "", _ROUTE) + "\nreturn d", 4, **_END_PD)), "_gap")
    _interp = _compile(_KERNEL.format(
        name="_interp", args=", t, d", same="space._place(a0, a1 + t * (b1 - a1))",
        body=_block(_ROWS + _ROUTE + "\nstep = t * d" + _MOVE, 4, **_END_PD, to="return ", on="space._")),
        "_interp")

    def _walk(self, u: int, nb: int, s: float, qd: tuple) -> tuple:
        # The point s on from node u along the route to qd, which enters qd's
        # edge at its node nb; on that edge it stops at qd.  The comparisons
        # give min(s, o2) and max(length - s, o2), bit for bit.
        while u != nb:
            e = self._branch[u][qd[0]]
            a, b, length, _, _ = self._table[e]
            if s < length:
                return self._place(e, s if u == a else length - s)
            s -= length
            u = b if u == a else a
        e2, o2 = qd
        a, _, length, _, _ = self._table[e2]
        if nb == a:
            off = o2 if o2 < s else s
        else:
            off = length - s
            if o2 > off:
                off = o2
        return self._place(e2, off)

    def _motions(self, data: list[tuple], which) -> list[tuple | None]:
        # How each point data[i], i in which, moves until the next event of
        # the exact flow: (edge id, offset, sign, speed, pull, length), sign 1
        # toward the edge's to node, else -1, pull[j] what it moves toward
        # data[j] per unit time; None if it stays.  A point on an edge f lies,
        # seen from a vertex v, in the branch that starts with edge
        # _branch[v][f].  One call takes every motion an event needs.
        table, branch = self._table, self._branch
        others = len(data) - 1
        out = []
        for i in which:
            edge_id, o = data[i]
            a, b, length, _, _ = table[edge_id]
            if 0.0 < o < length:
                # Inside an edge: toward the side that holds more of the
                # others, at the difference of the two counts.
                row = branch[b]
                ahead = [p > o if e == edge_id else row[e] != edge_id for e, p in data]
                ahead[i] = False
                vel = 2 * ahead.count(True) - others
                if vel == 0:
                    out.append(None)
                    continue
                pull = [vel if x else -vel for x in ahead]
                out.append((edge_id, o, 1, vel, pull, length) if vel > 0
                           else (edge_id, o, -1, -vel, pull, length))
                continue
            # At a vertex: into the branch that holds c > (n-1)/2 of the
            # others, at 2c - (n-1), or nowhere.  At most one branch holds
            # more than half.
            v = a if o == 0.0 else b
            row = branch[v]
            branches = [row[e] for e, _ in data]
            branches[i] = None
            speed = 0
            for best in branches:
                if best is not None:
                    speed = 2 * branches.count(best) - others
                    if speed > 0:
                        break
            if speed <= 0:
                out.append(None)
                continue
            a, _, length, _, _ = table[best]
            pull = [speed if x == best else -speed for x in branches]
            out.append((best, 0, 1, speed, pull, length) if v == a
                       else (best, length, -1, speed, pull, length))
        return out

    def _first_collision(self, data: list[tuple], gaps: list[float]) -> tuple[float, list[tuple]]:
        """The exact flow of the total pairwise distance, up to its first collision.

        data holds distinct points and gaps their distances in
        ``itertools.combinations`` order (``_gap(data[i], data[j])``, i < j),
        as ``merge_time`` has measured them for the first event.  Until two
        points meet, each moves at an integer speed that counts of the others
        decide (``_motions``).  Between events (a point reaches a vertex, or
        two points meet) every point moves along one edge and every gap
        changes linearly, so each event time is a leg over a speed or a gap
        over a closing rate.  A point whose arrival is the step is placed on
        its vertex exactly.

        Every point's motion is taken at the first event, and later only for
        a point placed on a vertex: one that arrived, or whose step rounded
        onto its edge's end.  Every other point keeps its sign, speed and pull
        and takes its new offset, because its counts have not changed: before
        a collision no point passes another, so a point that reaches a vertex
        stays on the same side of every other point's edge, and in the same
        branch at every other vertex.  The gaps are measured again after
        every event (``_gaps``).

        Each event takes the motions it needs in one ``_motions`` call and
        gathers its arrivals, closing rates and meets with their minima in
        plain loops: between other work, as in a benchmark run, each Python
        frame (a comprehension's too) costs more than the few items it
        would handle.  The pair list is built once per n (``_pair_indices``),
        and the last event, the meet, only moves the points.

        Returns the collision time and the data there, in which the points
        that met share one tuple.  A point never turns back before the first
        collision, so it reaches each vertex at most once; past
        n (edge count + 1) events the run raises GeometryError.

        Its own constants are ints (the start time, the signs, a departure's
        offset), so on a table of ``fractions.Fraction`` values it runs exactly.
        """
        n = len(data)
        data = list(data)
        pairs = _pair_indices(n)
        still = [0] * n
        moves = self._motions(data, range(n))
        inf = math.inf
        t = 0
        for _ in range(n * (len(self.topology.edges) + 1)):
            h = inf
            arrivals = []
            pull = []
            for m in moves:
                if m is None:
                    arrivals.append(inf)
                    pull.append(still)
                else:
                    x = (m[5] - m[1] if m[2] > 0 else m[1]) / m[3]
                    arrivals.append(x)
                    pull.append(m[4])
                    if x < h:
                        h = x
            # A gap closes at the sum of what each point moves toward the other.
            meet = inf
            meets = []
            for (i, j), d in zip(pairs, gaps):
                rate = pull[i][j] + pull[j][i]
                x = 0.0 if d == 0.0 else d / rate if rate > 0 else inf
                meets.append(x)
                if x < meet:
                    meet = x
            if meet < h:
                h = meet
            if h == inf:
                raise GeometryError("no two points of the flow approach each other")
            t += h
            last = meet == h
            renew = []
            for i, m in enumerate(moves):
                if m is None:
                    continue
                edge_id, o, sign, speed, pull_i, length = m
                if arrivals[i] == h:
                    o = length if sign > 0 else 0
                else:
                    # Comparisons, not min(max(o, 0.0), length), with its bits.
                    o += sign * speed * h
                    if o < 0.0:
                        o = 0.0
                    elif o > length:
                        o = length
                if 0.0 < o < length:
                    data[i] = (edge_id, o)
                    if not last:
                        moves[i] = (edge_id, o, sign, speed, pull_i, length)
                else:
                    data[i] = self._place(edge_id, o)
                    renew.append(i)
            if last:
                for (i, j), x in zip(pairs, meets):
                    if x == h:
                        # Every slot at j's point takes i's, so three that
                        # meet share one tuple too.
                        old, new = data[j], data[i]
                        for k, d in enumerate(data):
                            if d is old:
                                data[k] = new
                return t, data
            for i, m in zip(renew, self._motions(data, renew)):
                moves[i] = m
            gaps = _gaps(self, data)
        raise GeometryError("the exact tree flow ran past its event bound")

    def random_point(self, rng: random.Random) -> Point:
        # An edge drawn with probability proportional to its length: the
        # draws of rng.choices(edges, weights=lengths), which accumulates
        # the weights into these cum_weights on every call.
        e = rng.choices(self.topology.edges, cum_weights=self._cum_lengths)[0]
        return Point(self.kind, self._place(e.id, rng.uniform(0.0, e.length)))

    def point_to_json(self, p: Point):
        _check_kind(self, p)
        return {"edge": p.data[0], "offset": p.data[1]}

    @staticmethod
    def _sort_key(data: tuple) -> str:
        # json.dumps of the point's JSON with sorted keys, for checked data:
        # the encoder writes an int and a float by their reprs.
        return '{"edge": %r, "offset": %r}' % data

    def point_from_json(self, obj) -> Point:
        if not isinstance(obj, dict) or "edge" not in obj or "offset" not in obj:
            raise GeometryError('tree point JSON must be {"edge": ..., "offset": ...}')
        return self.point((obj["edge"], obj["offset"]))

    def to_json(self):
        return {"kind": self.kind, "edges": self.topology.to_json()}


SpaceDescriptor = Union[EuclideanSpace, HyperboloidSpace, TreeSpace]


def _check_space(space) -> None:
    # Anything else would fail deep in its caller as an AttributeError.  A
    # tuple of classes, not the Union, which isinstance reads ten times slower.
    if not isinstance(space, (EuclideanSpace, HyperboloidSpace, TreeSpace)):
        raise GeometryError(f"space must be a space descriptor, got {space!r}")


def _merges_exactly(space: SpaceDescriptor, n: int) -> bool:
    # Whether an n-point merge runs no march: two points anywhere, any n on a
    # tree, on the line and on hyperboloid:1, the line in arclength.
    return (n == 2 or isinstance(space, TreeSpace)
            or (isinstance(space, _CoordinateSpace) and space.dim == 1))


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
    """Canonical serialization, used wherever a deterministic order is needed.

    It is ``json.dumps(space.point_to_json(p), sort_keys=True)`` byte for
    byte for every point the space's check admits, but each backend writes
    the text itself (``space._sort_key(p.data)``), without the encoder: a
    coordinate point as ``[x0, x1, ...]`` by float repr, a tree point as
    ``{"edge": id, "offset": offset}``.
    """
    _check_kind(space, p)
    return space._sort_key(p.data)

