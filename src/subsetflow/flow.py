"""Proximal splitting flow for the total pairwise separation of a tuple.

The objective on the n-fold product space is the sum of all pairwise
coordinate distances.  Its gradient-flow semigroup is approximated by
cyclic sweeps of two-coordinate resolvents, each of which has a closed
form: both coordinates move toward each other along their geodesic, and
land together on the midpoint once they are close enough.  Marching the
sweeps forward in time until a gap collapses is what the retraction in
:mod:`subsetflow.retraction` is made of, except on a metric tree, where
the flow itself is run exactly to its first collision.

A run holds its state as a list of bare coordinate data, the ``Point.data``
of each slot, and steps it with the space's private kernels; it builds
Points again once, when it ends (``_wrap``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .geometry import EuclideanSpace, GeometryError, Point, SpaceDescriptor, TreeSpace
from .subset_space import PointTuple, _gaps, product_distance

# Fraction of the guaranteed merge horizon the march may overshoot before
# the closest pair is snapped together by force.
MERGE_SLACK = 1e-3

# Below this fraction of the space's scale, a step of size lam may round by
# as much as lam itself, so merge_time measures the gaps after every sweep.
ROUNDING_FLOOR = 2.0**-30

# Product distance between the results of two successive sweep doublings at
# which an adaptive run counts as converged.
DOUBLING_TOLERANCE = 1e-7


@dataclass(frozen=True)
class FlowConfig:
    """Knobs for the splitting flow and the merge march.

    sweeps_per_run: resolvent sweeps used to cover one flow run; the merge
    march uses the same count to cover its half-gap horizon (a tree does
    not march).
    merge_tolerance: a gap at or below this fraction of the starting min
    gap counts as merged.
    max_doublings: how many times an adaptive run may double its sweep count.
    """

    sweeps_per_run: int = 256
    merge_tolerance: float = 1e-6
    max_doublings: int = 8

    def __post_init__(self) -> None:
        if self.sweeps_per_run < 1:
            raise GeometryError("sweeps_per_run must be >= 1")
        if not 0.0 < self.merge_tolerance < 1.0:
            raise GeometryError("merge_tolerance must lie in (0, 1)")
        if self.max_doublings < 0:
            raise GeometryError("max_doublings must be >= 0")


@dataclass(frozen=True)
class FlowReport:
    """Outcome of an adaptive flow run.

    Traces come from the finest run and hold one row per sweep, starting at
    time zero.  The objective trace must never increase along a run; the
    constructor enforces that within floating noise.
    """

    final: PointTuple
    elapsed_time: float
    sweeps_used: int
    converged: bool
    min_gap_trace: tuple[tuple[float, float], ...]
    objective_trace: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        values = [f for _, f in self.objective_trace]
        for a, b in zip(values, values[1:]):
            if b > a + 1e-9:
                raise GeometryError(f"objective increased along the flow: {a} -> {b}")

    def to_json(self):
        return {
            "final": self.final.to_json(),
            "elapsed_time": self.elapsed_time,
            "sweeps_used": self.sweeps_used,
            "converged": self.converged,
            "min_gap_trace": [[t, g] for t, g in self.min_gap_trace],
            "objective_trace": [[t, f] for t, f in self.objective_trace],
        }

    def trace_csv(self) -> str:
        lines = ["time,delta,F"]
        for (t, g), (_, f) in zip(self.min_gap_trace, self.objective_trace):
            lines.append(f"{t!r},{g!r},{f!r}")
        return "\n".join(lines) + "\n"


def sum_pairwise_distances(x: PointTuple) -> float:
    """The flow objective: total distance over all coordinate pairs."""
    if len(x) < 2:
        raise GeometryError("the objective needs at least two coordinates")
    # Summed left to right, as in the flow traces; the builtin sum rounds
    # differently from Python 3.12 on.
    return functools.reduce(operator.add, _gaps(x.space, [p.data for p in x.coords]))


def pair_resolvent(x: PointTuple, i: int, j: int, lam: float) -> PointTuple:
    """Resolvent of the single pair term d(x_i, x_j) at step size lam.

    Both coordinates move distance min(lam, d/2) toward each other along
    their geodesic; all other coordinates are untouched.
    """
    n = len(x)
    if not 0 <= i < n or not 0 <= j < n:
        raise GeometryError(f"pair indices ({i}, {j}) out of range for a {n}-tuple")
    if i == j:
        raise GeometryError("pair indices must differ")
    if i > j:
        raise GeometryError("pair indices must be given as i < j")
    if lam <= 0.0:
        raise GeometryError("step size must be positive")
    data = [p.data for p in x.coords]
    if data[i] != data[j]:
        data[i], data[j], _ = x.space._step(data[i], data[j], lam)
    return _wrap(x, data)


def _wrap(x: PointTuple, data: list[tuple]) -> PointTuple:
    """The PointTuple of a run that started at x and ended with this data.

    A slot whose data did not move keeps x's Point, and slots that hold one
    data object (a shared midpoint) share one Point, so a later gap check
    sees an exact zero between them.
    """
    kind = x.space.kind
    made = {id(p.data): p for p in x.coords}
    coords = []
    for d in data:
        p = made.get(id(d))
        if p is None:
            p = made[id(d)] = Point(kind, d)
        coords.append(p)
    return PointTuple(x.space, tuple(coords))


def _sweep_inplace(space: SpaceDescriptor, coords: list[tuple], lam: float) -> float:
    # Pairs ordered by the larger index, then the smaller: (0,1), (0,2),
    # (1,2), (0,3), ...  The composition applies (0,1) first.  Returns the
    # smallest distance a pair was stepped from, or 0.0 if a pair was
    # skipped because its two slots held equal data.
    step = space._step
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
    return low


def sweep(x: PointTuple, lam: float) -> PointTuple:
    """One full cycle of pair resolvents over every coordinate pair."""
    if lam <= 0.0:
        raise GeometryError("step size must be positive")
    return splitting_flow(x, lam, 1)


def splitting_flow(x: PointTuple, t: float, k: int) -> PointTuple:
    """Time-t flow approximated by k resolvent sweeps of step t/k."""
    if t < 0.0:
        raise GeometryError("flow time must be >= 0")
    if k < 1:
        raise GeometryError("sweep count must be >= 1")
    if t == 0.0 or len(x) < 2:
        return x
    data = [p.data for p in x.coords]
    _run(x.space, data, t, k)
    return _wrap(x, data)


def _run(space, coords: list[tuple], t: float, k: int) -> None:
    # k sweeps of step t/k, in place; time zero moves nothing
    if t == 0.0:
        return
    lam = t / k
    for _ in range(k):
        _sweep_inplace(space, coords, lam)


def _traced_run(space, coords: list[tuple], t: float, k: int):
    lam = t / k
    gap_trace = []
    obj_trace = []
    for m in range(k + 1):
        if m:
            _sweep_inplace(space, coords, lam)
        ds = _gaps(space, coords)
        now = m * lam
        gap_trace.append((now, min(ds)))
        obj_trace.append((now, functools.reduce(operator.add, ds)))
    return gap_trace, obj_trace


def _refine(x: PointTuple, t: float, k: int, doublings: int, run):
    """Flow x for time t by ``run(space, coords, t, k)`` with k, 2k, 4k, ... sweeps.

    Stops once two successive results are within ``DOUBLING_TOLERANCE`` in
    the product metric, or after ``doublings`` doublings.  Returns the finest
    result, its ``run`` output, the sweeps spent and the successive distances.
    """
    space = x.space
    start = [p.data for p in x.coords]
    prev, used, steps = None, 0, []
    for _ in range(doublings + 1):
        data = list(start)
        out = run(space, data, t, k)
        cur = _wrap(x, data)
        used += k
        k *= 2
        if prev is not None:
            steps.append(product_distance(prev, cur))
        prev = cur
        if steps and steps[-1] <= DOUBLING_TOLERANCE:
            break
    return prev, out, used, steps


def flow_adaptive(x: PointTuple, t: float, cfg: FlowConfig) -> FlowReport:
    """Run the splitting flow, doubling the sweep count until stable.

    Successive runs use k, 2k, 4k, ... sweeps (``_refine``).  If the
    ``cfg.max_doublings`` doublings run out first, the report carries
    ``converged=False`` and the finest result; a single run (no doublings)
    counts as converged.
    """
    if t < 0.0:
        raise GeometryError("flow time must be >= 0")
    if t == 0.0 or len(x) < 2:
        ds = _gaps(x.space, [p.data for p in x.coords])
        final, used, steps = x, 0, []
        gap_trace = [(0.0, min(ds, default=math.inf))]
        obj_trace = [(0.0, functools.reduce(operator.add, ds, 0.0))]
    else:
        final, (gap_trace, obj_trace), used, steps = _refine(
            x, t, cfg.sweeps_per_run, cfg.max_doublings, _traced_run)
    return FlowReport(
        final=final,
        elapsed_time=t,
        sweeps_used=used,
        converged=not steps or steps[-1] <= DOUBLING_TOLERANCE,
        min_gap_trace=tuple(gap_trace),
        objective_trace=tuple(obj_trace),
    )


def merge_time(x: PointTuple, cfg: FlowConfig) -> tuple[float, PointTuple]:
    """Run the flow forward until some pair of coordinates merges.

    On a metric tree the flow is run exactly, event by event, to its first
    collision (``TreeSpace._first_collision``): the returned time is that
    collision's, at most ``min_gap(x)/2``, and the pair that met shares one
    point in the returned state.  ``cfg`` plays no part there: no
    ``sweeps_per_run``, no ``merge_tolerance`` threshold, no forced snap.

    Elsewhere the splitting sweeps march the flow, and the result is the
    first time a pairwise gap falls to ``merge_tolerance`` times the
    starting min gap, together with the state there.  The march never runs
    past half the starting gap (plus a small slack): if nothing has merged
    by then, the closest pair is snapped to its midpoint, so the returned
    time is always at most ``min_gap(x)/2 * (1 + MERGE_SLACK)``.  A tuple
    with a pairwise distance that is not finite is rejected.

    The gaps are measured after a sweep only where one may have merged.  A
    sweep steps each coordinate in n-1 pair steps of at most lam each, so
    in exact arithmetic every gap after it is at least ``low - 2(n-1)lam``,
    where ``low`` is the smallest distance a pair was stepped from in that
    sweep (0 if a pair held equal data).  The march therefore measures the
    gaps only when ``low <= threshold + 4 n lam``, a margin about twice the
    exact one that also covers rounding; after every sweep when lam is
    below ``ROUNDING_FLOOR`` times the space's scale (``space._scale``),
    where a step may round by as much as lam; and after the last sweep,
    whose gaps pick the pair to snap.  The result keeps every bit of a
    march that measures the gaps after every sweep.
    """
    if len(x) < 2:
        raise GeometryError("merging needs at least two coordinates")
    space = x.space
    data = [p.data for p in x.coords]
    ds = _gaps(space, data)
    # A pair at infinite distance would never move (its step is lam/inf = 0)
    if not all(math.isfinite(d) for d in ds):
        raise GeometryError("pairwise distances overflow double precision")
    delta = min(ds)
    if delta == 0.0:
        return 0.0, x
    if isinstance(space, TreeSpace):
        t, data = space._first_collision(data)
        return t, _wrap(x, data)
    threshold = cfg.merge_tolerance * delta
    lam = delta / (2.0 * cfg.sweeps_per_run)
    max_sweeps = int(cfg.sweeps_per_run * (1.0 + MERGE_SLACK))
    if lam < ROUNDING_FLOOR * space._scale(data):
        watch = math.inf
    else:
        watch = threshold + 4.0 * len(data) * lam
    elapsed = 0.0
    for m in range(1, max_sweeps + 1):
        low = _sweep_inplace(space, data, lam)
        elapsed += lam
        if low <= watch or m == max_sweeps:
            ds = _gaps(space, data)
            if min(ds) <= threshold:
                return elapsed, _wrap(x, data)
    # Force-merge the first closest pair of the last sweep's distances.
    i, j = list(itertools.combinations(range(len(data)), 2))[ds.index(min(ds))]
    mid = space.geodesic_point(Point(space.kind, data[i]), Point(space.kind, data[j]), 0.5)
    data[i] = data[j] = mid.data
    return elapsed, _wrap(x, data)


# ---------------------------------------------------------------------------
# Reference resolvent of the full objective (validation only).


def _set_partitions(n: int):
    # Partitions of range(n): the last element joins each block of a
    # partition of range(n - 1) in turn, then opens a block of its own.
    if n == 0:
        yield []
        return
    for blocks in _set_partitions(n - 1):
        for i in range(len(blocks)):
            yield blocks[:i] + [blocks[i] + [n - 1]] + blocks[i + 1:]
        yield blocks + [[n - 1]]


def _reduced_minimize(pts: np.ndarray, blocks: list[list[int]], lam: float):
    """Exactly minimize the objective restricted to a coincidence pattern.

    Variables are one point per block; the reduced objective is smooth and
    strongly convex whenever the optimal blocks stay apart, and a damped
    Newton iteration drives the gradient below 1e-10 there.  Returns
    (value, block points) or None when blocks collide, in which case a
    coarser pattern dominates this one anyway.
    """
    import numpy as np

    dim = pts.shape[1]
    m = len(blocks)
    sizes = np.array([len(b) for b in blocks], dtype=float)
    means = np.array([pts[b].mean(axis=0) for b in blocks])
    # Sum of squared distances from each block's members to its mean is a
    # constant of the pattern; fold it in so values are comparable.
    base = sum(float(((pts[b] - means[i]) ** 2).sum()) for i, b in enumerate(blocks)) / (2.0 * lam)
    if m == 1:
        return base, means

    weights = np.outer(sizes, sizes)

    def value(u):
        v = base
        for a in range(m - 1):
            for b in range(a + 1, m):
                v += weights[a, b] * float(np.linalg.norm(u[a] - u[b]))
        v += float((sizes * ((u - means) ** 2).sum(axis=1)).sum()) / (2.0 * lam)
        return v

    def grad_hess(u):
        g = (sizes[:, None] / lam) * (u - means)
        h = np.zeros((m * dim, m * dim))
        for a in range(m):
            h[a * dim:(a + 1) * dim, a * dim:(a + 1) * dim] += (sizes[a] / lam) * np.eye(dim)
        for a in range(m - 1):
            for b in range(a + 1, m):
                diff = u[a] - u[b]
                r = float(np.linalg.norm(diff))
                if r < 1e-9:
                    return None, None
                unit = diff / r
                g[a] += weights[a, b] * unit
                g[b] -= weights[a, b] * unit
                block = (weights[a, b] / r) * (np.eye(dim) - np.outer(unit, unit))
                h[a * dim:(a + 1) * dim, a * dim:(a + 1) * dim] += block
                h[b * dim:(b + 1) * dim, b * dim:(b + 1) * dim] += block
                h[a * dim:(a + 1) * dim, b * dim:(b + 1) * dim] -= block
                h[b * dim:(b + 1) * dim, a * dim:(a + 1) * dim] -= block
        return g, h

    u = means.copy()
    val = value(u)
    for _ in range(100):
        g, h = grad_hess(u)
        if g is None:
            return None
        gnorm = float(np.linalg.norm(g))
        if gnorm <= 1e-10:
            break
        step = np.linalg.solve(h, -g.reshape(-1)).reshape(m, dim)
        descent = float((g.reshape(-1) * step.reshape(-1)).sum())
        if -descent <= 64.0 * np.finfo(float).eps * max(1.0, abs(val)):
            # The predicted decrease is below the float resolution of the
            # value, so an Armijo test would accept zero-progress steps.
            # Finish with pure Newton steps gated on gradient contraction.
            g2, _ = grad_hess(u + step)
            if g2 is None or not float(np.linalg.norm(g2)) < 0.5 * gnorm:
                break
            u = u + step
            val = value(u)
            continue
        alpha = 1.0
        moved = False
        while alpha > 1e-14:
            cand = u + alpha * step
            cand_val = value(cand)
            if cand_val <= val + 1e-4 * alpha * descent:
                u = cand
                val = cand_val
                moved = True
                break
            alpha *= 0.5
        if not moved:
            break
    g, _ = grad_hess(u)
    if g is None or float(np.linalg.norm(g)) > 1e-8:
        return None
    return val, u


def oracle_supports(space: SpaceDescriptor, n: int) -> bool:
    """Whether full_resolvent_oracle accepts n-tuples in space.

    Only euclidean tuples with n*dim <= 8 keep the enumeration honest-sized.
    """
    return isinstance(space, EuclideanSpace) and n * space.dim <= 8


def full_resolvent_oracle(x: PointTuple, lam: float) -> PointTuple:
    """Exact resolvent of the full objective, for the cases oracle_supports admits.

    Minimizes  sum of pairwise distances + product_distance(x, .)^2 / (2 lam)
    by enumerating coincidence patterns of the coordinates and solving each
    smooth reduced problem by Newton iteration.  A pattern can only be
    optimal if its merged coordinates started within 2(n-1)*lam of each
    other, which prunes the enumeration hard for small steps.
    """
    import numpy as np

    space = x.space
    n = len(x)
    if not oracle_supports(space, n):
        raise GeometryError("the reference resolvent supports only euclidean tuples with n*dim <= 8")
    if lam <= 0.0:
        raise GeometryError("step size must be positive")
    if n < 2:
        return x
    pts = np.array([p.data for p in x.coords], dtype=float)
    reach = 2.0 * (n - 1) * lam * (1.0 + 1e-9) + 1e-12

    best_val = math.inf
    best = None
    for blocks in _set_partitions(n):
        feasible = True
        for b in blocks:
            for ai, bi in itertools.combinations(b, 2):
                if float(np.linalg.norm(pts[ai] - pts[bi])) > reach:
                    feasible = False
                    break
            if not feasible:
                break
        if not feasible:
            continue
        solved = _reduced_minimize(pts, blocks, lam)
        if solved is None:
            continue
        val, u = solved
        if val < best_val:
            best_val = val
            best = (blocks, u)

    if best is None:
        # The pattern of the true optimum always solves; reaching this means
        # a numerical breakdown worth hearing about, not silent garbage.
        raise GeometryError("reference resolvent failed to certify any coincidence pattern")
    blocks, u = best
    out = [None] * n
    for bi, block in enumerate(blocks):
        p = space.point(u[bi])
        for idx in block:
            out[idx] = p
    return PointTuple(space, tuple(out))
