"""Proximal splitting flow for the total pairwise separation of a tuple.

The objective on the n-fold product space is the sum of all pairwise
coordinate distances.  Its gradient-flow semigroup is approximated by
cyclic sweeps of two-coordinate resolvents, each of which has a closed
form: both coordinates move toward each other along their geodesic, and
land together on the midpoint once they are close enough.  Marching the
sweeps forward in time until a gap collapses is what the retraction in
:mod:`subsetflow.retraction` is made of, except for two points, which meet
at their geodesic midpoint at half their distance, and on a metric tree,
where the flow itself is run exactly to its first collision.

A run holds its state as a list of bare coordinate data, the ``Point.data``
of each slot, and steps it with the space's private kernels; it builds
Points again once, when it ends (``_wrap``).  Its sweeps run in marches,
calls of the space's ``_march``, which :mod:`subsetflow.geometry` decides
how to run; this module only schedules marches: how many sweeps, of what
step, and when to stop and measure the gaps.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass

from .geometry import (EuclideanSpace, GeometryError, Point, SpaceDescriptor, TreeSpace,
                       _check_count, _gaps)
from .subset_space import PointTuple, product_distance

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
    not march, and neither do two points, which meet at their midpoint).
    merge_tolerance: a gap at or below this fraction of the starting min
    gap counts as merged.  A tree does not read it: its flow runs exactly to
    the collision, and its retract collapses no gap but the one that closed.
    Nor does the merge of two points, which ends with both at one point.
    max_doublings: how many times an adaptive run may double its sweep count.
    """

    sweeps_per_run: int = 256
    merge_tolerance: float = 1e-6
    max_doublings: int = 8

    def __post_init__(self) -> None:
        _check_count("sweeps_per_run", self.sweeps_per_run, 1)
        if not 0.0 < self.merge_tolerance < 1.0:
            raise GeometryError("merge_tolerance must lie in (0, 1)")
        _check_count("max_doublings", self.max_doublings, 0)


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
            # a one-point tuple's min gap is inf, which JSON cannot spell
            "min_gap_trace": [[t, g if math.isfinite(g) else None] for t, g in self.min_gap_trace],
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

    A slot whose data object is one of x's keeps x's Point, and slots that
    hold one data object share one Point.  On the coordinate backends a
    shared midpoint is two equal tuples (their marches build tuples anew);
    either way a later gap check sees an exact zero between the two slots.
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


def sweep(x: PointTuple, lam: float) -> PointTuple:
    """One full cycle of pair resolvents over every coordinate pair."""
    if lam <= 0.0:
        raise GeometryError("step size must be positive")
    return splitting_flow(x, lam, 1)


def _check_time(t: float) -> None:
    # NaN fails the comparison too.
    if not 0.0 <= t < math.inf:
        raise GeometryError(f"flow time must be finite and >= 0, got {t}")


def splitting_flow(x: PointTuple, t: float, k: int) -> PointTuple:
    """Time-t flow approximated by k resolvent sweeps of step t/k."""
    _check_time(t)
    _check_count("sweep count", k, 1)
    if t == 0.0 or len(x) < 2:
        return x
    data = [p.data for p in x.coords]
    _run(x.space, data, t, k)
    return _wrap(x, data)


def _run(space, coords: list[tuple], t: float, k: int) -> None:
    # k sweeps of step t/k, in place; time zero moves nothing
    if t == 0.0:
        return
    space._march(coords, t / k, k, -math.inf)


def _traced_run(space, coords: list[tuple], t: float, k: int):
    lam = t / k
    march = space._march
    gap_trace = []
    obj_trace = []
    for m in range(k + 1):
        if m:
            march(coords, lam, 1, -math.inf)
        ds = _gaps(space, coords)
        now = m * lam
        gap_trace.append((now, min(ds)))
        obj_trace.append((now, functools.reduce(operator.add, ds)))
    return gap_trace, obj_trace


def _finite_gaps(space, data: list[tuple]) -> list[float]:
    # _gaps(space, data), rejected if a pair is not at a finite distance: it
    # would never move (its step is lam/inf = 0), and no report can hold it.
    ds = _gaps(space, data)
    if not all(math.isfinite(d) for d in ds):
        raise GeometryError("pairwise distances overflow double precision")
    return ds


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
    counts as converged.  As in ``merge_time``, a tuple with a pairwise
    distance that is not finite is rejected.
    """
    _check_time(t)
    ds = _finite_gaps(x.space, [p.data for p in x.coords])
    if t == 0.0 or len(x) < 2:
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

    Two distinct points move toward each other at unit speed along their
    geodesic, on every backend, so they meet at its midpoint at half their
    distance d: the result is ``d/2`` and both slots sharing one point,
    ``geodesic_point(p, q, 0.5)``, with no march.  ``cfg`` is not read for
    them.

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
    sweep (0 if a pair held equal data).  The march therefore stops to
    measure the gaps (``space._march``'s ``watch``) only after a sweep with
    ``low <= threshold + 4 n lam``, a margin about twice the exact one that
    also covers rounding; after every sweep when lam is below
    ``ROUNDING_FLOOR`` times the space's scale (``space._scale``), where a
    step may round by as much as lam; and after the last sweep, whose gaps
    pick the pair to snap.  The result keeps every bit of a
    march that measures the gaps after every sweep.
    """
    if len(x) < 2:
        raise GeometryError("merging needs at least two coordinates")
    space = x.space
    data = [p.data for p in x.coords]
    ds = _finite_gaps(space, data)
    delta = min(ds)
    if delta == 0.0:
        return 0.0, x
    if len(data) == 2:
        mid = space._interp(data[0], data[1], 0.5, delta)
        return 0.5 * delta, _wrap(x, [mid, mid])
    if isinstance(space, TreeSpace):
        t, data = space._first_collision(data, ds)
        return t, _wrap(x, data)
    threshold = cfg.merge_tolerance * delta
    lam = delta / (2.0 * cfg.sweeps_per_run)
    max_sweeps = int(cfg.sweeps_per_run * (1.0 + MERGE_SLACK))
    if lam < ROUNDING_FLOOR * space._scale(data):
        watch = math.inf
    else:
        watch = threshold + 4.0 * len(data) * lam
    elapsed = 0.0
    m = 0
    while m < max_sweeps:
        # The march stops after a sweep with low <= watch, or the last one.
        done, _ = space._march(data, lam, max_sweeps - m, watch)
        m += done
        for _ in range(done):
            elapsed += lam
        ds = _gaps(space, data)
        if min(ds) <= threshold:
            return elapsed, _wrap(x, data)
    # Force-merge the first closest pair of the last sweep's distances.
    i, j = list(itertools.combinations(range(len(data)), 2))[ds.index(min(ds))]
    data[i], data[j], _ = space._step(data[i], data[j], math.inf)
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


def _cholesky_solve(h: list[list[float]], rhs: list[float]):
    """The x with h x = rhs, for h symmetric positive definite.

    Reads only the lower triangle of h and overwrites it with its Cholesky
    factor.  Returns None when a pivot is not positive, that is, when h is
    not positive definite to working precision.
    """
    n = len(rhs)
    for j in range(n):
        row_j = h[j]
        d = row_j[j]
        for k in range(j):
            d -= row_j[k] * row_j[k]
        if not d > 0.0:
            return None
        d = math.sqrt(d)
        row_j[j] = d
        for i in range(j + 1, n):
            row_i = h[i]
            s = row_i[j]
            for k in range(j):
                s -= row_i[k] * row_j[k]
            row_i[j] = s / d
    y = []
    for i in range(n):
        row_i = h[i]
        s = rhs[i]
        for k in range(i):
            s -= row_i[k] * y[k]
        y.append(s / row_i[i])
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        s = y[i]
        for k in range(i + 1, n):
            s -= h[k][i] * x[k]
        x[i] = s / h[i][i]
    return x


def _reduced_minimize(pts: list[tuple], blocks: list[list[int]], lam: float):
    """Exactly minimize the objective restricted to a coincidence pattern.

    Variables are one point per block; the reduced objective is smooth and
    strongly convex while the blocks stay apart, and a damped Newton
    iteration drives the gradient below 1e-10 there.  Returns (value, block
    points) or None when an iterate brings two blocks within 1e-9 of each
    other or the iteration ends with the gradient above 1e-8.  None does not
    show that the pattern is suboptimal: the optimum can lie in it all the
    same, and a coarser pattern then wins the enumeration.

    The arithmetic is on Python floats, summed left to right.  The Newton
    matrix, (size/lam) I per block plus positive semidefinite pair blocks,
    is symmetric positive definite with at most 8 rows, so it is solved by
    Cholesky factorization.
    """
    dim = len(pts[0])
    m = len(blocks)
    sizes = [float(len(b)) for b in blocks]
    means = [tuple([functools.reduce(operator.add, col) / len(b)
                    for col in zip(*[pts[i] for i in b])]) for b in blocks]
    # Sum of squared distances from each block's members to its mean is a
    # constant of the pattern; fold it in so values are comparable.
    base = 0.0
    for b, mean in zip(blocks, means):
        s = 0.0
        for i in b:
            for c, mc in zip(pts[i], mean):
                s += (c - mc) ** 2
        base += s
    base /= 2.0 * lam
    if m == 1:
        return base, means

    pairs = [(a, b, sizes[a] * sizes[b]) for a, b in itertools.combinations(range(m), 2)]
    # The iterate is one flat list of m*dim coordinates; rows[a] slices out
    # block a's point.
    rows = [slice(a * dim, (a + 1) * dim) for a in range(m)]
    flat_means = [c for mean in means for c in mean]

    def value(u):
        v = base
        for a, b, w in pairs:
            v += w * math.dist(u[rows[a]], u[rows[b]])
        q = 0.0
        for s, row in zip(sizes, rows):
            r = 0.0
            for c, mc in zip(u[row], flat_means[row]):
                r += (c - mc) ** 2
            q += s * r
        return v + q / (2.0 * lam)

    def grad_hess(u):
        # The gradient and the lower triangle of the Hessian.
        g = []
        h = [[0.0] * (m * dim) for _ in range(m * dim)]
        for s, row in zip(sizes, rows):
            k = s / lam
            g.extend([k * (c - mc) for c, mc in zip(u[row], flat_means[row])])
            for c in range(row.start, row.stop):
                h[c][c] = k
        for a, b, w in pairs:
            ua, ub = u[rows[a]], u[rows[b]]
            r = math.dist(ua, ub)
            if r < 1e-9:
                return None, None
            unit = [(c - e) / r for c, e in zip(ua, ub)]
            k = w / r
            oa, ob = a * dim, b * dim
            for c, uc in enumerate(unit):
                g[oa + c] += w * uc
                g[ob + c] -= w * uc
                h_a, h_b = h[oa + c], h[ob + c]
                for e, ue in enumerate(unit):
                    block = k * ((c == e) - uc * ue)
                    if e <= c:
                        h_a[oa + e] += block
                        h_b[ob + e] += block
                    h_b[oa + e] -= block
        return g, h

    u = flat_means
    val = value(u)
    for _ in range(100):
        g, h = grad_hess(u)
        if g is None:
            return None
        gnorm = math.hypot(*g)
        if gnorm <= 1e-10:
            break
        step = _cholesky_solve(h, [-c for c in g])
        if step is None:
            break
        descent = 0.0
        for c, d in zip(g, step):
            descent += c * d
        if -descent <= 64.0 * sys.float_info.epsilon * max(1.0, abs(val)):
            # The predicted decrease is below the float resolution of the
            # value, so an Armijo test would accept zero-progress steps.
            # Finish with pure Newton steps gated on gradient contraction.
            cand = [c + d for c, d in zip(u, step)]
            g2, _ = grad_hess(cand)
            if g2 is None or not math.hypot(*g2) < 0.5 * gnorm:
                break
            u = cand
            val = value(u)
            continue
        alpha = 1.0
        while alpha > 1e-14:
            cand = [c + alpha * d for c, d in zip(u, step)]
            cand_val = value(cand)
            if cand_val <= val + 1e-4 * alpha * descent:
                u = cand
                val = cand_val
                break
            alpha *= 0.5
        else:
            break
    g, _ = grad_hess(u)
    if g is None or math.hypot(*g) > 1e-8:
        return None
    return val, [tuple(u[row]) for row in rows]


def oracle_supports(space: SpaceDescriptor, n: int) -> bool:
    """Whether full_resolvent_oracle accepts n-tuples in space.

    Only euclidean tuples with n*dim <= 8 keep the enumeration honest-sized.
    """
    return isinstance(space, EuclideanSpace) and n * space.dim <= 8


def full_resolvent_oracle(x: PointTuple, lam: float) -> PointTuple:
    """Exact resolvent of the full objective, for the cases oracle_supports admits.

    Minimizes  sum of pairwise distances + product_distance(x, .)^2 / (2 lam)
    by enumerating coincidence patterns of the coordinates and solving each
    smooth reduced problem by Newton iteration (``_reduced_minimize``); the
    first pattern of least value wins.  A pattern can only be optimal if its
    merged coordinates started within 2(n-1)*lam of each other, which prunes
    the enumeration hard for small steps.
    """
    space = x.space
    n = len(x)
    if not oracle_supports(space, n):
        raise GeometryError("the reference resolvent supports only euclidean tuples with n*dim <= 8")
    if lam <= 0.0:
        raise GeometryError("step size must be positive")
    if n < 2:
        return x
    pts = [p.data for p in x.coords]
    reach = 2.0 * (n - 1) * lam * (1.0 + 1e-9) + 1e-12

    best_val = math.inf
    best = None
    for blocks in _set_partitions(n):
        if any(math.dist(pts[a], pts[b]) > reach
               for block in blocks for a, b in itertools.combinations(block, 2)):
            continue
        solved = _reduced_minimize(pts, blocks, lam)
        if solved is None:
            continue
        val, u = solved
        if val < best_val:
            best_val = val
            best = (blocks, u)

    if best is None:
        # Some pattern usually solves, but none is certain to: a failed
        # Newton solve can drop even the optimal one, so say so loudly
        # rather than return garbage.
        raise GeometryError("reference resolvent failed to certify any coincidence pattern")
    blocks, u = best
    out = [None] * n
    for bi, block in enumerate(blocks):
        p = space.point(u[bi])
        for idx in block:
            out[idx] = p
    return PointTuple(space, tuple(out))
