"""Proximal splitting flow for the total pairwise separation of a tuple.

The objective on the n-fold product space is the sum of all pairwise
coordinate distances.  Its gradient-flow semigroup is approximated by
cyclic sweeps of two-coordinate resolvents, each of which has a closed
form: both coordinates move toward each other along their geodesic, and
land together on the midpoint once they are close enough.  Marching the
sweeps forward in time until a gap collapses is what the retraction in
:mod:`subsetflow.retraction` is made of, except where
``geometry._merges_exactly`` says a merge does not march: two points meet
at their geodesic midpoint at half their distance, and on a metric tree, on
the line and on hyperboloid:1 the flow itself is run exactly to its first
collision.

A run holds its state as a list of bare coordinate data, the ``Point.data``
of each slot, and steps it with the space's private kernels; it builds
Points again once, when it ends (``_wrap``).  Its sweeps run in marches,
calls of the space's ``_march``, which :mod:`subsetflow.geometry` decides
how to run; this module only schedules marches: how many sweeps, of what
step, and when to stop and measure the gaps.

The exact resolvent of the whole objective, ``full_resolvent_oracle``, is a
reference for small euclidean tuples.  It solves the dual of that
sum-of-norms problem by projected gradient on plain floats, with no numpy, on
a kernel generated once per shape (points and dimension) and compiled by
``exec``, as the marches are, and returns only an answer it has certified: a
bound on its distance from the exact resolvent.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .geometry import (_GAPS_OVERFLOW, EuclideanSpace, GeometryError, Point, SpaceDescriptor,
                       _check_count, _check_type, _compile, _gaps, _merges_exactly, _real, _total)
from .subset_space import PointTuple, _built, product_distance

# Below this fraction of the largest absolute coordinate, a step of size lam
# may round by as much as lam itself, so merge_time measures the gaps after
# every sweep.
ROUNDING_FLOOR = 2.0**-30

# Product distance between the results of two successive sweep doublings at
# which an adaptive run counts as converged.
DOUBLING_TOLERANCE = 1e-7

# Dual steps the reference resolvent may take before it gives up, and the
# fraction of the step size within which it snaps points together.
ORACLE_MAX_ITERATIONS = 10_000
ORACLE_SNAP = 1e-6


@dataclass(frozen=True)
class FlowConfig:
    """Knobs for the splitting flow and the merge march.

    sweeps_per_run: resolvent sweeps used to cover one flow run; the merge
    march uses the same count to cover its half-gap horizon.
    merge_tolerance: a gap at or below this fraction of the starting min
    gap counts as merged.  A merge that does not march
    (``_merges_exactly``) reads neither: it runs exactly to the collision,
    and its retract collapses no other gap.
    max_doublings: how many times an adaptive run may double its sweep count.
    """

    sweeps_per_run: int = 256
    merge_tolerance: float = 1e-6
    max_doublings: int = 8

    def __post_init__(self) -> None:
        _check_count("sweeps_per_run", self.sweeps_per_run, 1)
        if not (_real(self.merge_tolerance) and 0.0 < self.merge_tolerance < 1.0):
            raise GeometryError("merge_tolerance must lie in (0, 1)")
        _check_count("max_doublings", self.max_doublings, 0)


@dataclass(frozen=True)
class FlowReport:
    """Outcome of an adaptive flow run.

    Traces come from the finest run and hold one row per sweep, starting at
    time zero.  The objective trace must never increase along a run; the
    constructor enforces that within max(1e-9, 1e-12 F0), F0 the starting
    objective: collapsed points leave a residue of the coordinates' scale.
    """

    final: PointTuple
    elapsed_time: float
    sweeps_used: int
    converged: bool
    min_gap_trace: tuple[tuple[float, float], ...]
    objective_trace: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        values = [f for _, f in self.objective_trace]
        noise = max(1e-9, 1e-12 * values[0]) if values else 0.0
        for a, b in zip(values, values[1:]):
            if b > a + noise:
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
    return _total(_gaps(x.space, [p.data for p in x.coords]))


def pair_resolvent(x: PointTuple, i: int, j: int, lam: float) -> PointTuple:
    """Resolvent of the single pair term d(x_i, x_j) at step size lam.

    Both coordinates move distance min(lam, d/2) toward each other along
    their geodesic; all other coordinates are untouched.
    """
    _check_type("x", x, PointTuple)
    _check_count("pair index i", i, 0)
    _check_count("pair index j", j, 0)
    n = len(x)
    if i >= n or j >= n:
        raise GeometryError(f"pair indices ({i}, {j}) out of range for a {n}-tuple")
    if i == j:
        raise GeometryError("pair indices must differ")
    if i > j:
        raise GeometryError("pair indices must be given as i < j")
    if not (_real(lam) and 0.0 < lam < math.inf):
        raise GeometryError("step size must be positive and finite")
    data = [p.data for p in x.coords]
    if data[i] != data[j]:
        data[i], data[j], _ = x.space._pair_step(data[i], data[j], lam)
    return _wrap(x, data)


def _wrap(x: PointTuple, data: list[tuple]) -> PointTuple:
    """The PointTuple of a run that started at x and ended with this data.

    A slot whose data object is one of x's keeps x's Point, and slots that
    hold one data object share one Point: a Point is built only for data the
    run created, once per data object.  On the coordinate backends a shared
    midpoint is two equal tuples (their marches build tuples anew); either
    way a later gap check sees an exact zero between the two slots.
    """
    kind = x.space.kind
    made = {id(p.data): p for p in x.coords}
    coords = []
    for d in data:
        p = made.get(id(d))
        if p is None:
            p = made[id(d)] = Point(kind, d)
        coords.append(p)
    return _built(PointTuple, space=x.space, coords=tuple(coords))


def sweep(x: PointTuple, lam: float) -> PointTuple:
    """One full cycle of pair resolvents over every coordinate pair."""
    if not (_real(lam) and lam > 0.0):
        raise GeometryError("step size must be positive")
    return splitting_flow(x, lam, 1)


def _check_time(t: float) -> None:
    # NaN fails the comparison too, and text is no time.
    if not (_real(t) and 0.0 <= t < math.inf):
        raise GeometryError(f"flow time must be a finite number >= 0, got {t!r}")


def splitting_flow(x: PointTuple, t: float, k: int) -> PointTuple:
    """Time-t flow approximated by k resolvent sweeps of step t/k."""
    _check_type("x", x, PointTuple)
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
        obj_trace.append((now, _total(ds)))
    return gap_trace, obj_trace


def _finite_gaps(space, data: list[tuple]) -> list[float]:
    # _gaps(space, data), rejected if a pair is not at a finite distance: it
    # would never move (its step is lam/inf = 0), and no report can hold it.
    # No admitted pair's gap is NaN (math.dist of finite floats, sums of
    # tree lengths, HyperboloidSpace), so all are finite where the largest is.
    ds = _gaps(space, data)
    if ds and not max(ds) < math.inf:
        raise GeometryError(_GAPS_OVERFLOW)
    return ds


def _refine(x: PointTuple, t: float, k: int, doublings: int):
    """Flow x for time t with k, 2k, 4k, ... sweeps.

    Stops once two successive results are within ``DOUBLING_TOLERANCE`` in
    the product metric, or after ``doublings`` doublings.  Returns the finest
    result, the sweeps spent and the successive distances; the finest run
    had k * 2**len(distances) sweeps.
    """
    space = x.space
    start = [p.data for p in x.coords]
    prev, used, steps = None, 0, []
    for _ in range(doublings + 1):
        data = list(start)
        _run(space, data, t, k)
        cur = _wrap(x, data)
        used += k
        k *= 2
        if prev is not None:
            steps.append(product_distance(prev, cur))
        prev = cur
        if steps and steps[-1] <= DOUBLING_TOLERANCE:
            break
    return prev, used, steps


def flow_adaptive(x: PointTuple, t: float, cfg: FlowConfig) -> FlowReport:
    """Run the splitting flow, doubling the sweep count until stable.

    Successive runs use k, 2k, 4k, ... sweeps (``_refine``); the finest is
    run once more, traced sweep by sweep, for the report.  If the
    ``cfg.max_doublings`` doublings run out first, the report carries
    ``converged=False`` and the finest result; a single run (no doublings)
    counts as converged.  As in ``merge_time``, a tuple with a pairwise
    distance that is not finite is rejected.
    """
    _check_type("x", x, PointTuple)
    _check_type("cfg", cfg, FlowConfig)
    _check_time(t)
    ds = _finite_gaps(x.space, [p.data for p in x.coords])
    if t == 0.0 or len(x) < 2:
        final, used, steps = x, 0, []
        gap_trace = [(0.0, min(ds, default=math.inf))]
        obj_trace = [(0.0, _total(ds) if ds else 0.0)]
    else:
        final, used, steps = _refine(x, t, cfg.sweeps_per_run, cfg.max_doublings)
        gap_trace, obj_trace = _traced_run(x.space, [p.data for p in x.coords], t,
                                           cfg.sweeps_per_run << len(steps))
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

    Where ``_merges_exactly(x.space, len(x))`` holds, nothing marches and
    ``cfg`` plays no part: no ``sweeps_per_run``, no ``merge_tolerance``
    threshold, no forced snap.  Two distinct points move toward each other
    at unit speed along their geodesic, on every backend, so they meet at
    its midpoint at half their distance d: the result is ``d/2`` and both
    slots sharing one point, ``geodesic_point(p, q, 0.5)``.  More points on
    a metric tree, on the line or on hyperboloid:1 run the exact flow to its
    first collision (the space's ``_first_collision``): the returned time is
    that collision's, at most ``min_gap(x)/2`` (on hyperboloid:1 half the
    smallest gap in arclength, asinh(x1)), and the points that met share
    one point.  Either way the gaps are measured once, tested finite by
    their largest (no admitted gap is NaN), and handed to the first event;
    the result's Points are built only for data the flow made (``_wrap``;
    two points' midpoint is one Point in both slots).

    Elsewhere the splitting sweeps march the flow, and the result is the
    first time a pairwise gap falls to ``merge_tolerance`` times the
    starting min gap, together with the state there.  The march never runs
    past half the starting gap: it has at most ``sweeps_per_run`` sweeps of
    step ``min_gap(x) / (2 sweeps_per_run)``, and if nothing has merged
    after the last of them, the closest pair meets at its midpoint, as two
    points do.  So the returned time is at most ``min_gap(x)/2``, up to the
    rounding of the summed steps.  A tuple with a pairwise distance that is
    not finite is rejected.

    The gaps are measured after a sweep only where one may have merged.  A
    sweep steps each coordinate in n-1 pair steps of at most lam each, so
    in exact arithmetic every gap after it is at least ``low - 2(n-1)lam``,
    where ``low`` is the smallest distance a pair was stepped from in that
    sweep (0 if a pair held equal data).  The march therefore stops to
    measure the gaps (``space._march``'s ``watch``) only after a sweep with
    ``low <= threshold + 4 n lam``, a margin about twice the exact one that
    also covers rounding; after every sweep when lam is below
    ``ROUNDING_FLOOR`` times the largest absolute coordinate, where a step
    may round by as much as lam; and after the last sweep, whose gaps pick
    the pair to snap.  The result keeps every bit of a march that measures
    the gaps after every sweep.
    """
    _check_type("x", x, PointTuple)
    _check_type("cfg", cfg, FlowConfig)
    data = [p.data for p in x.coords]
    n = len(data)
    if n < 2:
        raise GeometryError("merging needs at least two coordinates")
    space = x.space
    ds = _finite_gaps(space, data)
    delta = min(ds)
    if delta == 0.0:
        return 0.0, x
    if _merges_exactly(space, n):
        if n > 2:
            t, data = space._first_collision(data, ds)
            return t, _wrap(x, data)
        # The midpoint of two distinct points is data neither holds, so
        # both slots share one new Point, as _wrap would give them.
        mid = Point(space.kind, space._interp(data[0], data[1], 0.5, delta))
        return 0.5 * delta, _built(PointTuple, space=space, coords=(mid, mid))
    threshold = cfg.merge_tolerance * delta
    max_sweeps = cfg.sweeps_per_run
    lam = delta / (2.0 * max_sweeps)
    # The largest absolute coordinate bounds every coordinate the march
    # reaches: the flow stays in the convex hull of data, which on the
    # hyperboloid lies in the ball around the apex that holds data.
    if lam < ROUNDING_FLOOR * max(abs(c) for pd in data for c in pd):
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
    # The first closest pair of the last sweep's distances meets at its
    # midpoint, as two points do, from the gap just measured.
    k = ds.index(min(ds))
    i, j = list(itertools.combinations(range(len(data)), 2))[k]
    data[i] = data[j] = space._interp(data[i], data[j], 0.5, ds[k])
    return elapsed, _wrap(x, data)


# ---------------------------------------------------------------------------
# Reference resolvent of the full objective (validation only).


def oracle_supports(space: SpaceDescriptor, n: int) -> bool:
    """Whether full_resolvent_oracle accepts n-tuples in space.

    Only euclidean tuples with n*dim <= 8.  The solve has no such limit: the
    cap bounds what the oracle rows of ``verify`` and ``convergence`` cost,
    and lifting it would turn rows that reports print as skipped into runs.
    """
    return isinstance(space, EuclideanSpace) and n * space.dim <= 8


# The certificate's lists are flat and coordinate-major: coordinate c of slot i
# is entry c*n + i, that of pair p (in itertools.combinations order) entry
# c*P + p, P pairs.  firsts and seconds map a pair entry to its slots' entries.


def _pair_norms(d: list[float], dim: int) -> list[float]:
    # The length of each pair's vector, repeated once per coordinate.
    size = len(d) // dim
    return list(map(math.hypot, *[d[c * size:(c + 1) * size] for c in range(dim)])) * dim


def _residual(x: list, z: list, g: list, firsts: list, seconds: list, lam: float) -> list[float]:
    # r_i = (x_i - z_i) / lam - (g_p over the pairs (i, j), minus over (j, i)):
    # if each g_p is a subgradient of |.| at z_i - z_j, z = J_lam(x - lam r).
    r = [(a - b) / lam for a, b in zip(x, z)]
    for a, i, j in zip(g, firsts, seconds):
        r[i] -= a
        r[j] += a
    return r


def _certify(x: list, z: list, v: list, d: list, norms: list, firsts: list, seconds: list,
             dim: int, lam: float):
    """Snap the primal iterate z, given its pair vectors d and their norms, some within snap.

    Slots within ``ORACLE_SNAP * lam``, transitively, form a cluster and take
    its mean.  A pair across clusters takes its exact unit vector as its
    subgradient.  Inside a cluster of k slots, the dual v_p moves to
    v_p + (r_i - r_j) / k, which leaves the cluster's slots one residual,
    and is clipped to the unit ball: for two slots, the least-residual
    refit.  The snapped points are J_lam(x - lam r) (``_residual``), so they
    lie within lam |r| of J_lam(x), which is nonexpansive.  Returns |r|,
    each slot's cluster label and the snapped points.  An iterate with every
    pair farther apart has one cluster per slot and the pairs' unit vectors
    as its subgradients: the dual kernels certify it themselves.
    """
    n = len(x) // dim
    snap = ORACLE_SNAP * lam
    label = list(range(n))
    # coordinate 0's pair entries are the slots themselves
    for i, j, norm in zip(firsts[:len(d) // dim], seconds, norms):
        a, b = label[i], label[j]
        if a != b and norm <= snap:
            label = [a if m == b else m for m in label]
    size = [label.count(a) for a in label]
    z = [_total([z[c + j] for j in range(n) if label[j] == label[i]]) / size[i]
         for c in range(0, len(z), n) for i in range(n)]
    d = [z[i] - z[j] for i, j in zip(firsts, seconds)]
    # a pair entry's cluster size, 0 across clusters
    k = [size[i % n] if label[i % n] == label[j % n] else 0 for i, j in zip(firsts, seconds)]
    g = [b if m else a / norm for a, b, norm, m in zip(d, v, _pair_norms(d, dim), k)]
    r = _residual(x, z, g, firsts, seconds, lam)
    g = [b + (r[i] - r[j]) / m if m else b for b, i, j, m in zip(g, firsts, seconds, k)]
    g = [b / s if m and s > 1.0 else b for b, s, m in zip(g, _pair_norms(g, dim), k)]
    return math.hypot(*_residual(x, z, g, firsts, seconds, lam)), label, z


# The dual solve of n points in dimension dim, written out once per shape with
# every coordinate in a local: x{i}_{c} and z{i}_{c} of slot i, and per pair p
# (itertools.combinations order) d{p}_{c} = z_i - z_j with its norm e{p}, the
# dual w{p}_{c} that the momentum moves, the last step v{p}_{c} and the new one
# s{p}_{c}.  Every float operation is the flat-list solve's, in its order
# (tests/oracles.py keeps that solve): a push starts at 0.0 and adds or
# subtracts its pairs in pair order, a pair's norm is hypot of its coordinates
# (abs in dim 1, the same number), and the residual, the move and the restart
# sum run over the entries coordinate by coordinate.  A snapped iterate is
# rare, so the kernel certifies an iterate with every pair apart itself, and
# hands one with a pair within snap to _certify in the flat layout.  A step
# under a tenth of the last restarts the momentum too: the dual then contracts
# fast, and momentum would overshoot.
_DUAL_SOURCE = """
def _dual(pts, lam, snap, iterations):
    {x_slots}, = pts
    {init}
    eps = 64.0 * ulp(1.0)
    floor = max(1e-11, eps * max({abs_x}) / lam)
    near = 1e-9 * {max_e} / lam
    tau = 1.0 / (lam * {n})
    t, stalled, last = 1.0, False, inf
    for _ in range(iterations + 1):
        {iterate}
        if {min_e} > snap:
            res = hypot({residual})
            if res <= floor or (stalled and res <= near):
                return [{z_slots}]
        else:
            res, label, snapped = _certify([{x_flat}], [{z_flat}], [{w_flat}], [{d_flat}],
                                           [{e_all}] * {dim}, {firsts}, {seconds}, {dim}, lam)
            if res <= floor or (stalled and res <= near):
                made = {{a: tuple(snapped[i::{n}]) for i, a in enumerate(label)}}
                return [made[a] for a in label]
        {step}
        move = hypot({move})
        stalled = move <= eps
        if fsum(({restart},)) > 0.0 or move < 0.1 * last:
            t = 1.0
            {w_is_s}
        else:
            t_next = 0.5 * (1.0 + sqrt(1.0 + 4.0 * t * t))
            m = (t - 1.0) / t_next
            {w_momentum}
            t = t_next
        {v_is_s}
        last = move
    return None
"""


def _dual_source(n: int, dim: int) -> str:
    """The source of the dual solve of n points in dimension dim (``_DUAL_SOURCE``)."""
    pairs = list(itertools.combinations(range(n), 2))
    cs = range(dim)
    ps = range(len(pairs))
    x = [[f"x{i}_{c}" for c in cs] for i in range(n)]
    z = [[f"z{i}_{c}" for c in cs] for i in range(n)]
    e = [f"e{p}" for p in ps]

    def flat(names):
        # coordinate-major, as the flat-list solve holds its entries
        return [names[k][c] for c in cs for k in range(len(names))]

    def names(s):
        return [[f"{s}{p}_{c}" for c in cs] for p in ps]

    d, w, v, s = names("d"), names("w"), names("v"), names("s")

    def norm(terms):
        return f"abs({terms[0]})" if dim == 1 else f"hypot({', '.join(terms)})"

    def extreme(f, terms):
        return f"{f}({', '.join(terms)})" if len(terms) > 1 else terms[0]

    def lines(rows, indent):
        return f"\n{' ' * indent}".join(rows)

    def pair_vectors(pt):
        # d and its norm e of each pair, from the points pt
        return ([f"{d[p][c]} = {pt[i][c]} - {pt[j][c]}" for p, (i, j) in enumerate(pairs) for c in cs]
                + [f"{e[p]} = {norm(d[p])}" for p in ps])

    def signed(k, terms, first):
        # slot k's terms of its pairs, in pair order: with the sign first for
        # a pair (k, j), with the other one for a pair (i, k)
        other = "-" if first == "+" else "+"
        return "".join(f" {first if i == k else other} {term}"
                       for term, (i, j) in zip(terms, pairs) if k in (i, j))

    init = pair_vectors(x) + [f"{v[p][c]} = {d[p][c]} / {e[p]} if {e[p]} > 0.0 else 0.0"
                              for p in ps for c in cs]
    init.append("; ".join(f"{w[p][c]} = {v[p][c]}" for p in ps for c in cs))
    iterate = [f"{z[k][c]} = {x[k][c]} - lam * (0.0{signed(k, [wp[c] for wp in w], '+')})"
               for k in range(n) for c in cs] + pair_vectors(z)
    units = [[f"{dp[c]} / {ep}" for dp, ep in zip(d, e)] for c in cs]
    residual = [f"({x[k][c]} - {z[k][c]}) / lam{signed(k, units[c], '-')}"
                for c in cs for k in range(n)]
    step = []
    for p in ps:
        step += [f"{s[p][c]} = {w[p][c]} + tau * {d[p][c]}" for c in cs]
        step += [f"f = {norm(s[p])}", "if f > 1.0:",
                 "    " + "; ".join(f"{s[p][c]} = {s[p][c]} / f" for c in cs)]
    return _DUAL_SOURCE.format(
        n=n, dim=dim,
        x_slots=", ".join(f"({', '.join(xi)},)" for xi in x),
        x_flat=", ".join(flat(x)),
        init=lines(init, 4),
        abs_x=", ".join(f"abs({a})" for a in flat(x)),
        max_e=extreme("max", e), min_e=extreme("min", e), e_all=", ".join(e),
        iterate=lines(iterate, 8),
        residual=", ".join(residual),
        z_slots=", ".join(f"({', '.join(zi)},)" for zi in z),
        z_flat=", ".join(flat(z)), w_flat=", ".join(flat(w)), d_flat=", ".join(flat(d)),
        firsts=[c * n + i for c in cs for i, _ in pairs],
        seconds=[c * n + j for c in cs for _, j in pairs],
        step=lines(step, 8),
        move=", ".join(f"{a} - {b}" for a, b in zip(flat(s), flat(v))),
        restart=", ".join(f"({a} - {b}) * ({b} - {c})" for a, b, c in zip(flat(w), flat(s), flat(v))),
        w_is_s="; ".join(f"{a} = {b}" for a, b in zip(flat(w), flat(s))),
        w_momentum="; ".join(f"{a} = {b} + m * ({b} - {c})"
                             for a, b, c in zip(flat(w), flat(s), flat(v))),
        v_is_s="; ".join(f"{a} = {b}" for a, b in zip(flat(v), flat(s))))


@functools.cache
def _dual_kernel(n: int, dim: int):
    """The dual solve of n points in dimension dim, compiled from ``_dual_source``."""
    return _compile(_dual_source(n, dim), "_dual", fsum=math.fsum, ulp=math.ulp, _certify=_certify)


def _dual_solve(pts: list[tuple], lam: float) -> list[tuple]:
    """J_lam(pts) by accelerated projected gradient on the dual, certified.

    The dual holds a vector v_p in the unit ball per pair p = (i, j).  The
    Lagrangian's minimizer is z_i = x_i - lam (v_p summed over the pairs
    (i, j), minus over the pairs (j, i)), and the dual's gradient at v_p is
    z_i - z_j, Lipschitz with constant lam n.  A step is
    v_p <- P(v_p + (z_i - z_j) / (lam n)), P the projection onto the unit
    ball, with FISTA momentum, restarted when the step turns against it
    (Chi & Lange's AMA; Beck & Teboulle 2009; O'Donoghue & Candes 2015).
    The start, each pair's unit vector, solves two points in one step.

    The first iterate whose certificate has |r| at most 1e-11, or at most
    the rounding floor 64 eps max|x| / lam, is returned.  A minimizer may
    keep two points so close that rounding holds |r| above both: once a step
    moves the dual by no more than rounding, lam |r| up to 1e-9 times the
    spread of x is accepted too.  After ``ORACLE_MAX_ITERATIONS`` steps, read
    at each call, it raises GeometryError instead.  Slots of a
    cluster share a tuple.  The solve runs on a kernel generated for the
    shape (n, dim) and compiled once (``_dual_kernel``), which keeps every
    bit of the flat-list solve in tests/oracles.py.  The kernel certifies an
    iterate whose pairs are all farther apart than ``ORACLE_SNAP * lam`` by
    their unit vectors, and hands any other to ``_certify``.
    """
    out = _dual_kernel(len(pts), len(pts[0]))(pts, lam, ORACLE_SNAP * lam, ORACLE_MAX_ITERATIONS)
    if out is None:
        raise GeometryError(f"reference resolvent not certified in {ORACLE_MAX_ITERATIONS} iterations")
    return out


def _resolvent(space, pts: list[tuple], lam: float) -> list[tuple]:
    # full_resolvent_oracle on the bare data of a tuple it admits, n >= 2 and
    # lam > 0.  Pairs whose distance overflows are refused, as merge_time
    # refuses them.  Where lam n reaches the largest pairwise distance, the dual point
    # v_ij = (x_i - x_j) / (lam n) lies in the unit ball and puts every z_i on
    # the centroid, so the centroid is the minimizer; lam = inf lands there.
    n = len(pts)
    if lam * n >= max(_finite_gaps(space, pts)):
        return [tuple([_total(col) / n for col in zip(*pts)])] * n
    return _dual_solve(pts, lam)


def full_resolvent_oracle(x: PointTuple, lam: float) -> PointTuple:
    """Exact resolvent of the full objective, for the cases oracle_supports admits.

    Minimizes  sum of pairwise distances + product_distance(x, .)^2 / (2 lam),
    sum-of-norms clustering with uniform weights, by a certified dual solve
    (``_dual_solve``): the result lies within 1e-11 lam of the minimizer, or
    within rounding of it, and slots it merges share one point.  Where
    lam n is at least the largest pairwise distance, an infinite step
    included, the resolvent is the centroid, and it is returned as such.  A
    tuple with a pairwise distance that is not finite is rejected.
    """
    _check_type("x", x, PointTuple)
    space = x.space
    n = len(x)
    if not oracle_supports(space, n):
        raise GeometryError("the reference resolvent supports only euclidean tuples with n*dim <= 8")
    if not (_real(lam) and lam > 0.0):
        raise GeometryError("step size must be positive")
    if n < 2:
        return x
    return _wrap(x, _resolvent(space, [p.data for p in x.coords], lam))
