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

The exact resolvent of the whole objective, ``full_resolvent_oracle``, is a
reference for small euclidean tuples.  It enumerates coincidence patterns and
solves each by Newton iteration on kernels generated once per shape (blocks
and dimension) and compiled by ``exec``, as the marches are.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

from .geometry import (EuclideanSpace, GeometryError, Point, SpaceDescriptor, TreeSpace,
                       _check_count, _gaps, _pair_step, _total)
from .subset_space import PointTuple, _built, product_distance

# Below this fraction of the largest absolute coordinate, a step of size lam
# may round by as much as lam itself, so merge_time measures the gaps after
# every sweep.
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
    n = len(x)
    if not 0 <= i < n or not 0 <= j < n:
        raise GeometryError(f"pair indices ({i}, {j}) out of range for a {n}-tuple")
    if i == j:
        raise GeometryError("pair indices must differ")
    if i > j:
        raise GeometryError("pair indices must be given as i < j")
    if not lam > 0.0:
        raise GeometryError("step size must be positive")
    data = [p.data for p in x.coords]
    if data[i] != data[j]:
        data[i], data[j], _ = _pair_step(x.space, data[i], data[j], lam)
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
    return _built(PointTuple, space=x.space, coords=tuple(coords))


def sweep(x: PointTuple, lam: float) -> PointTuple:
    """One full cycle of pair resolvents over every coordinate pair."""
    if not lam > 0.0:
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
        obj_trace.append((now, _total(ds)))
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
        obj_trace = [(0.0, _total(ds) if ds else 0.0)]
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


@functools.cache
def _patterns(n: int) -> tuple:
    # Every partition of range(n) in _set_partitions order, its blocks as
    # tuples, with the bit mask of its in-block pairs: bit i stands for the
    # i-th pair of itertools.combinations(range(n), 2).
    bit = {pair: 1 << i for i, pair in enumerate(itertools.combinations(range(n), 2))}
    return tuple((tuple(map(tuple, blocks)),
                  sum(bit[pair] for block in blocks for pair in itertools.combinations(block, 2)))
                 for blocks in _set_partitions(n))


# The Newton kernels of an m-block pattern in dimension dim, written out once
# per shape with coordinate c of block a in u{a}_{c}.  _bind takes the
# pattern's constants: base, lam2 = 2 lam, the pair weights in
# itertools.combinations order, the sizes, size/lam and the block means, one
# coordinate after another.  solve is a Cholesky solve of the lower triangle,
# flattened row by row.  Every float operation is the generic code's, in its
# order (tests/oracles.py keeps that code): the pair distance is math.dist's
# vector norm, which is hypot of the differences, or abs of the one in dim 1; a
# square is ** 2; a Hessian entry starts at size/lam on the diagonal and 0.0
# off it and adds its pair blocks k ((c == e) - n_c n_e) in pair order.
_NEWTON_SOURCE = """
def solve(h, g):
    {h_all}, = h
    {g_all}, = g
{factor}
    return [{x_all}]

def _bind(base, lam2, w, s, k, mean):
    {w_all}, = w
    {s_all}, = s
    {k_all}, = k
    {m_all}, = mean

    def value(u):
        {u_all}, = u
        return base{value_pairs} + ({value_blocks}) / lam2

    def grad_hess(u):
        {u_all}, = u
{pair_terms}
        return ({g_terms},), ({h_terms},)

    return value, grad_hess, solve
"""


def _newton_source(m: int, dim: int) -> str:
    """The source of the Newton kernels of m blocks in dimension dim (``_NEWTON_SOURCE``)."""
    size = m * dim
    u = [[f"u{a}_{c}" for c in range(dim)] for a in range(m)]
    pairs = list(itertools.combinations(range(m), 2))

    def norm(terms):
        return f"abs({terms[0]})" if dim == 1 else f"hypot({', '.join(terms)})"

    def quotient(first, products, divisor):
        # (first - p0 - p1 ...) / divisor, subtracted left to right
        return f"({' - '.join([first, *products])}) / {divisor}" if products else f"{first} / {divisor}"

    value_pairs = "".join(
        f" + w{a}_{b} * {norm([f'{ua} - {ub}' for ua, ub in zip(u[a], u[b])])}" for a, b in pairs)
    value_blocks = " + ".join(
        f"s{a} * ({' + '.join(f'({x} - m{a}_{c}) ** 2' for c, x in enumerate(u[a]))})" for a in range(m))

    lines = []
    for a, b in pairs:
        diff = [f"d{a}_{b}_{c}" for c in range(dim)]
        lines += [f"{d} = {ua} - {ub}" for d, ua, ub in zip(diff, u[a], u[b])]
        lines.append(f"r{a}_{b} = {norm(diff)}")
    lines.append(f"if {' or '.join(f'r{a}_{b} < 1e-9' for a, b in pairs)}:")
    lines.append("    return None")
    for a, b in pairs:
        lines += [f"n{a}_{b}_{c} = d{a}_{b}_{c} / r{a}_{b}" for c in range(dim)]
        lines.append(f"k{a}_{b} = w{a}_{b} / r{a}_{b}")
        lines += [f"v{a}_{b}_{c} = w{a}_{b} * n{a}_{b}_{c}" for c in range(dim)]
        lines += [f"b{a}_{b}_{c}_{e} = k{a}_{b} * ({float(c == e)} - n{a}_{b}_{c} * n{a}_{b}_{e})"
                  for c in range(dim) for e in range(c + 1)]
    pair_terms = "".join(f"\n        {line}" for line in lines)[1:]

    g_terms = []
    for a in range(m):
        for c in range(dim):
            term = f"k{a} * ({u[a][c]} - m{a}_{c})"
            for i, j in pairs:
                if j == a:
                    term += f" - v{i}_{j}_{c}"
                elif i == a:
                    term += f" + v{i}_{j}_{c}"
            g_terms.append(term)
    h_terms = []
    for row in range(size):
        b, c = divmod(row, dim)
        for col in range(row + 1):
            a, e = divmod(col, dim)
            if a == b:
                term = f"k{a}" if c == e else "0.0"
                term += "".join(f" + b{i}_{j}_{c}_{e}" for i, j in pairs if a in (i, j))
            else:
                term = f"0.0 - b{a}_{b}_{max(c, e)}_{min(c, e)}"
            h_terms.append(term)

    # Column j of the factor: its pivot, refused unless positive, then the
    # entries below it; forward substitution with -g, then backward.
    factor = []
    for j in range(size):
        factor.append(f"d = h{j}_{j}" + "".join(f" - l{j}_{i} * l{j}_{i}" for i in range(j)))
        factor += ["if not d > 0.0:", "    return None", f"l{j}_{j} = sqrt(d)"]
        factor += [f"l{i}_{j} = " + quotient(f"h{i}_{j}", [f"l{i}_{k} * l{j}_{k}" for k in range(j)],
                                             f"l{j}_{j}") for i in range(j + 1, size)]
    factor += [f"y{i} = " + quotient(f"-g{i}", [f"l{i}_{k} * y{k}" for k in range(i)], f"l{i}_{i}")
               for i in range(size)]
    factor += [f"x{i} = " + quotient(f"y{i}", [f"l{k}_{i} * x{k}" for k in range(i + 1, size)],
                                     f"l{i}_{i}") for i in reversed(range(size))]

    return _NEWTON_SOURCE.format(
        h_all=", ".join(f"h{i}_{j}" for i in range(size) for j in range(i + 1)),
        g_all=", ".join(f"g{i}" for i in range(size)),
        factor="".join(f"\n    {line}" for line in factor)[1:],
        x_all=", ".join(f"x{i}" for i in range(size)),
        w_all=", ".join(f"w{a}_{b}" for a, b in pairs),
        s_all=", ".join(f"s{a}" for a in range(m)),
        k_all=", ".join(f"k{a}" for a in range(m)),
        m_all=", ".join(f"m{a}_{c}" for a in range(m) for c in range(dim)),
        u_all=", ".join(x for ua in u for x in ua),
        value_pairs=value_pairs, value_blocks=value_blocks, pair_terms=pair_terms,
        g_terms=", ".join(g_terms), h_terms=", ".join(h_terms))


@functools.cache
def _newton_kernel(m: int, dim: int):
    """The ``_bind`` of m blocks in dimension dim, compiled from ``_newton_source``."""
    namespace = {"hypot": math.hypot, "sqrt": math.sqrt}
    # By exec, as geometry._march_kernel builds the marches.
    exec(_newton_source(m, dim), namespace)
    return namespace["_bind"]


def _reduced_minimize(pts: list[tuple], blocks, lam: float):
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
    is symmetric positive definite with at most 8 rows.  Its value, gradient,
    Hessian and Cholesky solve run on kernels generated per shape
    (``_newton_kernel``), with every coordinate in a local, bit for bit the
    generic list code that ``tests/oracles.py`` keeps.
    """
    dim = len(pts[0])
    m = len(blocks)
    sizes = [float(len(b)) for b in blocks]
    means = [tuple([_total(col) / len(b) for col in zip(*[pts[i] for i in b])]) for b in blocks]
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

    # The iterate is one flat list of m*dim coordinates; zip(*[iter(u)] * dim)
    # reads it as its m block points, one tuple of dim coordinates each.
    u = [c for mean in means for c in mean]
    value, grad_hess, solve = _newton_kernel(m, dim)(
        base, 2.0 * lam, [sizes[a] * sizes[b] for a, b in itertools.combinations(range(m), 2)],
        sizes, [s / lam for s in sizes], u)
    # gh is always grad_hess(u), the gradient and the Hessian's lower
    # triangle, or None: each is computed once per iterate, and a pure Newton
    # step carries its candidate's forward.
    val = value(u)
    gh = grad_hess(u)
    for _ in range(100):
        if gh is None:
            return None
        g, h = gh
        gnorm = math.hypot(*g)
        if gnorm <= 1e-10:
            break
        step = solve(h, g)
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
            gh2 = grad_hess(cand)
            if gh2 is None or not math.hypot(*gh2[0]) < 0.5 * gnorm:
                break
            u = cand
            val = value(u)
            gh = gh2
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
        gh = grad_hess(u)
    if gh is None or math.hypot(*gh[0]) > 1e-8:
        return None
    return val, list(zip(*[iter(u)] * dim))


def oracle_supports(space: SpaceDescriptor, n: int) -> bool:
    """Whether full_resolvent_oracle accepts n-tuples in space.

    Only euclidean tuples with n*dim <= 8 keep the enumeration honest-sized.
    """
    return isinstance(space, EuclideanSpace) and n * space.dim <= 8


def full_resolvent_oracle(x: PointTuple, lam: float) -> PointTuple:
    """Exact resolvent of the full objective, for the cases oracle_supports admits.

    Minimizes  sum of pairwise distances + product_distance(x, .)^2 / (2 lam)
    by enumerating coincidence patterns of the coordinates, in
    ``_set_partitions`` order, and solving each smooth reduced problem by
    Newton iteration on the kernels generated for its shape
    (``_reduced_minimize``); the first pattern of least value wins.  A
    pattern can only be optimal if its merged coordinates started within
    2(n-1)*lam of each other, which prunes the enumeration hard for small
    steps: each pair of input points is measured once, and a pattern is
    skipped if one of its in-block pairs lies farther apart.  An infinite
    step is accepted; its resolvent is the centroid.
    """
    space = x.space
    n = len(x)
    if not oracle_supports(space, n):
        raise GeometryError("the reference resolvent supports only euclidean tuples with n*dim <= 8")
    if not lam > 0.0:
        raise GeometryError("step size must be positive")
    if n < 2:
        return x
    pts = [p.data for p in x.coords]
    reach = 2.0 * (n - 1) * lam * (1.0 + 1e-9) + 1e-12
    far = 0
    for i, (p, q) in enumerate(itertools.combinations(pts, 2)):
        if math.dist(p, q) > reach:
            far |= 1 << i

    best_val = math.inf
    best = None
    for blocks, inner in _patterns(n):
        if inner & far:
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
    # space.point has checked each point it built.
    return _built(PointTuple, space=space, coords=tuple(out))
