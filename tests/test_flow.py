import inspect
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from subsetflow import (
    EuclideanSpace,
    FlowConfig,
    FlowReport,
    GeometryError,
    HyperboloidSpace,
    PointTuple,
    TreeEdge,
    TreeSpace,
    TreeTopology,
    flow_adaptive,
    full_resolvent_oracle,
    hausdorff_distance,
    make_space,
    merge_time,
    min_gap,
    pair_resolvent,
    pairwise_distances,
    product_distance,
    splitting_flow,
    sum_pairwise_distances,
    sweep,
    to_set,
)
from subsetflow.flow import MERGE_SLACK, _wrap
from subsetflow.geometry import _SMALL_ANGLE, _gaps, _march_kernel, _pair_march
from oracles import (full_resolvent_ref, grid_pair_prox, tree_first_collision_ref,
                     tree_routes_ref)


def line_tuple(line, *vals):
    return PointTuple(line, tuple(line.point((v,)) for v in vals))


def coords1d(x):
    return [p.data[0] for p in x.coords]


def random_tuple(space, rng, n):
    return PointTuple(space, tuple(space.random_point(rng) for _ in range(n)))


# ---------------------------------------------------------------------------
# objective


def test_objective_frozen_value(line):
    assert sum_pairwise_distances(line_tuple(line, 0.0, 1.0, 3.0)) == 6.0


def test_objective_constant_tuple(line):
    assert sum_pairwise_distances(line_tuple(line, 2.0, 2.0, 2.0)) == 0.0


def test_objective_needs_two(line):
    with pytest.raises(GeometryError):
        sum_pairwise_distances(line_tuple(line, 1.0))


# ---------------------------------------------------------------------------
# pair resolvent


def test_pair_resolvent_small_step(line):
    y = pair_resolvent(line_tuple(line, 0.0, 1.0), 0, 1, 0.2)
    assert coords1d(y) == pytest.approx([0.2, 0.8], abs=1e-15)


def test_pair_resolvent_merges_to_shared_midpoint(line):
    y = pair_resolvent(line_tuple(line, 0.0, 1.0), 0, 1, 5.0)
    assert coords1d(y) == [0.5, 0.5]
    # past the cap both slots carry the same object, so later gap checks
    # see an exact zero
    assert y.coords[0] is y.coords[1]


def test_pair_resolvent_touches_only_the_pair(line):
    x = line_tuple(line, 0.0, 1.0, 7.0)
    y = pair_resolvent(x, 0, 1, 0.1)
    assert y.coords[2] is x.coords[2]


def test_pair_resolvent_validation(line):
    x = line_tuple(line, 0.0, 1.0, 3.0)
    for i, j in ((0, 0), (1, 0), (0, 3), (-1, 1)):
        with pytest.raises(GeometryError):
            pair_resolvent(x, i, j, 0.1)
    with pytest.raises(GeometryError):
        pair_resolvent(x, 0, 1, 0.0)
    with pytest.raises(GeometryError):
        pair_resolvent(x, 0, 1, -0.3)


@pytest.mark.parametrize("seed", range(10))
def test_pair_resolvent_matches_grid_oracle(plane, seed):
    rng = random.Random(f"gridprox:{seed}")
    p = plane.random_point(rng)
    q = plane.random_point(rng)
    lam = rng.uniform(0.05, 1.5)
    y = pair_resolvent(PointTuple(plane, (p, q)), 0, 1, lam)
    ref1, ref2 = grid_pair_prox(p.data, q.data, lam)
    got = list(y.coords[0].data) + list(y.coords[1].data)
    assert got == pytest.approx(list(ref1) + list(ref2), abs=1e-5)


def _composed_pair_step(space, p, q, lam):
    # The pair step as the public space methods compose it.
    d = space.distance(p, q)
    if d <= 2.0 * lam:
        mid = space.geodesic_point(p, q, 0.5)
        return mid, mid
    s = lam / d
    return space.geodesic_point(p, q, s), space.geodesic_point(q, p, s)


def _far_pair(space):
    # Two points whose distance overflows to inf, or None on a tree.
    if isinstance(space, TreeSpace):
        return None
    pad = (0.0,) * (space.dim - 1)
    if isinstance(space, EuclideanSpace):
        return space.point((-1e308,) + pad), space.point((1e308,) + pad)
    c, s = math.cosh(710.0), math.sinh(710.0)
    return space.point((c, s) + pad), space.point((c, -s) + pad)


def _ray_point(hyper, r):
    # The point of hyperboloid:2 r from the apex along a fixed ray.
    return hyper.point((math.cosh(r), math.sinh(r) * math.cos(0.3), math.sinh(r) * math.sin(0.3)))


@pytest.mark.parametrize("key", ["euclidean-2", "hyperboloid-2", "star-tree"])
def test_pair_kernel_matches_public_methods_bit_for_bit(all_spaces, key):
    space = all_spaces[key]
    rng = random.Random(f"pairkernel:{key}")
    cases = []
    for _ in range(20):
        p, q = space.random_point(rng), space.random_point(rng)
        d = space.distance(p, q)
        cases += [(p, q, lam) for lam in (0.5 * d, 2.0 * d, 0.49 * d, 0.1 * d, 1e-3 * d)]
    if key == "hyperboloid-2":
        # theta below _SMALL_ANGLE takes the affine blend in both branches
        p, r = space.random_point(rng), space.random_point(rng)
        q = space.geodesic_point(p, r, 1e-9 / space.distance(p, r))
        theta = space.distance(p, q)
        assert 0.0 < theta < _SMALL_ANGLE
        cases += [(p, q, theta), (p, q, 0.1 * theta)]
    if key == "star-tree":
        assert any(p.data[0] == q.data[0] and p != q for p, q, _ in cases)
    far = _far_pair(space)
    if far is not None:
        assert space.distance(*far) == math.inf
        cases.append((*far, 1.0))
    merged = moved = 0
    for p, q, lam in cases:
        y = pair_resolvent(PointTuple(space, (p, q)), 0, 1, lam)
        want = _composed_pair_step(space, p, q, lam)
        assert y.coords == want and repr(y.coords) == repr(want)
        merged += space.distance(p, q) <= 2.0 * lam
        moved += space.distance(p, q) > 2.0 * lam
    assert merged and moved


# ---------------------------------------------------------------------------
# sweep and flow


def test_sweep_frozen_example(line):
    y = sweep(line_tuple(line, 0.0, 1.0, 3.0), 0.1)
    assert coords1d(y) == pytest.approx([0.2, 1.0, 2.8], abs=1e-12)


def test_sweep_rejects_bad_step(line):
    with pytest.raises(GeometryError):
        sweep(line_tuple(line, 0.0, 1.0), 0.0)


def _composed_sweep(space, x, lam, seen):
    # One sweep as public pair steps in the documented order: (0,1), (0,2),
    # (1,2), (0,3), ...; with the smallest distance a pair was stepped from,
    # 0.0 once a pair holds equal data.  seen counts the branches taken.
    want = list(x.coords)
    low = math.inf
    for j in range(1, len(want)):
        for i in range(j):
            p, q = want[i], want[j]
            if p == q:
                seen["equal"] += 1
                low = 0.0
                continue
            d = space.distance(p, q)
            low = min(low, d)
            seen["merged" if d <= 2.0 * lam else "moved"] += 1
            seen["far"] += d == math.inf
            seen["tiny"] += 0.0 < d < _SMALL_ANGLE
            want[i], want[j] = _composed_pair_step(space, p, q, lam)
    return PointTuple(space, tuple(want)), low


def _composed_march(space, x, lam, sweeps, watch, seen):
    # Up to sweeps composed sweeps, stopping after the first whose low is at
    # most watch; with how many ran and that sweep's low.
    for done in range(1, sweeps + 1):
        x, low = _composed_sweep(space, x, lam, seen)
        if low <= watch:
            break
    return x, done, low


def _flow_march(x, lam, sweeps, watch):
    # The same march as one call of the space's own entry point.
    data = [p.data for p in x.coords]
    done, low = x.space._march(data, lam, sweeps, watch)
    return _wrap(x, data), done, low


def _stepwise_march(x, lam, sweeps, watch):
    # The same march as one call per sweep.
    for done in range(1, sweeps + 1):
        x, _, low = _flow_march(x, lam, 1, -math.inf)
        if low <= watch:
            break
    return x, done, low


def _march_outcome(march, *args):
    # The repr of the state, sweeps run and low after the march, or of the
    # error it raised.
    try:
        return repr(march(*args))
    except GeometryError as exc:
        return repr(exc)


def _last_coordinate_negative_zero(space, p):
    # p with its last coordinate -0.0, moved back onto the sheet on the
    # hyperboloid.  Two points sharing it tell the pair step's b + s*(a - b)
    # from b - s*(b - a), which differ only there.
    if space.dim == 1:
        return p
    if isinstance(space, EuclideanSpace):
        return space.point(p.data[:-1] + (-0.0,))
    rest = p.data[1:-1] + (-0.0,)
    return space.point((math.sqrt(1.0 + sum(c * c for c in rest)),) + rest)


def _branch_inputs(space, rng):
    # (tuple, step, sweeps) cases on a coordinate backend that make a sweep
    # skip two slots holding equal data, step a pair whose distance
    # overflows, and step a pair closer than _SMALL_ANGLE.
    # A later step clears a -0.0 again, so the pairs that share one are
    # also swept alone, once.
    p, q, r = (_last_coordinate_negative_zero(space, space.random_point(rng)) for _ in range(3))
    yield PointTuple(space, (p, q)), 0.1 * space.distance(p, q), 1
    yield PointTuple(space, (p, p, q, r)), 0.1 * space.distance(p, q), 3
    far_p, far_q = _far_pair(space)
    for lam in (1.0, 0.1):
        yield PointTuple(space, (far_p, far_q)), lam, 2
        yield PointTuple(space, (far_p, far_q, p)), lam, 1
    near = space.geodesic_point(p, r, 1e-9 / space.distance(p, r))
    near = _last_coordinate_negative_zero(space, near)
    theta = space.distance(p, near)
    assert 0.0 < theta < _SMALL_ANGLE
    for lam in (theta, 0.1 * theta):
        yield PointTuple(space, (p, near)), lam, 1
        yield PointTuple(space, (p, near, q)), lam, 2


def _past_cap(cls):
    # The smallest dimension whose looped march is longer than the source cap.
    return next(dim for dim in itertools.count(1) if cls._march_source(dim, None) is None)


# The keys reach every shape of both coordinate backends: the unrolled and
# the looped march in each listed dimension, and the reference _pair_march in
# the smallest dimension whose looped source is past the cap.
PAIR_MARCH_KEYS = [f"euclidean-{_past_cap(EuclideanSpace)}",
                   f"hyperboloid-{_past_cap(HyperboloidSpace)}"]
MARCH_KEYS = ["euclidean-1", "euclidean-2", "euclidean-3", "euclidean-16", "euclidean-17",
              "hyperboloid-1", "hyperboloid-2", "hyperboloid-3", "hyperboloid-16",
              "hyperboloid-17", "star-tree", "path-tree", "caterpillar"] + PAIR_MARCH_KEYS


def _march_shape(space, n):
    # Which march _march_kernel runs for n-tuples in space, checking that it
    # is the kernel built for that shape.
    cls, dim = type(space), space.dim
    kernel, looped = _march_kernel(cls, dim, n), _march_kernel(cls, dim, None)
    if cls._march_source(dim, n) is not None:
        assert inspect.isfunction(kernel) and kernel is not looped
        return "unrolled"
    assert kernel is looped
    if cls._march_source(dim, None) is not None:
        assert inspect.isfunction(kernel)
        return "looped"
    assert kernel.func is _pair_march and kernel.args == (space,)
    return "pair_march"


@pytest.mark.parametrize("key", MARCH_KEYS)
def test_sweep_matches_composed_pair_steps_bit_for_bit(all_spaces, caterpillar_tree, key):
    # A march is the composed pair steps, sweep after sweep, in one call or
    # in one call per sweep: at n = 2..8, and in each dimension at the
    # smallest n whose unrolled march is past the source cap, where it is
    # looped, or runs _pair_march in the PAIR_MARCH_KEYS dimensions.
    if key == "caterpillar":
        space = caterpillar_tree
    elif key in all_spaces:
        space = all_spaces[key]
    else:
        kind, dim = key.split("-")
        space = make_space(kind, int(dim))
    coordinates = not isinstance(space, TreeSpace)
    ns = list(range(2, 10 if key == "euclidean-17" else 9))
    if coordinates:
        # the smallest n whose unrolled march is longer than the source cap
        source = type(space)._march_source
        past_cap = next(n for n in itertools.count(2) if source(space.dim, n) is None)
        if past_cap not in ns:
            ns.append(past_cap)
        shapes = {_march_shape(space, n) for n in ns}
        assert shapes == ({"pair_march"} if key in PAIR_MARCH_KEYS else {"unrolled", "looped"})
    rng = random.Random(f"sweepbits:{key}")
    cases = []
    for n in ns:
        for _ in range(3):
            x = random_tuple(space, rng, n)
            ds = [space.distance(p, q) for p, q in itertools.combinations(x.coords, 2)]
            # lam below every starting d/2, between them, and above them all
            cases += [(x, lam, 3) for lam in (0.1 * min(ds), 0.5 * sorted(ds)[len(ds) // 2],
                                              0.6 * max(ds))]
    edge_cases = list(_branch_inputs(space, rng)) if coordinates else []
    if key == "hyperboloid-2":
        # Valid points on one ray far from the apex that leave the sheet
        # through either path: at 17 and 18 the march's 53rd sweep does, at
        # 18 and 19 the midpoint.  After the raise the unrolled march has
        # left coords as they were at the call and the looped one has
        # written the pairs stepped before it; nothing reads them.
        for r, lam, sweeps in ((17.0, 1.0 / 512.0, 60), (18.0, 1.0, 1)):
            x = PointTuple(space, (_ray_point(space, r), _ray_point(space, r + 1.0)))
            edge_cases.append((x, lam * min_gap(x), sweeps))
            assert "interpolation left the hyperboloid sheet" in _march_outcome(
                _flow_march, *edge_cases[-1], -math.inf)
    seen, early = _check_marches(space, cases + edge_cases)
    assert seen["merged"] and seen["moved"] and early
    if coordinates:
        assert seen["equal"] and seen["far"] and seen["tiny"]
        # The edge cases have at most 4 slots.  Padded with random points to
        # at least past_cap slots, they take every branch in the looped march.
        if key not in PAIR_MARCH_KEYS:
            padded = [(PointTuple(space, x.coords + tuple(space.random_point(rng)
                                                          for _ in range(past_cap - len(x)))),
                       lam, sweeps) for x, lam, sweeps in edge_cases]
            seen, _ = _check_marches(space, padded)
            assert all(seen.values())


def _check_marches(space, cases):
    # Every (tuple, step, sweeps) case marches as the composed pair steps do;
    # with the branches those took and how many marches stopped early.
    seen = dict.fromkeys(("equal", "merged", "moved", "far", "tiny"), 0)
    early = 0
    for x, lam, sweeps in cases:
        watches = [-math.inf]
        if sweeps == 3:
            # the second sweep's low, so the march stops after one or two
            watches.append(_composed_march(space, x, lam, 2, -math.inf, seen)[2])
        for watch in watches:
            want = _march_outcome(lambda: _composed_march(space, x, lam, sweeps, watch, seen))
            assert _march_outcome(_flow_march, x, lam, sweeps, watch) == want
            assert _march_outcome(_stepwise_march, x, lam, sweeps, watch) == want
            early += watch > -math.inf and _flow_march(x, lam, sweeps, watch)[1] < sweeps
    return seen, early


def test_tree_pair_step_keeps_both_route_ties(caterpillar_tree):
    # Each direction of a pair step walks its own route, _route(pd, qd) one
    # way and _route(qd, pd) back, and each keeps the tie rule of its own
    # direction: the two are the routes of a fused pass over both directions
    # (tree_routes_ref), bit for bit, and each one's length is _gap in its
    # direction.  Vertices and points on edges that share a node have
    # endpoint pairings whose lengths tie.
    space = caterpillar_tree
    pts = list(dict.fromkeys(space.point((e.id, f * e.length))
                             for e in space.topology.edges for f in (0.0, 0.25, 0.5, 1.0)))
    for p, q in itertools.permutations(pts, 2):
        pd, qd = p.data, q.data
        if pd[0] != qd[0]:
            fwd, rev = space._route(pd, qd), space._route(qd, pd)
            assert (fwd, rev) == tree_routes_ref(space, pd, qd)
            # the distance kernel builds no route, and keeps its bits
            assert space._gap(pd, qd) == fwd[0]
            assert space._gap(qd, pd) == rev[0]
        d = space.distance(p, q)
        for lam in (0.1 * d, 0.3 * d, d):
            y = pair_resolvent(PointTuple(space, (p, q)), 0, 1, lam)
            want = _composed_pair_step(space, p, q, lam)
            assert y.coords == want and repr(y.coords) == repr(want)


def test_two_point_flow_exact(line):
    x = line_tuple(line, 0.0, 1.0)
    for k in (1, 2, 7, 64):
        y = splitting_flow(x, 0.3, k)
        assert coords1d(y) == pytest.approx([0.3, 0.7], abs=1e-12)
    merged = splitting_flow(x, 0.8, 16)
    assert coords1d(merged) == pytest.approx([0.5, 0.5], abs=1e-12)


def test_flow_time_zero_is_identity(line):
    x = line_tuple(line, 0.0, 1.0, 3.0)
    assert splitting_flow(x, 0.0, 8) is x


def test_flow_validation(line):
    x = line_tuple(line, 0.0, 1.0)
    with pytest.raises(GeometryError):
        splitting_flow(x, -0.1, 8)
    with pytest.raises(GeometryError):
        splitting_flow(x, 0.1, 0)
    for k in (2.5, 8.0, True):
        with pytest.raises(GeometryError):
            splitting_flow(x, 0.1, k)
    # A time that is not finite is refused as a time, not by the geodesic
    # parameter check a NaN step would reach.
    for t in (math.inf, math.nan):
        with pytest.raises(GeometryError, match="flow time"):
            splitting_flow(x, t, 8)
        with pytest.raises(GeometryError, match="flow time"):
            flow_adaptive(x, t, FlowConfig())


@pytest.mark.parametrize("key", ["euclidean-2", "hyperboloid-2", "star-tree"])
def test_flow_nonexpansive_sample(all_spaces, key):
    space = all_spaces[key]
    for i in range(30):
        rng = random.Random(f"nonexp:{key}:{i}")
        n = rng.randint(2, 4)
        x = random_tuple(space, rng, n)
        y = random_tuple(space, rng, n)
        t = rng.uniform(0.01, 1.0)
        k = rng.randint(1, 32)
        dx = product_distance(splitting_flow(x, t, k), splitting_flow(y, t, k))
        assert dx <= product_distance(x, y) + 1e-9


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_flow_descends_objective(seed):
    space = EuclideanSpace(2)
    rng = random.Random(seed)
    x = random_tuple(space, rng, rng.randint(2, 5))
    t = rng.uniform(0.05, 2.0)
    before = sum_pairwise_distances(x)
    after = sum_pairwise_distances(splitting_flow(x, t, 16))
    assert after <= before + 1e-9


# ---------------------------------------------------------------------------
# adaptive driver and report


def test_flow_report_rejects_objective_increase(line):
    x = line_tuple(line, 0.0, 1.0)
    with pytest.raises(GeometryError):
        FlowReport(
            final=x,
            elapsed_time=1.0,
            sweeps_used=2,
            converged=True,
            min_gap_trace=((0.0, 1.0), (0.5, 0.8)),
            objective_trace=((0.0, 1.0), (0.5, 2.0)),
        )


def test_flow_adaptive_two_point(line):
    x = line_tuple(line, 0.0, 1.0)
    report = flow_adaptive(x, 0.3, FlowConfig(sweeps_per_run=4, max_doublings=8))
    assert report.converged
    assert coords1d(report.final) == pytest.approx([0.3, 0.7], abs=1e-12)
    assert report.elapsed_time == 0.3
    gaps = [g for _, g in report.min_gap_trace]
    assert gaps[0] == 1.0
    assert gaps[-1] == pytest.approx(0.4, abs=1e-12)


def test_flow_adaptive_time_zero(line):
    x = line_tuple(line, 0.0, 1.0, 3.0)
    report = flow_adaptive(x, 0.0, FlowConfig())
    assert report.final is x
    assert report.sweeps_used == 0
    assert report.converged


@pytest.mark.parametrize("key", ["euclidean-2", "hyperboloid-2"])
@pytest.mark.parametrize("t", [0.0, 0.1])
def test_flow_adaptive_rejects_overflowing_distances(all_spaces, key, t):
    # Its traces could not hold an infinite gap as JSON, and the pair would
    # never move; merge_time rejects the same tuple with the same message.
    x = PointTuple(all_spaces[key], _far_pair(all_spaces[key]))
    for run in (lambda: flow_adaptive(x, t, FlowConfig(sweeps_per_run=2)),
                lambda: merge_time(x, FlowConfig())):
        with pytest.raises(GeometryError, match="overflow double precision"):
            run()


TRIANGLE = ((0.0, 0.0), (1.0, 0.2), (0.3, 1.1))


def test_flow_adaptive_exhausted_budget(plane):
    # At t = 0.5 the doubling distances decay like 1/k, far above the
    # tolerance, so two doublings run out: k, 2k and 4k sweeps are spent and
    # the finest run is reported.
    x = PointTuple(plane, tuple(plane.point(c) for c in TRIANGLE))
    report = flow_adaptive(x, 0.5, FlowConfig(sweeps_per_run=4, max_doublings=2))
    assert not report.converged
    assert report.sweeps_used == 7 * 4
    assert report.final == splitting_flow(x, 0.5, 16)
    assert len(report.min_gap_trace) == 16 + 1


def test_flow_adaptive_without_doublings(plane):
    x = PointTuple(plane, tuple(plane.point(c) for c in TRIANGLE))
    report = flow_adaptive(x, 0.5, FlowConfig(sweeps_per_run=4, max_doublings=0))
    assert report.converged
    assert report.sweeps_used == 4
    assert report.final == splitting_flow(x, 0.5, 4)


def test_trace_csv_shape(line):
    report = flow_adaptive(line_tuple(line, 0.0, 1.0), 0.2, FlowConfig(sweeps_per_run=2, max_doublings=1))
    lines = report.trace_csv().splitlines()
    assert lines[0] == "time,delta,F"
    assert len(lines) == len(report.min_gap_trace) + 1
    t, delta, f = lines[1].split(",")
    assert float(t) == 0.0 and float(delta) == 1.0 and float(f) == 1.0


def test_flow_config_validation():
    with pytest.raises(GeometryError):
        FlowConfig(sweeps_per_run=0)
    with pytest.raises(GeometryError):
        FlowConfig(merge_tolerance=0.0)
    with pytest.raises(GeometryError):
        FlowConfig(merge_tolerance=1.0)
    with pytest.raises(GeometryError):
        FlowConfig(max_doublings=-1)
    # counts that are no integers: 2.5 sweeps used to be accepted, and a
    # fractional doubling count failed later as a TypeError
    for kwargs in ({"sweeps_per_run": 2.5}, {"sweeps_per_run": True},
                   {"max_doublings": 1.5}, {"max_doublings": False}):
        with pytest.raises(GeometryError):
            FlowConfig(**kwargs)


# ---------------------------------------------------------------------------
# merge march


def test_merge_time_two_point_exact(line):
    t_star, merged = merge_time(line_tuple(line, 0.0, 1.0), FlowConfig())
    assert t_star == 0.5
    assert coords1d(merged) == [0.5, 0.5]


def test_merge_time_repeated_coordinate(line):
    x = line_tuple(line, 2.0, 2.0, 5.0)
    t_star, merged = merge_time(x, FlowConfig())
    assert t_star == 0.0
    assert merged is x


def test_merge_time_three_point_march(line):
    # the near pair closes at combined speed 2 while the far point drags
    # both right; everything lands on exact dyadic sums
    t_star, merged = merge_time(line_tuple(line, 0.0, 1.0, 10.0), FlowConfig())
    assert t_star == pytest.approx(0.5, abs=5e-4)
    assert coords1d(merged) == pytest.approx([1.0, 1.0, 9.0], abs=1e-12)


def test_merge_time_needs_two(line):
    with pytest.raises(GeometryError):
        merge_time(line_tuple(line, 1.0), FlowConfig())


@pytest.mark.parametrize("key", ["euclidean-1", "euclidean-2", "hyperboloid-2", "star-tree",
                                 "path-tree"])
def test_merge_time_two_point_half_gap(all_spaces, key):
    # Two points move toward each other at unit speed, so they meet at their
    # geodesic midpoint at d/2 exactly, whatever the march's knobs: with 4
    # sweeps and a merge tolerance of 0.5 a march would stop at d/4.
    space = all_spaces[key]
    for i in range(10):
        rng = random.Random(f"mergehalf:{key}:{i}")
        x = random_tuple(space, rng, 2)
        p, q = x.coords
        d = space.distance(p, q)
        mid = space.geodesic_point(p, q, 0.5)
        for cfg in (FlowConfig(), FlowConfig(sweeps_per_run=4, merge_tolerance=0.5)):
            t_star, merged = merge_time(x, cfg)
            assert t_star == 0.5 * d
            assert merged.coords == (mid, mid)
            assert repr(merged.coords) == repr((mid, mid))
            assert merged.coords[0] is merged.coords[1]


def test_merge_time_star_tree_midpoint(star_tree):
    x = PointTuple(star_tree, (star_tree.point((0, 0.4)), star_tree.point((1, 0.3))))
    t_star, merged = merge_time(x, FlowConfig())
    assert t_star == pytest.approx(0.35, rel=1e-12)
    edge, offset = merged.coords[0].data
    assert edge == 0 and offset == pytest.approx(0.05, abs=1e-12)


def test_tree_two_point_closed_form_matches_the_event_flow(star_tree, caterpillar_tree):
    # On a tree the midpoint at d/2 is where the exact event flow meets too,
    # also from points on vertices, within 1e-14·d.
    for name, tree in (("star", star_tree), ("caterpillar", caterpillar_tree),
                       ("five-leg", _five_leg_star())):
        rng = random.Random(f"twopointtree:{name}")
        for _ in range(1000):
            data = _exact_flow_inputs(tree, rng, 2, 0)
            x = PointTuple(tree, tuple(tree.point(d) for d in data))
            d = tree.distance(*x.coords)
            t_star, merged = merge_time(x, FlowConfig())
            t_event, met = tree._first_collision(data, _gaps(tree, data))
            assert met[0] is met[1]
            assert abs(t_event - t_star) <= 1e-14 * d, (name, data)
            assert tree._gap(merged.coords[0].data, met[0]) <= 1e-14 * d, (name, data)


def test_merge_bound_random(plane):
    for i in range(25):
        rng = random.Random(f"mergebound:{i}")
        x = random_tuple(plane, rng, rng.randint(2, 5))
        from subsetflow import min_gap
        delta = min_gap(x)
        if delta < 1e-6:
            continue
        t_star, _ = merge_time(x, FlowConfig())
        assert t_star <= delta / 2.0 * (1.0 + 1e-3)


def test_merge_time_forced_snap_merges_first_closest_pair(plane):
    # No gap of this input falls to the merge tolerance by the delta/2
    # horizon, so the march snaps the closest pair there: (1, 3), the fifth
    # pair in (i, j) order, well clear of the runner-up.
    x = PointTuple(plane, tuple(plane.point(c) for c in
                                ((-1.7, -0.3), (-1.6, 1.0), (0.0, -1.8), (-1.8, 0.9))))
    cfg = FlowConfig()
    delta = min_gap(x)
    lam = delta / (2.0 * cfg.sweeps_per_run)
    y = x
    for _ in range(cfg.sweeps_per_run):
        y = sweep(y, lam)
        assert min_gap(y) > cfg.merge_tolerance * delta
    gaps = sorted((plane.distance(y.coords[i], y.coords[j]), (i, j))
                  for i, j in itertools.combinations(range(4), 2))
    assert gaps[0][1] == (1, 3) and gaps[1][0] > 2.0 * gaps[0][0]
    t_star, merged = merge_time(x, cfg)
    assert min_gap(merged) == 0.0
    mid = plane.geodesic_point(y.coords[1], y.coords[3], 0.5)
    assert merged.coords == (y.coords[0], mid, y.coords[2], mid)
    assert t_star <= delta / 2.0 * (1.0 + 1e-3)


def _reference_merge_time(x, cfg):
    # The march as plain composition: measure every gap after every sweep.
    ds = pairwise_distances(x.space, x.coords)
    delta = min(ds)
    if delta == 0.0:
        return 0.0, x
    threshold = cfg.merge_tolerance * delta
    lam = delta / (2.0 * cfg.sweeps_per_run)
    elapsed = 0.0
    for _ in range(int(cfg.sweeps_per_run * (1.0 + MERGE_SLACK))):
        x = sweep(x, lam)
        elapsed += lam
        ds = pairwise_distances(x.space, x.coords)
        if min(ds) <= threshold:
            return elapsed, x
    i, j = list(itertools.combinations(range(len(x)), 2))[ds.index(min(ds))]
    mid = x.space.geodesic_point(x.coords[i], x.coords[j], 0.5)
    coords = list(x.coords)
    coords[i] = coords[j] = mid
    return elapsed, PointTuple(x.space, tuple(coords))


def _outcome(march, x, cfg):
    try:
        return repr(march(x, cfg))
    except GeometryError as exc:
        return repr(exc)


def _adversarial_march_inputs(plane, hyper):
    for scale in (1.0, 1e4, 1e8, 1e12):
        for gap in (1e-9, 1e-5, 1e-1):
            rng = random.Random(f"marchgrid:{scale}:{gap}")
            base = (0.8 * scale, -0.6 * scale)
            yield PointTuple(plane, tuple(
                plane.point([c + gap * rng.uniform(-1.0, 1.0) for c in base]) for _ in range(3)))
    # far from the apex, where rounding in a step or a gap can exceed lam
    for r in (5.0, 10.0, 15.0, 20.0, 25.0):
        for spread in (1e-12, 1e-9, 1e-6, 1e-3):
            rng = random.Random(f"marchgrid:{r}:{spread}")
            for n in (3, 4, 5, 3, 4, 5):
                pts = []
                for _ in range(n):
                    rad = r * (1.0 + spread * rng.uniform(-1.0, 1.0))
                    th = 0.3 + r * spread * rng.uniform(-1.0, 1.0) / math.sinh(r)
                    pts.append(hyper.point((math.cosh(rad), math.sinh(rad) * math.cos(th),
                                            math.sinh(rad) * math.sin(th))))
                yield PointTuple(hyper, tuple(pts))


def test_merge_time_matches_gap_every_sweep_march_bit_for_bit(plane, hyper):
    # merge_time measures the gaps only after sweeps where a merge is possible;
    # it must return what a march measuring them after every sweep returns.
    # Trees do not march: they run the exact flow (tests below).
    cfgs = [FlowConfig(sweeps_per_run=k, merge_tolerance=tol)
            for k in (3, 256) for tol in (1e-6, 1e-12)]
    for x in _adversarial_march_inputs(plane, hyper):
        for cfg in cfgs:
            assert _outcome(merge_time, x, cfg) == _outcome(_reference_merge_time, x, cfg)


# ---------------------------------------------------------------------------
# exact flow on trees


def tree_tuple(tree, *places):
    return PointTuple(tree, tuple(tree.point(p) for p in places))


def test_tree_merge_time_closed_form(star_tree):
    # Both others lie toward the hub, so each point heads there at speed 2.
    # The first reaches it at t = 0.15 and stays (one other on each leg),
    # and the second meets it there 0.2 / 2 later.  The configuration plays
    # no part: there is no march on a tree.
    x = tree_tuple(star_tree, (0, 0.3), (1, 0.5), (2, 1.2))
    hub = star_tree.point((0, 0.0))
    for cfg in (FlowConfig(), FlowConfig(sweeps_per_run=3, merge_tolerance=0.5)):
        t_star, merged = merge_time(x, cfg)
        assert t_star == pytest.approx(0.25, abs=1e-12)
        assert merged.coords[:2] == (hub, hub)
        assert merged.coords[0].data is merged.coords[1].data
        assert merged.coords[2].data[0] == 2
        assert merged.coords[2].data[1] == pytest.approx(0.7, abs=1e-12)


def test_tree_merge_time_chases_across_a_vertex(path_tree):
    # On the path 0 -2- 1 -0.5- 2 -1- 3 the points sit 1.0, 2.3 and 3.0 from
    # node 0.  The middle one has one other on each side and stays; the
    # outer two close in at speed 2, and the one at 3.0 meets it first,
    # passing node 2 on the way.
    x = tree_tuple(path_tree, (0, 1.0), (1, 0.3), (2, 0.5))
    t_star, merged = merge_time(x, FlowConfig())
    # d((1, 0.3), (2, 0.5)) = 0.2 + 0.5 = 0.7, closed at speed 2
    assert t_star == pytest.approx(0.35, abs=1e-12)
    assert merged.coords[1].data is merged.coords[2].data
    assert merged.coords[1].data == pytest.approx((1, 0.3), abs=1e-12)
    assert merged.coords[0].data == pytest.approx((0, 1.7), abs=1e-12)


def _caterpillar_tuples(tree):
    for n in (6, 7, 8):
        for i in range(4):
            yield random_tuple(tree, random.Random(f"exacttree:{n}:{i}"), n)


def test_tree_merge_time_ignores_the_numbering(caterpillar_tree):
    # The exact flow is a flow of the set: every renumbering of a tuple gives
    # the same collision time and the same merged set.  All 720 and 5040
    # numberings at n = 6 and 7; at n = 8, 2000 of the 40320, drawn by seed.
    rng = random.Random("exacttree:perms")
    for n in (6, 7, 8):
        x = random_tuple(caterpillar_tree, random.Random(f"exacttree:{n}:perm"), n)
        t_star, merged = merge_time(x, FlowConfig())
        want = to_set(merged, 1e-9)
        perms = (itertools.permutations(range(n)) if n < 8
                 else (rng.sample(range(n), n) for _ in range(2000)))
        for perm in perms:
            y = PointTuple(caterpillar_tree, tuple(x.coords[k] for k in perm))
            t_perm, merged_perm = merge_time(y, FlowConfig())
            assert t_perm == pytest.approx(t_star, abs=1e-12)
            assert hausdorff_distance(to_set(merged_perm, 1e-9), want) <= 1e-12


def test_tree_merge_time_is_the_limit_of_the_splitting(caterpillar_tree):
    # At the exact collision time t*, k splitting sweeps land within n t*/k
    # of the exact state in the product metric: the splitting converges to
    # this flow like 1/k.  (Its closest gap need not shrink at every step:
    # a point resting on a vertex jitters there by O(t*/k).)  A collision
    # before delta/2 is one where other points change how the pair closes.
    early = 0
    for x in _caterpillar_tuples(caterpillar_tree):
        n = len(x)
        t_star, merged = merge_time(x, FlowConfig())
        early += t_star < 0.45 * min_gap(x)
        for k in ((256, 1024, 4096) if n == 6 else (256, 1024)):
            assert product_distance(splitting_flow(x, t_star, k), merged) <= n * t_star / k
    assert early >= 3


def test_tree_merge_time_guards_its_event_loop(star_tree, monkeypatch):
    # A flow in which nothing approaches, or which never collides, raises
    # instead of looping.  Both are made by replacing one event's motions.
    x = tree_tuple(star_tree, (0, 0.3), (1, 0.5), (2, 1.2))
    monkeypatch.setattr(TreeSpace, "_motions", lambda self, data: [None] * len(data))
    with pytest.raises(GeometryError, match="approach"):
        merge_time(x, FlowConfig())
    # every point bounces between the ends of its edge, never toward another
    def bounce(self, data):
        moves = []
        for edge_id, o in data:
            edge = self._edge_by_id[edge_id]
            sign = -1.0 if o == edge.length else 1.0
            moves.append((edge, o, sign, 1, [-1] * len(data)))
        return moves

    monkeypatch.setattr(TreeSpace, "_motions", bounce)
    with pytest.raises(GeometryError, match="event bound"):
        merge_time(x, FlowConfig())


def _five_leg_star():
    # the near-tie benchmark's star: five legs of length 1 at node 0
    return TreeSpace(TreeTopology(tuple(TreeEdge(i, 0, i + 1, 1.0) for i in range(5))))


def _exact_flow_inputs(tree, rng, n, family):
    """Distinct data of n points: random ones, some moved onto a vertex
    (family 0), n legs at one depth (1), or mirrored pairs at equal depths
    with the odd one out at the hub (2)."""
    edges = tree.topology.edges
    if family == 0:
        data = []
        while len(data) < n:
            p = tree.random_point(rng).data
            if rng.random() < 0.3:
                e = rng.choice(edges)
                p = tree.point((e.id, rng.choice((0.0, e.length)))).data
            if p not in data:
                data.append(p)
        return data
    legs = rng.sample(edges, n)
    depth = rng.uniform(0.05, 1.0) * min(e.length for e in legs)
    if family == 1:
        return [tree.point((e.id, depth)).data for e in legs]
    data = []
    for k in range(n // 2):
        data += [tree.point((e.id, depth * (1.0 - 0.2 * k))).data for e in legs[2 * k:2 * k + 2]]
    if n % 2:
        data.append(tree.point((legs[-1].id, 0.0)).data)
    return data


def test_tree_first_collision_matches_its_reference(star_tree, caterpillar_tree):
    # The one-pass event loop keeps every bit of the loop with one motion
    # call per point, given merge_time's gaps for its first event: the same
    # time and data, and the same slots sharing one tuple.  The five legs of
    # one depth end in a five-way meet at the hub.
    checked = five_way = 0
    for name, tree, ns in (("star", star_tree, (2, 3)), ("caterpillar", caterpillar_tree, (2, 4, 6, 8)),
                           ("five-leg", _five_leg_star(), (2, 3, 4, 5))):
        rng = random.Random(f"firstcollision:{name}")
        for k in range(700):
            family, n = k % 3, rng.choice(ns)
            data = _exact_flow_inputs(tree, rng, n, family)
            t_ref, want = tree_first_collision_ref(tree, data)
            t, got = tree._first_collision(data, _gaps(tree, data))
            assert (t, got) == (t_ref, want), (name, data)
            assert [[a is b for b in got] for a in got] == [[a is b for b in want] for a in want]
            checked += 1
            five_way += len(data) == 5 and all(d is got[0] for d in got)
    assert checked >= 2000
    assert five_way >= 50


# ---------------------------------------------------------------------------
# reference resolvent


def test_oracle_two_point_frozen(line):
    y = full_resolvent_oracle(line_tuple(line, 0.0, 1.0), 0.2)
    assert coords1d(y) == pytest.approx([0.2, 0.8], abs=1e-9)


@pytest.mark.parametrize("lam", [0.1, 0.3, 5.0])
def test_oracle_matches_pair_resolvent(plane, lam):
    for i in range(5):
        rng = random.Random(f"oracle2:{lam}:{i}")
        x = random_tuple(plane, rng, 2)
        a = full_resolvent_oracle(x, lam)
        b = pair_resolvent(x, 0, 1, lam)
        assert product_distance(a, b) <= 1e-8


def test_oracle_small_step_near_identity(line):
    x = line_tuple(line, 0.0, 1.0)
    y = full_resolvent_oracle(x, 1e-6)
    assert product_distance(x, y) <= 1e-5


def test_oracle_validation(line, hyper):
    x2 = PointTuple(hyper, (hyper.point((1.0, 0.0, 0.0)), hyper.point((math.sqrt(2.0), 1.0, 0.0))))
    with pytest.raises(GeometryError):
        full_resolvent_oracle(x2, 0.1)
    x = line_tuple(line, 0.0, 1.0)
    with pytest.raises(GeometryError):
        full_resolvent_oracle(x, 0.0)
    big = PointTuple(EuclideanSpace(2), tuple(EuclideanSpace(2).point((float(i), 0.0)) for i in range(5)))
    with pytest.raises(GeometryError):
        full_resolvent_oracle(big, 0.1)


def test_oracle_prox_inequality():
    # the resolvent minimizes F + d(., x)^2 / (2 lam), so its value beats
    # any competitor y, with a quadratic improvement term on top
    space = EuclideanSpace(2)
    worst = -math.inf
    for i in range(20):
        rng = random.Random(f"proxineq:{i}")
        n = rng.randint(2, 4)
        x = random_tuple(space, rng, n)
        y = random_tuple(space, rng, n)
        lam = rng.uniform(0.05, 0.5)
        j = full_resolvent_oracle(x, lam)
        lhs = (sum_pairwise_distances(j)
               + product_distance(x, j) ** 2 / (2.0 * lam)
               + product_distance(j, y) ** 2 / (2.0 * lam))
        rhs = sum_pairwise_distances(y) + product_distance(x, y) ** 2 / (2.0 * lam)
        worst = max(worst, lhs - rhs)
    assert worst <= 1e-7


@pytest.mark.parametrize("dim, n", [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (4, 2)])
def test_oracle_matches_numpy_reference(dim, n):
    # The plain-float resolvent against the numpy one it replaced: the same
    # coincidence pattern, and the same points within 1e-10 lam.
    def pattern(y):
        return [[j for j, q in enumerate(y.coords) if q == p] for p in y.coords]

    space = EuclideanSpace(dim)
    for seed in range(3):
        x = random_tuple(space, random.Random(f"oracleref:{dim}:{n}:{seed}"), n)
        for scale in (1e-3, 1e-2, 0.1, 0.5, 2.0):
            lam = scale * min_gap(x)
            a, b = full_resolvent_oracle(x, lam), full_resolvent_ref(x, lam)
            assert pattern(a) == pattern(b), (seed, scale)
            assert product_distance(a, b) <= 1e-10 * lam, (seed, scale)


# ---------------------------------------------------------------------------
# pair gap stability under far-coordinate resolvents


@pytest.mark.parametrize("key", ["euclidean-2", "hyperboloid-2", "star-tree"])
def test_gap_stability_two_regimes(all_spaces, key):
    space = all_spaces[key]
    for i in range(40):
        rng = random.Random(f"gapclaims:{key}:{i}")
        n = rng.randint(3, 5)
        y = random_tuple(space, rng, n)
        idx = rng.randrange(2, n)
        d01 = space.distance(y.coords[0], y.coords[1])
        if d01 < 1e-9:
            continue
        lam = d01 * rng.uniform(0.05, 2.0)
        z = pair_resolvent(pair_resolvent(y, 0, idx, lam), 1, idx, lam)
        gap = space.distance(z.coords[0], z.coords[1])
        if d01 >= lam:
            assert gap <= d01 + 1e-9
        else:
            assert gap <= d01 + lam + 1e-9
