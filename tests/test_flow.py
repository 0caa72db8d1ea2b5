import copy
import inspect
import itertools
import math
import random
import re
import sys
from fractions import Fraction

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
from subsetflow.flow import _dual_source, _dual_solve, _wrap, oracle_supports
from subsetflow.verify import sample_tuple
from subsetflow.geometry import (_MARCH_MAX_SOURCE, _OVERFLOW, _SMALL_ANGLE, _compile, _gaps,
                                 _march_kernel, _pair_march, _pair_step, _total)
from oracles import (dual_solve_ref, full_resolvent_ref, grid_pair_prox,
                     hyperboloid_distance_decimal, tree_edges_ref, tree_first_collision_ref,
                     tree_motion_ref, tree_routes_ref)


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


def _hyperboloid_pair_step(pd, qd, lam):
    # The hyperboloid pair step written out from its closed form in the
    # squared gap md = 4 sinh^2(d/2), the Minkowski norm of pd - qd summed
    # left to right, in plain floats with the library's operations in their
    # order.  The pair meets where md <= (2 sinh lam)^2, capped at the largest
    # float, both ends at the blend of the spatial parts by 0.5 / sqrt(1 +
    # md/4); else each end takes the blend by wp = exp(-lam) - wq / (1 + md/2
    # + sinh d) and wq = sinh lam / sinh d, sinh d = md sqrt(1/4 + 1/md).
    # Each x0 is sqrt(1 + |xs|^2), summed left to right.  None where md is
    # not finite.
    c = pd[0] - qd[0]
    md = -c * c
    for a, b in zip(pd[1:], qd[1:]):
        c = a - b
        md += c * c
    sl = math.sinh(min(lam, 710.0))

    def lift(spatial):
        n2 = 1.0
        for c in spatial:
            n2 += c * c
        if not n2 < math.inf:
            raise GeometryError(_OVERFLOW)
        return (math.sqrt(n2), *spatial)

    if md <= min(4.0 * sl * sl, sys.float_info.max):
        w = 0.5 / math.sqrt(1.0 + 0.25 * md) if md > 0.0 else 0.5
        mid = lift([w * (a + b) for a, b in zip(pd[1:], qd[1:])])
        return mid, mid
    if not md < math.inf:
        return None
    sh = md * math.sqrt(0.25 + 1.0 / md)
    wq = sl / sh
    wp = math.exp(-lam) - wq / (1.0 + 0.5 * md + sh)
    return (lift([wp * a + wq * b for a, b in zip(pd[1:], qd[1:])]),
            lift([wp * b + wq * a for a, b in zip(pd[1:], qd[1:])]))


def _composed_pair_step(space, p, q, lam):
    # The pair step as the public space methods compose it; on the
    # hyperboloid, whose step is written in md alone, a finite md steps as
    # _hyperboloid_pair_step writes it out.
    if isinstance(space, HyperboloidSpace):
        step = _hyperboloid_pair_step(p.data, q.data, lam)
        if step is not None:
            return tuple(space.point(c) for c in step)
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
        # theta below _SMALL_ANGLE, where _interp blends affinely and the
        # pair step takes no branch of its own, meeting and moving
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


def _apex_point(hyper, scale, rng):
    # A point of hyperboloid:2 whose spatial part is scale times two
    # Gaussian draws, x0 derived from it.
    x1, x2 = scale * rng.gauss(0.0, 1.0), scale * rng.gauss(0.0, 1.0)
    return hyper.point((math.sqrt(1.0 + x1 * x1 + x2 * x2), x1, x2))


@pytest.mark.parametrize("scale", [1.0, 1e-50, 1e-100, 1e-150])
def test_hyperboloid_pair_resolvent_never_widens_a_gap_or_passes_the_midpoint(hyper, scale):
    # For lam/d from 1e-12 to 1e3 a pair step leaves the pair no farther
    # apart, and neither end moves more than d/2, up to 1e-14 of it for the
    # rounding of the midpoint (8 ulps at most).  Spatial offsets scale from
    # 1 down to 1e-150, where (2 sinh lam)^2 is subnormal or 0 for the
    # smallest steps.
    rng = random.Random(f"pairprop:{scale}")
    ratios = [10.0 ** k for k in range(-12, 4)] + [0.49, 0.4999999, 0.5, 0.5000001]
    seen = {"met": 0, "moved": 0, "subnormal": 0}
    for _ in range(25):
        p, q = _apex_point(hyper, scale, rng), _apex_point(hyper, scale, rng)
        d = hyper.distance(p, q)
        for ratio in ratios:
            lam = ratio * d
            p2, q2 = pair_resolvent(PointTuple(hyper, (p, q)), 0, 1, lam).coords
            assert hyper.distance(p2, q2) <= d
            for a, a2 in ((p, p2), (q, q2)):
                assert hyper.distance(a, a2) <= 0.5 * d * (1.0 + 1e-14)
            seen["met" if p2 == q2 else "moved"] += 1
            # sinh lam is lam to double precision at the steps this counts
            seen["subnormal"] += 4.0 * lam * lam < sys.float_info.min
    assert seen["met"] and seen["moved"] and (seen["subnormal"] or scale > 1e-150)


def test_hyperboloid_pair_step_refuses_a_nan_gap(hyper):
    # 500 from the apex, x0 and x1 square past the float range, so the
    # squared gap to the apex is inf - inf = NaN: the Python step and both
    # march shapes refuse it through the geodesic parameter check.
    p = hyper.point((math.cosh(500.0), math.sinh(500.0), 0.0))
    q = hyper.point((1.0, 0.0, 0.0))
    rng = random.Random("pairnan")
    rest = tuple(hyper.random_point(rng) for _ in range(6))
    for run in (lambda: pair_resolvent(PointTuple(hyper, (p, q)), 0, 1, 0.5),
                lambda: sweep(PointTuple(hyper, (p, q)), 0.5),
                lambda: sweep(PointTuple(hyper, (p, q) + rest), 0.5)):
        with pytest.raises(GeometryError, match="geodesic parameter"):
            run()


def _decimal_gap(p, q):
    # The distance of two points far from the apex, at enough digits that
    # the products of their coordinates, up to about 1e165, keep 35 more.
    return hyperboloid_distance_decimal(p.data, q.data, digits=200)


@pytest.mark.parametrize("radii, ratios", [((40.0, 60.0), (0.05, 0.2, 0.4, 0.49)),
                                            ((170.0, 190.0), (1e-9, 1e-3, 0.1, 0.4))],
                         ids=["wide-step", "past-sinh-overflow"])
def test_hyperboloid_pair_step_moves_each_end_lam_far_from_the_apex(hyper, radii, ratios):
    # Two points on the x1 axis, on either side of the apex: each end of a
    # step moves lam toward the other, to 1e-9 of d.  On one axis no
    # rounding turns a point off the geodesic, which far out would put it
    # hundreds away: an ulp of direction at r from the apex is eps sinh r of
    # arc.  With lam from 2 to 59, cosh lam - wq cosh d would cancel up to
    # every bit of the first weight; past 170 from the apex md (1 + md/4)
    # overflows, while sinh d does not.
    rng = random.Random(f"pairfar:{radii}")
    for _ in range(10):
        r, s = rng.uniform(*radii), rng.uniform(*radii)
        p = hyper.point((math.cosh(r), math.sinh(r), 0.0))
        q = hyper.point((math.cosh(s), -math.sinh(s), 0.0))
        d = _decimal_gap(p, q)
        for ratio in ratios:
            lam = ratio * d
            p2, q2 = pair_resolvent(PointTuple(hyper, (p, q)), 0, 1, lam).coords
            assert abs(_decimal_gap(p, p2) - lam) <= 1e-9 * d
            assert abs(_decimal_gap(q, q2) - lam) <= 1e-9 * d
            assert abs(_decimal_gap(p2, q2) - (d - 2.0 * lam)) <= 1e-9 * d


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


def _past_cap(cls, k, rows):
    # The smallest dimension whose march holding k slots in locals, with or
    # without rows, is longer than the source cap.
    return next(dim for dim in itertools.count(1) if cls._march_source(dim, k, rows) is None)


# The keys reach every march of both coordinate backends: k = n and 0 < k < n
# in each listed dimension, k = 0 alone in the smallest dimension where not
# even n = 2 is unrolled, and the reference _pair_march in the smallest where
# k = 0 is past the cap too.
LOOPED_KEYS = [f"euclidean-{_past_cap(EuclideanSpace, 2, False)}",
               f"hyperboloid-{_past_cap(HyperboloidSpace, 2, False)}"]
PAIR_MARCH_KEYS = [f"euclidean-{_past_cap(EuclideanSpace, 0, True)}",
                   f"hyperboloid-{_past_cap(HyperboloidSpace, 0, True)}"]
MARCH_KEYS = ["euclidean-1", "euclidean-2", "euclidean-3", "euclidean-16", "euclidean-17",
              "hyperboloid-1", "hyperboloid-2", "hyperboloid-3", "hyperboloid-16",
              "hyperboloid-17", "star-tree", "path-tree", "caterpillar",
              *LOOPED_KEYS, *PAIR_MARCH_KEYS]


def _march_slots(space, n):
    # The k of the march _march_kernel runs for n-tuples in space, read from
    # the slots its kernel holds in locals (x{i}_0), or None for _pair_march;
    # checking that the kernel is the one compiled for that k under the cap,
    # and that k is n or k + 1 does not fit.
    cls, dim = type(space), space.dim
    kernel = _march_kernel(cls, dim, n)
    if not inspect.isfunction(kernel):
        assert all(cls._march_source(dim, k, k < n) is None for k in range(n + 1))
        assert kernel.func is _pair_march and kernel.args == (space,)
        return None
    k = sum(re.fullmatch(r"x\d+_0", name) is not None for name in kernel.__code__.co_varnames)
    source = cls._march_source(dim, k, k < n)
    assert len(source) <= _MARCH_MAX_SOURCE and kernel is _compile(source, "_march")
    assert k == n or cls._march_source(dim, k + 1, k + 1 < n) is None
    return k


@pytest.mark.parametrize("key", MARCH_KEYS)
def test_sweep_matches_composed_pair_steps_bit_for_bit(all_spaces, caterpillar_tree, key):
    # A march is the composed pair steps, sweep after sweep, in one call or
    # in one call per sweep: at n = 2..8, and in each dimension at the
    # smallest n that takes a k < n, whose march holds k slots in locals and
    # loops over the rest, or runs _pair_march in the PAIR_MARCH_KEYS
    # dimensions.
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
        # the smallest n that takes a k < n
        past_cap = next(n for n in itertools.count(2) if _march_slots(space, n) != n)
        if past_cap not in ns:
            ns.append(past_cap)
        shapes = {"pair_march" if k is None else "n" if k == n else "0" if k == 0 else "k"
                  for n in ns for k in [_march_slots(space, n)]}
        assert shapes == ({"pair_march"} if key in PAIR_MARCH_KEYS
                          else {"0"} if key in LOOPED_KEYS else {"n", "k"})
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
        # Valid points on one ray far from the apex, where _gap cancels: at
        # 17 and 18 a pair that moves for 60 sweeps, at 18 and 19 one that
        # meets at once.  Each runs every sweep, and every shape agrees on
        # it below.
        for r, lam, sweeps in ((17.0, 1.0 / 512.0, 60), (18.0, 1.0, 1)):
            x = PointTuple(space, (_ray_point(space, r), _ray_point(space, r + 1.0)))
            edge_cases.append((x, lam * min_gap(x), sweeps))
            assert _flow_march(*edge_cases[-1], -math.inf)[1] == sweeps
    seen, early = _check_marches(space, cases + edge_cases)
    assert seen["merged"] and seen["moved"] and early
    if coordinates:
        assert seen["equal"] and seen["far"] and seen["tiny"]
        # The edge cases have at most 4 slots.  In tuples of past_cap + 1
        # slots, whose march holds k < n slots in locals, they reach every
        # part of it: after k copies of their first point, their pairs are
        # first stepped in a row against the locals, then in a row's loop;
        # in the first k slots (all but the last if k = 0), before copies of
        # one random point, their pairs are stepped among the locals, and
        # theirs with that point in the rows.
        if key not in PAIR_MARCH_KEYS:
            m = past_cap + 1
            k = _march_slots(space, m)
            for pad in ("after copies", "before a random point"):
                padded = []
                for x, lam, sweeps in edge_cases:
                    cycled = itertools.cycle(x.coords)
                    if pad == "after copies":
                        pts = [x.coords[0]] * k + [*itertools.islice(cycled, m - k)]
                    else:
                        head = k or m - 1
                        pts = [*itertools.islice(cycled, head), *[space.random_point(rng)] * (m - head)]
                    padded.append((PointTuple(space, tuple(pts)), lam, sweeps))
                seen, _ = _check_marches(space, padded)
                assert all(seen.values()), (pad, seen)


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


def _tree_walk_branch(space, step, route, seen, way):
    # Which branch moves one end of a tree pair step by step along route =
    # (length, leg, exit node, entry node): its own edge, a walk that stops
    # on an edge between, or one that ends on the target edge.
    _, leg, u, nb = route
    if step <= leg:
        seen["own edge"] += 1
        return
    seen[f"walk {way}"] += 1
    s = step - leg
    first = tree_edges_ref(space)[1]
    while u != nb:
        e = first[u][nb]
        if s < e.length:
            return
        s -= e.length
        u = e.other(u)
    seen["target edge"] += 1


def _tree_sweep_branches(space, coords, lam, seen):
    # The reference march's sweep over coords, in place, counting the
    # branches of each pair step; returns the sweep's low.
    low = math.inf
    for j in range(1, len(coords)):
        for i in range(j):
            pd, qd = coords[i], coords[j]
            if pd == qd:
                seen["equal"] += 1
                low = 0.0
                continue
            coords[i], coords[j], d = _pair_step(space, pd, qd, lam)
            low = min(low, d)
            if pd[0] == qd[0]:
                seen["same edge merge" if d <= 2.0 * lam else "same edge move"] += 1
            elif d <= 2.0 * lam:
                _tree_walk_branch(space, 0.5 * d, space._route(pd, qd), seen, "forward")
            else:
                s = lam / d
                _tree_walk_branch(space, s * d, space._route(pd, qd), seen, "forward")
                back = space._route(qd, pd)
                _tree_walk_branch(space, s * back[0], back, seen, "back")
    return low


def test_tree_march_matches_the_pair_march_bit_for_bit(star_tree, caterpillar_tree):
    # A tree's own march is _pair_march, whose pair step is _pair_step, in one
    # pass per pair step: the same state, sweeps run and low, in repr, with
    # 30% of points on vertices, steps from far below every gap to past the
    # largest, and watches that stop the march after one or two sweeps.
    seen = dict.fromkeys(("equal", "same edge merge", "same edge move", "own edge",
                          "walk forward", "walk back", "target edge"), 0)
    marches = early = 0
    for name, tree in (("star", star_tree), ("caterpillar", caterpillar_tree),
                       ("five-leg", _five_leg_star())):
        rng = random.Random(f"treemarch:{name}")
        edges = tree.topology.edges
        for _ in range(125):
            data = []
            for _ in range(rng.randint(2, 8)):
                if rng.random() < 0.3:
                    e = rng.choice(edges)
                    data.append(tree.point((e.id, rng.choice((0.0, e.length)))).data)
                else:
                    data.append(tree.random_point(rng).data)
            ds = sorted(_gaps(tree, data))
            apart = [d for d in ds if d > 0.0] or [1.0]
            for lam in (1e-3 * apart[0], 0.1 * apart[0], 0.5 * ds[len(ds) // 2], 0.6 * ds[-1]):
                if not lam > 0.0:
                    continue
                coords = list(data)
                _tree_sweep_branches(tree, coords, lam, seen)
                watch = _tree_sweep_branches(tree, coords, lam, seen)
                for watch in (-math.inf, watch):
                    want, got = list(data), list(data)
                    want_run = _pair_march(tree, want, lam, 3, watch)
                    got_run = tree._march(got, lam, 3, watch)
                    assert repr((got_run, got)) == repr((want_run, want)), (name, data, lam)
                    marches += 1
                    early += got_run[0] < 3
    assert marches >= 2900 and early >= 500
    assert min(seen.values()) >= 50, seen


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


def test_merge_time_stops_at_half_the_gap(plane, all_spaces):
    # The march covers delta/2 in at most sweeps_per_run sweeps and then
    # snaps, whatever the sweep count: the forced-snap input above, which
    # marches to the horizon, at counts on both sides of 1000, and random
    # tuples at 1500 sweeps on every backend.
    snap = PointTuple(plane, tuple(plane.point(c) for c in
                                   ((-1.7, -0.3), (-1.6, 1.0), (0.0, -1.8), (-1.8, 0.9))))
    cases = [(snap, k) for k in (256, 999, 1000, 1002, 1500, 3000)]
    for key, space in all_spaces.items():
        for i in range(30):
            rng = random.Random(f"halfgap:{key}:{i}")
            cases.append((random_tuple(space, rng, rng.randint(3, 6)), 1500))
    for x, k in cases:
        t_star, _ = merge_time(x, FlowConfig(sweeps_per_run=k))
        assert t_star <= min_gap(x) / 2.0 * (1.0 + 1e-9), (x.to_json(), k)


def _reference_merge_time(x, cfg):
    # The march as plain composition: measure every gap after every sweep.
    ds = pairwise_distances(x.space, x.coords)
    delta = min(ds)
    if delta == 0.0:
        return 0.0, x
    threshold = cfg.merge_tolerance * delta
    lam = delta / (2.0 * cfg.sweeps_per_run)
    elapsed = 0.0
    for _ in range(cfg.sweeps_per_run):
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
    # instead of looping.  Both are made by replacing the motion of a point.
    x = tree_tuple(star_tree, (0, 0.3), (1, 0.5), (2, 1.2))
    monkeypatch.setattr(TreeSpace, "_motion", lambda self, i, data: None)
    with pytest.raises(GeometryError, match="approach"):
        merge_time(x, FlowConfig())
    # every point bounces between the ends of its edge, never toward another
    lengths = {e.id: e.length for e in star_tree.topology.edges}

    def bounce(self, i, data):
        edge_id, o = data[i]
        sign = -1 if o == lengths[edge_id] else 1
        return edge_id, o, sign, 1, [-1] * len(data), lengths[edge_id]

    monkeypatch.setattr(TreeSpace, "_motion", bounce)
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


def _reference_events(tree, data):
    """The events of tree_first_collision_ref's loop on data, one at a time.

    Each is (motions, arrived, clamped): the one tree_motion_ref call per
    point that the event ran on, the points whose arrival at a vertex was
    the step, and the points whose step rounded onto their edge's end.  The
    last event is the meet."""
    n = len(data)
    data = list(data)
    pairs = list(itertools.combinations(range(n), 2))
    events = []
    for _ in range(n * (len(tree.topology.edges) + 1)):
        moves = [tree_motion_ref(tree, i, data) for i in range(n)]
        arrivals = [math.inf if m is None else m.arrival() for m in moves]
        pull = [[0] * n if m is None else [m.speed if a else -m.speed for a in m.toward]
                for m in moves]
        meets = []
        for i, j in pairs:
            d, rate = tree._gap(data[i], data[j]), pull[i][j] + pull[j][i]
            meets.append(0.0 if d == 0.0 else d / rate if rate > 0 else math.inf)
        h = min(min(arrivals), min(meets))
        assert h < math.inf
        arrived, clamped = [], []
        for i, m in enumerate(moves):
            if m is None:
                continue
            length = m.edge.length
            if arrivals[i] == h:
                o = length if m.sign > 0.0 else 0.0
                arrived.append(i)
            else:
                o = min(max(m.offset + m.sign * m.speed * h, 0.0), length)
                if not 0.0 < o < length:
                    clamped.append(i)
            data[i] = tree._place(m.edge.id, o)
        events.append((moves, arrived, clamped))
        if min(meets) == h:
            return events
    raise AssertionError("the reference flow ran past its event bound")


def _motion_key(m, i):
    # What point i's motion tells the flow: its sign, speed and pull toward
    # every other point (toward[i] is not read, and a point leaving a vertex
    # backward writes it otherwise than one inside the edge).
    return None if m is None else (m.sign, m.speed, m.toward[:i] + m.toward[i + 1:])


def test_tree_motion_holds_until_its_point_reaches_a_vertex(star_tree, caterpillar_tree):
    # The event loop takes each point's motion once and renews it only for a
    # point placed on a vertex.  Stepping the reference loop, which takes
    # every motion again at every event, shows why that is exact: at each
    # arrival every other point keeps its sign, speed and pull, since no
    # point passes another before a collision.
    arrivals = kept = 0
    for name, tree, ns in (("star", star_tree, (2, 3)), ("caterpillar", caterpillar_tree, (2, 4, 6, 8)),
                           ("five-leg", _five_leg_star(), (2, 3, 4, 5))):
        rng = random.Random(f"motionkept:{name}")
        for k in range(300):
            family, n = k % 3, rng.choice(ns)
            data = _exact_flow_inputs(tree, rng, n, family)
            events = _reference_events(tree, data)
            for (moves, arrived, clamped), (renewed, _, _) in zip(events, events[1:]):
                assert arrived or clamped, (name, data)
                for i in set(range(n)) - set(arrived) - set(clamped):
                    assert _motion_key(renewed[i], i) == _motion_key(moves[i], i), (name, data, i)
                    kept += 1
                arrivals += 1
    assert arrivals >= 800
    assert kept >= 3000


def test_tree_first_collision_matches_its_reference(star_tree, caterpillar_tree):
    # The event loop keeps every bit of the loop with one motion call per
    # point at every event, given merge_time's gaps for its first event: the
    # same time and data, and the same slots sharing one tuple.  The five
    # legs of one depth end in a five-way meet at the hub.  Hundreds of the
    # flows reach two vertices before they meet, so they run on kept
    # motions, and in five of them a point's step rounds onto its edge's end
    # before the meet.
    checked = five_way = two_arrivals = clamps = 0
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
            before_meet = _reference_events(tree, data)[:-1]
            two_arrivals += sum(len(arrived) for _, arrived, _ in before_meet) >= 2
            clamps += any(clamped for _, _, clamped in before_meet)
    assert checked >= 2000
    assert five_way >= 50
    assert two_arrivals >= 471
    assert clamps >= 5


def test_tree_first_collision_renews_a_clamped_point(caterpillar_tree, monkeypatch):
    # Mirrored pairs on the caterpillar (_exact_flow_inputs family 2), the
    # first of the five inputs of the reference test above whose step is
    # clamped before the meet: at its fourth event one point arrives
    # while another's step rounds onto the end of its edge, and the flow goes
    # on to a fifth.  The loop takes every motion at the first event, then
    # exactly the motions of the points placed on a vertex, the clamped one
    # too.  (Were it kept, its leg of zero would make one more event of
    # length zero, which renews it with the same result.)
    data = [(1, 0.34159293765366733), (7, 0.34159293765366733), (8, 0.2732743501229339),
            (11, 0.2732743501229339), (6, 0.20495576259220039), (4, 0.20495576259220039)]
    events = _reference_events(caterpillar_tree, data)
    assert len(events) == 5
    assert [(arrived, clamped) for _, arrived, clamped in events[3:4]] == [([1], [5])]
    taken = []
    motion = TreeSpace._motion

    def record(self, i, data):
        taken.append(i)
        return motion(self, i, data)

    monkeypatch.setattr(TreeSpace, "_motion", record)
    t_ref, want = tree_first_collision_ref(caterpillar_tree, data)
    t, got = caterpillar_tree._first_collision(data, _gaps(caterpillar_tree, data))
    assert taken == list(range(6)) + [i for _, arrived, clamped in events[:-1]
                                      for i in sorted(arrived + clamped)]
    assert (t, got) == (t_ref, want)
    assert [[a is b for b in got] for a in got] == [[a is b for b in want] for a in want]


def _exact_twin(tree):
    """tree with every number its exact flow reads as a Fraction: each edge's
    length, each node distance as the exact sum of the lengths on its path,
    and each vertex's offset."""
    edges, first = tree_edges_ref(tree)

    def dist(u, v):
        total = Fraction(0)
        while u != v:
            e = first[u][v]
            total += Fraction(e.length)
            u = e.other(u)
        return total

    nodes = tree.topology.nodes
    rows = {u: {v: dist(u, v) for v in nodes} for u in nodes}
    twin = copy.copy(tree)
    object.__setattr__(twin, "_table", {
        e.id: (e.from_node, e.to_node, Fraction(e.length), rows[e.from_node], rows[e.to_node])
        for e in edges.values()})
    object.__setattr__(twin, "_vertex_rep", {
        v: (edge_id, Fraction(o)) for v, (edge_id, o) in tree._vertex_rep.items()})
    return twin


def test_tree_first_collision_runs_on_fractions(star_tree, caterpillar_tree):
    # The event loop's own constants are ints, so on a twin tree whose table
    # holds Fractions it runs the flow without rounding: every time and offset
    # it returns is a Fraction.  On the exact values of random float inputs,
    # about 30% of them with a point on a vertex, the float run meets in the
    # same pattern, at a time within 1e-12 relative of the exact one.  The
    # offsets are random, not on a grid, whose exact ties floats may break
    # the other way.
    def pattern(data):
        return [[a is b for b in data] for a in data]

    for name, tree, most in (("star", star_tree, 3), ("caterpillar", caterpillar_tree, 8),
                             ("five-leg", _five_leg_star(), 5)):
        twin = _exact_twin(tree)
        edges = tree.topology.edges
        rng = random.Random(f"exactflow:{name}")
        on_vertex = 0
        for _ in range(300):
            n = rng.randint(2, most)
            data = []
            while len(data) < n:
                p = tree.random_point(rng).data
                if p not in data:
                    data.append(p)
            if rng.random() < 0.3:
                e = rng.choice(edges)
                p = tree.point((e.id, rng.choice((0.0, e.length)))).data
                if p not in data:
                    data[rng.randrange(n)] = p
                    on_vertex += 1
            t, got = tree._first_collision(data, _gaps(tree, data))
            exact = [(e, Fraction(o)) for e, o in data]
            t_exact, got_exact = twin._first_collision(exact, _gaps(twin, exact))
            assert type(t_exact) is Fraction, (name, data)
            assert all(type(o) is Fraction for _, o in got_exact), (name, data)
            assert pattern(got) == pattern(got_exact), (name, data)
            assert abs(t - t_exact) <= 1e-12 * t_exact, (name, data)
        assert on_vertex >= 60, name


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


@pytest.mark.parametrize("step", [
    lambda x, lam: pair_resolvent(x, 0, 1, lam),
    sweep,
    full_resolvent_oracle,
], ids=["pair_resolvent", "sweep", "full_resolvent_oracle"])
def test_nan_step_is_refused(line, step):
    with pytest.raises(GeometryError, match="step size must be positive"):
        step(line_tuple(line, 0.0, 1.0, 3.0), math.nan)


def test_infinite_step_lands_on_the_limit(line):
    # J_inf of the full objective is the centroid.  A pair step refuses an
    # infinite step (test_infinite_pair_step_is_refused).
    x = line_tuple(line, 0.0, 1.0, 5.0)
    assert coords1d(full_resolvent_oracle(x, math.inf)) == [2.0, 2.0, 2.0]


def test_infinite_pair_step_is_refused(line, hyper):
    # As sweep refuses it: points 2e308 apart on the line would meet at inf,
    # and the hyperboloid pair 1400 apart at a NaN fraction of its geodesic.
    ch, sh = math.cosh(700.0), math.sinh(700.0)
    for x in (line_tuple(line, 0.0, 1.0, 5.0), line_tuple(line, -1e308, 1e308),
              PointTuple(hyper, [hyper.point((ch, sh, 0.0)), hyper.point((ch, -sh, 0.0))])):
        with pytest.raises(GeometryError, match="step size must be positive and finite"):
            pair_resolvent(x, 0, 1, math.inf)


def _enumwrong_input(i):
    rng = random.Random(f"enumwrong:{i}")
    x = sample_tuple(EuclideanSpace(2), 3, rng)
    return x, rng.uniform(0.02, 0.5)


def _distinct_residual(x, j, lam):
    # |r| for r_i = (x_i - j_i) / lam - (the unit vectors from j_i to the other
    # points, pointing away from them): with distinct points the subgradient
    # is unique, and j = J_lam(x - lam r) exactly.
    xs, zs = [p.data for p in x.coords], [p.data for p in j.coords]
    r = [[(a - b) / lam for a, b in zip(xi, zi)] for xi, zi in zip(xs, zs)]
    for a, b in itertools.combinations(range(len(zs)), 2):
        d = [p - q for p, q in zip(zs[a], zs[b])]
        norm = math.hypot(*d)
        for c, dc in enumerate(d):
            r[a][c] -= dc / norm
            r[b][c] += dc / norm
    return math.hypot(*[c for ri in r for c in ri])


@pytest.mark.parametrize("i", [76, 105, 194, 207, 223, 404, 501, 511, 550, 626, 631, 704, 746,
                               749, 828, 885, 908, 988])
def test_oracle_beats_the_enumeration_where_it_was_wrong(i):
    # On these inputs the pattern enumeration (the numpy reference, and the
    # library's oracle before its dual solve) returned two blocks, with an
    # objective up to 1.34e-2 too high.  The minimizer keeps three points.
    x, lam = _enumwrong_input(i)

    def objective(y):
        return sum_pairwise_distances(y) + product_distance(x, y) ** 2 / (2.0 * lam)

    j, ref = full_resolvent_oracle(x, lam), full_resolvent_ref(x, lam)
    assert len(set(j.coords)) == 3
    assert objective(j) < objective(ref) - 1e-9
    assert _distinct_residual(x, j, lam) <= 1e-10


def test_oracle_raises_when_its_iteration_cap_runs_out(monkeypatch):
    # Input 76 needs dozens of dual steps.  Under every cap the oracle either
    # raises or returns the point the uncapped solve certifies, never an
    # iterate it did not certify.
    x, lam = _enumwrong_input(76)
    want = full_resolvent_oracle(x, lam)
    raised = []
    for cap in range(1, 80):
        monkeypatch.setattr("subsetflow.flow.ORACLE_MAX_ITERATIONS", cap)
        try:
            got = full_resolvent_oracle(x, lam)
        except GeometryError as exc:
            assert "not certified" in str(exc)
            raised.append(cap)
            continue
        assert got == want
    assert raised == list(range(1, len(raised) + 1))
    assert 1 in raised and 79 not in raised


def _solve_bits(solve, pts, lam):
    # Each slot's coordinates by float.hex, which tells -0.0 from 0.0, and the
    # first slot holding the same tuple object; or the error raised.
    try:
        out = solve(pts, lam)
    except GeometryError as exc:
        return str(exc)
    return [(tuple(map(float.hex, p)), next(k for k, q in enumerate(out) if q is p)) for p in out]


@pytest.mark.parametrize("n, dim", [(n, 1) for n in range(2, 9)] + [(n, 2) for n in range(2, 5)]
                         + [(2, 3), (2, 4)])
def test_dual_kernels_match_the_flat_list_solve(n, dim):
    # Every shape oracle_supports admits, on steps from 1e-3 to 2 times the
    # smallest gap and on inputs with two equal slots: the generated kernel
    # keeps every bit of the flat-list solve, and which slots share a tuple.
    # Some answers share one, so the snapped certificate ran; every source
    # fits under the cap of the march sources.
    assert oracle_supports(EuclideanSpace(dim), n)
    assert len(_dual_source(n, dim)) <= _MARCH_MAX_SOURCE
    snapped = 0
    for seed in range(12):
        rng = random.Random(f"dualkernel:{n}:{dim}:{seed}")
        pts = [tuple(rng.gauss(0.0, 1.0) for _ in range(dim)) for _ in range(n)]
        if seed % 4 == 3 and n > 2:
            pts[rng.randrange(1, n)] = pts[0]
        gap = min(d for d in itertools.starmap(math.dist, itertools.combinations(pts, 2)) if d > 0.0)
        for scale in (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0):
            got = _solve_bits(_dual_solve, pts, scale * gap)
            assert got == _solve_bits(dual_solve_ref, pts, scale * gap), (seed, scale)
            snapped += len({k for _, k in got}) < n
    assert snapped > 0


def test_dual_kernel_matches_the_flat_list_solve_where_it_stalls(monkeypatch):
    # Input 475 is certified only once the dual stalls: its answer keeps three
    # points, whose residual is above the 1e-11 floor.  Both solves return it
    # on the same step, and under a cap one short of that both raise.
    x, lam = _enumwrong_input(475)
    pts = [p.data for p in x.coords]
    got = _solve_bits(_dual_solve, pts, lam)
    assert got == _solve_bits(dual_solve_ref, pts, lam)
    assert _distinct_residual(x, full_resolvent_oracle(x, lam), lam) > 1e-11
    for cap, raises in ((170, True), (171, False)):
        monkeypatch.setattr("subsetflow.flow.ORACLE_MAX_ITERATIONS", cap)
        want = _solve_bits(dual_solve_ref, pts, lam)
        assert isinstance(want, str) == raises
        assert _solve_bits(_dual_solve, pts, lam) == want


def test_oracle_refuses_overflowing_distances_at_once(line, plane):
    # The dual used to run all its steps on NaN before it raised "not
    # certified"; an infinite step returned a centroid of the overflowing pair.
    far = PointTuple(plane, (plane.point((1e308, -1e308)), plane.point((-1e308, 1e308))))
    for x in (line_tuple(line, -1e308, 1e308), line_tuple(line, 0.0, -1e308, 1e308), far):
        for lam in (0.1, math.inf):
            with pytest.raises(GeometryError, match="overflow double precision"):
                full_resolvent_oracle(x, lam)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_returns_the_centroid_at_large_steps(plane, n):
    # Once lam n reaches the largest pairwise distance, the dual point
    # (x_i - x_j) / (lam n) certifies the centroid.  At lam = 1e100 the dual
    # solve used to land up to 1.4e83 from it.  Just past the boundary the
    # flat-list solve, certified within 1e-11 lam, agrees.
    for i in range(50):
        x = random_tuple(plane, random.Random(f"centroid:{n}:{i}"), n)
        pts = [p.data for p in x.coords]
        centroid = tuple([_total(col) / n for col in zip(*pts)])
        top = max(_gaps(plane, pts)) / n
        for lam in (1.001 * top, 2.0 * top, 1e18, 1e100, math.inf):
            j = full_resolvent_oracle(x, lam)
            assert [p.data for p in j.coords] == [centroid] * n, (i, lam)
            assert len(set(j.coords)) == 1
        ref = _wrap(x, dual_solve_ref(pts, 1.001 * top))
        assert product_distance(j, ref) <= 1e-10 * top, i


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
