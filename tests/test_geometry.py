import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from subsetflow import (
    EuclideanSpace,
    FiniteSubset,
    GeometryError,
    HyperboloidSpace,
    Point,
    PointTuple,
    SpaceMismatchError,
    TreeEdge,
    TreeSpace,
    TreeTopology,
    make_space,
    make_subset,
    pair_resolvent,
    space_from_json,
)
from subsetflow.geometry import (_MARCH_MAX_SOURCE, _compile, _distance, _geodesic_point,
                                 _march_kernel, _pair_march, _pair_step, _total, point_sort_key)
from oracles import (hyperboloid_distance_decimal, hyperboloid_distance_ref,
                     hyperboloid_geodesic_decimal, hyperboloid_pair_step_decimal,
                     tree_point_distance)

SPACE_KEYS = ["euclidean-1", "euclidean-2", "hyperboloid-2", "star-tree", "path-tree"]


def _rng(i):
    return random.Random(f"geomtest:{i}")


# ---------------------------------------------------------------------------
# euclidean


def test_euclidean_distance_and_geodesic(plane):
    p = plane.point((0.0, 0.0))
    q = plane.point((3.0, 4.0))
    assert plane.distance(p, q) == 5.0
    mid = plane.geodesic_point(p, q, 0.5)
    assert mid.data == (1.5, 2.0)


def test_euclidean_rejects_wrong_arity(plane):
    with pytest.raises(GeometryError):
        plane.point((1.0,))
    with pytest.raises(GeometryError):
        plane.point((1.0, float("nan")))


@pytest.mark.parametrize("coords", [["a", 1], [None, 1], [[1], 1], [10**400, 1], 5])
@pytest.mark.parametrize("space", [EuclideanSpace(2), HyperboloidSpace(1)],
                         ids=["euclidean-2", "hyperboloid-1"])
def test_malformed_coordinates_are_geometry_errors(space, coords):
    with pytest.raises(GeometryError):
        space.point(coords)


@pytest.mark.parametrize("space", [EuclideanSpace(2), HyperboloidSpace(2)],
                         ids=["euclidean-2", "hyperboloid-2"])
def test_coordinate_backends_check_the_coordinate_count(space):
    # The march kernels unpack a fixed number of coordinates per slot, so a
    # tuple, a subset and the public methods reject a point with more or
    # fewer; on the hyperboloid zip would otherwise truncate to a distance 0.
    good = space.random_point(_rng("count"))
    for bad in (Point(space.kind, good.data + (5.0,)), Point(space.kind, good.data[:-1])):
        for build in (lambda: PointTuple(space, (bad, good)),
                      lambda: PointTuple(space, (good, bad)),
                      lambda: FiniteSubset(space, (bad,)),
                      lambda: space.canonicalize(bad),
                      lambda: make_subset(space, [bad]),
                      lambda: make_subset(space, [good, bad], 0.5),
                      lambda: space.distance(good, bad),
                      lambda: space.geodesic_point(bad, good, 0.5)):
            with pytest.raises(GeometryError, match="coordinates"):
                build()


def _float_draw(rng):
    # Signed zeros, subnormals, huge values near overflow, and ordinary ones.
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice((0.0, -0.0))
    if kind == 1:
        return rng.choice((1.0, -1.0)) * rng.randrange(1, 2**20) * 5e-324
    if kind == 2:
        return rng.uniform(-1.0, 1.0) * 1.7976931348623157e308
    return rng.gauss(0.0, 1.0) * 10.0 ** rng.randrange(-300, 300)


def test_hypot_of_differences_is_math_dist_bit_for_bit():
    # The euclidean march kernel computes a pair's distance as math.hypot of
    # the coordinate differences, where _gap is math.dist.  CPython computes
    # both as the vector norm of |p_k - q_k|; this pins that they agree.
    rng = random.Random("hypotdist")
    seen = {"inf": 0, "subnormal": 0, "zero": 0}
    for dim in range(1, 18):
        for _ in range(400):
            p = tuple(_float_draw(rng) for _ in range(dim))
            q = tuple(_float_draw(rng) for _ in range(dim))
            want = math.dist(p, q)
            assert math.hypot(*(a - b for a, b in zip(p, q))).hex() == want.hex()
            seen["inf"] += want == math.inf
            seen["subnormal"] += 0.0 < want < 2.2250738585072014e-308
            seen["zero"] += want == 0.0
    assert all(seen.values()), seen


def test_total_sums_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so the left-to-right sum is 0.0; the
    # builtin sum compensates that rounding from Python 3.12 on and gives 1.0.
    assert _total([1e16, 1.0, -1e16]) == 0.0
    assert _total(iter([0.5])) == 0.5


# The k that _march_kernel takes for n = 2, 5, 8 and 31: the largest k <= n
# whose march, holding slots 0..k-1 in locals, fits under the cap; None
# where no k fits and the reference _pair_march runs.  k = n marches
# n-tuples alone, a k < n march serves every n > k, and k = 0 loops over
# every pair.  Euclidean 200 and hyperboloid 120 are dimensions whose k = 0
# march is past the cap; hyperboloid 100, where it fits since the pair step
# is written in md alone, was past it before.
MARCH_SLOTS = {"euclidean-1": (2, 5, 8, 9), "euclidean-2": (2, 5, 8, 7),
               "euclidean-16": (2, 3, 3, 3), "euclidean-120": (0, 0, 0, 0),
               "hyperboloid-2": (2, 5, 4, 4), "hyperboloid-16": (2, 2, 2, 2),
               "hyperboloid-100": (0, 0, 0, 0),
               "euclidean-200": (None,) * 4, "hyperboloid-120": (None,) * 4}


@pytest.mark.parametrize("key", MARCH_SLOTS)
def test_march_kernels_stay_under_the_source_cap(key):
    kind, dim = key.split("-")
    space = make_space(kind, int(dim))
    cls, dim = type(space), space.dim
    for n, k in zip((2, 5, 8, 31), MARCH_SLOTS[key]):
        kernel = _march_kernel(cls, dim, n)
        if k is None:
            assert all(cls._march_source(dim, j, j < n) is None for j in range(n + 1))
            assert kernel.func is _pair_march and kernel.args == (space,)
            continue
        source = cls._march_source(dim, k, k < n)
        assert len(source) <= _MARCH_MAX_SOURCE
        assert kernel is _compile(source, "_march") and kernel.__name__ == "_march"
        # the largest k that fits: n itself, or k + 1 is past the cap
        assert k == n or cls._march_source(dim, k + 1, k + 1 < n) is None


def test_every_n_that_takes_one_k_runs_one_kernel():
    # hyperboloid:2 holds four slots in locals at n = 7 and at n = 8, and
    # both run the one kernel compiled for that march.
    assert _march_kernel(HyperboloidSpace, 2, 7) is _march_kernel(HyperboloidSpace, 2, 8)


# ---------------------------------------------------------------------------
# hyperboloid


def test_hyperboloid_unit_distance():
    # the point reached by a unit-speed geodesic from the apex lies at
    # distance exactly 1
    h1 = HyperboloidSpace(1)
    p = h1.point((1.0, 0.0))
    q = h1.point((math.cosh(1.0), math.sinh(1.0)))
    assert abs(h1.distance(p, q) - 1.0) < 1e-12


def test_hyperboloid_matches_arcosh_reference(hyper):
    worst = 0.0
    for i in range(300):
        rng = _rng(i)
        p = hyper.random_point(rng)
        q = hyper.random_point(rng)
        worst = max(worst, abs(hyper.distance(p, q) - hyperboloid_distance_ref(p.data, q.data)))
    assert worst < 1e-9


def test_hyperboloid_small_distances_are_clean(hyper):
    # the arcosh form loses half the digits near zero; the implementation
    # must not
    p = hyper.point((1.0, 0.0, 0.0))
    rng = _rng("tiny")
    for scale in (1e-6, 1e-9, 1e-12):
        q = hyper.geodesic_point(p, hyper.random_point(rng), 1.0)
        r = hyper.geodesic_point(p, q, scale / hyper.distance(p, q))
        d = hyper.distance(p, r)
        assert abs(d - scale) < 1e-6 * scale + 1e-15


def test_hyperboloid_validates_points(hyper):
    with pytest.raises(GeometryError):
        hyper.point((1.0, 0.0))  # wrong arity
    with pytest.raises(GeometryError):
        hyper.point((-1.0, 0.0, 0.0))  # lower sheet
    with pytest.raises(GeometryError):
        hyper.point((2.0, 0.0, 0.0))  # off the sheet


def test_hyperboloid_accepts_far_points_and_rejects_off_sheet(hyper):
    # <x,x> + 1 rounds at the scale of x0^2 = cosh(10)^2 ~ 1.2e8, so exact
    # points 10 from the apex carry residuals far above an absolute 1e-9
    r = 10.0
    for i in range(200):
        theta = 2.0 * math.pi * _rng(f"far:{i}").random()
        p = hyper.point((math.cosh(r), math.sinh(r) * math.cos(theta), math.sinh(r) * math.sin(theta)))
        assert abs(hyper.distance(hyper.point((1.0, 0.0, 0.0)), p) - r) < 1e-6
    # a time coordinate off by a relative 1e-6 is rejected at the apex and far out
    for dist in (0.0, r):
        with pytest.raises(GeometryError):
            hyper.point((math.cosh(dist) * (1.0 + 1e-6), math.sinh(dist), 0.0))


def test_hyperboloid_checks_the_sheet_where_x0_squared_overflows():
    # a tolerance scaled by an overflowing x0^2 would be inf and accept anything
    space = HyperboloidSpace(2)
    with pytest.raises(GeometryError):
        space.point((1e200, 5.0, 0.0))
    assert space.point((1e150, 1e150, 0.0)).data == (1e150, 1e150, 0.0)
    far = (math.cosh(700.0), math.sinh(700.0), 0.0)
    assert space.point(far).data == far


def _hyperboloid_point_at(hyper, r, rng):
    # A point of hyperboloid:2 r from the apex in a random direction.
    a = rng.uniform(0.0, 2.0 * math.pi)
    x1, x2 = math.sinh(r) * math.cos(a), math.sinh(r) * math.sin(a)
    return hyper.point((math.sqrt(1.0 + x1 * x1 + x2 * x2), x1, x2))


@pytest.mark.parametrize("radii", [(0.0, 3.0), (6.0, 8.0)], ids=["near", "far"])
def test_hyperboloid_geodesic_points_match_the_decimal_reference(hyper, radii):
    # The point at fraction t lies within 1e-13 d of the one a 50-digit
    # blend of the spatial parts gives, near the apex and 6 to 8 from it.
    rng = _rng(f"geodesic-decimal:{radii}")
    worst = 0.0
    for _ in range(200):
        p, q = (_hyperboloid_point_at(hyper, rng.uniform(*radii), rng) for _ in range(2))
        t = rng.random()
        want = hyperboloid_geodesic_decimal(p.data, q.data, t)
        got = hyper.geodesic_point(p, q, t)
        error = hyperboloid_distance_decimal(got.data, want)
        worst = max(worst, error / hyperboloid_distance_decimal(p.data, q.data))
    assert worst <= 1e-13


# The far bound, 7.6e-12, is the worst the sinh-weight step this one replaced
# was measured at 6 to 8 from the apex, where _gap's cancellation of two
# terms of size x0^2 d^2 limits md; on these pairs both steps read about
# 1e-14, and at most 1.6e-12 on 30 other draws of 200.  The distance half of
# ROADMAP item 3 should tighten it.
@pytest.mark.parametrize("radii, bound", [((0.0, 3.0), 1e-13), ((6.0, 8.0), 7.6e-12)],
                         ids=["near", "far"])
def test_hyperboloid_pair_steps_match_the_decimal_reference(hyper, radii, bound):
    # Each end of a pair step, met or moved, lies within bound * d of the one
    # a 50-digit resolvent gives, on fixed-seed pairs near the apex and 6 to
    # 8 from it, with steps on both sides of d/2 but not within 1% of it.
    rng = _rng(f"pair-step-decimal:{radii}")
    worst, met = 0.0, 0
    for _ in range(200):
        p, q = (_hyperboloid_point_at(hyper, rng.uniform(*radii), rng) for _ in range(2))
        d = hyperboloid_distance_decimal(p.data, q.data)
        lam = d * (rng.uniform(0.001, 0.495) if rng.random() < 0.5 else rng.uniform(0.505, 2.0))
        got = pair_resolvent(PointTuple(hyper, (p, q)), 0, 1, lam).coords
        want = hyperboloid_pair_step_decimal(p.data, q.data, lam)
        met += want[0] is want[1]
        for g, w in zip(got, want):
            worst = max(worst, hyperboloid_distance_decimal(g.data, w) / d)
    assert 0 < met < 200
    assert worst <= bound


def test_hyperboloid_sampler_stays_on_sheet(hyper):
    for i in range(200):
        p = hyper.random_point(_rng(i))
        mink = -p.data[0] ** 2 + sum(c * c for c in p.data[1:])
        assert abs(mink + 1.0) < 1e-9


# ---------------------------------------------------------------------------
# trees


def test_tree_star_distance_example(star_tree):
    p = star_tree.point((0, 0.4))
    q = star_tree.point((1, 0.3))
    assert abs(star_tree.distance(p, q) - 0.7) < 1e-15


def test_tree_geodesic_example(star_tree):
    # path length 1.4 through the center; midpoint sits 0.1 from the center
    # on the first edge
    p = star_tree.point((0, 0.8))
    q = star_tree.point((1, 0.6))
    mid = star_tree.geodesic_point(p, q, 0.5)
    assert mid.data[0] == 0
    assert abs(mid.data[1] - 0.1) < 1e-12


def test_tree_distance_matches_path_oracle(star_tree, path_tree):
    for space in (star_tree, path_tree):
        worst = 0.0
        for i in range(300):
            rng = _rng(i)
            a = space.random_point(rng)
            b = space.random_point(rng)
            ref = tree_point_distance(space.topology, a.data, b.data)
            worst = max(worst, abs(space.distance(a, b) - ref))
        assert worst < 1e-12


def test_tree_geodesic_endpoints_are_exact(star_tree):
    rng = _rng("ends")
    p = star_tree.random_point(rng)
    q = star_tree.random_point(rng)
    assert star_tree.geodesic_point(p, q, 0.0) == p
    assert star_tree.geodesic_point(p, q, 1.0) == q


def test_tree_vertex_canonicalization(star_tree):
    # the hub is reachable as offset 0 of all three edges; all spellings
    # collapse to one representative
    reps = {star_tree.point((e, 0.0)) for e in (0, 1, 2)}
    assert len(reps) == 1


def test_tree_rejects_foreign_edges(star_tree):
    # ids are the identity of an edge; a point naming an id this tree does
    # not have cannot be located (overlapping ids are structurally valid)
    foreign = TreeSpace(TreeTopology((TreeEdge(7, 0, 1, 1.0),)))
    p = foreign.point((7, 0.5))
    p2 = foreign.point((7, 0.7))
    q = star_tree.point((0, 0.5))
    with pytest.raises(SpaceMismatchError):
        star_tree.distance(q, p)
    with pytest.raises(SpaceMismatchError):
        star_tree.geodesic_point(q, p, 0.5)
    # also when both points name the same unknown edge, and where the
    # point is only canonicalized
    with pytest.raises(SpaceMismatchError):
        star_tree.distance(p, p2)
    with pytest.raises(SpaceMismatchError):
        star_tree.geodesic_point(p, p2, 0.5)
    with pytest.raises(SpaceMismatchError):
        star_tree.canonicalize(p)
    with pytest.raises(SpaceMismatchError):
        make_subset(star_tree, [p])
    # and where tuples and subsets are built, which the flow kernels trust
    with pytest.raises(SpaceMismatchError):
        PointTuple(star_tree, (q, p))
    with pytest.raises(SpaceMismatchError):
        FiniteSubset(star_tree, (p,))


def test_tree_rejects_bad_offsets(star_tree):
    with pytest.raises(GeometryError):
        star_tree.point((0, -0.1))
    with pytest.raises(GeometryError):
        star_tree.point((0, 1.1))
    with pytest.raises(GeometryError):
        star_tree.point((9, 0.5))
    # a point of another tree whose edge has this id but is longer
    long_leg = TreeSpace(TreeTopology((TreeEdge(0, 0, 1, 5.0),))).point((0, 3.0))
    good = star_tree.point((0, 0.5))
    for bad in (long_leg, Point("tree", (0, -0.1)), Point("tree", (0, math.nan))):
        with pytest.raises(GeometryError):
            PointTuple(star_tree, (bad,))
        with pytest.raises(GeometryError):
            FiniteSubset(star_tree, (bad,))
        # the public methods check the offset too, also on a shared edge
        for p, q in ((bad, good), (good, bad)):
            with pytest.raises(GeometryError):
                star_tree.distance(p, q)
            with pytest.raises(GeometryError):
                star_tree.geodesic_point(p, q, 0.5)


@pytest.mark.parametrize("place", [([0], 0.5), (0, "abc"), (0, None), (0, 10**400),
                                   (0,), (0, 0.5, 1), (0, 5.0), (0, -0.5), (0, math.nan)])
def test_tree_malformed_points_are_geometry_errors(star_tree, place):
    with pytest.raises(GeometryError):
        star_tree.point(place)
    # the same data wrapped as a Point, malformed or off its edge, fails
    # where points enter, and as a GeometryError, not as an error of the
    # arithmetic it would reach; canonicalize is make_subset's one check
    p = Point("tree", place)
    for build in (lambda: PointTuple(star_tree, (p,)), lambda: FiniteSubset(star_tree, (p,)),
                  lambda: star_tree.canonicalize(p), lambda: make_subset(star_tree, [p])):
        with pytest.raises(GeometryError):
            build()


@pytest.mark.parametrize("entry", [
    {"id": "x", "from": 0, "to": 1, "length": 1.0},
    {"id": 0, "from": [0], "to": 1, "length": 1.0},
    {"id": 0, "from": 0, "to": 1, "length": "long"},
    {"id": 0, "from": 0, "to": 1},
    # int() would truncate a fraction and read a boolean as 0 or 1
    {"id": 0.5, "from": 0, "to": 1, "length": 1.0},
    {"id": 0, "from": 0.9, "to": 1, "length": 1.0},
    {"id": 0, "from": 0, "to": 1.5, "length": 1.0},
    {"id": True, "from": 0, "to": 1, "length": 1.0},
    {"id": 0, "from": False, "to": 1, "length": 1.0},
    {"id": 0, "from": 0, "to": True, "length": 1.0},
])
def test_tree_topology_json_rejects_malformed_edges(entry):
    with pytest.raises(GeometryError):
        TreeTopology.from_json([entry])


def test_tree_topology_json_reads_integral_numbers():
    # 1.0 is an integer written as a float; it is no fraction to truncate
    topo = TreeTopology.from_json([{"id": 1.0, "from": 0.0, "to": 2, "length": 1.0}])
    assert topo.edges == (TreeEdge(1, 0, 2, 1.0),)
    assert topo.to_json() == [{"id": 1, "from": 0, "to": 2, "length": 1.0}]


@pytest.mark.parametrize("fields", [
    ("a", 0, 1, 1.0), (0, 0, 1, "1"), (True, 0, 1, 1.0), (0.5, 0, 1, 1.0), (0, False, 1, 1.0),
    (0, 0, 1.0, 1.0), (0, 0, 1, True), (0, 0, 1, None), (0, 0, 1, 10**400), (0, 0, 1, math.nan),
    (0, 0, 1, math.inf), (0, 0, 1, -1.0),
], ids=["text-id", "text-length", "bool-id", "fraction-id", "bool-node", "float-node", "bool-length",
        "none-length", "huge-length", "nan-length", "inf-length", "negative-length"])
def test_tree_edge_rejects_bad_fields(fields):
    # Ids and nodes are ints, not bools or fractions, as from_json reads
    # them, and the length a positive finite real: a GeometryError, not a
    # TypeError when the tree is built, and no bool or fraction accepted.
    with pytest.raises(GeometryError):
        TreeSpace(TreeTopology((TreeEdge(*fields),)))


def test_tree_edge_stores_its_length_as_a_float():
    # So every offset a point of the tree carries is a float, vertex ends too.
    tree = TreeSpace(TreeTopology((TreeEdge(0, 0, 1, 2),)))
    end = tree.point((0, 2))
    assert type(tree.topology.edges[0].length) is float
    assert type(end.data[1]) is float
    PointTuple(tree, (end,))


def test_tree_topology_must_be_a_tree():
    with pytest.raises(GeometryError):  # cycle
        TreeTopology((TreeEdge(0, 0, 1, 1.0), TreeEdge(1, 1, 2, 1.0), TreeEdge(2, 2, 0, 1.0)))
    with pytest.raises(GeometryError):  # disconnected
        TreeTopology((TreeEdge(0, 0, 1, 1.0), TreeEdge(1, 2, 3, 1.0)))
    with pytest.raises(GeometryError):  # duplicate ids
        TreeTopology((TreeEdge(0, 0, 1, 1.0), TreeEdge(0, 1, 2, 1.0)))
    with pytest.raises(GeometryError):  # nonpositive length
        TreeTopology((TreeEdge(0, 0, 1, 0.0),))


# ---------------------------------------------------------------------------
# shared geodesic behavior


@pytest.mark.parametrize("key", SPACE_KEYS)
def test_geodesic_parametrization(all_spaces, key):
    space = all_spaces[key]
    worst = 0.0
    for i in range(200):
        rng = _rng(f"{key}:{i}")
        p = space.random_point(rng)
        q = space.random_point(rng)
        s, t = sorted((rng.random(), rng.random()))
        d = space.distance(p, q)
        xt = space.geodesic_point(p, q, t)
        xs = space.geodesic_point(p, q, s)
        worst = max(worst, abs(space.distance(p, xt) - t * d),
                    abs(space.distance(xs, xt) - (t - s) * d))
    assert worst < 1e-9


@pytest.mark.parametrize("key", SPACE_KEYS)
def test_geodesic_rejects_bad_parameter(all_spaces, key):
    space = all_spaces[key]
    rng = _rng(key)
    p, q = space.random_point(rng), space.random_point(rng)
    for t in (-0.1, 1.1):
        with pytest.raises(GeometryError):
            space.geodesic_point(p, q, t)


@given(t=st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_euclidean_geodesic_is_affine(t):
    space = EuclideanSpace(2)
    p = space.point((1.0, -2.0))
    q = space.point((-3.0, 0.5))
    x = space.geodesic_point(p, q, t)
    for a, b, c in zip(p.data, q.data, x.data):
        assert abs((1.0 - t) * a + t * b - c) < 1e-12


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("key", SPACE_KEYS)
def test_space_json_roundtrip(all_spaces, key):
    space = all_spaces[key]
    assert space_from_json(space.to_json()) == space


@pytest.mark.parametrize("key", SPACE_KEYS)
def test_point_json_roundtrip(all_spaces, key):
    space = all_spaces[key]
    for i in range(25):
        p = space.random_point(_rng(f"{key}:{i}"))
        payload = json.loads(json.dumps(space.point_to_json(p)))
        assert space.point_from_json(payload) == p
        assert point_sort_key(space, p) == json.dumps(space.point_to_json(p), sort_keys=True)


# Values whose JSON text is easy to get wrong: signed zeros, the smallest
# subnormal and normal, where repr switches to an exponent (1e16), large
# powers of ten, inexact fractions, and the largest finite magnitudes.
_KEY_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1e22,
               0.1, 1 / 3, -1 / 3, 1e308, -1e308)


def _key_points(space):
    # Points of space built from _KEY_FLOATS, and on a tree every vertex.
    if isinstance(space, TreeSpace):
        pts = []
        for e in space.topology.edges:
            offsets = [e.length] + [v for v in _KEY_FLOATS if 0.0 <= v <= e.length]
            pts += [space.point((e.id, v)) for v in offsets]
        return pts
    if isinstance(space, HyperboloidSpace):
        return [space.point((math.hypot(1.0, v, w), v, w)) for v in _KEY_FLOATS for w in _KEY_FLOATS]
    return [space.point(c) for c in itertools.product(_KEY_FLOATS, repeat=space.dim)]


@pytest.mark.parametrize("key", SPACE_KEYS + ["caterpillar-tree"])
def test_sort_key_is_the_canonical_json_text(all_spaces, caterpillar_tree, key):
    space = caterpillar_tree if key == "caterpillar-tree" else all_spaces[key]
    pts = _key_points(space)
    assert len(pts) >= 13
    for p in pts:
        assert point_sort_key(space, p) == json.dumps(space.point_to_json(p), sort_keys=True), p


def test_subsets_sort_by_text_not_by_number(caterpillar_tree):
    # Edge ids 2, 10 and 11 sort as text: 10, 11, 2.
    pts = [caterpillar_tree.point((e, 0.3)) for e in (2, 10, 11)]
    a = make_subset(caterpillar_tree, pts)
    assert [p.data[0] for p in a.points] == [10, 11, 2]
    keys = [json.dumps(caterpillar_tree.point_to_json(p), sort_keys=True) for p in a.points]
    assert keys == sorted(keys)


@pytest.mark.parametrize("data", [("a", "b"), (True, 0.0), (1, 0.0), (None, 0.0),
                                  (math.nan, 0.0), (math.inf, 0.0)], ids=repr)
def test_coordinate_points_hold_finite_floats(plane, hyper, data):
    # Only data that point() builds gets past the boundary: text would
    # raise TypeError in the kernels, and True would be read as 1.0.
    for space, d in ((plane, data), (hyper, (1.0,) + data)):
        p = Point(space.kind, d)
        good = space.random_point(_rng(f"floats:{space.kind}"))
        for build in (lambda: PointTuple(space, (p,)), lambda: FiniteSubset(space, (p,)),
                      lambda: space.canonicalize(p), lambda: make_subset(space, [p]),
                      lambda: space.distance(p, good)):
            with pytest.raises(GeometryError):
                build()


@pytest.mark.parametrize("data", [(0, 1), (True, 0.5), (0.0, 0.5), [0, 0.5]], ids=repr)
def test_tree_points_hold_an_int_edge_and_a_float_offset(star_tree, data):
    p = Point("tree", data)
    for build in (lambda: PointTuple(star_tree, (p,)), lambda: FiniteSubset(star_tree, (p,)),
                  lambda: star_tree.canonicalize(p), lambda: make_subset(star_tree, [p])):
        with pytest.raises(GeometryError):
            build()


def test_finite_subset_rejects_a_second_spelling_of_a_vertex(star_tree):
    # (1, 0.0) is the hub, whose canonical form is (0, 0.0).
    with pytest.raises(GeometryError):
        FiniteSubset(star_tree, (Point("tree", (1, 0.0)),))
    assert FiniteSubset(star_tree, (Point("tree", (0, 0.0)),)).points == (star_tree.point((1, 0.0)),)


def test_tree_random_point_draws_edges_by_length(caterpillar_tree):
    # The cumulative lengths are built once; the draws are those of
    # rng.choices with the lengths as weights.
    edges = caterpillar_tree.topology.edges
    got, ref = random.Random(3), random.Random(3)
    for _ in range(3000):
        e = ref.choices(edges, weights=[e.length for e in edges])[0]
        want = caterpillar_tree.point((e.id, ref.uniform(0.0, e.length)))
        assert caterpillar_tree.random_point(got) == want


def test_make_space_rejects_unknown_kind():
    with pytest.raises(GeometryError):
        make_space("spherical", 2)
    with pytest.raises(GeometryError):
        make_space("euclidean", 0)


@pytest.mark.parametrize("obj", [
    [],
    {"dim": 2},
    {"kind": "spherical", "dim": 2},
    {"kind": "euclidean"},
    {"kind": "hyperboloid", "dim": 2.0},
    {"kind": "euclidean", "dim": "2"},
    {"kind": "euclidean", "dim": 0},
    {"kind": "tree"},
    {"kind": "euclidean", "dim": True},
])
def test_space_from_json_rejects_malformed_descriptors(obj):
    with pytest.raises(GeometryError):
        space_from_json(obj)


@pytest.mark.parametrize("cls", [EuclideanSpace, HyperboloidSpace, TreeSpace])
def test_each_backend_binds_the_shared_methods_in_its_class_body(cls):
    # One distance and one geodesic_point for every backend, bound in each
    # class's own body, where per-backend call counters (bench/spans.py)
    # look the public methods up.  The pair step is the module's _pair_step
    # over the kernels, except on the hyperboloid, which writes its own in
    # closed form.
    assert cls.__dict__["distance"] is _distance
    assert cls.__dict__["geodesic_point"] is _geodesic_point
    assert (cls.__dict__["_pair_step"] is _pair_step) == (cls is not HyperboloidSpace)
