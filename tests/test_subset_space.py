import functools
import json
import math
import operator
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
    hausdorff_distance,
    make_subset,
    max_spread,
    min_gap,
    order_tuple,
    pairwise_distances,
    product_distance,
    to_set,
)
from subsetflow import subset_space
from oracles import brute_hausdorff

SPACE_KEYS = ["euclidean-1", "euclidean-2", "hyperboloid-2", "star-tree", "path-tree"]


def _rng(i):
    return random.Random(f"settest:{i}")


def line_set(space, *vals, tol=0.0):
    return make_subset(space, [space.point((v,)) for v in vals], tol)


def line_tuple(space, *vals):
    return PointTuple(space, tuple(space.point((v,)) for v in vals))


# ---------------------------------------------------------------------------
# construction and canonical form


def test_make_subset_sorts_and_dedups(line):
    a = line_set(line, 6.0, 5.0, 0.0)
    assert [p.data[0] for p in a.points] == [0.0, 5.0, 6.0]
    b = make_subset(line, [line.point((1.0,)), line.point((1.0,))], 0.0)
    assert len(b) == 1


def test_constructor_rejects_non_canonical(line):
    pts = (line.point((3.0,)), line.point((1.0,)))
    with pytest.raises(GeometryError):
        FiniteSubset(line, pts)
    near = (line.point((0.0,)), line.point((1e-12,)))
    with pytest.raises(GeometryError):
        FiniteSubset(line, near, dedup_tolerance=1e-9)


def test_nan_dedup_tolerance_is_rejected(line):
    # not nan >= 0, so neither builder stores it
    pts = (line.point((0.0,)), line.point((1.0,)))
    with pytest.raises(GeometryError):
        make_subset(line, pts, math.nan)
    with pytest.raises(GeometryError):
        FiniteSubset(line, pts, math.nan)


@given(key=st.sampled_from(SPACE_KEYS), seed=st.integers(0, 10_000), n=st.integers(1, 6),
       tol=st.sampled_from([0.0, 1e-9, 0.05, 0.3]))
@settings(max_examples=100, deadline=None)
def test_make_subset_output_passes_the_constructor(all_spaces, key, seed, n, tol):
    # make_subset skips the constructor's order check, having sorted by the
    # same keys; the public constructor, given its points, accepts them and
    # builds an equal subset
    space = all_spaces[key]
    rng = random.Random(seed)
    pts = [space.random_point(rng) for _ in range(n)]
    pts += [rng.choice(pts) for _ in range(rng.randint(0, 2))]
    out = make_subset(space, pts, tol)
    again = FiniteSubset(space, out.points, out.dedup_tolerance)
    assert again == out
    assert again.points == out.points and again.dedup_tolerance == tol


@pytest.mark.parametrize("key", SPACE_KEYS)
def test_to_set_of_a_shared_point_clusters_once(all_spaces, key, monkeypatch):
    # Two slots share one point, as the pair that met does after merge_time:
    # its fold returns that point, so the one _clusters pass has compared
    # every pair of the subset's points already.
    space = all_spaces[key]
    rng = random.Random(f"shared:{key}")
    p, q = space.random_point(rng), space.random_point(rng)
    calls = []
    clusters = subset_space._clusters
    monkeypatch.setattr(subset_space, "_clusters",
                        lambda *args: calls.append(args) or clusters(*args))
    out = to_set(PointTuple(space, (p, p, q)), 0.0)
    assert len(calls) == 1
    assert out == make_subset(space, [p, q], 0.0) and len(out) == 2


def test_non_point_coordinates_are_a_space_mismatch():
    # PointTuple and FiniteSubset are where kinds are checked: the flow
    # kernels trust them, so a bare coordinate tuple must not get through.
    plane = EuclideanSpace(2)
    with pytest.raises(SpaceMismatchError):
        PointTuple(plane, ((1.0, 2.0),))
    with pytest.raises(SpaceMismatchError):
        FiniteSubset(plane, ((1.0, 2.0),))
    with pytest.raises(SpaceMismatchError):
        PointTuple(plane, (plane.point((0.0, 0.0)), HyperboloidSpace(1).point((1.0, 0.0))))


def test_empty_subset_rejected(line):
    with pytest.raises(GeometryError):
        make_subset(line, [], 0.0)


def test_to_set_dedup_example(line):
    x = line_tuple(line, 0.0, 1.0, 1.0 + 1e-12)
    a = to_set(x, 1e-9)
    assert [p.data[0] for p in a.points] == pytest.approx([0.0, 1.0], abs=1e-9)


def test_to_set_chained_cluster(line):
    # 0, eps, 2eps chain into one cluster under tol = 1.5 eps; the folded
    # representative is mid(mid(0, eps), 2eps) = 1.25 eps
    eps = 1e-3
    x = line_tuple(line, 0.0, eps, 2 * eps, 10.0)
    a = to_set(x, 1.5 * eps)
    assert len(a) == 2
    assert a.points[0].data[0] == pytest.approx(1.25 * eps, rel=1e-12)
    assert a.points[1].data[0] == 10.0


def test_to_set_tol_zero_keeps_distinct(line):
    x = line_tuple(line, 0.0, 1.0, 3.0)
    assert len(to_set(x, 0.0)) == 3


def test_to_set_places_a_tree_vertex_in_its_canonical_form(star_tree):
    # A tuple may hold a vertex written on another edge than its canonical
    # one: the hub, node 0, is canonical on edge 0.  to_set checks no point,
    # but builds the subset make_subset builds, which the constructor takes.
    x = PointTuple(star_tree, (Point("tree", (2, 0.0)), star_tree.point((1, 0.5))))
    out = to_set(x, 0.0)
    assert out == make_subset(star_tree, x.coords, 0.0) == FiniteSubset(star_tree, out.points)
    assert out.points[0].data == (0, 0.0)
    for tol in (-1.0, math.nan):
        with pytest.raises(GeometryError):
            to_set(x, tol)


def test_subset_json_roundtrip(all_spaces):
    for key in SPACE_KEYS:
        space = all_spaces[key]
        rng = _rng(key)
        pts = [space.random_point(rng) for _ in range(4)]
        a = make_subset(space, pts, 1e-9)
        assert FiniteSubset.from_json(json.loads(json.dumps(a.to_json()))) == a


# ---------------------------------------------------------------------------
# metrics


def test_hausdorff_examples(line):
    assert hausdorff_distance(line_set(line, 0.0), line_set(line, 1.0)) == 1.0
    a = line_set(line, 0.0)
    b = line_set(line, 0.0, 1.0)
    assert hausdorff_distance(a, b) == 1.0
    assert hausdorff_distance(b, b) == 0.0


def test_hausdorff_space_mismatch(line, plane):
    with pytest.raises(GeometryError):
        hausdorff_distance(line_set(line, 0.0), make_subset(plane, [plane.point((0.0, 0.0))], 0.0))


@pytest.mark.parametrize("key", SPACE_KEYS)
def test_hausdorff_matches_brute_force(all_spaces, key):
    space = all_spaces[key]
    for i in range(30):
        rng = _rng(f"{key}:{i}")
        a = make_subset(space, [space.random_point(rng) for _ in range(rng.randint(1, 4))], 0.0)
        b = make_subset(space, [space.random_point(rng) for _ in range(rng.randint(1, 4))], 0.0)
        assert hausdorff_distance(a, b) == pytest.approx(
            brute_hausdorff(space, a.points, b.points), abs=1e-14)


def test_product_distance_pythagorean(line):
    x = line_tuple(line, 0.0, 0.0)
    y = line_tuple(line, 3.0, 4.0)
    assert product_distance(x, y) == 5.0
    assert product_distance(x, x) == 0.0


def test_product_distance_sums_left_to_right(line):
    # Squares 1, 1e-16, 4e-16, 9e-16 and 16e-16: summed left to right each
    # small one rounds against 1, while a compensated sum (the builtin sum
    # from Python 3.12 on) keeps what they round off, and the distance's
    # last bits differ.
    x = line_tuple(line, 0.0, 0.0, 0.0, 0.0, 0.0)
    y = line_tuple(line, 1.0, 1e-8, 2e-8, 3e-8, 4e-8)
    squares = [(q.data[0] - p.data[0]) ** 2 for p, q in zip(x.coords, y.coords)]
    left = math.sqrt(functools.reduce(operator.add, squares))
    assert left != math.sqrt(math.fsum(squares))
    assert product_distance(x, y) == left


def test_product_distance_length_mismatch(line):
    with pytest.raises(GeometryError):
        product_distance(line_tuple(line, 0.0), line_tuple(line, 0.0, 1.0))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_product_dominates_hausdorff(seed):
    space = EuclideanSpace(2)
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    x = PointTuple(space, tuple(space.random_point(rng) for _ in range(n)))
    y = PointTuple(space, tuple(space.random_point(rng) for _ in range(n)))
    assert hausdorff_distance(to_set(x, 0.0), to_set(y, 0.0)) <= product_distance(x, y) + 1e-12


# ---------------------------------------------------------------------------
# gap statistics


def test_gap_examples(line):
    x = line_tuple(line, 0.0, 1.0, 3.0)
    assert min_gap(x) == 1.0
    assert max_spread(x) == 3.0
    rep = line_tuple(line, 2.0, 2.0)
    assert min_gap(rep) == 0.0
    assert max_spread(rep) == 0.0


def test_gap_star_tree_example(star_tree):
    x = PointTuple(star_tree, (
        star_tree.point((0, 0.4)),
        star_tree.point((1, 0.3)),
        star_tree.point((2, 0.9)),
    ))
    # pairwise path lengths 0.7, 1.3, 1.2
    assert min_gap(x) == pytest.approx(0.7, abs=1e-15)
    assert max_spread(x) == pytest.approx(1.3, abs=1e-15)


def test_gap_needs_two(line):
    with pytest.raises(GeometryError):
        min_gap(line_tuple(line, 1.0))
    with pytest.raises(GeometryError):
        max_spread(line_tuple(line, 1.0))


# ---------------------------------------------------------------------------
# pairwise distances / order_tuple / roundtrip


def test_pairwise_distances_in_combinations_order(line):
    pts = [line.point((v,)) for v in (0.0, 1.0, 3.0, 7.0)]
    assert pairwise_distances(line, pts) == [1.0, 3.0, 7.0, 2.0, 6.0, 4.0]
    assert pairwise_distances(line, pts[:1]) == []


def test_order_tuple_min_gap_first(line):
    a = line_set(line, 0.0, 5.0, 6.0)
    x = order_tuple(a, 3)
    assert [p.data[0] for p in x.coords] == [5.0, 6.0, 0.0]


def test_order_tuple_pads_with_last(line):
    a = line_set(line, 4.0)
    x = order_tuple(a, 3)
    assert [p.data[0] for p in x.coords] == [4.0, 4.0, 4.0]


def test_order_tuple_rejects_a_length_that_is_no_count(line):
    a = line_set(line, 0.0, 1.0)
    for pad_to in (1, 0, 3.5, 3.0, True):
        with pytest.raises(GeometryError):
            order_tuple(a, pad_to)


def test_order_tuple_tie_puts_first_tied_pair_first(line):
    # both gaps of {0, 1, 2} are exactly 1; the pair (0, 1) comes first in
    # (i, j) order, so it is numbered first
    x = order_tuple(line_set(line, 2.0, 0.0, 1.0), 3)
    assert [p.data[0] for p in x.coords] == [0.0, 1.0, 2.0]


def test_order_tuple_tie_break_deterministic(plane):
    # equilateral triangle: every pair realizes the min gap; the numbering
    # must still be a function of the set alone
    import math
    pts = [plane.point((math.cos(a), math.sin(a))) for a in (0.0, 2.0943951023931953, 4.1887902047863905)]
    a = make_subset(plane, pts, 0.0)
    x1 = order_tuple(a, 3)
    x2 = order_tuple(make_subset(plane, list(reversed(pts)), 0.0), 3)
    assert x1 == x2
    assert plane.distance(x1.coords[0], x1.coords[1]) == pytest.approx(min_gap(x1), abs=1e-12)


@pytest.mark.parametrize("key", SPACE_KEYS)
def test_order_tuple_first_pair_realizes_min_gap(all_spaces, key):
    space = all_spaces[key]
    for i in range(30):
        rng = _rng(f"order:{key}:{i}")
        a = make_subset(space, [space.random_point(rng) for _ in range(4)], 1e-6)
        if len(a) < 2:
            continue
        x = order_tuple(a, len(a))
        d01 = space.distance(x.coords[0], x.coords[1])
        assert d01 == pytest.approx(min_gap(x), abs=1e-12)


@pytest.mark.parametrize("key", SPACE_KEYS)
def test_set_tuple_roundtrip(all_spaces, key):
    space = all_spaces[key]
    for i in range(30):
        rng = _rng(f"rt:{key}:{i}")
        a = make_subset(space, [space.random_point(rng) for _ in range(rng.randint(1, 5))], 1e-6)
        assert to_set(order_tuple(a, 5), 0.0) == a


def test_tuple_json_roundtrip(line):
    x = line_tuple(line, 0.0, 2.0, 1.0)  # tuples keep their numbering
    back = PointTuple.from_json(json.loads(json.dumps(x.to_json())))
    assert back == x


@pytest.mark.parametrize("cls, field, value", [
    (FiniteSubset, "points", 5),
    (FiniteSubset, "points", None),
    (FiniteSubset, "points", {"x": 1.0}),
    (FiniteSubset, "points", []),
    (PointTuple, "coords", None),
    (PointTuple, "coords", 5),
    (PointTuple, "coords", "00"),
    (PointTuple, "coords", []),
])
def test_from_json_rejects_a_field_that_is_no_array_of_points(cls, field, value):
    with pytest.raises(GeometryError):
        cls.from_json({"space": {"kind": "euclidean", "dim": 1}, field: value})
