import hashlib
import json
import math
import random

import pytest

from subsetflow import (
    EuclideanSpace,
    FiniteSubset,
    FlowConfig,
    GeometryError,
    HyperboloidSpace,
    PointTuple,
    RetractReport,
    TreeEdge,
    TreeSpace,
    TreeTopology,
    hausdorff_distance,
    lipschitz_constant_bound,
    make_subset,
    merge_time,
    pairwise_distances,
    retract,
    to_set,
)
from subsetflow import subset_space
from oracles import hyperboloid_distance_decimal
from test_flow import _exact_flow_inputs, _five_leg_star

# max(4 n^{3/2} + 1, 2 n^2 + sqrt(n)), evaluated once by hand
FROZEN_CONSTANTS = {
    2: 12.313708498984761,
    3: 21.784609690826528,
    4: 34.0,
    5: 52.236067977499786,
}


def line_set(line, *vals):
    return make_subset(line, [line.point((v,)) for v in vals], 0.0)


def test_constant_frozen_values():
    for n, want in FROZEN_CONSTANTS.items():
        assert lipschitz_constant_bound(n) == want


def test_constant_crossover():
    # the cubic-root term wins only for small n; from n = 4 on the
    # quadratic branch takes over
    assert lipschitz_constant_bound(2) == 4.0 * 2**1.5 + 1.0
    assert lipschitz_constant_bound(5) == 2.0 * 25 + 5**0.5


def test_constant_rejects_small_n():
    for n in (1, 2.5, True):
        with pytest.raises(GeometryError):
            lipschitz_constant_bound(n)


def test_retract_two_point_line(line):
    report = retract(line_set(line, 0.0, 1.0), 2)
    assert report.output_cardinality == 1
    assert report.output.points[0].data[0] == 0.5
    assert report.merge_time_used == 0.5


def test_retract_identity_below_bound(line):
    a = line_set(line, 0.0, 1.0)
    report = retract(a, 3)
    assert report.output is a
    assert report.merge_time_used == 0.0
    assert report.output_cardinality == 2


def test_retract_three_point_line(line):
    report = retract(line_set(line, 0.0, 1.0, 10.0), 3)
    assert report.output_cardinality == 2
    got = [p.data[0] for p in report.output.points]
    assert got == pytest.approx([1.0, 9.0], abs=1e-12)


def test_retract_rejects_oversized(line):
    with pytest.raises(GeometryError):
        retract(line_set(line, 0.0, 1.0, 2.0), 2)
    with pytest.raises(GeometryError):
        retract(line_set(line, 0.0, 1.0), 1)
    # a bound that is no integer is bad input too, whether or not the set
    # fills it
    for n in (3.0, 2.5, True):
        with pytest.raises(GeometryError):
            retract(line_set(line, 0.0, 1.0, 2.0), n)


FAR = 700.0  # on the hyperboloid, two points this far out in opposite directions


@pytest.mark.parametrize("space, coords", [
    (EuclideanSpace(1), [(-1e308,), (1e308,)]),
    # every gap is finite; only the spread overflows
    (EuclideanSpace(1), [(-1e308,), (0.0,), (1e308,)]),
    (HyperboloidSpace(1), [(math.cosh(FAR), math.sinh(FAR)), (math.cosh(FAR), -math.sinh(FAR))]),
], ids=["line-pair", "line-spread", "hyperboloid-far"])
def test_retract_rejects_overflowing_distances(space, coords):
    a = make_subset(space, [space.point(c) for c in coords], 0.0)
    with pytest.raises(GeometryError):
        retract(a, len(coords))


def test_retract_distances_just_below_overflow(line):
    # the spread 1.7e308 is still a finite double, so the set retracts
    report = retract(line_set(line, 0.0, 1.0, 1.7e308), 3)
    got = [p.data[0] for p in report.output.points]
    assert got == pytest.approx([1.0, 1.7e308], rel=1e-12)
    assert report.merge_time_used == pytest.approx(0.5, abs=5e-4)


@pytest.mark.parametrize("key", ["euclidean-2", "hyperboloid-2", "star-tree"])
def test_retract_drops_cardinality(all_spaces, key):
    space = all_spaces[key]
    for i in range(20):
        rng = random.Random(f"rcard:{key}:{i}")
        n = rng.randint(2, 5)
        a = make_subset(space, [space.random_point(rng) for _ in range(n)], 1e-6)
        if len(a) < n:
            continue
        report = retract(a, n)
        assert report.input_cardinality == n
        assert report.output_cardinality <= n - 1
        assert report.output_cardinality >= 1


@pytest.mark.parametrize("key", ["euclidean-2", "hyperboloid-2", "star-tree"])
def test_retract_stays_near_input(all_spaces, key):
    # the merged set sits within the march horizon of the input: every
    # coordinate travels at most (n-1) * t* <= (n-1) * delta/2
    space = all_spaces[key]
    for i in range(20):
        rng = random.Random(f"rnear:{key}:{i}")
        n = rng.randint(2, 5)
        a = make_subset(space, [space.random_point(rng) for _ in range(n)], 1e-6)
        if len(a) < n:
            continue
        report = retract(a, n)
        horizon = (n - 1) * report.merge_time_used * (1.0 + 1e-9)
        assert hausdorff_distance(report.input, report.output) <= horizon + 1e-9


def test_report_json_keys(line):
    report = retract(line_set(line, 0.0, 1.0), 2)
    payload = json.loads(json.dumps(report.to_json()))
    assert set(payload) == {
        "input", "output", "merge_time_used", "input_cardinality", "output_cardinality",
    }
    assert payload["merge_time_used"] == 0.5
    assert payload["input_cardinality"] == 2
    assert payload["output_cardinality"] == 1


def test_report_roundtrips_subset(line):
    from subsetflow import FiniteSubset
    report = retract(line_set(line, 0.0, 1.0, 10.0), 3)
    back = FiniteSubset.from_json(json.loads(json.dumps(report.to_json()))["output"])
    assert back == report.output


def test_retract_respects_config(line):
    # a coarse merge tolerance folds the trailing residual gap sooner
    report = retract(line_set(line, 0.0, 1.0, 10.0), 3, FlowConfig(merge_tolerance=1e-2))
    assert report.output_cardinality == 2
    assert report.merge_time_used <= 0.5 * (1.0 + 1e-3)


def _golden_set(space, n, rng):
    # n seeded points built through space.point, not the space's own sampler
    if isinstance(space, EuclideanSpace):
        return make_subset(space, [space.point((rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)))
                                   for _ in range(n)])
    if isinstance(space, HyperboloidSpace):
        pts = []
        for k in range(n):
            # every other point lies 6 to 7.9 from the apex
            r = rng.uniform(6.0, 7.9) if k % 2 else rng.uniform(0.0, 2.5)
            a = rng.uniform(0.0, 2.0 * math.pi)
            x1, x2 = math.sinh(r) * math.cos(a), math.sinh(r) * math.sin(a)
            pts.append(space.point((math.sqrt(1.0 + x1 * x1 + x2 * x2), x1, x2)))
        return make_subset(space, pts)
    edges = space.topology.edges
    picks = rng.choices(edges, weights=[e.length for e in edges], k=n)
    return make_subset(space, [space.point((e.id, rng.uniform(0.0, e.length))) for e in picks])


# sha256 of the sorted-key JSON of retract's report, as the code printed it
# before the flow ran on bare coordinate tuples; the caterpillar entries as
# the exact tree flow prints them, each merging at delta/2, where its closest
# pair meets at closing speed 2 (test_golden_caterpillar_merges_at_half_gap)
GOLDEN_RETRACTS = {
    ("euclidean-2", 6):
        "1e24ba784e3b1c18d217aa3ca1def851fc8e96d8270ce5262840b50a2fa89c9b",
    ("euclidean-2", 7):
        "7371ce4a5a354e09488323e8b61b1d7e927f0c4c1f150444196dd36ab0696998",
    ("euclidean-2", 8):
        "423e4a27792c6ed218a9a355df821ce2269067a9215d4c7c1ae9b87310b9dd40",
    ("hyperboloid-2", 6):
        "e0e831653feae4609c7591a595026882dcecb9e9608be2015f14e6eb370ede13",
    ("hyperboloid-2", 7):
        "fc37b224e0de0e7cfb9c0f3347df742628ba6ca4d3a3b26b1b9dbb8f062a2097",
    ("hyperboloid-2", 8):
        "dc9e001803f5a1a399c9520708fddca62c444b3b04fb77bf7a6df5bd236289d4",
    ("caterpillar", 6):
        "5c4265c18f785a4b1c56bbe00f1f5902e77b5959a7d0468da66b2f9f4d7fc883",
    ("caterpillar", 7):
        "30566b5da22ef90b08c6fd973d3d8673b0e2297927466196010180f513528585",
    ("caterpillar", 8):
        "ba8940a4cd72b17bfad0b0d00cf3b4edd6299ec194a3da957d2cba523e6c676c",
}


@pytest.mark.parametrize("key, n", sorted(GOLDEN_RETRACTS))
def test_golden_retract_bytes_large_n(all_spaces, caterpillar_tree, key, n):
    space = caterpillar_tree if key == "caterpillar" else all_spaces[key]
    a = _golden_set(space, n, random.Random(f"golden:{key}:{n}"))
    assert len(a) == n
    report = retract(a, n)
    assert report.output_cardinality < n
    out = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_RETRACTS[key, n]


@pytest.mark.parametrize("n", [6, 7, 8])
def test_golden_caterpillar_merges_at_half_gap(caterpillar_tree, n):
    # The closed form behind the caterpillar digests: no third point reaches
    # the closest pair first, so it meets at delta/2.
    a = _golden_set(caterpillar_tree, n, random.Random(f"golden:caterpillar:{n}"))
    delta = min(pairwise_distances(caterpillar_tree, a.points))
    assert retract(a, n).merge_time_used == pytest.approx(delta / 2.0, rel=1e-12)


def test_retract_readme_star_closed_form(star_tree):
    # The README's star run: every point heads for the hub at speed 2.  The
    # point at 0.3 gets there at t = 0.15 and stays (one other on each leg),
    # the point at 0.4 meets it at t = 0.2, and the third has come in to 0.8.
    a = make_subset(star_tree, [star_tree.point(p) for p in ((0, 0.4), (1, 0.3), (2, 1.2))])
    report = retract(a, 3)
    assert report.merge_time_used == pytest.approx(0.2, abs=1e-12)
    (hub, hub_offset), (leg, offset) = (p.data for p in report.output.points)
    assert (hub, hub_offset) == (0, 0.0)
    assert leg == 2 and offset == pytest.approx(0.8, abs=1e-12)


def test_tree_retract_keeps_a_point_that_does_not_meet():
    # On a two-edge path the points at 0.2 and 0.6 meet at t = 0.2, while
    # the third, eps*delta beyond the middle vertex, is still eps*delta from
    # them: it has not met the pair, so it stays a point of its own.
    path = TreeSpace(TreeTopology((TreeEdge(0, 0, 1, 1.0), TreeEdge(1, 1, 2, 1.0))))
    eps, delta = 1e-8, 0.4
    a = make_subset(path, [path.point(p) for p in ((0, 0.2), (0, 0.6), (1, eps * delta))])
    report = retract(a, 3)
    assert report.merge_time_used == pytest.approx(0.2, abs=1e-12)
    assert report.output_cardinality == 2
    assert sorted(p.data[1] for p in report.output.points) == pytest.approx(
        [0.6, 0.6 + eps * delta], abs=1e-15)


def test_tree_retract_ignores_merge_tolerance(star_tree):
    # The points at 0.5 meet at the hub at t = 0.25; the third has come in
    # to 0.1, which a merge tolerance of 0.5 times delta = 1 would swallow.
    a = make_subset(star_tree, [star_tree.point(p) for p in ((0, 0.5), (1, 0.5), (2, 0.6))])
    for cfg in (FlowConfig(), FlowConfig(merge_tolerance=0.5)):
        (hub, hub_offset), (leg, offset) = (p.data for p in retract(a, 3, cfg).output.points)
        assert (hub, hub_offset) == (0, 0.0)
        assert leg == 2 and offset == pytest.approx(0.1, abs=1e-12)


def test_tree_retract_commutes_with_leg_permutations():
    # Permuting the legs of an equal star is an isometry g, so the exact
    # flow gives r(gA) = g r(A) whatever order either set's points come in.
    star = TreeSpace(TreeTopology(tuple(TreeEdge(i, 0, i + 1, 1.0) for i in range(5))))
    rng = random.Random("leg-permutations")

    def moved(g, subset):
        return make_subset(star, [star.point((g[p.data[0]], p.data[1])) for p in subset.points])

    trials = 0
    while trials < 300:
        n = rng.randint(3, 5)
        a = make_subset(star, [star.random_point(rng) for _ in range(n)])
        if len(a) < n:
            continue
        trials += 1
        g = list(range(5))
        rng.shuffle(g)
        delta = min(pairwise_distances(star, a.points))
        gap = hausdorff_distance(retract(moved(g, a), n).output, moved(g, retract(a, n).output))
        assert gap <= 1e-12 * delta, (trials, a, g)


def _tree_retract_cases(trees):
    # Distinct canonical sets on each tree, in _exact_flow_inputs' three
    # families: random points, some on a vertex; n legs at one depth; mirrored
    # pairs with the odd one out at the hub.
    for name, tree, ns, count in trees:
        rng = random.Random(f"treeretract:{name}")
        for k in range(count):
            n = rng.choice(ns)
            a = make_subset(tree, [tree.point(d) for d in _exact_flow_inputs(tree, rng, n, k % 3)])
            assert len(a) == n
            yield a, n


def test_tree_retract_is_the_set_where_the_flow_stops(star_tree, caterpillar_tree):
    # The output is built from the distinct Points of merge_time's state,
    # sorted, with no clustering: the subset to_set builds from that state
    # at tolerance 0, bit for bit.  Five legs at one depth meet at the hub
    # five at once and leave one point.
    trees = (("star", star_tree, (2, 3), 1000), ("caterpillar", caterpillar_tree, (3, 4, 6, 8), 1000),
             ("five-leg", _five_leg_star(), (3, 4, 5), 1000))
    checked = five_way = 0
    for a, n in _tree_retract_cases(trees):
        t_star, merged = merge_time(PointTuple(a.space, a.points), FlowConfig())
        want = to_set(merged, 0.0)
        report = retract(a, n)
        assert repr(report.output.points) == repr(want.points), a
        assert report.merge_time_used == t_star
        assert FiniteSubset(a.space, report.output.points) == report.output
        checked += 1
        five_way += n == 5 and len(want) == 1
    assert checked == 3000
    assert five_way >= 50


def test_tree_retract_runs_no_clustering_and_no_json(star_tree, caterpillar_tree, monkeypatch):
    trees = (("star", star_tree, (3,), 30), ("caterpillar", caterpillar_tree, (6, 8), 30),
             ("five-leg", _five_leg_star(), (5,), 30))
    cases = [(a, n, retract(a, n).output) for a, n in _tree_retract_cases(trees)]

    def refuse(*args, **kwargs):
        raise AssertionError("a tree retract clustered or encoded JSON")

    monkeypatch.setattr(subset_space, "_clusters", refuse)
    monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse)
    for a, n, want in cases:
        assert retract(a, n).output == want


def _plane_isometry(rng):
    # A rotation, a reflection x -> -x half the time, and a translation.
    a = rng.uniform(0.0, 2.0 * math.pi)
    c, s, f = math.cos(a), math.sin(a), rng.choice((1.0, -1.0))
    tx, ty = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    return lambda v: (f * (c * v[0] - s * v[1]) + tx, f * (s * v[0] + c * v[1]) + ty)


def _hyperboloid_isometry(rng):
    # A boost of rapidity up to 2 along x1, then a spatial rotation; x0 is
    # derived from the spatial part the two leave.
    phi, a = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0 * math.pi)
    ch, sh, c, s = math.cosh(phi), math.sinh(phi), math.cos(a), math.sin(a)

    def g(v):
        x1, x2 = sh * v[0] + ch * v[1], v[2]
        y1, y2 = c * x1 - s * x2, s * x1 + c * x2
        return (math.sqrt(1.0 + y1 * y1 + y2 * y2), y1, y2)

    return g


@pytest.mark.parametrize("key", ["euclidean-2", "hyperboloid-2"])
def test_two_point_retract_commutes_with_isometries(all_spaces, key):
    # r(gA) = g r(A) for every isometry g: two points retract to their
    # midpoint, and g maps midpoints to midpoints.
    space = all_spaces[key]
    draw = _plane_isometry if key == "euclidean-2" else _hyperboloid_isometry
    rng = random.Random(f"twopointisometry:{key}")

    def moved(g, subset):
        return make_subset(space, [space.point(g(p.data)) for p in subset.points])

    for trial in range(300):
        a = make_subset(space, [space.random_point(rng) for _ in range(2)])
        g = draw(rng)
        delta = min(pairwise_distances(space, a.points))
        gap = hausdorff_distance(retract(moved(g, a), 2).output, moved(g, retract(a, 2).output))
        assert gap <= 1e-9 * delta, (trial, a)


@pytest.mark.xfail(strict=True, reason="known defect (ROADMAP item 3): 17 and 18 from the apex "
                   "_gap cancels, so the pair meets at t = 0.505, 0.606 and 0.394 from its points")
def test_far_hyperboloid_pair_meets_at_its_midpoint():
    # Two points on one ray, 17 and 18 from the apex, 1 apart.
    hyper = HyperboloidSpace(2)
    p, q = (hyper.point((math.cosh(r), math.sinh(r) * math.cos(0.3), math.sinh(r) * math.sin(0.3)))
            for r in (17.0, 18.0))
    report = retract(make_subset(hyper, [p, q]), 2)
    (mid,) = report.output.points
    assert report.merge_time_used == pytest.approx(0.5, abs=1e-6)
    assert abs(hyperboloid_distance_decimal(mid.data, p.data)
               - hyperboloid_distance_decimal(mid.data, q.data)) <= 1e-6


def _polygon3_twin(plane, scale_first):
    # The near-tie benchmark's polygon3 twin: an equilateral triangle with
    # circumradius 1, centred at (0.3, 0.1) and rotated by 0.2, its first
    # vertex's radius scaled by scale_first.
    pts = []
    for k in range(3):
        r = scale_first if k == 0 else 1.0
        a = 0.2 + 2.0 * math.pi * k / 3
        pts.append(plane.point((0.3 + r * math.cos(a), 0.1 + r * math.sin(a))))
    return make_subset(plane, pts, 0.0)


@pytest.mark.xfail(strict=True, reason="known defect (ROADMAP item 1, defect A): the numbering "
                   "jumps where two gaps tie, so the ratio is about 330 at 1e-6 and 3.3e5 at 1e-9")
@pytest.mark.parametrize("eps", [1e-6, 1e-9])
def test_equilateral_twins_keep_the_lipschitz_bound(eps):
    plane = EuclideanSpace(2)
    lo, hi = _polygon3_twin(plane, 1.0 - eps), _polygon3_twin(plane, 1.0 + eps)
    moved = hausdorff_distance(retract(lo, 3).output, retract(hi, 3).output)
    assert moved / hausdorff_distance(lo, hi) <= lipschitz_constant_bound(3)
