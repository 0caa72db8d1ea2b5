"""Points are checked once, where they enter the library, and never again inside it.

The public constructors (``PointTuple``, ``FiniteSubset``), ``make_subset``,
a space's ``point()`` and every other public entry that takes a caller's
point are the boundary, and each admits a point through the one check its
space makes (``_check_point``).  What the library builds from
points it holds checked (the flow's results, ``order_tuple``'s tuple, a
retract's input tuple and output set, ``to_set``'s subset, the sampled
tuples and subsets, a perturbed subset) is built past the constructors'
checks, so it must be what they would accept.
"""

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
    Point,
    PointTuple,
    ScanConfig,
    TreeEdge,
    TreeSpace,
    TreeTopology,
    bound_suite,
    convergence_study,
    flow_adaptive,
    full_resolvent_oracle,
    hausdorff_distance,
    lipschitz_scan,
    make_subset,
    merge_time,
    min_gap,
    order_tuple,
    pair_resolvent,
    pairwise_distances,
    product_distance,
    retract,
    splitting_flow,
    sweep,
    to_set,
)
from subsetflow import verify
from subsetflow.cli import main
from subsetflow.flow import oracle_supports
from subsetflow.geometry import point_sort_key
from subsetflow.subset_space import _merge
from subsetflow.verify import (check_retract_contracts, perturb_point, perturb_subset,
                               sample_subset, sample_tuple)

SPACE_KEYS = ["euclidean-1", "euclidean-2", "hyperboloid-2", "star-tree", "path-tree"]
CFG = FlowConfig(sweeps_per_run=32, max_doublings=2)


def _rng(label):
    return random.Random(f"boundary:{label}")


def _count_checks(monkeypatch, space):
    """The list each _check_point call of space's class appends to."""
    calls = []
    check = type(space)._check_point
    monkeypatch.setattr(type(space), "_check_point",
                        lambda self, p: calls.append(p) or check(self, p))
    return calls


@pytest.mark.parametrize("key", SPACE_KEYS + ["hyperboloid-1"])
def test_the_library_checks_no_point_it_built(all_spaces, key, monkeypatch):
    # hyperboloid:1 merges as the line does, in arclength
    space = all_spaces.get(key) or HyperboloidSpace(1)
    rng = _rng(f"count:{key}")
    cases = []
    for i in range(40):
        n = 2 + i % 4
        cases.append((n, sample_subset(space, n, rng), sample_tuple(space, n, rng)))
    calls = _count_checks(monkeypatch, space)
    for n, a, x in cases:
        t = 0.25 * min_gap(x)
        for run in (lambda: order_tuple(a, n + 1), lambda: merge_time(x, CFG),
                    lambda: splitting_flow(x, t, 8), lambda: sweep(x, t / 8),
                    lambda: pair_resolvent(x, 0, n - 1, t), lambda: flow_adaptive(x, t, CFG)):
            run()
            assert calls == []
        # point() checks each point once, as it reads it, and nothing checks
        # it again: a payload that lists a point twice reads it twice
        payload = a.to_json()
        payload["points"].append(payload["points"][-1])
        for read, want, points in ((lambda: PointTuple.from_json(x.to_json()), x, x.coords),
                                   (lambda: FiniteSubset.from_json(a.to_json()), a, a.points),
                                   (lambda: FiniteSubset.from_json(payload), a,
                                    a.points + a.points[-1:])):
            assert read() == want
            assert calls == list(points)
            calls.clear()
        # merges of checked points (one with a repeat, one folding every
        # point) fold on the kernels
        assert _merge(space, [*a.points, a.points[0]], 0.0) == a
        assert len(_merge(space, list(a.points), math.inf)) == 1
        assert calls == []
        # set in, set out on every backend: the points the flow built become
        # a set (by to_set after a march, else as they are) with no check
        retract(a, n, CFG)
        assert calls == []
    # A scan measures the subsets it sampled on the kernels: the smallest
    # gap that scales a perturbed trial's step, and a contract's; every
    # trial runs here, where the calls are counted.
    monkeypatch.setattr(verify, "_stays_in_process", lambda: True)
    for n in range(2, 6):
        lipschitz_scan(ScanConfig(space, n, 2, n, CFG))
        check_retract_contracts(space, n, n, 2, CFG)
    assert calls == []


@pytest.mark.parametrize("helper", ["sample_subset", "perturb_subset", "hausdorff_distance"])
@pytest.mark.parametrize("key", SPACE_KEYS)
def test_the_scan_helpers_check_no_point(all_spaces, key, helper, monkeypatch):
    # A scan's sampled subsets, their perturbations and the Hausdorff gaps
    # between them run on points the library built or holds checked.
    space = all_spaces[key]
    rng = _rng(f"scan:{key}")
    sets = [sample_subset(space, 1 + i % 5, rng) for i in range(40)]
    runs = {
        "sample_subset": lambda a: sample_subset(space, len(a), rng),
        "perturb_subset": lambda a: perturb_subset(a, 0.05, rng),
        "hausdorff_distance": lambda a: hausdorff_distance(a, sets[-1]),
    }
    calls = _count_checks(monkeypatch, space)
    for a in sets:
        runs[helper](a)
    assert calls == []


def _adversarial_sets(space, rng):
    """Point lists: random, at scales 1e-6 and 1e3, far from the hyperboloid's
    apex (up to 7.9), on tree vertices and next to them, and at one depth on
    legs of a star, which the flow takes to the hub together."""
    if isinstance(space, TreeSpace):
        edges = space.topology.edges
        legs = [e for e in edges if e.from_node == edges[0].from_node]
        shortest = min(e.length for e in legs)
        for k in range(2, len(legs) + 1):
            for depth in (0.5, 1e-6, rng.uniform(0.0, 1.0)):
                yield [space.point((e.id, depth * shortest)) for e in legs[:k]]
        for _ in range(30):
            n = rng.randint(2, 5)
            pts = []
            for _ in range(n):
                e = rng.choice(edges)
                offset = rng.choice((0.0, e.length, rng.uniform(0.0, e.length),
                                     min(1e-6 * rng.random(), e.length),
                                     e.length - 1e-6 * rng.random()))
                pts.append(space.point((e.id, offset)))
            yield pts
        return
    for scale in (1.0, 1e-6, 1e3):
        for _ in range(20):
            n = rng.randint(2, 5)
            if isinstance(space, HyperboloidSpace):
                # the radius scale is capped at 7.9, where cosh is about 1350
                radius = min(scale, 7.9)
                pts = []
                for _ in range(n):
                    r, th = radius * rng.random(), rng.uniform(0.0, 2.0 * math.pi)
                    pts.append(space.point((math.cosh(r), math.sinh(r) * math.cos(th),
                                            math.sinh(r) * math.sin(th))))
            else:
                pts = [space.point([scale * rng.gauss(0.0, 1.0) for _ in range(space.dim)])
                       for _ in range(n)]
            yield pts


@pytest.mark.parametrize("key", SPACE_KEYS)
def test_every_built_value_passes_the_public_constructors(all_spaces, key):
    space = all_spaces[key]
    rng = _rng(f"built:{key}")
    seen = 0
    for pts in _adversarial_sets(space, rng):
        a = make_subset(space, pts, 0.0)
        n = len(a)
        if n < 2:
            continue
        seen += 1
        x = order_tuple(a, n + rng.randint(0, 1))
        t = 0.25 * min_gap(order_tuple(a, n))
        tuples = [x, merge_time(x, CFG)[1], splitting_flow(x, t, 8), sweep(x, t / 8),
                  pair_resolvent(x, 0, 1, t), flow_adaptive(x, t, CFG).final,
                  sample_tuple(space, n, rng)]
        if oracle_supports(space, len(x)):
            tuples.append(full_resolvent_oracle(x, t))
        for out in tuples:
            assert PointTuple(space, out.coords) == out
        for m in (n, n + 1):
            r = retract(a, m, CFG)
            assert FiniteSubset(space, r.output.points, r.output.dedup_tolerance) == r.output
            assert r.output.points == FiniteSubset(space, r.output.points).points
        s = sample_subset(space, n, rng)
        assert FiniteSubset(space, s.points) == s
    assert seen >= 30


# ---------------------------------------------------------------------------
# one admission rule per backend: every way in refuses what point() refuses

NAN = float("nan")
BAD_DATA = {
    # off the sheet, on the lower sheet, x0 = 0, and an x0 whose square overflows
    "hyperboloid-2": [(0.5, 3.0, 4.0), (-5.0, 3.0, 4.0), (0.0, 0.0, 0.0), (1e200, 5.0, 0.0)],
    "euclidean-2": [(1.0,), ("a", 1.0), (NAN, 1.0)],
    # an edge the star lacks, an offset past its edge's end, a NaN offset
    "star-tree": [(7, 0.5), (2, 2.0), (0, NAN)],
}


@pytest.mark.parametrize("key, data", [(k, d) for k, ds in BAD_DATA.items() for d in ds],
                         ids=lambda v: repr(v) if isinstance(v, tuple) else v)
def test_every_way_in_refuses_what_point_refuses(all_spaces, key, data):
    # A Point built by hand holds data that point() refuses; each public
    # entry that takes a caller's point refuses it the same way, as a
    # GeometryError, rather than measure it, fold it or fail in a kernel.
    space = all_spaces[key]
    good = space.random_point(_rng("good"))
    bad = Point(space.kind, data)
    for enter in (lambda: space.point(data),
                  lambda: PointTuple(space, (good, bad)),
                  lambda: FiniteSubset(space, (bad,)),
                  lambda: make_subset(space, [good, bad]),
                  lambda: space.canonicalize(bad),
                  lambda: space.distance(good, bad),
                  lambda: space.distance(bad, good),
                  lambda: space.geodesic_point(bad, good, 0.5),
                  lambda: perturb_point(space, bad, 0.1, _rng("perturb")),
                  lambda: pairwise_distances(space, [good, bad]),
                  lambda: point_sort_key(space, bad)):
        with pytest.raises(GeometryError):
            enter()


# ---------------------------------------------------------------------------
# outside numbers: an int or a float that is not a bool, else a GeometryError

STAR_EDGES = [{"id": 0, "from": 0, "to": 1, "length": 1.0},
              {"id": 1, "from": 0, "to": 2, "length": 1.0}]


@pytest.mark.parametrize("coords", [[True], ["1.5"], [False], ["nan"]])
def test_a_coordinate_is_a_real_number(line, hyper, coords):
    with pytest.raises(GeometryError):
        line.point(coords)
    with pytest.raises(GeometryError):
        line.point_from_json(coords)
    with pytest.raises(GeometryError):
        hyper.point(coords * 3)
    with pytest.raises(GeometryError):
        FiniteSubset.from_json({"space": line.to_json(), "points": [coords, [0.0]]})


@pytest.mark.parametrize("place", [{"edge": True, "offset": 0.5}, {"edge": 0, "offset": "0.5"},
                                   {"edge": 0, "offset": True}, {"edge": "0", "offset": 0.5},
                                   {"edge": False, "offset": 0.5}])
def test_a_tree_point_holds_real_numbers(star_tree, place):
    with pytest.raises(GeometryError):
        star_tree.point_from_json(place)
    with pytest.raises(GeometryError):
        star_tree.point((place["edge"], place["offset"]))
    with pytest.raises(GeometryError):
        PointTuple.from_json({"space": star_tree.to_json(),
                              "coords": [place, {"edge": 2, "offset": 1.2}]})


@pytest.mark.parametrize("length", ["1.0", True, "long", None])
def test_a_tree_edge_length_is_a_real_number(length):
    edges = [dict(STAR_EDGES[0], length=length), STAR_EDGES[1]]
    with pytest.raises(GeometryError):
        TreeTopology.from_json(edges)


def test_integral_numbers_still_read(plane, star_tree):
    # An int coordinate reads as its float, and an integral float edge id
    # such as 1.0 as that edge, as TreeTopology.from_json reads ids.
    p = plane.point((1, -2))
    assert p.data == (1.0, -2.0) and all(type(c) is float for c in p.data)
    assert star_tree.point((1.0, 0.5)) == star_tree.point((1, 0.5))
    # it stores the int id, which _check_point demands
    assert type(star_tree.point((1.0, 0.5)).data[0]) is int
    assert star_tree.point_from_json({"edge": 2, "offset": 1}).data == (2, 1.0)
    topo = TreeTopology.from_json([dict(STAR_EDGES[0], length=2), STAR_EDGES[1]])
    assert topo.edges[0].length == 2.0


# ---------------------------------------------------------------------------
# arguments of another type: refused on entry as a GeometryError, before any
# branch, so also where the branch taken would not read them (two points)

@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("key", SPACE_KEYS)
def test_retract_and_merge_time_refuse_arguments_of_another_type(all_spaces, key, n):
    space = all_spaces[key]
    rng = _rng(f"types:{key}:{n}")
    a, x = sample_subset(space, n, rng), sample_tuple(space, n, rng)
    for args in ((x, n), (PointTuple, n), (list(a.points), n), (a, n, "fast"), (a, n, None)):
        with pytest.raises(GeometryError):
            retract(*args)
    for args in ((a, CFG), (FiniteSubset, FlowConfig()), (list(x.coords), CFG), (x, None),
                 (x, "fast")):
        with pytest.raises(GeometryError):
            merge_time(*args)
    # the checks leave every well-typed call as it was
    assert retract(a, n, CFG).output_cardinality < n
    assert merge_time(x, CFG)[0] <= 0.5 * min_gap(x) * (1.0 + 1e-9)


LINE = EuclideanSpace(1)
X = PointTuple(LINE, [LINE.point((v,)) for v in (0.0, 1.0, 3.0)])
A = make_subset(LINE, X.coords)
SCAN = ScanConfig(LINE, 3, 2, 0)

# Each call passes one argument of another type: a tuple, subset, config or
# space, or text where a number goes.  Before these were refused, the first
# two returned their "x", and the others raised AttributeError or TypeError
# from deep inside.
WRONG_TYPES = {
    "splitting_flow-tuple": lambda: splitting_flow("x", 1.0, 2),
    "sweep-tuple": lambda: sweep("x", 0.1),
    "hausdorff_distance-subset": lambda: hausdorff_distance(X, A),
    "hausdorff_distance-other-subset": lambda: hausdorff_distance(A, "x"),
    "product_distance-tuple": lambda: product_distance(A, X),
    "order_tuple-subset": lambda: order_tuple(X, 3),
    "to_set-tuple": lambda: to_set(A, 0.0),
    "flow_adaptive-tuple": lambda: flow_adaptive(A, 0.1, FlowConfig()),
    "flow_adaptive-config": lambda: flow_adaptive(X, 0.1, "fast"),
    "full_resolvent_oracle-tuple": lambda: full_resolvent_oracle(A, 0.1),
    "bound_suite-config": lambda: bound_suite("x"),
    "lipschitz_scan-config": lambda: lipschitz_scan(FlowConfig()),
    "convergence_study-config": lambda: convergence_study(FlowConfig(), 0.1),
    "PointTuple-space": lambda: PointTuple("x", X.coords),
    "FiniteSubset-space": lambda: FiniteSubset("x", A.points),
    "make_subset-space": lambda: make_subset("x", A.points),
    "pairwise_distances-space": lambda: pairwise_distances("x", A.points),
    "TreeTopology-edges": lambda: TreeTopology("x"),
    "TreeTopology-number": lambda: TreeTopology(5),
    "TreeSpace-topology": lambda: TreeSpace("x"),
    "splitting_flow-text-time": lambda: splitting_flow(X, "1.0", 2),
    "flow_adaptive-text-time": lambda: flow_adaptive(X, "1.0", FlowConfig()),
    "convergence_study-text-time": lambda: convergence_study(SCAN, "0.1"),
    "sweep-text-step": lambda: sweep(X, "0.1"),
    "pair_resolvent-text-step": lambda: pair_resolvent(X, 0, 1, "0.1"),
    "pair_resolvent-float-index": lambda: pair_resolvent(X, 0.0, 1, 0.1),
    "pair_resolvent-bool-index": lambda: pair_resolvent(X, 0, True, 0.1),
    "full_resolvent_oracle-text-step": lambda: full_resolvent_oracle(X, "0.1"),
    "to_set-text-tolerance": lambda: to_set(X, "0.0"),
    "make_subset-text-tolerance": lambda: make_subset(LINE, A.points, "0.0"),
    "FiniteSubset-text-tolerance": lambda: FiniteSubset(LINE, A.points, "0.0"),
    "geodesic_point-text-t": lambda: LINE.geodesic_point(X.coords[0], X.coords[1], "0.5"),
    "FlowConfig-text-tolerance": lambda: FlowConfig(merge_tolerance="0.5"),
    "ScanConfig-text-scale": lambda: ScanConfig(LINE, 3, 2, 0, perturbation_scale="0.1"),
}


@pytest.mark.parametrize("call", WRONG_TYPES.values(), ids=list(WRONG_TYPES))
def test_public_entries_refuse_arguments_of_another_type(call):
    with pytest.raises(GeometryError):
        call()


def test_the_type_checks_leave_well_typed_calls_alone():
    # an int reads as its float wherever a number goes
    assert splitting_flow(X, 1, 2) == splitting_flow(X, 1.0, 2)
    assert pair_resolvent(X, 0, 2, 1) == pair_resolvent(X, 0, 2, 1.0)
    assert to_set(X, 0) == A == make_subset(LINE, A.points, 0) == FiniteSubset(LINE, A.points, 0)
    assert LINE.geodesic_point(X.coords[0], X.coords[1], 1) == X.coords[1]


@pytest.mark.parametrize("argv", [
    ["retract", "--space", "euclidean:1", "--set", "[[true],[0.0]]", "--n", "2"],
    ["retract", "--space", "euclidean:1", "--set", '[["1.5"],[0.0]]', "--n", "2"],
    ["merge-time", "--set", '[{"edge": true, "offset": 0.5}, {"edge": 0, "offset": 0.2}]'],
    ["merge-time", "--set", '[{"edge": 0, "offset": "0.5"}, {"edge": 1, "offset": 0.2}]'],
    ["merge-time", "--set", '[{"edge": 0, "offset": 0.5}, {"edge": 1, "offset": 0.2}]',
     "length-text"],
    ["merge-time", "--set", '[{"edge": 0, "offset": 0.5}, {"edge": 1, "offset": 0.2}]',
     "length-bool"],
], ids=["true-coordinate", "text-coordinate", "true-edge", "text-offset", "text-length",
        "true-length"])
def test_the_command_line_refuses_numbers_that_are_not_real(argv, tmp_path, capsys):
    if argv[0] == "merge-time":
        edges = [dict(e) for e in STAR_EDGES]
        if argv[-1].startswith("length-"):
            edges[0]["length"] = "1.0" if argv.pop() == "length-text" else True
        space_file = tmp_path / "star.json"
        space_file.write_text(json.dumps({"kind": "tree", "edges": edges}))
        argv = argv + ["--space-file", str(space_file)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("command, field", [("flow", "coords"), ("retract", "points")])
@pytest.mark.parametrize("space, points", [
    ({"kind": "euclidean", "dim": 2}, [[0.0, 1.0], [2.0]]),
    ({"kind": "euclidean", "dim": 1}, [[0.0], [True]]),
    ({"kind": "hyperboloid", "dim": 1}, [[1.0, 0.0], [1.0, 1.0]]),
    ({"kind": "tree", "edges": STAR_EDGES}, [{"edge": 0, "offset": 0.5}, {"edge": 1, "offset": 1.5}]),
    ({"kind": "tree", "edges": STAR_EDGES}, [{"edge": 0, "offset": 0.5}, {"edge": 2, "offset": 0.5}]),
], ids=["count", "bool", "off-sheet", "off-edge", "unknown-edge"])
def test_a_bad_point_in_a_payload_is_an_error(command, field, space, points, capsys):
    # from_json builds past the constructors, so point() alone must refuse these.
    flags = ["--time", "0.1"] if command == "flow" else ["--n", "2"]
    payload = json.dumps({"space": space, field: points})
    assert main([command, "--set", payload] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_a_flow_far_out_on_the_hyperboloid_refuses_to_leave_the_sheet(hyper):
    # cosh 700 squares past the float range, so point() refuses it: a gap or
    # a blend's norm there would read inf - inf = NaN.  355 from the apex
    # x0^2 is a double, and every flow of two points there builds points
    # that point() admits as they are.
    with pytest.raises(GeometryError, match="squared time coordinate overflows"):
        hyper.point((math.cosh(700.0), math.sinh(700.0), 0.0))
    ch, sh = math.cosh(355.0), math.sinh(355.0)
    x = PointTuple(hyper, [hyper.point((ch, sh, 0.0)), hyper.point((ch, sh, 1.0))])
    assert math.isfinite(hyper.distance(*x.coords))
    for y in (merge_time(x, CFG)[1], splitting_flow(x, 0.3, 4), sweep(x, 0.3),
              pair_resolvent(x, 0, 1, 0.3)):
        assert y.coords != x.coords
        for p in y.coords:
            assert hyper.point(p.data) == p


# Two points whose distance overflows to inf on each backend: the plane, the
# line, the two leaves of a path of two edges of length 1.7e308, and two
# points 355 from the apex of hyperboloid:2 in opposite directions, where
# point() still admits them.
_HUGE_PATH = TreeSpace(TreeTopology((TreeEdge(0, 1, 0, 1.7e308), TreeEdge(1, 1, 2, 1.7e308))))
_CH, _SH = math.cosh(355.0), math.sinh(355.0)
OVERFLOWING_PAIRS = {
    "plane": (EuclideanSpace(2), (-1.7e308, 0.0), (1.7e308, 0.0)),
    "line": (EuclideanSpace(1), (-1.7e308,), (1.7e308,)),
    "path-tree": (_HUGE_PATH, (0, 1.7e308), (1, 1.7e308)),
    "hyperboloid": (HyperboloidSpace(2), (_CH, _SH, 0.0), (_CH, -_SH, 0.0)),
}


@pytest.mark.parametrize("key", OVERFLOWING_PAIRS)
def test_no_point_is_built_between_points_whose_distance_overflows(key):
    # No double finds a point strictly between such a pair: a blend would
    # read inf, a walk along the path would end at the far leaf, and a
    # hyperboloid lift would sum NaN.  So geodesic_point refuses it, with
    # merge_time's message, and so does make_subset where it would fold the
    # pair into one; its ends are still its points at t = 0 and t = 1.
    space, a, b = OVERFLOWING_PAIRS[key]
    p, q = space.point(a), space.point(b)
    assert space.distance(p, q) == math.inf
    for t in (0.1, 0.25, 0.5):
        with pytest.raises(GeometryError, match="pairwise distances overflow double precision"):
            space.geodesic_point(p, q, t)
    assert space.geodesic_point(p, q, 0.0) == p and space.geodesic_point(p, q, 1.0) == q
    with pytest.raises(GeometryError, match="pairwise distances overflow double precision"):
        make_subset(space, [p, q], math.inf)
    assert set(make_subset(space, [p, q]).points) == {p, q}


def test_a_gap_past_the_float_range_squares_to_inf():
    # A gap past about 1.3e154 squares past the float range, where ** raises
    # OverflowError; the product distance is inf, and a flow whose doublings
    # are that far apart has not converged.
    star = TreeSpace(TreeTopology((TreeEdge(0, 0, 1, 1e300), TreeEdge(1, 0, 2, 1e-300))))
    x = PointTuple(star, [star.point(p) for p in ((0, 1e300), (1, 0.0), (1, 1e-300))])
    y = PointTuple(star, x.coords[1:] + x.coords[:1])
    assert product_distance(x, y) == math.inf
    report = flow_adaptive(x, 1e300, FlowConfig())
    assert not report.converged
    json.dumps(report.to_json(), allow_nan=False)


def test_flows_on_extreme_trees_raise_no_overflow():
    # Random trees with edge lengths from 1e-300 to 1e300 and a flow far past
    # every merge: the doublings' product distances may overflow, and read inf.
    rng = _rng("extreme")
    cfg = FlowConfig(sweeps_per_run=8, max_doublings=2)
    for _ in range(300):
        edges = [TreeEdge(i, rng.randint(0, i), i + 1, 10.0 ** rng.uniform(-300, 300))
                 for i in range(rng.randint(1, 5))]
        tree = TreeSpace(TreeTopology(tuple(edges)))
        x = PointTuple(tree, [tree.random_point(rng) for _ in range(rng.randint(2, 4))])
        json.dumps(flow_adaptive(x, 1e300, cfg).to_json(), allow_nan=False)
