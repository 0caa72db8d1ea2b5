import hashlib
import json
import math
import random

import pytest

from subsetflow import (
    EuclideanSpace,
    FlowConfig,
    GeometryError,
    HyperboloidSpace,
    RetractReport,
    hausdorff_distance,
    lipschitz_constant_bound,
    make_subset,
    pairwise_distances,
    retract,
)

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
    with pytest.raises(GeometryError):
        lipschitz_constant_bound(1)


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
