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
