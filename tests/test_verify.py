import json
import math
import random

import pytest

from subsetflow import (
    CheckResult,
    FlowConfig,
    GeometryError,
    ScanConfig,
    ScanReport,
    bound_suite,
    TreeEdge,
    TreeSpace,
    TreeTopology,
    convergence_study,
    lipschitz_constant_bound,
    lipschitz_scan,
    make_space,
)
from subsetflow.verify import (
    RESOLVENT_INEQ_TOL,
    check_cat0,
    check_flow_descent,
    check_lipschitz_ratio,
    check_resolvent_inequality,
    check_two_point_merge,
    perturb_point,
    perturb_subset,
    sample_subset,
    sample_tuple,
)


def small_cfg(space, n=3, samples=8, seed=7, **flow):
    return ScanConfig(space=space, n=n, samples=samples, seed=seed,
                      flow=FlowConfig(**flow) if flow else FlowConfig())


# ---------------------------------------------------------------------------
# config and report plumbing


def test_scan_config_validation(plane):
    with pytest.raises(GeometryError):
        ScanConfig(space=plane, n=1, samples=5, seed=0)
    with pytest.raises(GeometryError):
        ScanConfig(space=plane, n=3, samples=0, seed=0)
    with pytest.raises(GeometryError):
        ScanConfig(space=plane, n=3, samples=5, seed=0, perturbation_scale=0.0)
    with pytest.raises(GeometryError):
        ScanConfig(space=plane, n=3, samples=5, seed=0, perturbation_scale=1.0)
    # counts that are no integers; a fractional sample count used to reach
    # lipschitz_scan and fail there as a TypeError
    for n, samples in ((3.0, 5), (3, 2.5), (True, 5), (3, True)):
        with pytest.raises(GeometryError):
            ScanConfig(space=plane, n=n, samples=samples, seed=0)


def test_check_result_json_hides_nonfinite():
    row = CheckResult(name="x", trials=0, worst=-math.inf, threshold=1.0, passed=True)
    assert row.to_json()["worst"] is None
    row2 = CheckResult(name="y", trials=3, worst=0.5, threshold=1.0, passed=True)
    assert row2.to_json()["worst"] == 0.5


def test_report_csv_shape(plane):
    report = bound_suite(small_cfg(plane, samples=2))
    lines = report.to_csv().splitlines()
    assert lines[0] == "name,trials,worst,threshold,pass"
    assert len(lines) == len(report.checks) + 1
    assert all(line.count(",") == 4 for line in lines[1:])


def test_report_overall_pass_logic(plane):
    report = bound_suite(small_cfg(plane, samples=2))
    assert report.overall_pass == all(c.passed for c in report.checks)


# ---------------------------------------------------------------------------
# samplers


@pytest.mark.parametrize("key", ["euclidean-2", "hyperboloid-2", "star-tree"])
def test_sample_tuple_separation(all_spaces, key):
    space = all_spaces[key]
    rng = random.Random("septest")
    for _ in range(10):
        x = sample_tuple(space, 4, rng)
        for i in range(3):
            for j in range(i + 1, 4):
                assert space.distance(x.coords[i], x.coords[j]) > 0.0


def test_sample_subset_cardinality(plane):
    rng = random.Random("card")
    for _ in range(10):
        a = sample_subset(plane, 4, rng)
        assert 1 <= len(a) <= 4


def test_perturb_point_stays_on_sheet(hyper):
    rng = random.Random("sheet")
    for i in range(25):
        p = hyper.random_point(rng)
        q = perturb_point(hyper, p, 0.1, rng)
        data = q.data
        # Minkowski norm must certify sheet membership
        assert data[0] > 0
        minkowski = data[0] ** 2 - sum(v * v for v in data[1:])
        assert minkowski == pytest.approx(1.0, abs=1e-9)


def test_perturb_subset_keeps_size_bound(star_tree):
    rng = random.Random("perturbset")
    for _ in range(10):
        a = sample_subset(star_tree, 4, rng)
        b = perturb_subset(a, 0.05, rng)
        assert 1 <= len(b) <= len(a)
        assert b.space == a.space


# ---------------------------------------------------------------------------
# suites


@pytest.mark.parametrize("key", ["euclidean-2", "star-tree"])
def test_bound_suite_passes_small(all_spaces, key):
    report = bound_suite(small_cfg(all_spaces[key], samples=6))
    failing = [c.name for c in report.checks if not c.passed]
    assert report.overall_pass, f"failing rows: {failing}"
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))
    assert "flow_nonexpansive" in names
    assert "merge_time_bound" in names


def test_bound_suite_deterministic(plane):
    cfg = small_cfg(plane, samples=4)
    a = json.dumps(bound_suite(cfg).to_json(), sort_keys=True)
    b = json.dumps(bound_suite(cfg).to_json(), sort_keys=True)
    assert a == b


def test_lipschitz_scan_deterministic_and_sane(plane):
    cfg = small_cfg(plane, n=3, samples=12)
    r1 = lipschitz_scan(cfg)
    r2 = lipschitz_scan(cfg)
    assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(r2.to_json(), sort_keys=True)
    assert len(r1.checks) == 1
    row = r1.checks[0]
    assert row.name == "lipschitz_ratio"
    assert row.passed
    assert row.worst <= row.threshold


@pytest.mark.parametrize("tree", ["five-leg star", "caterpillar"])
def test_lipschitz_ratio_on_trees_at_small_perturbations(caterpillar_tree, tree):
    # Perturbations of 1e-4 of the min gap: the splitting march broke the
    # bound here (caterpillar: 1.91x at n = 4 with seed 27, 1.06x at n = 3
    # with seed 6); the exact tree flow, a flow of the set, must not.
    space = caterpillar_tree if tree == "caterpillar" else TreeSpace(
        TreeTopology(tuple(TreeEdge(i, 0, i + 1, 1.0) for i in range(5))))
    for n in (3, 4, 5):
        for seed in range(30):
            row = check_lipschitz_ratio(space, n, seed, 8, FlowConfig(), 1e-4)
            assert row.trials > 0
            assert row.worst <= lipschitz_constant_bound(n), (n, seed, row.worst)


def test_lipschitz_scan_seed_changes_draws(plane):
    a = lipschitz_scan(ScanConfig(space=plane, n=3, samples=12, seed=1))
    b = lipschitz_scan(ScanConfig(space=plane, n=3, samples=12, seed=2))
    assert a.checks[0].worst != b.checks[0].worst


# ---------------------------------------------------------------------------
# convergence study


def test_convergence_time_zero(plane):
    report = convergence_study(small_cfg(plane, samples=2), 0.0)
    assert report.overall_pass
    by_name = {c.name: c for c in report.checks}
    assert by_name["cauchy_reaches_tolerance"].worst == 0.0


def test_convergence_rejects_negative_time(plane):
    with pytest.raises(GeometryError):
        convergence_study(small_cfg(plane, samples=2), -0.5)


def test_convergence_rejects_zero_doublings(plane):
    # a doubling study with no doublings has no sequence to report
    with pytest.raises(GeometryError):
        convergence_study(small_cfg(plane, samples=2, max_doublings=0), 0.1)


def test_convergence_smooth_regime(plane):
    cfg = ScanConfig(space=plane, n=4, samples=2, seed=13,
                     flow=FlowConfig(sweeps_per_run=16, max_doublings=8))
    report = convergence_study(cfg, 0.01)
    assert report.overall_pass
    by_name = {c.name: c for c in report.checks}
    for seq in by_name["cauchy_monotone"].data:
        assert all(b <= a + 1e-10 for a, b in zip(seq, seq[1:]))


def test_convergence_collapse_regime(plane):
    report = convergence_study(small_cfg(plane, n=3, samples=2), 8.0)
    assert report.overall_pass


# ---------------------------------------------------------------------------
# single checks


@pytest.mark.parametrize("key", ["euclidean-1", "euclidean-2", "hyperboloid-2",
                                 "star-tree", "path-tree"])
def test_check_cat0_clean(all_spaces, key):
    rows = check_cat0(all_spaces[key], 11, 200)
    assert [r.name for r in rows] == ["cat0_inequality", "comparison_points",
                                      "geodesic_convexity"]
    assert max(r.worst for r in rows) <= 1e-9
    assert all(r.trials == 200 and r.passed for r in rows)


def test_check_cat0_deterministic(plane):
    assert check_cat0(plane, 3, 50) == check_cat0(plane, 3, 50)


def test_flow_descent_reports_an_ascent_as_a_failed_row(plane, monkeypatch):
    # a broken march whose every sweep scales every point by 2 doubles the objective
    def scaling_march(space, coords, lam, sweeps, watch):
        for _ in range(sweeps):
            coords[:] = [plane.point(tuple(2.0 * c for c in p)).data for p in coords]
        return sweeps, math.inf

    monkeypatch.setattr(type(plane), "_march", scaling_march)
    row = check_flow_descent(plane, 3, 0, 2)
    assert row.name == "flow_descent"
    assert row.trials == 2
    assert not row.passed
    assert row.worst > 1.0


@pytest.mark.parametrize("key", ["euclidean-2", "hyperboloid-2", "star-tree"])
def test_two_point_merge_row_is_exact(all_spaces, key):
    # Two points meet at their midpoint at d/2 exactly, so the row reads 0.
    row = check_two_point_merge(all_spaces[key], 0, 200, FlowConfig())
    assert (row.trials, row.passed, row.worst) == (200, True, 0.0)


@pytest.mark.xfail(strict=True, reason="known defect: on this input the reference resolvent's "
                   "Newton solve drops the optimal all-distinct pattern and a coarser one wins")
def test_resolvent_inequality_on_a_dropped_pattern():
    # the large-n benchmark's failing suite row (euclidean n = 7, seed 337069995)
    row = check_resolvent_inequality(make_space("euclidean", 2), 3, 337069995, 5)
    assert row.worst <= RESOLVENT_INEQ_TOL
