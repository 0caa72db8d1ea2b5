"""Release checklist: one test per numbered acceptance property.

Each test is self-contained and loops over the three reference backends
(euclidean plane, hyperboloid sheet, metric star tree) where the property
is backend-generic.  Run with -v to get one pass/fail line per criterion.
Thresholds are the proved constants; sample counts are fixed so the run
is deterministic.
"""

import math
import random
import time

import pytest

from subsetflow import (
    EuclideanSpace,
    FlowConfig,
    PointTuple,
    ScanConfig,
    convergence_study,
    flow_adaptive,
    full_resolvent_oracle,
    hausdorff_distance,
    lipschitz_constant_bound,
    make_subset,
    max_spread,
    merge_time,
    min_gap,
    pair_resolvent,
    product_distance,
    retract,
    splitting_flow,
    sum_pairwise_distances,
)
from subsetflow.verify import check_cat0, check_lipschitz_ratio, sample_subset, sample_tuple
from oracles import grid_pair_prox

BACKENDS = ["euclidean-2", "hyperboloid-2", "star-tree"]

# published numerals for max(4n^{3/2}+1, 2n^2+sqrt(n)); the n=5 entry is
# tighter than the formula value 52.236, so the test holds itself to the
# stricter of the two
STATED_BOUNDS = {2: 12.314, 3: 21.785, 4: 34.0, 5: 46.72}


def _spaces(all_spaces):
    return [(key, all_spaces[key]) for key in BACKENDS]


def test_01_retract_is_identity_below_the_bound(all_spaces):
    start = time.monotonic()
    for key, space in _spaces(all_spaces):
        for n in (2, 3, 4, 5):
            for i in range(200):
                rng = random.Random(f"acc1:{key}:{n}:{i}")
                a = sample_subset(space, n - 1, rng)
                report = retract(a, n)
                assert report.output == a, (key, n, i)
                assert report.merge_time_used == 0.0
    assert time.monotonic() - start < 5.0


def test_02_retraction_ratio_within_proved_constant(all_spaces):
    for key, space in _spaces(all_spaces):
        for n in (2, 3, 4, 5):
            bound = min(lipschitz_constant_bound(n), STATED_BOUNDS[n])
            row = check_lipschitz_ratio(space, n, seed=20, samples=1000,
                                        flow_cfg=FlowConfig(), perturbation_scale=0.05)
            assert row.worst <= bound, (key, n, row.worst, bound)


def test_03_merge_time_within_half_gap(all_spaces):
    for key, space in _spaces(all_spaces):
        for i in range(500):
            rng = random.Random(f"acc3:{key}:{i}")
            x = sample_tuple(space, rng.randint(2, 5), rng)
            delta = min_gap(x)
            t_star, _ = merge_time(x, FlowConfig())
            assert t_star <= 0.5 * delta * (1.0 + 1e-3), (key, i, t_star, delta)
    line = EuclideanSpace(1)
    for i in range(50):
        rng = random.Random(f"acc3line:{i}")
        a, b = sorted((rng.uniform(-5, 5), rng.uniform(-5, 5)))
        if b - a < 1e-3:
            continue
        x = PointTuple(line, (line.point((a,)), line.point((b,))))
        t_star, _ = merge_time(x, FlowConfig())
        assert abs(t_star - 0.5 * (b - a)) <= 1e-9


def test_04_two_point_closed_forms():
    line = EuclideanSpace(1)
    x = PointTuple(line, (line.point((0.0,)), line.point((1.0,))))
    for k in (1, 2, 3, 8, 64, 256):
        y = splitting_flow(x, 0.3, k)
        assert abs(y.coords[0].data[0] - 0.3) <= 1e-9
        assert abs(y.coords[1].data[0] - 0.7) <= 1e-9
    a = make_subset(line, [line.point((0.0,)), line.point((1.0,))], 0.0)
    out = retract(a, 2).output
    assert len(out) == 1
    assert abs(out.points[0].data[0] - 0.5) <= 1e-9


def test_05_pair_resolvent_matches_brute_force(plane):
    worst = -math.inf
    for i in range(100):
        rng = random.Random(f"acc5:{i}")
        p = plane.random_point(rng)
        q = plane.random_point(rng)
        lam = rng.uniform(0.02, 2.0)
        y = pair_resolvent(PointTuple(plane, (p, q)), 0, 1, lam)
        ref1, ref2 = grid_pair_prox(p.data, q.data, lam)
        got = list(y.coords[0].data) + list(y.coords[1].data)
        want = list(ref1) + list(ref2)
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    assert worst <= 1e-5, worst


def test_06_resolvent_one_step_estimate():
    worst = -math.inf
    for i in range(100):
        rng = random.Random(f"acc6:{i}")
        dim = rng.choice((1, 2))
        n = rng.randint(2, 8 // dim if dim == 2 else 4)
        space = EuclideanSpace(dim)
        x = sample_tuple(space, n, rng)
        y = sample_tuple(space, n, rng)
        lam = rng.uniform(0.05, 0.5)
        j = full_resolvent_oracle(x, lam)
        lhs = (sum_pairwise_distances(j)
               + product_distance(x, j) ** 2 / (2.0 * lam)
               + product_distance(j, y) ** 2 / (2.0 * lam))
        rhs = sum_pairwise_distances(y) + product_distance(x, y) ** 2 / (2.0 * lam)
        worst = max(worst, lhs - rhs)
    assert worst <= 1e-7, worst


def test_07_backends_satisfy_cat0_inequalities(all_spaces):
    for key, space in _spaces(all_spaces):
        for row in check_cat0(space, 11, 1000):
            assert row.worst <= 1e-9, (key, row.name)


def test_08_flow_spread_bound(all_spaces):
    for key, space in _spaces(all_spaces):
        for i in range(500):
            rng = random.Random(f"acc8:{key}:{i}")
            n = rng.randint(2, 5)
            x = sample_tuple(space, n, rng)
            delta = min_gap(x)
            t = rng.uniform(0.05, 1.0) * delta / 2.0
            moved = product_distance(splitting_flow(x, t, 256), x)
            assert moved <= 2.0 * t * n**1.5 * 1.01, (key, i, moved, t, n)


def test_09_flow_nonexpansive_at_finite_k(all_spaces):
    for key, space in _spaces(all_spaces):
        for i in range(500):
            rng = random.Random(f"acc9:{key}:{i}")
            n = rng.randint(2, 5)
            x = sample_tuple(space, n, rng)
            y = sample_tuple(space, n, rng)
            t = rng.uniform(0.01, 1.0)
            k = rng.randint(1, 64)
            after = product_distance(splitting_flow(x, t, k), splitting_flow(y, t, k))
            assert after <= product_distance(x, y) + 1e-9, (key, i)


def test_10_flow_attains_the_minimum(all_spaces):
    cfg = FlowConfig(sweeps_per_run=256, max_doublings=2)
    for key, space in _spaces(all_spaces):
        for i in range(200):
            rng = random.Random(f"acc10:{key}:{i}")
            n = rng.randint(2, 5)
            x = sample_tuple(space, n, rng)
            spread = max_spread(x)
            report = flow_adaptive(x, spread / 2.0, cfg)
            assert sum_pairwise_distances(report.final) <= 1e-6 * spread, (key, i)
            values = [f for _, f in report.objective_trace]
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:])), (key, i)


def test_11_sweep_doubling_converges(plane):
    smooth = convergence_study(
        ScanConfig(space=plane, n=4, samples=3, seed=13,
                   flow=FlowConfig(sweeps_per_run=16, max_doublings=8)), 0.01)
    assert smooth.overall_pass, [c.name for c in smooth.checks if not c.passed]
    by_name = {c.name: c for c in smooth.checks}
    assert by_name["cauchy_reaches_tolerance"].worst <= 1e-7
    assert by_name["oracle_agreement"].worst <= 1e-4

    collapse = convergence_study(ScanConfig(space=plane, n=3, samples=3, seed=7), 8.0)
    assert collapse.overall_pass, [c.name for c in collapse.checks if not c.passed]
    by_name = {c.name: c for c in collapse.checks}
    assert by_name["cauchy_reaches_tolerance"].worst <= 1e-7
    assert by_name["oracle_agreement"].worst <= 1e-4


def test_12_far_resolvents_barely_move_a_pair(all_spaces):
    for key, space in _spaces(all_spaces):
        worst = -math.inf
        for i in range(1000):
            rng = random.Random(f"acc12:{key}:{i}")
            n = rng.randint(3, 5)
            y = sample_tuple(space, n, rng)
            idx = rng.randrange(2, n)
            d01 = space.distance(y.coords[0], y.coords[1])
            if d01 < 1e-9:
                continue
            lam = d01 * rng.uniform(0.05, 2.0)
            z = pair_resolvent(pair_resolvent(y, 0, idx, lam), 1, idx, lam)
            gap = space.distance(z.coords[0], z.coords[1])
            allowed = d01 if d01 >= lam else d01 + lam
            worst = max(worst, gap - allowed)
        assert worst <= 1e-9, (key, worst)
