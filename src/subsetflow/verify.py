"""Randomized verification harness for every proved bound in the package.

Each check draws its own per-sample generators from (seed, label, index),
so reports are deterministic for a given configuration and samples could
be evaluated in any order or in parallel without changing the outcome.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field

from .geometry import EuclideanSpace, GeometryError, SpaceDescriptor, cat0_audit
from .subset_space import (
    FiniteSubset,
    PointTuple,
    hausdorff_distance,
    make_subset,
    max_spread,
    min_gap,
    order_tuple,
    pairwise_distances,
    product_distance,
    to_set,
)
from .flow import (
    MERGE_SLACK,
    FlowConfig,
    flow_adaptive,
    full_resolvent_oracle,
    merge_time,
    pair_resolvent,
    splitting_flow,
    sum_pairwise_distances,
)
from .retraction import lipschitz_constant_bound, retract

# Audit tolerances: floating noise allowance for exact bounds, the stated
# relative slacks for discretized ones.
EXACT_TOL = 1e-9
SPREAD_SLACK = 1.01
ATTAINMENT_TOL = 1e-6
RESOLVENT_INEQ_TOL = 1e-7
ORACLE_AGREEMENT_TOL = 1e-4


@dataclass(frozen=True)
class ScanConfig:
    """Shared knobs for the randomized scans."""

    space: SpaceDescriptor
    n: int
    samples: int
    seed: int
    flow: FlowConfig = FlowConfig()
    perturbation_scale: float = 0.05

    def __post_init__(self) -> None:
        if self.n < 2:
            raise GeometryError("scans need n >= 2")
        if self.samples < 1:
            raise GeometryError("samples must be >= 1")
        if not 0.0 < self.perturbation_scale < 1.0:
            raise GeometryError("perturbation_scale must lie in (0, 1)")


@dataclass(frozen=True)
class CheckResult:
    """One named check: worst observed value against its threshold."""

    name: str
    trials: int
    worst: float
    threshold: float
    passed: bool
    worst_input: object = None
    data: object = None

    def to_json(self):
        return {
            "name": self.name,
            "trials": self.trials,
            # -inf marks "no observation"; JSON has no spelling for it
            "worst": self.worst if math.isfinite(self.worst) else None,
            "threshold": self.threshold,
            "pass": self.passed,
            "worst_input": self.worst_input,
            "data": self.data,
        }


@dataclass(frozen=True)
class ScanReport:
    """Deterministic outcome of a scan: one row per check."""

    space: SpaceDescriptor
    n: int
    samples: int
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self):
        return {
            "space": self.space.to_json(),
            "n": self.n,
            "samples": self.samples,
            "seed": self.seed,
            "checks": [c.to_json() for c in self.checks],
            "overall_pass": self.overall_pass,
        }

    def to_csv(self) -> str:
        lines = ["name,trials,worst,threshold,pass"]
        for c in self.checks:
            lines.append(f"{c.name},{c.trials},{c.worst!r},{c.threshold!r},{c.passed}")
        return "\n".join(lines) + "\n"


def _rng(seed: int, label: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{label}:{index}")


def sample_tuple(space: SpaceDescriptor, n: int, rng: random.Random,
                 min_sep: float = 1e-3) -> PointTuple:
    """Random tuple with pairwise separated coordinates."""
    sep = min_sep
    pts = []
    attempts = 0
    while len(pts) < n:
        cand = space.random_point(rng)
        if all(space.distance(cand, p) > sep for p in pts):
            pts.append(cand)
        attempts += 1
        if attempts > 200 * n:
            sep *= 0.5  # crowded space; relax rather than loop forever
            attempts = 0
    return PointTuple(space, tuple(pts))


def sample_subset(space: SpaceDescriptor, n: int, rng: random.Random,
                  min_sep: float = 1e-3) -> FiniteSubset:
    """Random subset of exactly n points."""
    return to_set(sample_tuple(space, n, rng, min_sep), 0.0)


def perturb_point(space: SpaceDescriptor, p, scale: float, rng: random.Random):
    """Move p toward a random target by a Gaussian-sized step of the given scale."""
    target = space.random_point(rng)
    d = space.distance(p, target)
    if d < 1e-12:
        return p
    step = min(abs(rng.gauss(0.0, scale)), d)
    return space.geodesic_point(p, target, step / d)


def perturb_subset(a: FiniteSubset, scale: float, rng: random.Random) -> FiniteSubset:
    return make_subset(a.space, [perturb_point(a.space, p, scale, rng) for p in a.points], 0.0)


# ---------------------------------------------------------------------------
# Individual checks.  Each returns one or more CheckResult rows and draws its
# own deterministic generators, so callers can run any subset independently.


def check_cat0(space: SpaceDescriptor, seed: int, trials: int) -> list[CheckResult]:
    rep = cat0_audit(space, seed, trials)
    rows = []
    for name, worst in (
        ("cat0_inequality", rep.cat0_inequality),
        ("comparison_points", rep.comparison_points),
        ("geodesic_convexity", rep.geodesic_convexity),
    ):
        rows.append(CheckResult(name, trials, worst, EXACT_TOL, worst <= EXACT_TOL,
                                data={"skipped_degenerate": rep.skipped}))
    return rows


def check_geodesic_parametrization(space: SpaceDescriptor, seed: int, trials: int) -> CheckResult:
    worst = -math.inf
    worst_input = None
    for i in range(trials):
        rng = _rng(seed, "geoparam", i)
        p = space.random_point(rng)
        q = space.random_point(rng)
        s, t = sorted((rng.random(), rng.random()))
        d = space.distance(p, q)
        xs = space.geodesic_point(p, q, s)
        xt = space.geodesic_point(p, q, t)
        err = max(
            abs(space.distance(p, xt) - t * d),
            abs(space.distance(xs, xt) - (t - s) * d),
        )
        if err > worst:
            worst = err
            worst_input = {"p": space.point_to_json(p), "q": space.point_to_json(q), "s": s, "t": t}
    return CheckResult("geodesic_parametrization", trials, worst, EXACT_TOL,
                       worst <= EXACT_TOL, worst_input)


def check_hausdorff_metric(space: SpaceDescriptor, n: int, seed: int, trials: int) -> CheckResult:
    worst = -math.inf
    worst_input = None
    for i in range(trials):
        rng = _rng(seed, "hausmetric", i)
        sizes = [rng.randint(1, n) for _ in range(3)]
        a, b, c = (sample_subset(space, m, rng) for m in sizes)
        violation = max(
            abs(hausdorff_distance(a, b) - hausdorff_distance(b, a)),
            hausdorff_distance(a, a),
            hausdorff_distance(a, c) - hausdorff_distance(a, b) - hausdorff_distance(b, c),
        )
        if violation > worst:
            worst = violation
            worst_input = {"a": a.to_json(), "b": b.to_json(), "c": c.to_json()}
    return CheckResult("hausdorff_metric", trials, worst, EXACT_TOL, worst <= EXACT_TOL, worst_input)


def check_product_dominates_hausdorff(space: SpaceDescriptor, n: int, seed: int,
                                      trials: int) -> CheckResult:
    worst = -math.inf
    for i in range(trials):
        rng = _rng(seed, "proddom", i)
        x = sample_tuple(space, n, rng)
        y = sample_tuple(space, n, rng)
        worst = max(worst, hausdorff_distance(to_set(x, 0.0), to_set(y, 0.0)) - product_distance(x, y))
    return CheckResult("product_dominates_hausdorff", trials, worst, EXACT_TOL, worst <= EXACT_TOL)


def check_set_tuple_roundtrip(space: SpaceDescriptor, n: int, seed: int, trials: int) -> CheckResult:
    worst = -math.inf
    for i in range(trials):
        rng = _rng(seed, "roundtrip", i)
        a = sample_subset(space, rng.randint(1, n), rng)
        back = to_set(order_tuple(a, n), 0.0)
        worst = max(worst, hausdorff_distance(back, a))
    return CheckResult("set_tuple_roundtrip", trials, worst, 0.0, worst <= 0.0)


def check_objective_lipschitz(space: SpaceDescriptor, n: int, seed: int, trials: int) -> CheckResult:
    lip = n**1.5
    worst = -math.inf
    for i in range(trials):
        rng = _rng(seed, "objlip", i)
        x = sample_tuple(space, n, rng)
        y = sample_tuple(space, n, rng)
        gap = abs(sum_pairwise_distances(x) - sum_pairwise_distances(y))
        worst = max(worst, gap - lip * product_distance(x, y))
    return CheckResult("objective_lipschitz", trials, worst, EXACT_TOL, worst <= EXACT_TOL)


def check_objective_convexity(space: SpaceDescriptor, n: int, seed: int, trials: int) -> CheckResult:
    worst = -math.inf
    for i in range(trials):
        rng = _rng(seed, "objconv", i)
        x = sample_tuple(space, n, rng)
        y = sample_tuple(space, n, rng)
        t = rng.random()
        mid = PointTuple(space, tuple(
            space.geodesic_point(p, q, t) for p, q in zip(x.coords, y.coords)
        ))
        bound = (1.0 - t) * sum_pairwise_distances(x) + t * sum_pairwise_distances(y)
        worst = max(worst, sum_pairwise_distances(mid) - bound)
    return CheckResult("objective_convexity", trials, worst, EXACT_TOL, worst <= EXACT_TOL)


def check_flow_nonexpansive(space: SpaceDescriptor, n: int, seed: int, trials: int) -> CheckResult:
    worst = -math.inf
    worst_input = None
    for i in range(trials):
        rng = _rng(seed, "nonexp", i)
        x = sample_tuple(space, n, rng)
        y = sample_tuple(space, n, rng)
        t = rng.uniform(0.01, 1.0)
        k = rng.randint(1, 32)
        before = product_distance(x, y)
        after = product_distance(splitting_flow(x, t, k), splitting_flow(y, t, k))
        if after - before > worst:
            worst = after - before
            worst_input = {"x": x.to_json(), "y": y.to_json(), "t": t, "k": k}
    return CheckResult("flow_nonexpansive", trials, worst, EXACT_TOL, worst <= EXACT_TOL, worst_input)


def check_flow_descent(space: SpaceDescriptor, n: int, seed: int, trials: int,
                       cfg: FlowConfig) -> CheckResult:
    single = dataclasses.replace(cfg, sweeps_per_run=64, max_doublings=0)
    worst = -math.inf
    for i in range(trials):
        rng = _rng(seed, "descent", i)
        x = sample_tuple(space, n, rng)
        t = rng.uniform(0.1, 1.0) * min_gap(x)
        rep = flow_adaptive(x, t, single)  # constructor rejects any real ascent
        values = [f for _, f in rep.objective_trace]
        worst = max(worst, max(b - a for a, b in zip(values, values[1:])))
    return CheckResult("flow_descent", trials, worst, EXACT_TOL, worst <= EXACT_TOL)


def check_spread_bound(space: SpaceDescriptor, n: int, seed: int, trials: int,
                       cfg: FlowConfig) -> CheckResult:
    worst = -math.inf
    worst_input = None
    for i in range(trials):
        rng = _rng(seed, "spread", i)
        x = sample_tuple(space, n, rng)
        t = rng.uniform(0.05, 1.0) * 0.5 * min_gap(x)
        moved = product_distance(splitting_flow(x, t, cfg.sweeps_per_run), x)
        ratio = moved / (2.0 * t * n**1.5)
        if ratio > worst:
            worst = ratio
            worst_input = {"x": x.to_json(), "t": t}
    return CheckResult("flow_spread_bound", trials, worst, SPREAD_SLACK,
                       worst <= SPREAD_SLACK, worst_input)


def check_merge_time_bound(space: SpaceDescriptor, n: int, seed: int, trials: int,
                           cfg: FlowConfig) -> list[CheckResult]:
    worst_time = -math.inf
    worst_state = -math.inf
    worst_input = None
    for i in range(trials):
        rng = _rng(seed, "mergebound", i)
        x = sample_tuple(space, rng.randint(2, n), rng)
        delta = min_gap(x)
        t_star, merged = merge_time(x, cfg)
        ratio = t_star / (0.5 * delta)
        if ratio > worst_time:
            worst_time = ratio
            worst_input = {"x": x.to_json()}
        worst_state = max(worst_state, min_gap(merged) - cfg.merge_tolerance * delta)
    return [
        CheckResult("merge_time_bound", trials, worst_time, 1.0 + MERGE_SLACK,
                    worst_time <= 1.0 + MERGE_SLACK, worst_input),
        CheckResult("merge_state_gap", trials, worst_state, EXACT_TOL, worst_state <= EXACT_TOL),
    ]


def check_two_point_merge(space: SpaceDescriptor, seed: int, trials: int,
                          cfg: FlowConfig) -> CheckResult:
    worst = -math.inf
    for i in range(trials):
        rng = _rng(seed, "twopoint", i)
        x = sample_tuple(space, 2, rng)
        delta = min_gap(x)
        t_star, merged = merge_time(x, cfg)
        worst = max(worst, abs(t_star - 0.5 * delta), min_gap(merged))
    return CheckResult("two_point_merge", trials, worst, EXACT_TOL, worst <= EXACT_TOL)


def check_pair_gap_stability(space: SpaceDescriptor, n: int, seed: int, trials: int) -> CheckResult:
    if n < 3:
        n = 3
    worst = -math.inf
    worst_input = None
    for i in range(trials):
        rng = _rng(seed, "gapstable", i)
        y = sample_tuple(space, n, rng)
        idx = rng.randrange(2, n)
        base = space.distance(y.coords[0], y.coords[1])
        lam = base * rng.uniform(0.05, 2.0)
        z = pair_resolvent(pair_resolvent(y, 0, idx, lam), 1, idx, lam)
        after = space.distance(z.coords[0], z.coords[1])
        allowed = base if base >= lam else base + lam
        if after - allowed > worst:
            worst = after - allowed
            worst_input = {"y": y.to_json(), "i": idx, "lam": lam}
    return CheckResult("pair_gap_stability", trials, worst, EXACT_TOL, worst <= EXACT_TOL, worst_input)


def check_min_attainment(space: SpaceDescriptor, n: int, seed: int, trials: int,
                         cfg: FlowConfig) -> CheckResult:
    # Two doublings suffice: once every coordinate has merged the objective
    # is exactly zero, and only the irrelevant collapse location keeps moving.
    capped = dataclasses.replace(cfg, max_doublings=min(cfg.max_doublings, 2))
    worst = -math.inf
    worst_input = None
    for i in range(trials):
        rng = _rng(seed, "attain", i)
        x = sample_tuple(space, n, rng)
        spread = max_spread(x)
        rep = flow_adaptive(x, 0.5 * spread, capped)
        ratio = sum_pairwise_distances(rep.final) / spread if len(rep.final) >= 2 else 0.0
        if ratio > worst:
            worst = ratio
            worst_input = {"x": x.to_json()}
    return CheckResult("min_attainment", trials, worst, ATTAINMENT_TOL,
                       worst <= ATTAINMENT_TOL, worst_input)


def check_permutation_limit(space: SpaceDescriptor, n: int, seed: int, trials: int) -> CheckResult:
    worst = -math.inf
    data = []
    for i in range(trials):
        rng = _rng(seed, "permlimit", i)
        x = sample_tuple(space, n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        y = PointTuple(space, tuple(x.coords[p] for p in perm))
        t = 0.25 * min_gap(x)
        seq = []
        for k in (32, 64, 128, 256):
            seq.append(hausdorff_distance(
                to_set(splitting_flow(x, t, k), 0.0),
                to_set(splitting_flow(y, t, k), 0.0),
            ))
        data.append(seq)
        worst = max(worst, (seq[-1] - EXACT_TOL) / max(seq[0], EXACT_TOL))
    return CheckResult("permutation_limit", trials, worst, 0.5, worst <= 0.5, data=data)


def check_oracle_consistency(space: SpaceDescriptor, n: int, seed: int, trials: int) -> CheckResult:
    """Splitting vs powers of the exact resolvent shrinks as k doubles."""
    if not isinstance(space, EuclideanSpace) or n * space.dim > 8:
        return CheckResult("oracle_consistency", 0, -math.inf, 0.5, True,
                           data={"skipped": "euclidean small cases only"})
    worst = -math.inf
    data = []
    for i in range(trials):
        rng = _rng(seed, "oracleconsist", i)
        x = sample_tuple(space, n, rng)
        scale = 0.3 * min_gap(x)
        seq = []
        for k in (4, 8, 16, 32, 64):
            lam = scale / k
            cur = x
            for _ in range(k):
                cur = full_resolvent_oracle(cur, lam)
            seq.append(product_distance(splitting_flow(x, scale, k), cur))
        data.append(seq)
        worst = max(worst, seq[-1] / max(seq[0], 1e-12))
    return CheckResult("oracle_consistency", trials, worst, 0.5, worst <= 0.5, data=data)


def check_resolvent_inequality(space: SpaceDescriptor, n: int, seed: int, trials: int) -> CheckResult:
    if not isinstance(space, EuclideanSpace) or n * space.dim > 8:
        return CheckResult("resolvent_inequality", 0, -math.inf, RESOLVENT_INEQ_TOL, True,
                           data={"skipped": "euclidean small cases only"})
    worst = -math.inf
    worst_input = None
    for i in range(trials):
        rng = _rng(seed, "resolvineq", i)
        x = sample_tuple(space, n, rng)
        y = sample_tuple(space, n, rng)
        lam = rng.uniform(0.02, 0.5)
        j = full_resolvent_oracle(x, lam)
        lhs = (
            sum_pairwise_distances(j)
            + (product_distance(x, j) ** 2 + product_distance(j, y) ** 2) / (2.0 * lam)
        )
        rhs = sum_pairwise_distances(y) + product_distance(x, y) ** 2 / (2.0 * lam)
        if lhs - rhs > worst:
            worst = lhs - rhs
            worst_input = {"x": x.to_json(), "y": y.to_json(), "lam": lam}
    return CheckResult("resolvent_inequality", trials, worst, RESOLVENT_INEQ_TOL,
                       worst <= RESOLVENT_INEQ_TOL, worst_input)


def check_retract_identity(space: SpaceDescriptor, n: int, seed: int, trials: int,
                           cfg: FlowConfig) -> CheckResult:
    worst = -math.inf
    for i in range(trials):
        rng = _rng(seed, "ridentity", i)
        a = sample_subset(space, rng.randint(1, n - 1), rng)
        rep = retract(a, n, cfg)
        worst = max(worst, hausdorff_distance(rep.output, a), rep.merge_time_used)
    return CheckResult("retract_identity", trials, worst, 0.0, worst <= 0.0)


def check_retract_contracts(space: SpaceDescriptor, n: int, seed: int, trials: int,
                            cfg: FlowConfig) -> list[CheckResult]:
    worst_card = -math.inf
    worst_prox = -math.inf
    worst_input = None
    for i in range(trials):
        rng = _rng(seed, "rcontract", i)
        a = sample_subset(space, n, rng)
        delta = min(pairwise_distances(space, a.points))
        rep = retract(a, n, cfg)
        worst_card = max(worst_card, float(rep.output_cardinality - (n - 1)))
        prox = hausdorff_distance(a, rep.output) / (n**1.5 * delta)
        if prox > worst_prox:
            worst_prox = prox
            worst_input = {"a": a.to_json()}
    return [
        CheckResult("retract_cardinality", trials, worst_card, 0.0, worst_card <= 0.0),
        CheckResult("retract_proximity", trials, worst_prox, 1.0 + EXACT_TOL,
                    worst_prox <= 1.0 + EXACT_TOL, worst_input),
    ]


# ---------------------------------------------------------------------------
# Scans.


def check_lipschitz_ratio(space: SpaceDescriptor, n: int, seed: int, samples: int,
                          flow_cfg: FlowConfig, perturbation_scale: float) -> CheckResult:
    """Empirical Lipschitz ratios of the retraction against the proved bound.

    Pairs alternate between independent draws and small perturbations of a
    common subset, so both far-apart and nearby regimes are exercised.
    """
    bound = lipschitz_constant_bound(n)
    worst = -math.inf
    worst_input = None
    degenerate = 0
    for i in range(samples):
        rng = _rng(seed, "lipscan", i)
        a = sample_subset(space, n, rng)
        if i % 2 == 0:
            b = sample_subset(space, n, rng)
        else:
            scale = perturbation_scale * min(pairwise_distances(space, a.points))
            b = perturb_subset(a, scale, rng)
        gap = hausdorff_distance(a, b)
        if gap <= 1e-12:
            degenerate += 1
            continue
        ra = retract(a, n, flow_cfg).output
        rb = retract(b, n, flow_cfg).output
        ratio = hausdorff_distance(ra, rb) / gap
        if ratio > worst:
            worst = ratio
            worst_input = {"a": a.to_json(), "b": b.to_json()}
    return CheckResult("lipschitz_ratio", samples - degenerate, worst, bound,
                       worst <= bound, worst_input, data={"degenerate_pairs": degenerate})


def lipschitz_scan(cfg: ScanConfig) -> ScanReport:
    check = check_lipschitz_ratio(cfg.space, cfg.n, cfg.seed, cfg.samples,
                                  cfg.flow, cfg.perturbation_scale)
    return ScanReport(cfg.space, cfg.n, cfg.samples, cfg.seed, (check,))


def bound_suite(cfg: ScanConfig) -> ScanReport:
    """Run every invariant check over fresh samples.

    Cheap checks use the full sample budget; flow-heavy ones run on a
    documented fraction of it so the suite stays interactive.  The
    acceptance tests drive the individual checks at their own counts.
    """
    s = cfg.samples
    fifth = max(1, s // 5)
    twentieth = max(1, s // 20)
    checks: list[CheckResult] = []
    checks.extend(check_cat0(cfg.space, cfg.seed, s))
    checks.append(check_geodesic_parametrization(cfg.space, cfg.seed, s))
    checks.append(check_hausdorff_metric(cfg.space, cfg.n, cfg.seed, s))
    checks.append(check_product_dominates_hausdorff(cfg.space, cfg.n, cfg.seed, s))
    checks.append(check_set_tuple_roundtrip(cfg.space, cfg.n, cfg.seed, s))
    checks.append(check_objective_lipschitz(cfg.space, cfg.n, cfg.seed, s))
    checks.append(check_objective_convexity(cfg.space, cfg.n, cfg.seed, s))
    checks.append(check_flow_nonexpansive(cfg.space, cfg.n, cfg.seed, s))
    checks.append(check_flow_descent(cfg.space, cfg.n, cfg.seed, twentieth, cfg.flow))
    checks.append(check_spread_bound(cfg.space, cfg.n, cfg.seed, fifth, cfg.flow))
    checks.extend(check_merge_time_bound(cfg.space, cfg.n, cfg.seed, fifth, cfg.flow))
    checks.append(check_two_point_merge(cfg.space, cfg.seed, fifth, cfg.flow))
    checks.append(check_pair_gap_stability(cfg.space, cfg.n, cfg.seed, s))
    checks.append(check_min_attainment(cfg.space, cfg.n, cfg.seed, fifth, cfg.flow))
    checks.append(check_permutation_limit(cfg.space, cfg.n, cfg.seed, twentieth))
    checks.append(check_oracle_consistency(cfg.space, min(cfg.n, 3), cfg.seed, twentieth))
    checks.append(check_resolvent_inequality(cfg.space, min(cfg.n, 3), cfg.seed,
                                             min(s, 60)))
    checks.append(check_retract_identity(cfg.space, cfg.n, cfg.seed, fifth, cfg.flow))
    checks.extend(check_retract_contracts(cfg.space, cfg.n, cfg.seed, fifth, cfg.flow))
    checks.append(check_lipschitz_ratio(cfg.space, cfg.n, cfg.seed, fifth, cfg.flow,
                                        cfg.perturbation_scale))
    return ScanReport(cfg.space, cfg.n, cfg.samples, cfg.seed, tuple(checks))


def convergence_study(cfg: ScanConfig, t: float) -> ScanReport:
    """Cauchy behavior of the splitting flow as the sweep count doubles.

    For each sampled tuple the distances between successive doublings are
    recorded; they must never increase, and they reach the configured
    tolerance either for small t (distances scale like t^2/k) or once t
    exceeds the sample's collapse time, where the discrete flow lands on
    the common limit exactly.  At intermediate t they decay like 1/k and
    the study honestly reports not reaching the tolerance.  On small
    euclidean instances the flow is also compared against powers of the
    exact resolvent with step t/k.
    """
    if t < 0.0:
        raise GeometryError("flow time must be nonnegative")
    space = cfg.space
    worst_monotone = -math.inf
    worst_final = -math.inf
    sequences = []
    for i in range(cfg.samples):
        rng = _rng(cfg.seed, "cauchy", i)
        x = sample_tuple(space, cfg.n, rng)
        k = cfg.flow.sweeps_per_run
        prev = splitting_flow(x, t, k)
        seq = []
        for _ in range(cfg.flow.max_doublings):
            k *= 2
            cur = splitting_flow(x, t, k)
            seq.append(product_distance(prev, cur))
            prev = cur
            if seq[-1] <= cfg.flow.richardson_tolerance:
                break
        sequences.append(seq)
        worst_monotone = max(worst_monotone,
                             max((b - a for a, b in zip(seq, seq[1:])), default=-math.inf))
        worst_final = max(worst_final, seq[-1])
    checks = [
        CheckResult("cauchy_monotone", cfg.samples, worst_monotone, 1e-10,
                    worst_monotone <= 1e-10, data=sequences),
        CheckResult("cauchy_reaches_tolerance", cfg.samples, worst_final,
                    cfg.flow.richardson_tolerance,
                    worst_final <= cfg.flow.richardson_tolerance),
    ]

    if isinstance(space, EuclideanSpace) and cfg.n * space.dim <= 8:
        worst_oracle = -math.inf
        details = []
        for i in range(min(cfg.samples, 3)):
            rng = _rng(cfg.seed, "oraclepow", i)
            x = sample_tuple(space, cfg.n, rng)
            seq = []
            k = 4
            while True:
                if t == 0.0:
                    seq.append(0.0)
                    break
                cur = x
                for _ in range(k):
                    cur = full_resolvent_oracle(cur, t / k)
                seq.append(product_distance(splitting_flow(x, t, k), cur))
                # always show a few doublings of decay, then stop once the
                # agreement is comfortably inside tolerance
                if k >= 1024 or (len(seq) >= 3 and seq[-1] <= 0.5 * ORACLE_AGREEMENT_TOL):
                    break
                k *= 2
            details.append(seq)
            worst_oracle = max(worst_oracle, seq[-1])
        checks.append(CheckResult("oracle_agreement", min(cfg.samples, 3), worst_oracle,
                                  ORACLE_AGREEMENT_TOL, worst_oracle <= ORACLE_AGREEMENT_TOL,
                                  data=details))
    else:
        checks.append(CheckResult("oracle_agreement", 0, -math.inf, ORACLE_AGREEMENT_TOL,
                                  True, data={"skipped": "euclidean small cases only"}))
    return ScanReport(cfg.space, cfg.n, cfg.samples, cfg.seed, tuple(checks))


def matching_diagnostic(a: FiniteSubset, b: FiniteSubset):
    """Greedy nearest-pair matching between two equal-size subsets.

    Repeatedly matches the globally closest unmatched pair.  Returns the
    list of index pairs when the worst matched distance stays within the
    Hausdorff distance (always the case when the min gap of either set
    exceeds twice the Hausdorff distance); otherwise returns None.
    """
    if len(a) != len(b):
        raise GeometryError("matching needs equal cardinalities")
    if a.space != b.space:
        raise GeometryError("operands live in different spaces")
    space = a.space
    n = len(a)
    free_a = set(range(n))
    free_b = set(range(n))
    pairs = []
    worst = 0.0
    while free_a:
        best = None
        for i in sorted(free_a):
            for j in sorted(free_b):
                d = space.distance(a.points[i], b.points[j])
                if best is None or d < best[0]:
                    best = (d, i, j)
        d, i, j = best
        pairs.append((i, j))
        worst = max(worst, d)
        free_a.remove(i)
        free_b.remove(j)
    if worst <= hausdorff_distance(a, b) + 1e-12:
        return pairs
    return None
