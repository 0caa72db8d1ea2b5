"""Randomized verification harness for every proved bound in the package.

Each check draws its own per-sample generators from (seed, label, index),
so reports are deterministic for a given configuration and samples could
be evaluated in any order or in parallel without changing the outcome.

``bound_suite`` uses that: one helper process, forked on the first split
and kept, runs the suite's odd-indexed rows while the caller runs the even
ones, and the caller merges them in suite order into the bytes a
one-process run gives.  ``lipschitz_scan`` does the same with its trials
when the retract marches: at least two trials, n >= 3, and a space that
does not merge exactly (not a tree, not the line).  A call to a running
helper is a pipe round trip of about 70 us back to back, but 240 to 250 us
after a millisecond or more of work in the caller, as in a scan: it waits
for the idle helper to wake.  A two-point retract is a closed-form
midpoint, and a tree or line retract runs the exact flow, so a scan of
those holds too little work to pay that and stays in one process, as
``convergence_study`` does.  The helper runs the package as
it was when it was forked, and a split that finds a binding of the
package changed since then forks a fresh one (``_run_split``).  Work
stays in the caller's process where a second process cannot help or
would hide it: without ``os.fork``, with a second thread running (a fork
would inherit its locks half-held), with a tracer or profiler attached
(coverage, cProfile and debuggers see every trial), when the request
does not pickle (a space class defined in a function), when a pipe or the
fork fails, and inside a split: a split never nests, so the suite's
``lipschitz_ratio`` row, which runs in the helper, shares no trial.
"""

from __future__ import annotations

import atexit
import contextlib
import gc
import math
import operator
import os
import pickle
import random
import signal
import sys
import threading
from dataclasses import dataclass

from .geometry import GeometryError, SpaceDescriptor, _check_count, _merges_exactly, _toward
from .subset_space import (
    FiniteSubset,
    PointTuple,
    _built,
    _merge,
    _set_of,
    hausdorff_distance,
    max_spread,
    min_gap,
    order_tuple,
    pairwise_distances,
    product_distance,
    to_set,
)
from .flow import (
    DOUBLING_TOLERANCE,
    FlowConfig,
    _check_time,
    _refine,
    _resolvent,
    _traced_run,
    _wrap,
    # flow_adaptive is no longer called here, but stays a name of this
    # module: bench/spans.py wraps verify.flow_adaptive when it traces a run.
    flow_adaptive,  # noqa: F401
    full_resolvent_oracle,
    merge_time,
    oracle_supports,
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

# Least distance between the coordinates of a sampled tuple; halved each
# time 200 n draws in a row fail to keep it.
SAMPLE_MIN_SEP = 1e-3


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
        _check_count("scan n", self.n, 2)
        _check_count("samples", self.samples, 1)
        # the seed is written into every generator's seed text, where 1.0
        # and True would draw apart from 1
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise GeometryError(f"seed must be an integer, got {self.seed!r}")
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


def sample_tuple(space: SpaceDescriptor, n: int, rng: random.Random) -> PointTuple:
    """Random tuple with pairwise separated coordinates.

    ``random_point`` builds only points the space's check admits, so their
    distances are taken by the kernel and the tuple is built unchecked.
    """
    sep = SAMPLE_MIN_SEP
    gap = space._gap
    pts = []
    attempts = 0
    while len(pts) < n:
        cand = space.random_point(rng)
        if all(gap(cand.data, p.data) > sep for p in pts):
            pts.append(cand)
        attempts += 1
        if attempts > 200 * n:
            sep *= 0.5  # crowded space; relax rather than loop forever
            attempts = 0
    return _built(PointTuple, space=space, coords=tuple(pts))


def sample_subset(space: SpaceDescriptor, n: int, rng: random.Random) -> FiniteSubset:
    """Random subset of exactly n points: ``to_set(sample_tuple(space, n, rng), 0.0)``.

    ``sample_tuple`` builds its points canonical and more than sep > 0 apart,
    so the subset is ``_set_of`` them, with no check or clustering pass.
    """
    return _set_of(space, sample_tuple(space, n, rng).coords)


def _perturb(space: SpaceDescriptor, p, scale: float, rng: random.Random):
    # p moved toward a random target by a Gaussian-sized step: one gap to
    # the target, and _toward along it (p stays put when the target is
    # within 1e-12 of it).  p is trusted.
    target = space.random_point(rng)
    d = space._gap(p.data, target.data)
    if d < 1e-12:
        return p
    return _toward(space, p, target, min(abs(rng.gauss(0.0, scale)), d) / d, d)


def perturb_point(space: SpaceDescriptor, p, scale: float, rng: random.Random):
    """Move p toward a random target by a Gaussian-sized step of the given scale.

    p is checked once, here; the step measures one gap to the target, as
    ``distance`` would, and moves along it as ``geodesic_point`` would.
    """
    space._check_point(p)
    return _perturb(space, p, scale, rng)


def perturb_subset(a: FiniteSubset, scale: float, rng: random.Random) -> FiniteSubset:
    """``make_subset`` of ``perturb_point`` applied to each point of a, on the same draws.

    It trusts a's points as checked, so no point is checked again, and the
    moved points merge at tolerance 0 as ``make_subset`` merges them.
    """
    space = a.space
    return _merge(space, [_perturb(space, p, scale, rng) for p in a.points], 0.0)


def _trials(seed: int, label: str, trials: int, trial) -> list:
    """Outcomes of ``trial(rng)``, one per generator drawn from (seed, label, index)."""
    return [trial(_rng(seed, label, i)) for i in range(trials)]


def _row(name: str, outcomes, threshold: float, data=None) -> CheckResult:
    """Report row from per-trial ``(value, describe)`` outcomes.

    The first strictly largest value wins (a NaN never does), and only the
    winner's ``describe``, when it has one, is called to build worst_input.
    """
    worst, describe = -math.inf, None
    for value, desc in outcomes:
        if value > worst:
            worst, describe = value, desc
    return CheckResult(name, len(outcomes), worst, threshold, worst <= threshold,
                       describe() if describe else None, data)


def _oracle_gap(x: PointTuple, t: float, k: int) -> float:
    """Product distance between k splitting sweeps and k exact resolvents of step t/k.

    The resolvents run on x's bare data, as a march does, and are wrapped once.
    """
    data = [p.data for p in x.coords]
    for _ in range(k):
        data = _resolvent(x.space, data, t / k)
    return product_distance(splitting_flow(x, t, k), _wrap(x, data))


# ---------------------------------------------------------------------------
# Individual checks.  Each returns one or more CheckResult rows and draws its
# own deterministic generators, so callers can run any subset independently.


def cat0_audit(space: SpaceDescriptor, rng: random.Random):
    """One trial's slacks in three defining CAT(0) inequalities.

    The quadratic comparison inequality along a random geodesic, the planar
    comparison-point inequality for a random triangle, and joint convexity
    of the metric along two random geodesics.  Positive slack is a
    violation; the comparison slack is None for a degenerate triangle (a
    side below 1e-12).
    """
    z = space.random_point(rng)
    x0 = space.random_point(rng)
    x1 = space.random_point(rng)
    t = rng.random()
    xt = space.geodesic_point(x0, x1, t)
    d01 = space.distance(x0, x1)
    quad = space.distance(z, xt) ** 2 - (
        (1.0 - t) * space.distance(z, x0) ** 2
        + t * space.distance(z, x1) ** 2
        - t * (1.0 - t) * d01 * d01
    )

    p = space.random_point(rng)
    q = space.random_point(rng)
    r = space.random_point(rng)
    s = rng.random()
    u = rng.random()
    side_q = space.distance(p, q)
    side_r = space.distance(p, r)
    if side_q < 1e-12 or side_r < 1e-12:
        comp = None
    else:
        side_qr = space.distance(q, r)
        cos_a = (side_q**2 + side_r**2 - side_qr**2) / (2.0 * side_q * side_r)
        cos_a = min(1.0, max(-1.0, cos_a))
        sin_a = math.sqrt(max(0.0, 1.0 - cos_a * cos_a))
        x = space.geodesic_point(p, q, u)
        y = space.geodesic_point(p, r, s)
        flat = math.hypot(u * side_q - s * side_r * cos_a, s * side_r * sin_a)
        comp = space.distance(x, y) - flat

    y0 = space.random_point(rng)
    y1 = space.random_point(rng)
    v = rng.random()
    lhs = space.distance(space.geodesic_point(x0, x1, v), space.geodesic_point(y0, y1, v))
    rhs = (1.0 - v) * space.distance(x0, y0) + v * space.distance(x1, y1)
    return quad, comp, lhs - rhs


def check_cat0(space: SpaceDescriptor, seed: int, trials: int) -> list[CheckResult]:
    # not _trials: this stream puts the index before the label
    slacks = [cat0_audit(space, random.Random(f"{seed}:{i}:cat0")) for i in range(trials)]
    data = {"skipped_degenerate": sum(comp is None for _, comp, _ in slacks)}
    names = ("cat0_inequality", "comparison_points", "geodesic_convexity")
    # a skipped comparison enters as -inf, which never becomes the worst value
    return [_row(name, [(-math.inf if s[k] is None else s[k], None) for s in slacks],
                 EXACT_TOL, data)
            for k, name in enumerate(names)]


def check_geodesic_parametrization(space: SpaceDescriptor, seed: int, trials: int) -> CheckResult:
    def trial(rng):
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
        return err, lambda: {"p": space.point_to_json(p), "q": space.point_to_json(q),
                             "s": s, "t": t}

    return _row("geodesic_parametrization", _trials(seed, "geoparam", trials, trial), EXACT_TOL)


def check_hausdorff_metric(space: SpaceDescriptor, n: int, seed: int, trials: int) -> CheckResult:
    def trial(rng):
        sizes = [rng.randint(1, n) for _ in range(3)]
        a, b, c = (sample_subset(space, m, rng) for m in sizes)
        violation = max(
            abs(hausdorff_distance(a, b) - hausdorff_distance(b, a)),
            hausdorff_distance(a, a),
            hausdorff_distance(a, c) - hausdorff_distance(a, b) - hausdorff_distance(b, c),
        )
        return violation, lambda: {"a": a.to_json(), "b": b.to_json(), "c": c.to_json()}

    return _row("hausdorff_metric", _trials(seed, "hausmetric", trials, trial), EXACT_TOL)


def check_product_dominates_hausdorff(space: SpaceDescriptor, n: int, seed: int,
                                      trials: int) -> CheckResult:
    def trial(rng):
        x = sample_tuple(space, n, rng)
        y = sample_tuple(space, n, rng)
        a, b = _set_of(space, x.coords), _set_of(space, y.coords)
        return hausdorff_distance(a, b) - product_distance(x, y), None

    return _row("product_dominates_hausdorff", _trials(seed, "proddom", trials, trial), EXACT_TOL)


def check_set_tuple_roundtrip(space: SpaceDescriptor, n: int, seed: int, trials: int) -> CheckResult:
    def trial(rng):
        a = sample_subset(space, rng.randint(1, n), rng)
        back = to_set(order_tuple(a, n), 0.0)
        return hausdorff_distance(back, a), None

    return _row("set_tuple_roundtrip", _trials(seed, "roundtrip", trials, trial), 0.0)


def check_objective_lipschitz(space: SpaceDescriptor, n: int, seed: int, trials: int) -> CheckResult:
    lip = n**1.5

    def trial(rng):
        x = sample_tuple(space, n, rng)
        y = sample_tuple(space, n, rng)
        gap = abs(sum_pairwise_distances(x) - sum_pairwise_distances(y))
        return gap - lip * product_distance(x, y), None

    return _row("objective_lipschitz", _trials(seed, "objlip", trials, trial), EXACT_TOL)


def check_objective_convexity(space: SpaceDescriptor, n: int, seed: int, trials: int) -> CheckResult:
    def trial(rng):
        x = sample_tuple(space, n, rng)
        y = sample_tuple(space, n, rng)
        t = rng.random()
        mid = _built(PointTuple, space=space, coords=tuple(
            space.geodesic_point(p, q, t) for p, q in zip(x.coords, y.coords)
        ))
        bound = (1.0 - t) * sum_pairwise_distances(x) + t * sum_pairwise_distances(y)
        return sum_pairwise_distances(mid) - bound, None

    return _row("objective_convexity", _trials(seed, "objconv", trials, trial), EXACT_TOL)


def check_flow_nonexpansive(space: SpaceDescriptor, n: int, seed: int, trials: int) -> CheckResult:
    def trial(rng):
        x = sample_tuple(space, n, rng)
        y = sample_tuple(space, n, rng)
        t = rng.uniform(0.01, 1.0)
        k = rng.randint(1, 32)
        before = product_distance(x, y)
        after = product_distance(splitting_flow(x, t, k), splitting_flow(y, t, k))
        return after - before, lambda: {"x": x.to_json(), "y": y.to_json(), "t": t, "k": k}

    return _row("flow_nonexpansive", _trials(seed, "nonexp", trials, trial), EXACT_TOL)


def check_flow_descent(space: SpaceDescriptor, n: int, seed: int, trials: int) -> CheckResult:
    def trial(rng):
        x = sample_tuple(space, n, rng)
        t = rng.uniform(0.1, 1.0) * min_gap(x)
        # the raw trace: a FlowReport would raise on the ascent this row reports
        _, objective = _traced_run(space, [p.data for p in x.coords], t, 64)
        values = [f for _, f in objective]
        return max(b - a for a, b in zip(values, values[1:])), None

    return _row("flow_descent", _trials(seed, "descent", trials, trial), EXACT_TOL)


def check_spread_bound(space: SpaceDescriptor, n: int, seed: int, trials: int,
                       cfg: FlowConfig) -> CheckResult:
    def trial(rng):
        x = sample_tuple(space, n, rng)
        t = rng.uniform(0.05, 1.0) * 0.5 * min_gap(x)
        moved = product_distance(splitting_flow(x, t, cfg.sweeps_per_run), x)
        return moved / (2.0 * t * n**1.5), lambda: {"x": x.to_json(), "t": t}

    return _row("flow_spread_bound", _trials(seed, "spread", trials, trial), SPREAD_SLACK)


def check_merge_time_bound(space: SpaceDescriptor, n: int, seed: int, trials: int,
                           cfg: FlowConfig) -> list[CheckResult]:
    def trial(rng):
        x = sample_tuple(space, rng.randint(2, n), rng)
        delta = min_gap(x)
        t_star, merged = merge_time(x, cfg)
        return ((t_star / (0.5 * delta), lambda: {"x": x.to_json()}),
                (min_gap(merged) - cfg.merge_tolerance * delta, None))

    outcomes = _trials(seed, "mergebound", trials, trial)
    return [
        _row("merge_time_bound", [time for time, _ in outcomes], 1.0 + EXACT_TOL),
        _row("merge_state_gap", [state for _, state in outcomes], EXACT_TOL),
    ]


def check_two_point_merge(space: SpaceDescriptor, seed: int, trials: int) -> CheckResult:
    # Two points meet before merge_time reads its FlowConfig.
    def trial(rng):
        x = sample_tuple(space, 2, rng)
        delta = min_gap(x)
        t_star, merged = merge_time(x, FlowConfig())
        return max(abs(t_star - 0.5 * delta), min_gap(merged)), None

    return _row("two_point_merge", _trials(seed, "twopoint", trials, trial), EXACT_TOL)


def check_pair_gap_stability(space: SpaceDescriptor, n: int, seed: int, trials: int) -> CheckResult:
    if n < 3:
        n = 3

    def trial(rng):
        y = sample_tuple(space, n, rng)
        idx = rng.randrange(2, n)
        base = space.distance(y.coords[0], y.coords[1])
        lam = base * rng.uniform(0.05, 2.0)
        z = pair_resolvent(pair_resolvent(y, 0, idx, lam), 1, idx, lam)
        after = space.distance(z.coords[0], z.coords[1])
        allowed = base if base >= lam else base + lam
        return after - allowed, lambda: {"y": y.to_json(), "i": idx, "lam": lam}

    return _row("pair_gap_stability", _trials(seed, "gapstable", trials, trial), EXACT_TOL)


def check_min_attainment(space: SpaceDescriptor, n: int, seed: int, trials: int,
                         cfg: FlowConfig) -> CheckResult:
    # Two doublings suffice: once every coordinate has merged the objective
    # is exactly zero, and only the irrelevant collapse location keeps moving.
    doublings = min(cfg.max_doublings, 2)

    def trial(rng):
        x = sample_tuple(space, n, rng)
        spread = max_spread(x)
        final = _refine(x, 0.5 * spread, cfg.sweeps_per_run, doublings)[0]
        ratio = sum_pairwise_distances(final) / spread if len(final) >= 2 else 0.0
        return ratio, lambda: {"x": x.to_json()}

    return _row("min_attainment", _trials(seed, "attain", trials, trial), ATTAINMENT_TOL)


def check_permutation_limit(space: SpaceDescriptor, n: int, seed: int, trials: int) -> CheckResult:
    def trial(rng):
        x = sample_tuple(space, n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        y = _built(PointTuple, space=space, coords=tuple(x.coords[p] for p in perm))
        t = 0.25 * min_gap(x)
        return [hausdorff_distance(to_set(splitting_flow(x, t, k), 0.0),
                                   to_set(splitting_flow(y, t, k), 0.0))
                for k in (32, 64, 128, 256)]

    seqs = _trials(seed, "permlimit", trials, trial)
    ratios = [((seq[-1] - EXACT_TOL) / max(seq[0], EXACT_TOL), None) for seq in seqs]
    return _row("permutation_limit", ratios, 0.5, data=seqs)


def check_oracle_consistency(space: SpaceDescriptor, n: int, seed: int, trials: int) -> CheckResult:
    """Splitting vs powers of the exact resolvent shrinks as k doubles."""
    if not oracle_supports(space, n):
        return _row("oracle_consistency", [], 0.5,
                    data={"skipped": "euclidean small cases only"})

    def trial(rng):
        x = sample_tuple(space, n, rng)
        scale = 0.3 * min_gap(x)
        return [_oracle_gap(x, scale, k) for k in (4, 8, 16, 32, 64)]

    seqs = _trials(seed, "oracleconsist", trials, trial)
    ratios = [(seq[-1] / max(seq[0], 1e-12), None) for seq in seqs]
    return _row("oracle_consistency", ratios, 0.5, data=seqs)


def check_resolvent_inequality(space: SpaceDescriptor, n: int, seed: int, trials: int) -> CheckResult:
    if not oracle_supports(space, n):
        return _row("resolvent_inequality", [], RESOLVENT_INEQ_TOL,
                    data={"skipped": "euclidean small cases only"})

    def trial(rng):
        x = sample_tuple(space, n, rng)
        y = sample_tuple(space, n, rng)
        lam = rng.uniform(0.02, 0.5)
        j = full_resolvent_oracle(x, lam)
        lhs = (
            sum_pairwise_distances(j)
            + (product_distance(x, j) ** 2 + product_distance(j, y) ** 2) / (2.0 * lam)
        )
        rhs = sum_pairwise_distances(y) + product_distance(x, y) ** 2 / (2.0 * lam)
        return lhs - rhs, lambda: {"x": x.to_json(), "y": y.to_json(), "lam": lam}

    return _row("resolvent_inequality", _trials(seed, "resolvineq", trials, trial),
                RESOLVENT_INEQ_TOL)


def check_retract_identity(space: SpaceDescriptor, n: int, seed: int, trials: int) -> CheckResult:
    def trial(rng):
        a = sample_subset(space, rng.randint(1, n - 1), rng)
        rep = retract(a, n)
        return max(hausdorff_distance(rep.output, a), rep.merge_time_used), None

    return _row("retract_identity", _trials(seed, "ridentity", trials, trial), 0.0)


def check_retract_contracts(space: SpaceDescriptor, n: int, seed: int, trials: int,
                            cfg: FlowConfig) -> list[CheckResult]:
    def trial(rng):
        a = sample_subset(space, n, rng)
        delta = min(pairwise_distances(space, a.points))
        rep = retract(a, n, cfg)
        prox = hausdorff_distance(a, rep.output) / (n**1.5 * delta)
        return ((float(rep.output_cardinality - (n - 1)), None),
                (prox, lambda: {"a": a.to_json()}))

    outcomes = _trials(seed, "rcontract", trials, trial)
    return [
        _row("retract_cardinality", [card for card, _ in outcomes], 0.0),
        _row("retract_proximity", [prox for _, prox in outcomes], 1.0 + EXACT_TOL),
    ]


# ---------------------------------------------------------------------------
# Scans.


def _scan_jobs(space: SpaceDescriptor, n: int, seed: int, samples: int,
               flow_cfg: FlowConfig, perturbation_scale: float) -> list:
    """One zero-argument job per trial of ``check_lipschitz_ratio``.

    A job returns None for a degenerate pair, else its ratio and its two
    subsets.
    """
    def trial(i):
        rng = _rng(seed, "lipscan", i)
        a = sample_subset(space, n, rng)
        if i % 2 == 0:
            b = sample_subset(space, n, rng)
        else:
            scale = perturbation_scale * min(pairwise_distances(space, a.points))
            b = perturb_subset(a, scale, rng)
        gap = hausdorff_distance(a, b)
        if gap <= 1e-12:
            return None
        ra = retract(a, n, flow_cfg).output
        rb = retract(b, n, flow_cfg).output
        return hausdorff_distance(ra, rb) / gap, a, b

    return [lambda i=i: trial(i) for i in range(samples)]


def check_lipschitz_ratio(space: SpaceDescriptor, n: int, seed: int, samples: int,
                          flow_cfg: FlowConfig, perturbation_scale: float) -> CheckResult:
    """Empirical Lipschitz ratios of the retraction against the proved bound.

    Pairs alternate between independent draws and small perturbations of a
    common subset, so both far-apart and nearby regimes are exercised.
    Degenerate pairs (Hausdorff gap at most 1e-12) are counted, not kept.

    The trials are ``_scan_jobs``.  When the retract marches (two or more
    trials, n >= 3, a space that does not merge exactly) they run through
    ``_run_split``, the helper process taking the odd-indexed trials; the
    row has the bytes of a one-process run, and a failing trial raises
    what a one-process run raises.
    """
    args = (space, n, seed, samples, flow_cfg, perturbation_scale)
    marches = samples >= 2 and n >= 3 and not _merges_exactly(space)
    outcomes = _run_split(_scan_jobs, args) if marches else [job() for job in _scan_jobs(*args)]
    kept = [(ratio, lambda a=a, b=b: {"a": a.to_json(), "b": b.to_json()})
            for ratio, a, b in filter(None, outcomes)]
    return _row("lipschitz_ratio", kept, lipschitz_constant_bound(n),
                data={"degenerate_pairs": samples - len(kept)})


def lipschitz_scan(cfg: ScanConfig) -> ScanReport:
    check = check_lipschitz_ratio(cfg.space, cfg.n, cfg.seed, cfg.samples,
                                  cfg.flow, cfg.perturbation_scale)
    return ScanReport(cfg.space, cfg.n, cfg.samples, cfg.seed, (check,))


# True while _run_split runs, in its caller, and always in the helper, which is
# forked while it is set: a split never nests.
_splitting = False

# The modules whose bindings, and those of the classes they define, a helper shares with its caller.
_PACKAGE_MODULES = ("geometry", "subset_space", "flow", "retraction", "verify")


def _stays_in_process() -> bool:
    """Whether split jobs must all run here: inside a split, no fork, threads, or a tool watching."""
    # From 3.12 on, cProfile and coverage may watch through sys.monitoring,
    # whose tool ids are 0 to 5, in place of a trace or profile function.
    monitoring = getattr(sys, "monitoring", None)
    return (_splitting or not hasattr(os, "fork") or threading.active_count() > 1
            or sys.gettrace() is not None or sys.getprofile() is not None
            or (monitoring is not None and any(monitoring.get_tool(t) for t in range(6))))


def _run_share(jobs, indices):
    """Outcomes of the jobs at ``indices``, in order, up to the first that raises.

    Returns ``(rows, failure)``: rows by index, and ``(index, exception)``
    of that job, or None.
    """
    rows = {}
    for i in indices:
        try:
            rows[i] = jobs[i]()
        except Exception as exc:
            return rows, (i, exc)
    return rows, None


def _bindings() -> list:
    """The objects bound in ``_PACKAGE_MODULES`` and in the classes they define, in order.

    A class's ``__slotnames__`` is left out: pickle caches it on the class
    the first time it pickles an instance, and it changes no behaviour.
    """
    modules = [vars(sys.modules[f"{__package__}.{name}"]) for name in _PACKAGE_MODULES]
    classes = [vars(value) for ns in modules for value in ns.values()
               if isinstance(value, type) and value.__module__ == ns["__name__"]]
    return [value for ns in modules for value in ns.values()] + [
        value for ns in classes for key, value in ns.items() if key != "__slotnames__"]


class _Helper:
    """The caller's handle on its helper: pid, the caller's ends of the two
    pipes, and the bindings the helper was forked with (None: no helper)."""

    def __init__(self):
        self.pid = self.requests = self.replies = self.bindings = None


# Changed only in place, so the bindings it is compared by never see it change.
_helper = _Helper()


def _send(pipe, payload: bytes) -> None:
    pipe.write(len(payload).to_bytes(8, "little") + payload)
    pipe.flush()


def _receive(pipe):
    """The next length-prefixed message on ``pipe``, or None at end of file."""
    head = pipe.read(8)
    if len(head) < 8:
        return None
    size = int.from_bytes(head, "little")
    body = pipe.read(size)
    return body if len(body) == size else None


def _serve(requests_fd: int, replies_fd: int) -> None:
    """The helper's loop, until its caller closes the request pipe.

    Each request is ``(builder, args, indices)``: the helper rebuilds the
    jobs as ``builder(*args)`` and replies with the pickled ``_run_share``
    of ``indices``, or with no bytes where that does not pickle.  It leaves
    by ``os._exit``, so it neither flushes the caller's buffers nor runs
    its atexit handlers.
    """
    try:
        # The helper's collector leaves the caller's objects alone: no
        # finalizer of the caller's garbage runs twice.
        gc.freeze()
        with open(requests_fd, "rb") as requests, open(replies_fd, "wb") as replies:
            while (request := _receive(requests)) is not None:
                try:
                    builder, args, indices = pickle.loads(request)
                    reply = pickle.dumps(_run_share(builder(*args), indices))
                except Exception:  # the caller runs what the helper cannot deliver
                    reply = b""
                _send(replies, reply)
    finally:
        os._exit(0)


def _spawn(bindings: list) -> bool:
    """Fork a helper with the package as ``bindings`` has it now; False when a pipe or the fork fails."""
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return False
    requests_r, requests_w, replies_r, replies_w = fds
    if pid == 0:
        os.close(requests_w)
        os.close(replies_r)
        _serve(requests_r, replies_w)
    os.close(requests_r)
    os.close(replies_w)
    _helper.pid, _helper.requests, _helper.replies = pid, open(requests_w, "wb"), open(replies_r, "rb")
    # held, so no other object can take one of their ids while the helper lives
    _helper.bindings = bindings
    return True


def _forget() -> None:
    """Close this process's ends of the helper's pipes and drop the handle.

    A process forked from the caller runs it first thing, so it never
    writes to the caller's helper.
    """
    for pipe in (_helper.requests, _helper.replies):
        if pipe is not None:
            with contextlib.suppress(OSError):
                pipe.close()
    _helper.__init__()


def _retire() -> None:
    """Close the helper's pipes, kill it and reap it; without a helper, nothing."""
    pid = _helper.pid
    if pid is None:
        return
    _forget()
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)
    with contextlib.suppress(ChildProcessError):
        os.waitpid(pid, 0)


atexit.register(_retire)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)


def _run_split(builder, args) -> list:
    """Outcomes of the zero-argument jobs ``builder(*args)``, in order, as one process gives them.

    One helper process, forked on the first split and kept, runs the
    odd-indexed jobs while the caller runs the even ones.  It is sent
    ``(builder, args, indices)``, so ``builder`` is a module-level function
    and ``args`` pickle, and it runs the package as it was when it was
    forked.  So each split compares, by identity, the objects bound in
    ``_PACKAGE_MODULES`` and in their classes with those at the fork, and
    forks a fresh helper on any difference: a wrapper set on
    ``verify.check_*``, ``verify.retract`` or a space class reaches it.  A
    change made in place, inside a container or an object, is not seen.
    The helper is retired (pipes closed, killed, reaped) when stale, when
    it dies, on an exception in the caller that is not a job's, and at
    exit.  ``_splitting`` is set while a split runs, so a split inside a
    job runs in that job's process.  The lowest-indexed failing job
    raises, as in one process.  What the helper cannot deliver (an
    exception that does not pickle, a helper that dies) the caller runs
    itself, and where the request does not pickle or a pipe or the fork
    fails it runs every job, as in the cases ``_stays_in_process`` lists.
    """
    global _splitting
    jobs = builder(*args)
    if _stays_in_process():
        return [job() for job in jobs]
    try:
        request = pickle.dumps((builder, args, range(1, len(jobs), 2)))
    except (pickle.PicklingError, AttributeError, TypeError):  # e.g. a class defined in a function
        return [job() for job in jobs]
    bindings = _bindings()
    if _helper.pid is not None and not (len(bindings) == len(_helper.bindings)
                                        and all(map(operator.is_, bindings, _helper.bindings))):
        _retire()
    _splitting = True
    try:
        if _helper.pid is None and not _spawn(bindings):
            return [job() for job in jobs]
        return _served(request, jobs)
    finally:
        _splitting = False


def _served(request: bytes, jobs) -> list:
    """``_run_split``'s exchange with the helper, which is alive and current."""
    try:
        try:
            _send(_helper.requests, request)
        except BrokenPipeError:  # the helper died while idle
            _retire()
        rows, failure = _run_share(jobs, range(0, len(jobs), 2))
        reply = _receive(_helper.replies) if _helper.pid is not None else None
        if reply is None:  # the helper died mid-call
            _retire()
    except BaseException:
        _retire()
        raise
    delivered = None
    if reply:  # empty: the helper's rows did not pickle
        with contextlib.suppress(Exception):  # an exception that does not rebuild here
            delivered = pickle.loads(reply)
    theirs, their_failure = delivered or _run_share(
        jobs, range(1, failure[0] if failure else len(jobs), 2))
    rows.update(theirs)
    failures = [f for f in (failure, their_failure) if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [rows[i] for i in range(len(jobs))]


def _suite_jobs(cfg: ScanConfig) -> tuple:
    """``bound_suite``'s twenty rows, in report order, as zero-argument jobs."""
    space, n, seed, flow = cfg.space, cfg.n, cfg.seed, cfg.flow
    s = cfg.samples
    fifth = max(1, s // 5)
    twentieth = max(1, s // 20)
    # The check_* names are looked up when a job runs, so a wrapper that
    # replaces one on this module still sees its row.
    return (
        lambda: check_cat0(space, seed, s),
        lambda: check_geodesic_parametrization(space, seed, s),
        lambda: check_hausdorff_metric(space, n, seed, s),
        lambda: check_product_dominates_hausdorff(space, n, seed, s),
        lambda: check_set_tuple_roundtrip(space, n, seed, s),
        lambda: check_objective_lipschitz(space, n, seed, s),
        lambda: check_objective_convexity(space, n, seed, s),
        lambda: check_flow_nonexpansive(space, n, seed, s),
        lambda: check_flow_descent(space, n, seed, twentieth),
        lambda: check_spread_bound(space, n, seed, fifth, flow),
        lambda: check_merge_time_bound(space, n, seed, fifth, flow),
        lambda: check_two_point_merge(space, seed, fifth),
        lambda: check_pair_gap_stability(space, n, seed, s),
        lambda: check_min_attainment(space, n, seed, fifth, flow),
        lambda: check_permutation_limit(space, n, seed, twentieth),
        lambda: check_oracle_consistency(space, min(n, 3), seed, twentieth),
        lambda: check_resolvent_inequality(space, min(n, 3), seed, min(s, 60)),
        lambda: check_retract_identity(space, n, seed, fifth),
        lambda: check_retract_contracts(space, n, seed, fifth, flow),
        lambda: check_lipschitz_ratio(space, n, seed, fifth, flow, cfg.perturbation_scale),
    )


def bound_suite(cfg: ScanConfig) -> ScanReport:
    """Run every invariant check over fresh samples.

    Cheap checks use the full sample budget; flow-heavy ones run on a
    documented fraction of it so the suite stays interactive.  The
    acceptance tests drive the individual checks at their own counts.

    The rows are ``_suite_jobs``; the helper process runs the odd-indexed
    ones (``_run_split``), so ``min_attainment`` (13) and
    ``permutation_limit`` (14), the heaviest rows, run side by side.  The
    report has the bytes of a one-process run, and a failing row raises
    what a one-process run raises.  See the module docstring for when
    every row runs in the caller.
    """
    checks = []
    for rows in _run_split(_suite_jobs, (cfg,)):
        checks.extend([rows] if isinstance(rows, CheckResult) else rows)
    return ScanReport(cfg.space, cfg.n, cfg.samples, cfg.seed, tuple(checks))


def convergence_study(cfg: ScanConfig, t: float) -> ScanReport:
    """Cauchy behavior of the splitting flow as the sweep count doubles.

    For each sampled tuple the distances between successive doublings are
    recorded.  They fall once k resolves the flow; from a coarse k one of
    them can still rise, and the ``cauchy_monotone`` row then fails.  They
    reach the configured tolerance either for small t (distances scale like
    t^2/k) or once t exceeds the sample's collapse time, where the discrete
    flow lands on the common limit exactly.  At intermediate t they decay
    like 1/k and the study honestly reports not reaching the tolerance.
    On small euclidean instances the flow is also compared against powers
    of the exact resolvent with step t/k.
    """
    _check_time(t)
    if cfg.flow.max_doublings < 1:
        raise GeometryError("a convergence study needs max_doublings >= 1")
    space = cfg.space
    flow = cfg.flow

    def cauchy(rng):
        x = sample_tuple(space, cfg.n, rng)
        return _refine(x, t, flow.sweeps_per_run, flow.max_doublings)[2]

    sequences = _trials(cfg.seed, "cauchy", cfg.samples, cauchy)
    rises = [(max((b - a for a, b in zip(seq, seq[1:])), default=-math.inf), None)
             for seq in sequences]
    checks = [
        _row("cauchy_monotone", rises, 1e-10, data=sequences),
        _row("cauchy_reaches_tolerance", [(seq[-1], None) for seq in sequences],
             DOUBLING_TOLERANCE),
    ]

    if oracle_supports(space, cfg.n):
        def oracle(rng):
            x = sample_tuple(space, cfg.n, rng)
            if t == 0.0:
                return [0.0]
            seq = []
            for k in (4, 8, 16, 32, 64, 128, 256, 512, 1024):
                seq.append(_oracle_gap(x, t, k))
                # always show a few doublings of decay, then stop once the
                # agreement is comfortably inside tolerance
                if len(seq) >= 3 and seq[-1] <= 0.5 * ORACLE_AGREEMENT_TOL:
                    break
            return seq

        details = _trials(cfg.seed, "oraclepow", min(cfg.samples, 3), oracle)
        checks.append(_row("oracle_agreement", [(seq[-1], None) for seq in details],
                           ORACLE_AGREEMENT_TOL, data=details))
    else:
        checks.append(_row("oracle_agreement", [], ORACLE_AGREEMENT_TOL,
                           data={"skipped": "euclidean small cases only"}))
    return ScanReport(cfg.space, cfg.n, cfg.samples, cfg.seed, tuple(checks))
