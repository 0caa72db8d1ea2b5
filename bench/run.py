"""Benchmark for subsetflow: retract, the Lipschitz scan and the bound suite.

    python3 bench/run.py --workload small-n|large-n|near-tie --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
record goes to ``bench/results/``.  See bench/README.md.
"""

from __future__ import annotations

import os

# One thread for BLAS, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from refgeom import Checks
from workloads import BACKENDS, WORKLOADS, Backends

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
RESULTS_DIR = BENCH_DIR / "results"
SETUP_REPEATS = 5
MICRO_REPEATS = 7
# Suite rows that are not counted as operations: on trees, permutation_limit
# fails for some seeds only (see the FOUND lines in CHANGES.md), so counting
# it would make a run's failure share depend on its seed.
UNCOUNTED_ROWS = {("tree", "permutation_limit")}

END_TO_END = (
    ["setup_s", "peak_rss_mb", "suite_s"]
    + [f"{m}.{b}" for m in ("retracts_per_s", "retract_p90_ms", "scan_pairs_per_s") for b in BACKENDS]
)
SUITE_CHECKS = (
    "cat0", "geodesic_parametrization", "hausdorff_metric", "product_dominates_hausdorff",
    "set_tuple_roundtrip", "objective_lipschitz", "objective_convexity", "flow_nonexpansive",
    "flow_descent", "spread_bound", "merge_time_bound", "two_point_merge", "pair_gap_stability",
    "min_attainment", "permutation_limit", "oracle_consistency", "resolvent_inequality",
    "retract_identity", "retract_contracts", "lipschitz_ratio",
)
PER_LAYER = (
    [f"{m}.{b}" for m in ("geometry.distance_us", "geometry.geodesic_us",
                          "geometry.distance_calls_per_retract",
                          "geometry.geodesic_calls_per_retract", "flow.sweep_us",
                          "flow.merge_time_ms", "flow.sweeps_per_retract", "flow.forced_merges")
     for b in BACKENDS]
    + ["subset_space.order_tuple_us", "subset_space.to_set_us", "subset_space.hausdorff_us",
       "retraction.self_us", "verify.sampling_ms_per_pair"]
    + [f"verify.suite.{c}_s" for c in SUITE_CHECKS]
    + ["flow.oracle_ms", "flow.flow_adaptive_ms", "geometry.cat0_audit_ms",
       "host.ref_loop_ms", "host.ref_loop_drift_pct", "trace.overhead_pct"]
)


UNIT_BY_STEM = {
    "retracts_per_s": "1/s", "scan_pairs_per_s": "1/s", "retract_p90_ms": "ms",
    "geometry.distance_us": "us", "geometry.geodesic_us": "us", "flow.sweep_us": "us",
    "geometry.distance_calls_per_retract": "calls/retract",
    "geometry.geodesic_calls_per_retract": "calls/retract",
    "flow.sweeps_per_retract": "sweeps/retract", "flow.merge_time_ms": "ms",
    "flow.forced_merges": "count",
}
UNIT_BY_SUFFIX = (("_us", "us"), ("_ms_per_pair", "ms"), ("_ms", "ms"), ("_s", "s"),
                  ("_mb", "MB"), ("_pct", "%"))


def unit_of(name: str) -> str:
    stem = name.rsplit(".", 1)[0]
    if stem in UNIT_BY_STEM:
        return UNIT_BY_STEM[stem]
    return next(unit for suffix, unit in UNIT_BY_SUFFIX if name.endswith(suffix))


class HostSpeed:
    """Readings of a fixed pure-Python loop, taken every half second of a run.

    On a shared host the speed of the core drifts by a third from one
    minute to the next, and every timing drifts with it.  Each timed
    operation is therefore scaled by the loop's median reading around it:
    a time reported here is what the operation would take on a host where
    the loop takes NOMINAL_MS.
    """

    ITERATIONS = 40_000
    EVERY_S = 0.5
    WINDOW_S = 1.0
    NOMINAL_MS = 4.0

    def __init__(self):
        self.readings: list[tuple[float, float]] = []  # (midpoint, ms)

    def read(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(self.ITERATIONS):
            acc = (acc + i * i) % 1_000_003
        t1 = time.perf_counter()
        self.readings.append((0.5 * (t0 + t1), 1e3 * (t1 - t0)))

    def read_if_due(self) -> None:
        if time.perf_counter() - self.readings[-1][0] >= self.EVERY_S:
            self.read()

    def factor(self, start: float, end: float) -> float:
        """Slowness of the host over [start, end] against the nominal host."""
        near = [ms for t, ms in self.readings if start - self.WINDOW_S <= t <= end + self.WINDOW_S]
        if not near:
            near = [min(self.readings, key=lambda r: min(abs(r[0] - start), abs(r[0] - end)))[1]]
        return statistics.median(near) / self.NOMINAL_MS

    def median_ms(self) -> float:
        return statistics.median(ms for _, ms in self.readings)

    def halves_ms(self) -> tuple[float, float]:
        """Median readings of the first and the second half of the run."""
        half = len(self.readings) // 2
        return tuple(statistics.median(ms for _, ms in part)
                     for part in (self.readings[:half], self.readings[half:]))


# -- schedule ----------------------------------------------------------------


def interleave(streams):
    """Spread every stream evenly over the run: small blocks, round-robin."""
    keyed = []
    for s, stream in enumerate(streams):
        for i, op in enumerate(stream):
            keyed.append(((i + 0.5) / len(stream), s, op))
    keyed.sort(key=lambda item: item[:2])
    return [op for _, _, op in keyed]


def build_schedule(sf, bk: Backends, wl, seed: int, rounds: int):
    rng = random.Random(f"subsetflow-bench:{wl.name}:{seed}")
    twins = bk.twin_catalogue() if wl.near_tie else []
    schedule = []
    for _ in range(rounds):
        streams = []
        for b in BACKENDS:
            stream = []
            for i in range(wl.retracts):
                for n in wl.ns:
                    a = (bk.near_tie_set(b, n, i, rng) if wl.near_tie else bk.random_set(b, n, rng))
                    stream.append(("retract", b, n, a))
            streams.append(stream)
        streams.append([("twin", kind, n, (label, lo, hi)) for label, kind, n, lo, hi in twins])
        scans, suites, untimed = [], [], []
        for n in wl.ns:
            for b in BACKENDS:
                scans += [("scan", b, n, sf.ScanConfig(bk.space[b], n, wl.scan_pairs,
                                                       rng.randrange(2**31),
                                                       perturbation_scale=wl.perturbation))
                          for _ in range(wl.scan_calls)]
                suites.append(("suite", b, n, sf.ScanConfig(
                    bk.space[b], n, wl.suite_samples, rng.randrange(2**31))))
                untimed.append(("identity", b, n, bk.random_set(b, rng.randint(1, n - 1), rng)))
            untimed += [("line", "euclidean", n, bk.line_set(n, rng)) for _ in range(wl.line_sets)]
        streams += [scans, suites, untimed]
        schedule += interleave([s for s in streams if s])
    return schedule


# -- the run -------------------------------------------------------------------


class Run:
    def __init__(self, sf, bk: Backends, tracer=None):
        self.sf, self.bk, self.tracer = sf, bk, tracer
        self.checks = Checks()
        self.sweeps = sf.FlowConfig().sweeps_per_run
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # (start, end) of every timed call
        self.retract_s = {b: [] for b in BACKENDS}
        self.scan_s = {b: [] for b in BACKENDS}
        self.scan_pairs = {b: 0 for b in BACKENDS}
        self.suite_s: list[tuple[float, float]] = []
        # traced runs only
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.sweep_counts = {b: 0 for b in BACKENDS}
        self.forced = {b: 0 for b in BACKENDS}

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    @staticmethod
    def _call(fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        return out, (t0, time.perf_counter())

    def timed_retract(self, b: str, a, n: int):
        sf, tr = self.sf, self.tracer
        if tr is None:
            rep, span = self._call(sf.retract, a, n)
            self.retract_s[b].append(span)
            return rep
        # The same retract untraced and traced, alternating which goes first,
        # gives the tracing overhead on identical work.
        untraced_first = len(self.retract_s[b]) % 2 == 0
        if untraced_first:
            tr.uninstall()
            self.untraced_s += _length(self._call(sf.retract, a, n)[1])
            tr.install()
        tr.counting[0] = True
        sid = tr.begin(f"op:retract:{b}")
        rep, span = self._call(sf.retract, a, n)
        tr.end(sid)
        tr.counting[0] = False
        if not untraced_first:
            tr.uninstall()
            self.untraced_s += _length(self._call(sf.retract, a, n)[1])
            tr.install()
        self.traced_s += _length(span)
        self.retract_s[b].append(span)
        self._merge_record(b)
        return rep

    def _merge_record(self, b: str) -> None:
        """Sweeps and forced merges of the march, read from merge_time's inputs and output."""
        sf = self.sf
        for args, kwargs, t_star in self.tracer.merges:
            x = args[0]
            cfg = args[1] if len(args) > 1 else kwargs.get("cfg", sf.FlowConfig())
            delta = sf.min_gap(x)
            lam = delta / (2.0 * cfg.sweeps_per_run)
            m = round(t_star / lam)
            self.sweep_counts[b] += m
            if m >= cfg.sweeps_per_run:
                # The march reached its horizon: replay it with the public sweep
                # to tell a merge on the last sweep from a forced snap.
                y = x
                for _ in range(m):
                    y = sf.sweep(y, lam)
                if sf.min_gap(y) > cfg.merge_tolerance * delta:
                    self.forced[b] += 1
        self.tracer.merges.clear()

    def _span(self, name, fn, *args):
        tr = self.tracer
        if tr is None:
            return self._call(fn, *args)
        sid = tr.begin(name)
        try:
            return self._call(fn, *args)
        finally:
            tr.end(sid)

    def execute(self, op) -> None:
        kind, b, n, payload = op
        sf, checks = self.sf, self.checks
        ref = self.bk.ref[b]
        try:
            if kind == "retract":
                self.attempted += 1
                rep = self.timed_retract(b, payload, n)
                checks.retract(ref, _data(payload), _data(rep.output), n, rep.merge_time_used)
            elif kind == "twin":
                self.attempted += 1
                label, lo, hi = payload
                outs = []
                for a in (lo, hi):
                    rep = self.timed_retract(b, a, n)
                    checks.retract(ref, _data(a), _data(rep.output), n, rep.merge_time_used)
                    outs.append(_data(rep.output))
                ratio = ref.hausdorff(*outs) / ref.hausdorff(_data(lo), _data(hi))
                if not checks.ratio("twin_ratio", ratio, n):
                    self._fail(f"twin {label}: ratio {ratio:.4g} at n={n}")
            elif kind == "identity":
                self.attempted += 1
                rep = sf.retract(payload, n)
                checks.identity(_data(payload), _data(rep.output), rep.merge_time_used)
            elif kind == "line":
                self.attempted += 1
                rep = sf.retract(payload, n)
                out, inp = _data(rep.output), _data(payload)
                checks.retract(ref, inp, out, n, rep.merge_time_used)
                checks.line([p[0] for p in inp], out, n, self.sweeps)
            elif kind == "scan":
                self.attempted += payload.samples
                rep, span = self._span(f"op:scan:{b}", sf.lipschitz_scan, payload)
                self.scan_s[b].append(span)
                self.scan_pairs[b] += payload.samples
                for row in rep.checks:
                    if row.trials > 0 and not (checks.ratio("scan_ratio", row.worst, n) and row.passed):
                        self._fail(f"scan {b} n={n} seed={payload.seed}: worst {row.worst:.4g}")
            elif kind == "suite":
                rep, span = self._span(f"op:suite:{b}", sf.bound_suite, payload)
                self.suite_s.append(span)
                rows = [row for row in rep.checks if (b, row.name) not in UNCOUNTED_ROWS]
                self.attempted += len(rows)
                for row in rows:
                    if not checks.suite_row(row, n):
                        self._fail(f"suite {b} n={n} seed={payload.seed}: {row.name} {row.worst:.4g}")
        except sf.GeometryError as exc:
            self._fail(f"{kind} {b} n={n}: {exc}")

    def end_to_end(self, host: HostSpeed | None) -> dict:
        """Rates and times over the whole run; scaled to the nominal host unless ``host`` is None."""
        def seconds(spans):
            return [(t1 - t0) / (host.factor(t0, t1) if host else 1.0) for t0, t1 in spans]

        m = {}
        for b in BACKENDS:
            times = seconds(self.retract_s[b])
            m[f"retracts_per_s.{b}"] = len(times) / sum(times)
            m[f"retract_p90_ms.{b}"] = 1e3 * statistics.quantiles(times, n=10)[-1]
            m[f"scan_pairs_per_s.{b}"] = self.scan_pairs[b] / sum(seconds(self.scan_s[b]))
        m["suite_s"] = sum(seconds(self.suite_s)) / (len(self.suite_s) / len(BACKENDS))
        return m


def _data(subset):
    return [p.data for p in subset.points]


def _length(span) -> float:
    return span[1] - span[0]


def warm_up(sf, bk: Backends, wl) -> None:
    rng = random.Random("subsetflow-bench:warm-up")
    for b in BACKENDS:
        a = bk.random_set(b, min(wl.ns), rng)
        sf.retract(a, min(wl.ns))
    sf.bound_suite(sf.ScanConfig(bk.space["euclidean"], 2, 1, 0))


def microbench(fn, items, repeats: int = MICRO_REPEATS) -> float:
    """Median over repeats of the mean time per call, in microseconds."""
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in items:
            fn(*args)
        per_call.append((time.perf_counter() - t0) / len(items))
    return 1e6 * statistics.median(per_call)


def per_layer(run: Run, schedule, host: HostSpeed) -> dict:
    sf, tr, bk = run.sf, run.tracer, run.bk
    m = {}
    firsts = {b: [op[3] for op in schedule if op[0] == "retract" and op[1] == b][:12] for b in BACKENDS}
    rng = random.Random("subsetflow-bench:micro")
    for b in BACKENDS:
        space = bk.space[b]
        pts = [p for a in firsts[b] for p in a.points]
        pairs = [(p, q) for i, p in enumerate(pts) for q in pts[i + 1:]][:400]
        m[f"geometry.distance_us.{b}"] = microbench(space.distance, pairs * 10)
        m[f"geometry.geodesic_us.{b}"] = microbench(
            space.geodesic_point, [(p, q, rng.uniform(0.05, 0.95)) for p, q in pairs] * 5)
        tuples = [sf.order_tuple(a, len(a)) for a in firsts[b]]
        m[f"flow.sweep_us.{b}"] = microbench(
            sf.sweep, [(x, sf.min_gap(x) / (2.0 * run.sweeps)) for x in tuples] * 10)
        retracts = len(run.retract_s[b])
        m[f"geometry.distance_calls_per_retract.{b}"] = tr.counts[(b, "distance")] / retracts
        m[f"geometry.geodesic_calls_per_retract.{b}"] = tr.counts[(b, "geodesic_point")] / retracts
        m[f"flow.sweeps_per_retract.{b}"] = run.sweep_counts[b] / retracts
        m[f"flow.forced_merges.{b}"] = run.forced[b]

    spans, roots = tr.spans, tr.roots()
    under = {}  # (span name, kind of the benchmark operation it ran under) -> durations
    merge_ms = {b: [] for b in BACKENDS}
    child_s = [0.0] * len(spans)
    for sid, (name, parent, start, end) in enumerate(spans):
        op = spans[roots[sid]][0].split(":") if roots[sid] >= 0 else ["", "", ""]
        under.setdefault((name, op[1]), []).append(end - start)
        if parent >= 0:
            child_s[parent] += end - start
            if name == "retraction.merge_time" and spans[parent][0].startswith("op:retract:"):
                merge_ms[op[2]].append(1e3 * (end - start))
    for b in BACKENDS:
        m[f"flow.merge_time_ms.{b}"] = statistics.fmean(merge_ms[b])
    m["retraction.self_us"] = statistics.fmean(
        1e6 * (end - start - child_s[sid])
        for sid, (name, _, start, end) in enumerate(spans) if name.startswith("op:retract:"))

    def mean_us(name, kind):
        return 1e6 * statistics.fmean(under[(name, kind)])

    m["subset_space.order_tuple_us"] = mean_us("retraction.order_tuple", "retract")
    m["subset_space.to_set_us"] = mean_us("retraction.to_set", "retract")
    m["subset_space.hausdorff_us"] = mean_us("verify.hausdorff_distance", "scan")
    pairs = sum(run.scan_pairs.values())
    sampling = sum(sum(under.get((f"verify.{f}", "scan"), []))
                   for f in ("sample_subset", "perturb_subset"))
    m["verify.sampling_ms_per_pair"] = 1e3 * sampling / pairs
    suites = len(run.suite_s) / len(BACKENDS)
    for c in SUITE_CHECKS:
        m[f"verify.suite.{c}_s"] = sum(under.get((f"verify.check_{c}", "suite"), [])) / suites
    for metric, name in (("flow.oracle_ms", "verify.full_resolvent_oracle"),
                         ("flow.flow_adaptive_ms", "verify.flow_adaptive"),
                         ("geometry.cat0_audit_ms", "verify.cat0_audit")):
        m[metric] = 1e3 * sum(under.get((name, "suite"), [])) / suites
    first, second = host.halves_ms()
    m["host.ref_loop_ms"] = host.median_ms()
    m["host.ref_loop_drift_pct"] = 100.0 * (second - first) / first
    m["trace.overhead_pct"] = 100.0 * (run.traced_s - run.untraced_s) / run.untraced_s
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: float = 1.0) -> dict:
    """One benchmark run.  ``size`` shrinks every count for the self-check."""
    wl = WORKLOADS[name]
    if size != 1.0:
        wl = dataclasses.replace(
            wl, retracts=max(1, round(wl.retracts * size)), scan_pairs=max(2, round(wl.scan_pairs * size)),
            suite_samples=max(1, round(wl.suite_samples * size)), line_sets=1)
    host = HostSpeed()
    host.read()
    started = t0 = time.perf_counter()
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    sf = importlib.import_module("subsetflow")
    importlib.import_module("subsetflow.cli")
    import_s = time.perf_counter() - t0
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        bk = Backends(sf, wl.tree)
        warm_up(sf, bk, wl)
        setups.append(time.perf_counter() - t0)
        host.read()
    setup_raw = import_s + statistics.median(setups)
    setup_s = setup_raw / (host.median_ms() / host.NOMINAL_MS)

    rounds = max(1, round(seconds / wl.round_s))
    schedule = build_schedule(sf, bk, wl, seed, rounds)
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer(sf)
        tracer.install()
    run = Run(sf, bk, tracer)
    gc.collect()
    host.readings.clear()
    host.read()
    for op in schedule:
        run.execute(op)
        host.read_if_due()
    host.read()
    raw = {}
    if tracer is not None:
        tracer.uninstall()
        metrics = per_layer(run, schedule, host)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = dict(run.end_to_end(host), setup_s=setup_s, peak_rss_mb=rss)
        raw = dict(run.end_to_end(None), setup_s=setup_raw, peak_rss_mb=rss)
    checks = run.checks
    result = {
        "correct": not checks.violations,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit_of(k)}
                    for k in (PER_LAYER if trace else END_TO_END)},
    }
    detail = dict(result, workload=name, seed=seed, seconds=seconds, rounds=rounds,
                  wall_s=time.perf_counter() - started,
                  ref_loop_ms=host.halves_ms(), ref_readings=len(host.readings),
                  unscaled_metrics=raw, checks_executed=checks.executed,
                  violations=checks.violations[:20], failures=run.failures)
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(RESULTS_DIR / f"{stem}.spans.jsonl")
    return detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "subsetflow" / "__init__.py").is_file():
        print(f"bench: no subsetflow sources under {SRC_DIR}; run from a repository checkout",
              file=sys.stderr)
        return 2
    detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({k: detail[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
