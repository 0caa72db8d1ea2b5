import contextlib
import dataclasses
import errno
import gc
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

from subsetflow import (
    CheckResult,
    EuclideanSpace,
    FlowConfig,
    GeometryError,
    HyperboloidSpace,
    Point,
    ScanConfig,
    ScanReport,
    bound_suite,
    TreeEdge,
    TreeSpace,
    TreeTopology,
    convergence_study,
    hausdorff_distance,
    lipschitz_constant_bound,
    lipschitz_scan,
    make_space,
    make_subset,
    merge_time,
    retract,
    to_set,
)
import subsetflow.retraction as retraction
import subsetflow.verify as verify
from subsetflow.geometry import _merges_exactly
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

from oracles import public_perturb_point, two_pass_hausdorff


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
    # a seed is written into every generator's seed text, so 1.0 would draw
    # apart from 1, and True or "1" would pass into the report
    for seed in (1.0, True, "1"):
        with pytest.raises(GeometryError):
            ScanConfig(space=plane, n=3, samples=5, seed=seed)
    # a space or flow of another type used to build, and fail in the scan as
    # an AttributeError
    with pytest.raises(GeometryError):
        ScanConfig(space="x", n=3, samples=2, seed=0)
    with pytest.raises(GeometryError):
        ScanConfig(space=plane, n=3, samples=2, seed=0, flow="fast")


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


# The scan helpers trust the points they are handed and skip what the public
# path would redo; each must give exactly what that path gives.

SPACE_KEYS = ["euclidean-1", "euclidean-2", "hyperboloid-2", "star-tree", "path-tree"]


@pytest.mark.parametrize("key", SPACE_KEYS)
def test_sample_subset_is_to_set_of_the_sampled_tuple(all_spaces, key):
    space = all_spaces[key]
    for i in range(40):
        n = 1 + i % 6
        fast, slow = random.Random(f"sampleset:{i}"), random.Random(f"sampleset:{i}")
        a = sample_subset(space, n, fast)
        want = to_set(sample_tuple(space, n, slow), 0.0)
        assert (a, a.points, a.dedup_tolerance) == (want, want.points, want.dedup_tolerance)
        assert len(a) == n
        assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("key", SPACE_KEYS)
def test_perturb_subset_is_make_subset_of_perturb_point(all_spaces, key):
    space = all_spaces[key]
    rng = random.Random(f"perturbsame:{key}")
    for i in range(60):
        a = sample_subset(space, 1 + i % 5, rng)
        # no step (t = 0), steps of the scan's size and far below it, and
        # steps that mostly reach the target (t = 1)
        scale = (0.0, 0.05, 1e-9, 10.0)[i % 4]
        fast, slow = random.Random(f"perturb:{i}"), random.Random(f"perturb:{i}")
        b = perturb_subset(a, scale, fast)
        want = make_subset(space, [public_perturb_point(space, p, scale, slow)
                                   for p in a.points], 0.0)
        assert (b, b.points, b.dedup_tolerance) == (want, want.points, want.dedup_tolerance)
        assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("key", SPACE_KEYS)
def test_perturb_point_equals_the_public_path(all_spaces, key):
    space = all_spaces[key]
    rng = random.Random(f"perturbpoint:{key}")
    for i in range(80):
        p = space.random_point(rng)
        scale = (0.0, 0.05, 1e-9, 10.0)[i % 4]
        fast, slow = random.Random(f"perturbpoint:{i}"), random.Random(f"perturbpoint:{i}")
        assert perturb_point(space, p, scale, fast) == public_perturb_point(space, p, scale, slow)
        assert fast.getstate() == slow.getstate()


def test_perturb_point_checks_its_point(plane, hyper):
    # The public form checks p before it moves it; perturb_subset trusts its
    # subset's points instead.
    for p in (Point(plane.kind, (0.0,)), hyper.random_point(random.Random("foreign"))):
        with pytest.raises(GeometryError):
            perturb_point(plane, p, 0.05, random.Random("check"))


class _ScriptedGauss(random.Random):
    """A generator whose Gaussian draws are mu + sigma * z for the scripted z."""

    def __init__(self, zs):
        super().__init__(0)
        self.zs = iter(zs)

    def gauss(self, mu=0.0, sigma=1.0):
        return mu + sigma * next(self.zs)


@pytest.mark.parametrize("key", ["euclidean-1", "euclidean-2", "hyperboloid-2"])
def test_perturb_subset_merges_points_that_meet(all_spaces, key):
    # Both points step all the way to one target, so the perturbed subset
    # holds one point, as make_subset merges it.
    space = all_spaces[key]
    a = sample_subset(space, 2, random.Random("meet"))
    target = [0.3] * space.dim
    zs = (target + [100.0]) * 2
    b = perturb_subset(a, 1.0, _ScriptedGauss(zs))
    slow = _ScriptedGauss(zs)
    want = make_subset(space, [public_perturb_point(space, p, 1.0, slow) for p in a.points], 0.0)
    assert (b, b.points) == (want, want.points)
    assert len(b) == 1


@pytest.mark.parametrize("key", SPACE_KEYS)
def test_hausdorff_distance_equals_the_two_pass_reference(all_spaces, key):
    space = all_spaces[key]
    rng = random.Random(f"hausref:{key}")
    for i in range(60):
        a = sample_subset(space, rng.randint(1, 5), rng)
        b = sample_subset(space, rng.randint(1, 5), rng)
        near = perturb_subset(a, 1e-3, rng)
        for x, y in ((a, b), (b, a), (a, a), (a, near), (near, a)):
            assert hausdorff_distance(x, y) == two_pass_hausdorff(x, y)


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


# ---------------------------------------------------------------------------
# the suite's two processes


@contextlib.contextmanager
def _one_process():
    # an attached profile function keeps every suite row in the caller
    saved = sys.getprofile()
    sys.setprofile(lambda *args: None)
    try:
        yield
    finally:
        sys.setprofile(saved)


def _assert_no_child_left():
    # no child but the live helper, and once it is retired no child and no
    # zombie: waitpid finds nothing to wait for
    if verify._helper.pid is not None:
        assert os.waitpid(verify._helper.pid, os.WNOHANG) == (0, 0)
    verify._retire()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _report_bytes(cfg):
    return json.dumps(bound_suite(cfg).to_json())


@pytest.fixture
def pid_row(monkeypatch):
    """Row 1 of the suite, geodesic_parametrization, records the pid that ran it."""
    inner = verify.check_geodesic_parametrization
    monkeypatch.setattr(verify, "check_geodesic_parametrization",
                        lambda *args: dataclasses.replace(inner(*args), data={"pid": os.getpid()}))

    def pid_of(report):
        return {c.name: c.data for c in report.checks}["geodesic_parametrization"]["pid"]

    return pid_of


def _fail_with(name):
    def check(*args):
        raise GeometryError(f"{name} failed")
    return check


@pytest.mark.parametrize("key", ["euclidean-2", "hyperboloid-2", "star-tree", "caterpillar"])
def test_bound_suite_in_two_processes_gives_the_one_process_bytes(all_spaces, caterpillar_tree, key):
    space = caterpillar_tree if key == "caterpillar" else all_spaces[key]
    for n in (2, 3, 6):
        cfg = ScanConfig(space=space, n=n, samples=10, seed=37)
        two = _report_bytes(cfg)
        with _one_process():
            one = _report_bytes(cfg)
        assert two == one, n
    _assert_no_child_left()


def test_bound_suite_runs_its_odd_rows_in_a_child(plane, pid_row):
    cfg = small_cfg(plane, samples=2)
    assert pid_row(bound_suite(cfg)) != os.getpid()
    with _one_process():
        assert pid_row(bound_suite(cfg)) == os.getpid()
    _assert_no_child_left()


@contextlib.contextmanager
def _condition(name, monkeypatch):
    if name in ("trace", "profile"):
        get, set_ = (sys.gettrace, sys.settrace) if name == "trace" else (sys.getprofile, sys.setprofile)
        saved = get()
        set_(lambda *args: None)
        try:
            yield
        finally:
            set_(saved)
    elif name == "thread":
        stop = threading.Event()
        waiter = threading.Thread(target=stop.wait)
        waiter.start()
        try:
            yield
        finally:
            stop.set()
            waiter.join(timeout=10.0)
            assert not waiter.is_alive()
    else:
        if name == "monitoring":
            # the profiler's tool id, as cProfile takes it from 3.12 on
            tools = types.SimpleNamespace(get_tool=lambda t: "cProfile" if t == 2 else None)
            monkeypatch.setattr(sys, "monitoring", tools, raising=False)
        elif name == "no fork":
            monkeypatch.delattr(os, "fork")
        else:
            def fail():
                raise OSError(errno.EMFILE, "no descriptor or process to spare")
            monkeypatch.setattr(os, "fork" if name == "fork fails" else "pipe", fail)
        yield


# pid_row sets a binding no running helper was forked with, so a split
# needs a new helper, and with "pipe fails" or "fork fails" cannot make one
@pytest.mark.parametrize("name", ["trace", "profile", "monitoring", "thread", "no fork",
                                  "fork fails", "pipe fails"])
def test_bound_suite_keeps_its_rows_in_process(plane, monkeypatch, pid_row, name):
    cfg = small_cfg(plane, samples=2)
    with _one_process():
        expected = _report_bytes(cfg)
    with _condition(name, monkeypatch):
        report = bound_suite(cfg)
    assert pid_row(report) == os.getpid()
    assert json.dumps(report.to_json()) == expected
    _assert_no_child_left()


@pytest.mark.parametrize("even, odd, lower", [
    ("check_hausdorff_metric", "check_product_dominates_hausdorff", "even"),  # rows 2 and 3
    ("check_set_tuple_roundtrip", "check_geodesic_parametrization", "odd"),  # rows 4 and 1
])
def test_bound_suite_raises_its_lowest_failing_row(plane, monkeypatch, even, odd, lower):
    for name in (even, odd):
        monkeypatch.setattr(verify, name, _fail_with(name))
    cfg = small_cfg(plane, samples=2)
    with _one_process(), pytest.raises(GeometryError) as one:
        bound_suite(cfg)
    with pytest.raises(GeometryError) as two:
        bound_suite(cfg)
    assert str(one.value) == f"{even if lower == 'even' else odd} failed"
    assert (type(two.value), str(two.value)) == (type(one.value), str(one.value))
    _assert_no_child_left()


def test_bound_suite_kills_its_child_on_an_interrupt(plane, monkeypatch):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "check_permutation_limit", interrupt)  # row 14, the caller's
    monkeypatch.setattr(verify, "check_min_attainment", lambda *args: time.sleep(60))  # row 13
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        bound_suite(small_cfg(plane, samples=2))
    # the helper was killed, not waited for, and is gone
    assert time.perf_counter() - started < 30.0
    assert verify._helper.pid is None
    _assert_no_child_left()


def test_bound_suite_runs_what_its_child_cannot_send(plane, monkeypatch):
    class Unpicklable(Exception):
        pass  # a local class: pickle cannot find it by name

    def raise_unpicklable(*args):
        raise Unpicklable("row 3 failed")

    monkeypatch.setattr(verify, "check_product_dominates_hausdorff", raise_unpicklable)
    with pytest.raises(Unpicklable, match="row 3 failed"):
        bound_suite(small_cfg(plane, samples=2))
    _assert_no_child_left()


def test_a_split_whose_arguments_do_not_pickle_runs_in_the_caller(fork_log):
    # A space whose class is defined in a function does not pickle, so no
    # request can reach a helper: the scan's trials and the suite's rows all
    # run in the caller, with the one-process bytes, and no helper is forked.
    @dataclasses.dataclass(frozen=True)
    class LocalSpace(EuclideanSpace):
        pass

    cfg = ScanConfig(LocalSpace(2), 3, 4, 1)
    for run in (_scan_bytes, _report_bytes):
        two = run(cfg)
        with _one_process():
            assert run(cfg) == two
    assert fork_log() == []
    _assert_no_child_left()


def test_bound_suite_outlives_a_dying_child(plane, monkeypatch):
    caller = os.getpid()
    inner = verify.check_lipschitz_ratio

    def die_in_the_child(*args):
        if os.getpid() != caller:
            os._exit(3)
        return inner(*args)

    cfg = small_cfg(plane, samples=2)
    expected = _report_bytes(cfg)
    monkeypatch.setattr(verify, "check_lipschitz_ratio", die_in_the_child)  # row 19
    assert _report_bytes(cfg) == expected
    _assert_no_child_left()


def test_bound_suite_child_runs_no_finalizer_of_the_caller(plane, monkeypatch, tmp_path):
    record = tmp_path / "finalized"

    class Finalized:
        def __del__(self):
            with open(record, "a") as fh:
                fh.write(f"{os.getpid()}\n")

    inner = verify.check_geodesic_parametrization

    def collecting(*args):
        gc.collect()
        return inner(*args)

    monkeypatch.setattr(verify, "check_geodesic_parametrization", collecting)  # row 1
    gc.disable()
    try:
        garbage = Finalized()
        garbage.cycle = garbage
        del garbage  # a garbage cycle only the collector frees
        bound_suite(small_cfg(plane, samples=2))
        gc.collect()
    finally:
        gc.enable()
    assert record.read_text() == f"{os.getpid()}\n"
    _assert_no_child_left()


@pytest.fixture
def fork_log(monkeypatch, tmp_path):
    """Every os.fork call, the children's included, as the pids that made them.

    The log starts with no helper running.
    """
    verify._retire()
    record = tmp_path / "forks"
    record.write_text("")
    fork = os.fork

    def logged():
        with open(record, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return fork()

    monkeypatch.setattr(os, "fork", logged)
    return lambda: record.read_text().split()


def test_bound_suite_forks_one_child(plane, monkeypatch, fork_log):
    # fifth = 2 trials at n = 4: a scan that splits, run as row 19 in the
    # helper, which must not fork a grandchild; and the cache that pickling
    # the first request leaves on the space's class forks no second helper
    monkeypatch.delattr(type(plane), "__slotnames__", raising=False)
    cfg = ScanConfig(space=plane, n=4, samples=10, seed=38)
    with _one_process():
        one = bound_suite(cfg)
    assert fork_log() == []
    twos = [bound_suite(cfg) for _ in range(5)]
    assert fork_log() == [str(os.getpid())]

    def lipschitz_row(report):
        return json.dumps({c.name: c.to_json() for c in report.checks}["lipschitz_ratio"])

    assert {lipschitz_row(two) for two in twos} == {lipschitz_row(one)}
    assert not verify._splitting
    _assert_no_child_left()


def _getpids(count):
    return [os.getpid] * count


def _nested_splits():
    return [lambda: verify._run_split(_getpids, (3,))] * 2


def test_a_split_inside_a_job_runs_in_that_jobs_process():
    mine, theirs = verify._run_split(_nested_splits, ())
    assert mine == [os.getpid()] * 3
    assert theirs == [theirs[0]] * 3 and theirs[0] != os.getpid()
    assert not verify._splitting
    _assert_no_child_left()


def test_a_changed_binding_forks_a_helper_that_sees_it(plane, monkeypatch, fork_log):
    cfg = small_cfg(plane, samples=2)

    def row_1(report):
        return {c.name: c.data for c in report.checks}["geodesic_parametrization"]

    plain = row_1(bound_suite(cfg))
    first = verify._helper.pid
    inner = verify.check_geodesic_parametrization
    monkeypatch.setattr(verify, "check_geodesic_parametrization",
                        lambda *args: dataclasses.replace(inner(*args), data={"pid": os.getpid()}))
    second = row_1(bound_suite(cfg))["pid"]
    assert second == verify._helper.pid and second not in (first, os.getpid())
    monkeypatch.setattr(verify, "check_geodesic_parametrization", inner)
    assert row_1(bound_suite(cfg)) == plain
    assert verify._helper.pid not in (first, second)
    assert fork_log() == [str(os.getpid())] * 3
    bound_suite(cfg)
    assert len(fork_log()) == 3
    _assert_no_child_left()


def test_no_helper_outlives_its_caller():
    code = ("import subsetflow as sf, subsetflow.verify as verify\n"
            "cfg = sf.ScanConfig(space=sf.EuclideanSpace(2), n=3, samples=4, seed=7)\n"
            "sf.bound_suite(cfg)\n"
            "sf.lipschitz_scan(cfg)\n"
            "print(verify._helper.pid)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(verify.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    pid = int(proc.stdout)
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_a_forked_child_runs_its_own_helper(plane, pid_row):
    cfg = small_cfg(plane, samples=2)
    helper = pid_row(bound_suite(cfg))
    child = os.fork()
    if child == 0:
        status = 1
        try:
            theirs = pid_row(bound_suite(cfg))
            status = int(theirs in (os.getpid(), helper) or theirs != verify._helper.pid)
            verify._retire()
        finally:
            os._exit(status)
    assert os.waitpid(child, 0) == (child, 0)
    assert pid_row(bound_suite(cfg)) == helper == verify._helper.pid
    _assert_no_child_left()


def test_a_killed_idle_helper_is_replaced(plane):
    cfg = small_cfg(plane, samples=2)
    expected = _report_bytes(cfg)
    killed = verify._helper.pid
    os.kill(killed, signal.SIGKILL)
    # dead, its pipes closed, and left unreaped for the caller
    os.waitid(os.P_PID, killed, os.WEXITED | os.WNOWAIT)
    assert _report_bytes(cfg) == expected
    assert _report_bytes(cfg) == expected
    assert verify._helper.pid not in (None, killed)
    _assert_no_child_left()


# ---------------------------------------------------------------------------
# the scan's two processes


def _scan_bytes(cfg):
    return json.dumps(lipschitz_scan(cfg).to_json())


def _trial_input(space, n, seed, i):
    """The first subset that trial i of a scan draws."""
    return sample_subset(space, n, verify._rng(seed, "lipscan", i))


@pytest.mark.parametrize("key", ["euclidean-2", "hyperboloid-2"])
@pytest.mark.parametrize("n", [3, 6])
def test_lipschitz_scan_in_two_processes_gives_the_one_process_bytes(all_spaces, key, n):
    for samples in (2, 5, 8):
        cfg = ScanConfig(space=all_spaces[key], n=n, samples=samples, seed=38)
        two = _scan_bytes(cfg)
        with _one_process():
            one = _scan_bytes(cfg)
        assert two == one, samples
    _assert_no_child_left()


@pytest.mark.parametrize("key, seed, worst", [("euclidean-2", 0, 1), ("hyperboloid-2", 1, 5)])
def test_lipschitz_scan_takes_its_worst_trial_from_the_child(all_spaces, monkeypatch, tmp_path,
                                                             key, seed, worst):
    space = all_spaces[key]
    cfg = ScanConfig(space=space, n=3, samples=6, seed=seed)
    with _one_process():
        expected = _scan_bytes(cfg)
    record = tmp_path / "retracts"
    inner = verify.retract

    def logged(a, *args):
        with open(record, "a") as fh:
            fh.write(json.dumps([os.getpid(), a.to_json()]) + "\n")
        return inner(a, *args)

    monkeypatch.setattr(verify, "retract", logged)
    report = lipschitz_scan(cfg)
    assert json.dumps(report.to_json()) == expected
    a = report.checks[0].worst_input["a"]
    assert a == _trial_input(space, 3, seed, worst).to_json()
    assert worst % 2 == 1
    pids = {pid for pid, subset in map(json.loads, record.read_text().splitlines()) if subset == a}
    assert len(pids) == 1 and os.getpid() not in pids
    _assert_no_child_left()


def test_lipschitz_scan_counts_degenerate_pairs_on_both_sides(plane, monkeypatch):
    # every subset is one of two, so an independent pair repeats its subset
    # half the time; a perturbation leaves its subset alone half the time
    sample, perturb = verify.sample_subset, verify.perturb_subset
    monkeypatch.setattr(verify, "sample_subset",
                        lambda space, n, rng: sample(space, n, random.Random(rng.randrange(2))))
    monkeypatch.setattr(verify, "perturb_subset",
                        lambda a, scale, rng: a if rng.random() < 0.5 else perturb(a, scale, rng))
    seed, samples = 38, 12

    def degenerate(i):
        rng = verify._rng(seed, "lipscan", i)
        first = rng.randrange(2)
        return rng.randrange(2) == first if i % 2 == 0 else rng.random() < 0.5

    even = sum(degenerate(i) for i in range(0, samples, 2))
    odd = sum(degenerate(i) for i in range(1, samples, 2))
    assert 0 < even < samples // 2 and 0 < odd < samples // 2
    cfg = ScanConfig(space=plane, n=3, samples=samples, seed=seed)
    with _one_process():
        expected = _scan_bytes(cfg)
    report = lipschitz_scan(cfg)
    assert json.dumps(report.to_json()) == expected
    assert report.checks[0].data == {"degenerate_pairs": even + odd}
    assert report.checks[0].trials == samples - even - odd
    _assert_no_child_left()


def test_scans_that_do_not_march_do_not_fork(all_spaces, caterpillar_tree, fork_log):
    for space, n, samples in ((all_spaces["star-tree"], 3, 8), (caterpillar_tree, 6, 8),
                              (all_spaces["euclidean-1"], 4, 8), (all_spaces["euclidean-2"], 2, 8),
                              (all_spaces["hyperboloid-2"], 2, 8), (all_spaces["euclidean-2"], 3, 1)):
        lipschitz_scan(ScanConfig(space=space, n=n, samples=samples, seed=38))
    assert fork_log() == []
    lipschitz_scan(ScanConfig(space=all_spaces["euclidean-2"], n=3, samples=2, seed=38))
    assert fork_log() == [str(os.getpid())]
    _assert_no_child_left()


# _merges_exactly(space, n) at n = 2, 3 and 8: two points merge exactly on
# every backend, the line, hyperboloid:1 (the line in arclength) and a tree
# at every n
MERGES_EXACTLY = {
    "euclidean-1": (True, True, True),
    "euclidean-2": (True, False, False),
    "hyperboloid-1": (True, True, True),
    "hyperboloid-2": (True, False, False),
    "star-tree": (True, True, True),
}


def test_one_predicate_decides_which_merges_march(all_spaces, monkeypatch):
    # merge_time marches, retract numbers its set and a scan splits its
    # trials exactly where _merges_exactly is False (a scan: with two or
    # more trials).
    spaces = dict(all_spaces, **{"hyperboloid-1": HyperboloidSpace(1)})
    cfg = FlowConfig(sweeps_per_run=4)
    marches, numbered, splits = [], [], []
    for cls in {type(space) for space in spaces.values()}:
        inner = cls._march
        monkeypatch.setattr(cls, "_march", lambda *args, inner=inner: marches.append(1) or inner(*args))
    order = verify.order_tuple
    monkeypatch.setattr(retraction, "order_tuple", lambda *args: numbered.append(1) or order(*args))
    monkeypatch.setattr(verify, "_run_split",
                        lambda make, args: splits.append(1) or [job() for job in make(*args)])
    for key, row in MERGES_EXACTLY.items():
        space = spaces[key]
        rng = random.Random(f"mergesexactly:{key}")
        for n, exact in zip((2, 3, 8), row):
            assert _merges_exactly(space, n) is exact, (key, n)
            marches.clear(), numbered.clear()
            merge_time(sample_tuple(space, n, rng), cfg)
            retract(sample_subset(space, n, rng), n, cfg)
            assert (bool(marches), bool(numbered)) == (not exact, not exact), (key, n)
            for samples in (1, 2, 3):
                splits.clear()
                check_lipschitz_ratio(space, n, 38, samples, cfg, 0.05)
                assert bool(splits) == (not exact and samples >= 2), (key, n, samples)


def _failing_retract(space, n, seed, failures):
    """verify.retract, raising ``failures[i]`` on the first subset of trial i."""
    inner = verify.retract
    firsts = {i: _trial_input(space, n, seed, i) for i in failures}

    def retract(a, *args):
        for i, subset in firsts.items():
            if a == subset:
                failures[i]()
        return inner(a, *args)

    return retract


def test_lipschitz_scan_raises_its_lowest_failing_trial(plane, monkeypatch):
    def fail(i):
        def raise_():
            raise GeometryError(f"trial {i} failed")
        return raise_

    cfg = ScanConfig(space=plane, n=3, samples=8, seed=38)
    monkeypatch.setattr(verify, "retract", _failing_retract(plane, 3, 38, {3: fail(3), 4: fail(4)}))
    with _one_process(), pytest.raises(GeometryError) as one:
        lipschitz_scan(cfg)
    with pytest.raises(GeometryError) as two:
        lipschitz_scan(cfg)
    assert str(one.value) == "trial 3 failed"
    assert (type(two.value), str(two.value)) == (type(one.value), str(one.value))
    assert not verify._splitting
    _assert_no_child_left()


def test_lipschitz_scan_kills_its_child_on_an_interrupt(plane, monkeypatch):
    def interrupt():
        raise KeyboardInterrupt

    # trial 2 is the caller's, trial 1 the child's
    monkeypatch.setattr(verify, "retract", _failing_retract(
        plane, 3, 38, {2: interrupt, 1: lambda: time.sleep(60)}))
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        lipschitz_scan(ScanConfig(space=plane, n=3, samples=4, seed=38))
    assert time.perf_counter() - started < 30.0
    assert verify._helper.pid is None
    assert not verify._splitting
    _assert_no_child_left()


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
    row = check_two_point_merge(all_spaces[key], 0, 200)
    assert (row.trials, row.passed, row.worst) == (200, True, 0.0)


def test_resolvent_inequality_on_a_dropped_pattern():
    # the large-n benchmark's failing suite row (euclidean n = 7, seed 337069995)
    row = check_resolvent_inequality(make_space("euclidean", 2), 3, 337069995, 5)
    assert row.worst <= RESOLVENT_INEQ_TOL
