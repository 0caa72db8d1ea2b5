"""Quick self-check of the benchmark: python3 bench/selfcheck.py

Runs every workload at reduced size, traced and untraced, and asserts that
every output check executes, that each check rejects a deliberately wrong
output, that the metrics match BENCHMARK.json, and that the traced counters
repeat exactly.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import run
from refgeom import Checks, RefSpace, RefTree, exact_line_merge
from workloads import CATERPILLAR_TREE, STAR_TREE, WORKLOADS

EXPECTED_CHECKS = {"cardinality", "hausdorff_bound", "merge_time_bound", "identity_below_n",
                   "line_exact_flow", "scan_ratio", "suite_row"}
SIZE = 0.1


def check_the_checks() -> None:
    """Each output check must reject an output that breaks its property."""
    line = RefSpace("euclidean")
    inp = [(0.0,), (1.0,), (3.0,)]
    good = [(0.5,), (2.0,)]
    c = Checks()
    assert c.retract(line, inp, good, 3, 0.5) and not c.violations
    assert not Checks().retract(line, inp, inp, 3, 0.5)                  # nothing merged
    assert not Checks().retract(line, inp, [(0.5,), (9.0,)], 3, 0.5)     # moved too far
    assert not Checks().retract(line, inp, good, 3, 0.6)                 # merge time past δ/2
    assert exact_line_merge([0.0, 1.0, 3.0]) == [1.0, 1.0, 2.0]
    assert Checks().line([0.0, 1.0, 3.0], [(1.0,), (2.0,)], 3, 256)
    assert not Checks().line([0.0, 1.0, 3.0], [(1.0,), (2.1,)], 3, 256)
    assert not Checks().identity([(0.0,)], [(1e-12,)], 0.0)
    assert not Checks().ratio("twin_ratio", 21.8, 3) and Checks().ratio("twin_ratio", 21.7, 3)
    # midpoints: the three backends' own formulas
    assert not Checks().retract(line, [(0.0,), (1.0,)], [(0.4,)], 2, 0.5)
    hyp = RefSpace("hyperboloid")
    p = (math.cosh(1.0), math.sinh(1.0), 0.0)
    q = (math.cosh(1.0), -math.sinh(1.0), 0.0)
    assert hyp.midpoint(p, q) == (1.0, 0.0, 0.0)
    tree = RefTree(STAR_TREE)
    assert tree.distance((0, 0.5), (2, 1.0)) == 1.5
    assert tree.midpoint((0, 0.5), (2, 1.0)) == (2, 0.25)
    assert tree.midpoint((0, 1.0), (2, 1.5)) == (2, 0.25)
    assert tree.midpoint((2, 0.5), (2, 1.5)) == (2, 1.0)
    walk = RefTree(CATERPILLAR_TREE)  # leaf 6 to node 4: five edges, 4.4 long
    assert abs(walk.distance((5, 1.2), (3, 0.7)) - 4.4) < 1e-12
    mid = walk.midpoint((5, 1.2), (3, 0.7))
    assert mid[0] == 1 and abs(mid[1] - 0.2) < 1e-12


def main() -> int:
    check_the_checks()
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for name, wl in WORKLOADS.items():
        plain = run.run_workload(name, 7, 1, False, size=SIZE)
        assert plain["correct"], plain["violations"]
        assert {k: v["unit"] for k, v in plain["metrics"].items()} == e2e
        assert all(v["value"] > 0 for v in plain["metrics"].values())
        expected = set(EXPECTED_CHECKS)
        if 2 in wl.ns:
            expected.add("two_point_midpoint")
        if wl.near_tie:
            expected.add("twin_ratio")
            assert plain["failed"] > 0, "the near-tie twins no longer fail: update the README"
        else:
            assert plain["failed"] == 0, plain["failures"]
        missing = expected - set(plain["checks_executed"])
        assert not missing, (name, missing)

        traced = [run.run_workload(name, 7, 1, True, size=SIZE) for _ in range(2)]
        assert {k: v["unit"] for k, v in traced[0]["metrics"].items()} == layers
        assert (traced[0]["attempted"], traced[0]["failed"]) == (plain["attempted"], plain["failed"])
        exact = [k for k in layers if "calls_per_retract" in k or "sweeps_per" in k or "forced" in k]
        first, second = ({k: t["metrics"][k]["value"] for k in exact} for t in traced)
        assert first == second, (name, first, second)
        print(f"{name}: ok, {plain['attempted']} operations, {plain['failed']} failed, "
              f"checks {sorted(plain['checks_executed'].items())}", file=sys.stderr)
    print("selfcheck: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
