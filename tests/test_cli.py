import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import subsetflow
from subsetflow.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_retract_line_pair(capsys):
    rc, out, err = run_cli(capsys, "retract", "--space", "euclidean:1",
                           "--set", "[[0.0],[1.0]]", "--n", "2")
    assert rc == 0 and err == ""
    report = json.loads(out)
    assert report["output"]["points"] == [[0.5]]
    assert report["merge_time_used"] == 0.5
    assert report["output_cardinality"] == 1


def test_retract_tree_space_file(capsys, tmp_path, star_tree):
    space_path = tmp_path / "star.json"
    space_path.write_text(json.dumps(star_tree.to_json()))
    rc, out, _ = run_cli(capsys, "retract", "--space-file", str(space_path),
                         "--set", '[{"edge": 0, "offset": 0.4}, {"edge": 1, "offset": 0.3}]',
                         "--n", "2")
    assert rc == 0
    report = json.loads(out)
    (pt,) = report["output"]["points"]
    assert pt["edge"] == 0
    assert pt["offset"] == pytest.approx(0.05, abs=1e-12)
    assert report["merge_time_used"] == pytest.approx(0.35, rel=1e-9)


def test_import_and_retract_leave_numpy_unloaded():
    # No part of the package needs numpy: with its import blocked, the
    # retract command and the suites that run the reference resolvent work.
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "import subsetflow, subsetflow.cli\n"
            "from subsetflow import FlowConfig, ScanConfig, bound_suite, convergence_study, make_space\n"
            "rc = subsetflow.cli.main(['retract', '--space', 'euclidean:2',"
            " '--set', '[[0, 0], [1, 0], [0, 1]]', '--n', '3'])\n"
            "assert rc == 0, rc\n"
            "plane = make_space('euclidean', 2)\n"
            "suite = bound_suite(ScanConfig(plane, 3, 5, 0))\n"
            "study = convergence_study(ScanConfig(plane, 4, 3, 0, FlowConfig(sweeps_per_run=16)), 0.01)\n"
            "rows = {c.name: c for c in suite.checks + study.checks}\n"
            "for name in ('oracle_consistency', 'resolvent_inequality', 'oracle_agreement'):\n"
            "    assert rows[name].trials >= 1, name\n"
            "assert sys.modules['numpy'] is None\n"
            "assert not [m for m in sys.modules if m.startswith('numpy.')]\n")
    env = {**os.environ, "PYTHONPATH": str(Path(subsetflow.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_tree_requires_space_file(capsys):
    rc, _, err = run_cli(capsys, "retract", "--space", "tree:1",
                         "--set", "[[0, 0.1]]", "--n", "2")
    assert rc == 1
    assert "--space-file" in err


def test_flow_with_trace(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    rc, out, _ = run_cli(capsys, "flow", "--space", "euclidean:1",
                         "--set", "[[0.0],[1.0]]", "--time", "0.3",
                         "--k", "4", "--trace-csv", str(trace))
    assert rc == 0
    report = json.loads(out)
    assert report["converged"] is True
    assert [c[0] for c in report["final"]["coords"]] == pytest.approx([0.3, 0.7], abs=1e-12)
    lines = trace.read_text().splitlines()
    assert lines[0] == "time,delta,F"
    assert len(lines) > 2


def _strict_json(text):
    # json.loads reads the NaN and Infinity that json.dumps writes, but no
    # JSON parser elsewhere has to
    def refuse(constant):
        raise ValueError(f"non-finite constant {constant} in JSON output")
    return json.loads(text, parse_constant=refuse)


def test_one_point_flow_report_is_strict_json(capsys, tmp_path):
    # a one-point tuple has no pair, so its min gap is inf: null in the
    # report, inf in the trace
    trace = tmp_path / "trace.csv"
    rc, out, _ = run_cli(capsys, "flow", "--space", "euclidean:1", "--set", "[[0.0]]",
                         "--time", "0.1", "--trace-csv", str(trace))
    assert rc == 0
    report = _strict_json(out)
    assert report["min_gap_trace"] == [[0.0, None]]
    assert report["objective_trace"] == [[0.0, 0.0]]
    assert trace.read_text().splitlines()[1] == "0.0,inf,0.0"


def test_flow_at_large_scale_exits_0(capsys):
    # Once the points collapse, the objective is rounding residue of the
    # coordinates' scale: here it rises from 5.96e-07 to 7.15e-07 in one
    # sweep, far below the starting objective of 1.78e10.
    rc, out, err = run_cli(capsys, "flow", "--space", "euclidean:1",
                           "--set", "[[-1.5e9],[-8e8],[9e8],[1.1e9],[2e9]]", "--time", "1.75e9")
    assert (rc, err) == (0, "")
    assert json.loads(out)["objective_trace"][0] == [0.0, 1.78e10]


def test_flow_requires_time(capsys):
    rc, _, err = run_cli(capsys, "flow", "--space", "euclidean:1",
                         "--set", "[[0.0],[1.0]]")
    assert rc == 1
    assert "--time" in err


def test_merge_time_fields(capsys):
    rc, out, _ = run_cli(capsys, "merge-time", "--space", "euclidean:1",
                         "--set", "[[0.0],[1.0]]")
    assert rc == 0
    report = json.loads(out)
    assert set(report) == {"input", "t_star", "merged"}
    assert report["t_star"] == 0.5
    assert report["merged"]["coords"] == [[0.5], [0.5]]


def test_verify_small_passes(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--space", "euclidean:2",
                         "--n", "2", "--samples", "2", "--seed", "1")
    assert rc == 0
    report = json.loads(out)
    assert report["overall_pass"] is True
    assert all(row["pass"] for row in report["checks"])


def test_verify_csv_sidecar(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    rc, _, _ = run_cli(capsys, "scan", "--space", "euclidean:2", "--n", "2",
                       "--samples", "4", "--csv", str(csv_path))
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "name,trials,worst,threshold,pass"
    assert lines[1].startswith("lipschitz_ratio,")


def test_convergence_honest_failure(capsys):
    # at an intermediate time the doubling distances decay like 1/k, far
    # from the 1e-7 target with this little budget; the report must say so
    rc, out, _ = run_cli(capsys, "convergence", "--space", "euclidean:2",
                         "--n", "3", "--samples", "2", "--seed", "5",
                         "--time", "0.5", "--k", "8", "--max-doublings", "2")
    assert rc == 2
    report = json.loads(out)
    by_name = {row["name"]: row for row in report["checks"]}
    assert by_name["cauchy_reaches_tolerance"]["pass"] is False
    assert report["overall_pass"] is False


def test_reports_are_byte_identical(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["verify", "--space", "euclidean:2", "--n", "2", "--samples", "3",
            "--seed", "9"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_stdout_matches_out_file(capsys, tmp_path):
    path = tmp_path / "r.json"
    rc, out, _ = run_cli(capsys, "merge-time", "--space", "euclidean:1",
                         "--set", "[[0.0],[2.0]]")
    assert rc == 0
    assert main(["merge-time", "--space", "euclidean:1", "--set", "[[0.0],[2.0]]",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text() == out


def test_empty_set_rejected(capsys):
    rc, _, err = run_cli(capsys, "retract", "--space", "euclidean:1",
                         "--set", "[]", "--n", "2")
    assert rc == 1
    assert "empty set" in err


def test_bad_inline_json(capsys):
    rc, _, err = run_cli(capsys, "retract", "--space", "euclidean:1",
                         "--set", "[[", "--n", "2")
    assert rc == 1
    assert "not valid JSON" in err


@pytest.mark.parametrize("argv", [["retract", "--set", "[[0.0]]"], ["verify"]])
def test_bad_space_file_json(capsys, tmp_path, argv):
    space = tmp_path / "space.json"
    space.write_text("{bad")
    rc, _, err = run_cli(capsys, *argv, "--space-file", str(space), "--n", "2")
    assert rc == 1
    assert err.startswith("error: space file is not valid JSON")


def test_fractional_tree_edge_id_exits_1(capsys, tmp_path):
    # int() would read the id 0.5 as edge 0, and the merge would run
    space = tmp_path / "half.json"
    space.write_text('{"kind": "tree", "edges": [{"id": 0.5, "from": 0, "to": 1, "length": 1.0}]}')
    rc, out, err = run_cli(capsys, "merge-time", "--space-file", str(space), "--set",
                           '[{"edge": 0, "offset": 0.2}, {"edge": 0, "offset": 0.8}]')
    assert rc == 1 and out == ""
    assert err.startswith("error: malformed tree edge entry")


def test_set_and_input_conflict(capsys, tmp_path):
    payload = tmp_path / "in.json"
    payload.write_text("[[0.0]]")
    rc, _, err = run_cli(capsys, "retract", "--space", "euclidean:1",
                         "--set", "[[0.0]]", "--input", str(payload), "--n", "2")
    assert rc == 1
    assert "not both" in err


def test_space_and_space_file_conflict(capsys, tmp_path, star_tree):
    space_path = tmp_path / "star.json"
    space_path.write_text(json.dumps(star_tree.to_json()))
    rc, _, err = run_cli(capsys, "retract", "--space", "euclidean:1",
                         "--space-file", str(space_path),
                         "--set", "[[0.0],[1.0]]", "--n", "2")
    assert rc == 1
    assert "not both" in err


def test_input_file_payload(capsys, tmp_path):
    payload = {"space": {"kind": "euclidean", "dim": 1},
               "points": [[0.0], [1.0], [10.0]]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    rc, out, _ = run_cli(capsys, "retract", "--input", str(path), "--n", "3")
    assert rc == 0
    report = json.loads(out)
    got = [v for (v,) in report["output"]["points"]]
    assert got == pytest.approx([1.0, 9.0], abs=1e-12)


def test_input_file_missing_field(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"space": {"kind": "euclidean", "dim": 1}}))
    rc, _, err = run_cli(capsys, "retract", "--input", str(path), "--n", "2")
    assert rc == 1
    assert "points" in err


STAR_EDGES = ('[{"id": 0, "from": 0, "to": 1, "length": 1.0},'
              ' {"id": 1, "from": 0, "to": 2, "length": 1.0}]')


@pytest.mark.parametrize("argv", [
    ["retract", "--space", "euclidean:2", "--set", '[["a", 1]]', "--n", "2"],
    ["retract", "--space", "hyperboloid:1", "--set", "[[null, 1]]", "--n", "2"],
    ["retract", "--space", "euclidean:2", "--set", "[[[1], 1]]", "--n", "2"],
    ["retract", "--set", '{"space": {"kind": "tree", "edges": %s},'
     ' "points": [{"edge": [0], "offset": 0.5}]}' % STAR_EDGES, "--n", "2"],
    ["retract", "--set", '{"space": {"kind": "tree", "edges": %s},'
     ' "points": [{"edge": 0, "offset": "abc"}]}' % STAR_EDGES, "--n", "2"],
    ["retract", "--set", '{"space": {"kind": "tree", "edges":'
     ' [{"id": "x", "from": 0, "to": 1, "length": 1.0}]}, "points": []}', "--n", "2"],
    ["retract", "--set", '{"points": [[0.0]]}', "--n", "2"],
    ["retract", "--space", "euclidean:1", "--set", "[[-1e308], [1e308]]", "--n", "2"],
    ["convergence", "--space", "euclidean:2", "--n", "3", "--time", "0.1",
     "--max-doublings", "0"],
    ["retract", "--set", '{"space": {"kind": "euclidean", "dim": true},'
     ' "points": [[0.0]]}', "--n", "2"],
    ["flow", "--space", "euclidean:1", "--set", "[[0.0],[1.0]]", "--time", "inf"],
    ["flow", "--space", "euclidean:1", "--set", "[[0.0],[1.0]]", "--time", "nan"],
    ["convergence", "--space", "euclidean:2", "--n", "3", "--samples", "2", "--time", "inf"],
    # a flow flag the command does not read is not accepted
    ["flow", "--space", "euclidean:1", "--set", "[[0.0],[1.0]]", "--time", "0.1",
     "--merge-tol", "0.5"],
    ["retract", "--space", "euclidean:1", "--set", "[[0.0],[1.0]]", "--n", "2",
     "--max-doublings", "5"],
    ["convergence", "--space", "euclidean:2", "--n", "3", "--samples", "2", "--time", "0.1",
     "--perturbation-scale", "0.5"],
    ["flow", "--space", "euclidean:2", "--set", "[[-1e308, 0],[1e308, 0]]", "--time", "0.1",
     "--k", "2"],
], ids=["letter", "null", "nested", "tree-edge-list", "tree-offset-text", "tree-edge-id",
        "no-space", "overflow", "no-doublings", "bool-dim", "flow-time-inf", "flow-time-nan",
        "convergence-time-inf", "flow-merge-tol", "retract-max-doublings",
        "convergence-perturbation-scale", "flow-overflow"])
def test_bad_input_is_an_error_line(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["retract", "--input", "{noise}", "--n", "2"],
    ["retract", "--space-file", "{noise}", "--set", "[[0.0]]", "--n", "2"],
], ids=["input", "space-file"])
def test_non_utf8_file_is_an_error_line(capsys, tmp_path, argv):
    noise = random.Random(0).randbytes(300)
    with pytest.raises(UnicodeDecodeError):
        noise.decode("utf-8")
    path = tmp_path / "noise.bin"
    path.write_bytes(noise)
    rc, out, err = run_cli(capsys, *(a.replace("{noise}", str(path)) for a in argv))
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_input_file(capsys):
    rc, _, err = run_cli(capsys, "retract", "--input", "/nonexistent/in.json", "--n", "2")
    assert rc == 1
    assert err.startswith("error:")


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 1


def test_usage_error_is_exit_one(capsys):
    # argparse would exit 2, but 2 is reserved for failed verification
    assert main(["retract", "--space"]) == 1


def test_help_is_exit_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["retract", "--help"]) == 0


# The README's star tree, and the sha256 of each command's stdout as the code
# printed it before the flow's pair step was fused into one kernel per backend
# (the two verify runs on euclidean:2 and the star tree: before the CAT(0)
# audit moved into verify.py; the README's flow, merge-time and convergence
# runs: before the sweep-doubling loop was shared by the flow and the study;
# the retract and verify runs on the star tree: as the exact tree flow prints
# them, the retract with merge_time_used 0.2, as test_retraction checks; the
# convergence run on euclidean:2: as the reference resolvent prints it on
# plain floats; the verify runs on euclidean:2 and hyperboloid:2: as two
# points merge at their midpoint at d/2, where two_point_merge reads 0.0;
# the three verify runs: with the merge_time_bound threshold at 1 + 1e-9,
# as the merge march stops at half the gap, which moved no other field; the
# scan on the star tree: as sampled subsets were re-clustered, perturbations
# ran through the public geodesic calls and each Hausdorff pair was measured
# twice; the eight retract, merge-time and flow runs from plane-8 on: as the
# console runs of CI printed them before the geodesic step, the sorted-set
# build and the left-to-right sum each got one helper; the verify run and
# the two retract runs on hyperboloid:2: as a geodesic point blends the
# spatial coordinates alone and derives x0, which moved the retracts'
# coordinates by at most 2.9e-13 of x0, kept their cardinalities and merge
# times, and moved verify's worst values by rounding only; the same three
# again as the hyperboloid pair step is written in the squared gap md alone
# and random points derive x0, which moved the retracts' coordinates by at
# most 3.3e-14 of x0, kept their cardinalities and merge times, and moved
# verify's worst values by rounding only; the flow and the far retract on
# hyperboloid:2 as that pair step prints them).
README_STAR = """{"kind": "tree", "edges": [{"id": 0, "from": 0, "to": 1, "length": 1.0},
                           {"id": 1, "from": 0, "to": 2, "length": 1.0},
                           {"id": 2, "from": 0, "to": 3, "length": 1.5}]}"""
# The large-n benchmark's caterpillar (conftest.caterpillar_tree), whose flow
# walks points across vertices; its digest is the reference march's.
CATERPILLAR = json.dumps({"kind": "tree", "edges": [
    {"id": i, "from": a, "to": b, "length": length} for i, a, b, length in (
        (0, 0, 1, 0.8), (1, 1, 2, 0.6), (2, 2, 3, 1.1), (3, 3, 4, 0.7), (4, 4, 5, 0.9),
        (5, 0, 6, 1.2), (6, 0, 7, 0.5), (7, 1, 12, 1.0), (8, 2, 8, 0.75), (9, 3, 9, 1.3),
        (10, 5, 10, 0.65), (11, 5, 11, 0.85))]})
# The near-tie benchmark's five-leg equal star.
FIVE_LEG = json.dumps({"kind": "tree", "edges": [
    {"id": i, "from": 0, "to": i + 1, "length": 1.0} for i in range(5)]})
STAR_SET = '[{"edge": 0, "offset": 0.4}, {"edge": 1, "offset": 0.3}, {"edge": 2, "offset": 1.2}]'
CATERPILLAR_SET = ('[{"edge": 0, "offset": 0.4}, {"edge": 2, "offset": 0.5},'
                   ' {"edge": 4, "offset": 0.45}, {"edge": 5, "offset": 0.6},'
                   ' {"edge": 7, "offset": 0.5}, {"edge": 8, "offset": 0.3},'
                   ' {"edge": 9, "offset": 1.0}, {"edge": 11, "offset": 0.4}]')
PLANE_8 = [[0.0, 0.0], [0.5, 0.1], [-0.4, 0.3], [0.2, -0.6], [1.0, 0.8], [-0.9, -0.2],
           [0.3, 1.1], [-0.1, -1.0]]
HYPERBOLOID_8 = [[1.0, 0.0, 0.0], [1.122497216032, 0.5, 0.1], [1.11803398875, -0.4, 0.3],
                 [1.18321595662, 0.2, -0.6], [1.624807680927, 1.0, 0.8],
                 [1.360147050874, -0.9, -0.2], [1.51657508881, 0.3, 1.1],
                 [1.417744687876, -0.1, -1.0]]
# Four points 6.2, 7.9, 6.8 and 7.3 from the apex, the first two 0.15 apart
# in direction, spatial parts rounded to 9 decimals and x0 derived.
HYPERBOLOID_FAR = [[246.37553526147212, 235.369600074, 72.808349359],
                   [1348.641349506367, 1214.379861441, 586.612343652],
                   [448.9242027126158, -435.885538728, 107.404547897],
                   [740.1503015617089, -227.472308779, -704.327919112]]
LINE_31 = ("[[0.0],[0.101],[0.204],[0.302],[0.402],[0.504],[0.601],[0.7],[0.801],[0.904],"
           "[1.002],[1.102],[1.204],[1.301],[1.4],[1.501],[1.604],[1.702],[1.802],[1.904],"
           "[2.001],[2.1],[2.201],[2.304],[2.402],[2.502],[2.604],[2.701],[2.8],[2.901],"
           "[3.004]]")


@pytest.mark.parametrize("argv, digest", [
    (["verify", "--space", "hyperboloid:2", "--n", "4", "--samples", "20", "--seed", "0"],
     "f0ba969bfde7e31d636f83e77eeb5f910fc32c14f8f9fee40356aa8e6f123971"),
    (["scan", "--space", "euclidean:2", "--n", "3", "--samples", "50", "--seed", "0"],
     "5742814f8ee33246b3a4858caf20b25886bdaa3fbaf322275f2e722701fee3c9"),
    (["retract", "--space-file", "{star}", "--set", STAR_SET, "--n", "3"],
     "13854aa6a6d49da17fe89435be0e52611b979f5d3291080e1ad65287839fb913"),
    (["verify", "--space", "euclidean:2", "--n", "4", "--samples", "20", "--seed", "0"],
     "3b1ac4469cdecd652f65422f0405f5aadf08917efc2bf68366c7d3cfac86be88"),
    (["verify", "--space-file", "{star}", "--n", "4", "--samples", "20", "--seed", "0"],
     "b5bb5d4baa4849babee33b5bba897f7f5042316723f99c2ceacd1db422f8715f"),
    (["flow", "--space", "euclidean:2", "--set", "[[0,0],[1,0],[0,1]]", "--time", "0.4"],
     "6faa9dde48692fa093d845c47b3e5503480d8f84a0bc040847be6d893545935a"),
    (["merge-time", "--space", "euclidean:1", "--set", "[[0.0],[1.0]]"],
     "49697ac95a2896463c1700e7d67d74e2cf491c2fd83780ea1a51f594420653c5"),
    (["convergence", "--space", "euclidean:2", "--n", "4", "--time", "0.01", "--k", "16",
      "--samples", "3"],
     "019561736c2f66cbe17e4379c96a72dfd8d92277fba2d8d7178e7a0cbf63a347"),
    (["flow", "--space-file", "{caterpillar}", "--set", CATERPILLAR_SET, "--time", "0.2",
      "--k", "16", "--max-doublings", "3"],
     "33c770847b8de8650457ef655094091e1d970ae4ee7a79fd3b46877277b6ccf8"),
    (["scan", "--space-file", "{star}", "--n", "3", "--samples", "50", "--seed", "0"],
     "b08fe1ad3ea5260efcc63060ed2c267817b9c150a4dc93c990e7ee962141d3cd"),
    (["retract", "--space", "euclidean:2", "--set", json.dumps(PLANE_8), "--n", "8"],
     "d1375cc232ddbf4360cf81953e2f70b803d65a05ee303f62676fa36e28e759f4"),
    # 3 points on the hyperboloid march in the unrolled shape, 8 in the looped one.
    (["retract", "--space", "hyperboloid:2", "--set", json.dumps(HYPERBOLOID_8[:3]), "--n", "3"],
     "6c7bd09db121558affd0b06bd90336f0f6ba99fd8f806728e266fb18d25575d3"),
    (["retract", "--space", "hyperboloid:2", "--set", json.dumps(HYPERBOLOID_8), "--n", "8"],
     "88c691f1c3e8eee64e42803b727c19919c83ec097a57120b888d39e98e69c750"),
    # Five points flow until pairs meet, so the unrolled march meets and moves.
    (["flow", "--space", "hyperboloid:2", "--set", json.dumps(HYPERBOLOID_8[:5]), "--time", "0.2",
      "--k", "16", "--max-doublings", "3"],
     "69124c0878195a845b369279c7e8bcbfb9b487d883545a53bd2e8e87f24f6732"),
    (["retract", "--space", "hyperboloid:2", "--set", json.dumps(HYPERBOLOID_FAR), "--n", "4"],
     "12ca0c31ca8176fecb25649e2cbd03aa33e728c96b2251cff4e23e2e25c37807"),
    # 31 points on the line merge by the exact flow: four gaps tie exactly,
    # so 27 points are left, bit for bit bench/refgeom.py's exact_line_merge.
    (["retract", "--space", "euclidean:1", "--set", LINE_31, "--n", "31"],
     "38758e8aedccfc35757599a1b17bb99a0eec9989da3f69ea5eb17a7a57f5d9b2"),
    (["merge-time", "--space-file", "{star}", "--set", STAR_SET],
     "aeba2a414451d7c9152700a457513c5aa81cbe057ff2d6fa94bdd17dd42d2e3e"),
    (["flow", "--space-file", "{star}", "--set", STAR_SET, "--time", "0.1"],
     "93a04bd54644bd4710c06c8d25a1dd04ae0577c6468d7191d69247f09ca3439b"),
    (["retract", "--space-file", "{caterpillar}", "--set", CATERPILLAR_SET, "--n", "8"],
     "5367c1940a33bf18322547e896a8babc70c6b83d50d0f0787e54a6570b04f145"),
    # Five points at one depth flow to the hub together and meet there five at once.
    (["retract", "--space-file", "{five_leg}", "--set", json.dumps(
        [{"edge": i, "offset": 0.6} for i in range(5)]), "--n", "5"],
     "c47549ba28877272809c6785595554045831d70401cbfdc6e45cbfa5952a405f"),
], ids=["verify-hyperboloid", "scan-euclidean", "retract-star", "verify-euclidean",
        "verify-star", "flow-readme", "merge-time-readme", "convergence-readme",
        "flow-caterpillar", "scan-star", "retract-plane-8", "retract-hyperboloid-3",
        "retract-hyperboloid-8", "flow-hyperboloid", "retract-hyperboloid-far",
        "retract-line-31", "merge-time-star", "flow-star", "retract-caterpillar",
        "retract-five-leg"])
def test_golden_report_bytes(capsys, tmp_path, argv, digest):
    star = tmp_path / "star.json"
    star.write_text(README_STAR)
    caterpillar = tmp_path / "caterpillar.json"
    caterpillar.write_text(CATERPILLAR)
    five_leg = tmp_path / "five-leg.json"
    five_leg.write_text(FIVE_LEG)
    rc, out, err = run_cli(capsys, *(a.replace("{star}", str(star))
                                     .replace("{caterpillar}", str(caterpillar))
                                     .replace("{five_leg}", str(five_leg)) for a in argv))
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_golden_flow_trace_csv_bytes(capsys, tmp_path):
    # the --trace-csv file of the README's flow run, pinned like its stdout
    trace = tmp_path / "trace.csv"
    rc, _, err = run_cli(capsys, "flow", "--space", "euclidean:2", "--set", "[[0,0],[1,0],[0,1]]",
                         "--time", "0.4", "--trace-csv", str(trace))
    assert (rc, err) == (0, "")
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == (
        "721b1f78cb8e804d52de8ddd9024bcb8b53a1c981a6b9da51f09a156700ddc35")
