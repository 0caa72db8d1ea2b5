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
# points merge at their midpoint at d/2, where two_point_merge reads 0.0).
README_STAR = """{"kind": "tree", "edges": [{"id": 0, "from": 0, "to": 1, "length": 1.0},
                           {"id": 1, "from": 0, "to": 2, "length": 1.0},
                           {"id": 2, "from": 0, "to": 3, "length": 1.5}]}"""


@pytest.mark.parametrize("argv, digest", [
    (["verify", "--space", "hyperboloid:2", "--n", "4", "--samples", "20", "--seed", "0"],
     "2372e30a1442c4eafcb68a66bef2fb4fe4cf2becb341d8f6ae0a1520919ad065"),
    (["scan", "--space", "euclidean:2", "--n", "3", "--samples", "50", "--seed", "0"],
     "5742814f8ee33246b3a4858caf20b25886bdaa3fbaf322275f2e722701fee3c9"),
    (["retract", "--space-file", "{star}", "--set", '[{"edge": 0, "offset": 0.4},'
      ' {"edge": 1, "offset": 0.3}, {"edge": 2, "offset": 1.2}]', "--n", "3"],
     "13854aa6a6d49da17fe89435be0e52611b979f5d3291080e1ad65287839fb913"),
    (["verify", "--space", "euclidean:2", "--n", "4", "--samples", "20", "--seed", "0"],
     "fa139b23dd5879fd38e0e3ac265d7c92574a7676d51cbaca658b03f1d456eaa1"),
    (["verify", "--space-file", "{star}", "--n", "4", "--samples", "20", "--seed", "0"],
     "865650c19958a9a11e43499cfdceb2c9139d99c7ead5ebd07ab6ca40bc17b0d5"),
    (["flow", "--space", "euclidean:2", "--set", "[[0,0],[1,0],[0,1]]", "--time", "0.4"],
     "6faa9dde48692fa093d845c47b3e5503480d8f84a0bc040847be6d893545935a"),
    (["merge-time", "--space", "euclidean:1", "--set", "[[0.0],[1.0]]"],
     "49697ac95a2896463c1700e7d67d74e2cf491c2fd83780ea1a51f594420653c5"),
    (["convergence", "--space", "euclidean:2", "--n", "4", "--time", "0.01", "--k", "16",
      "--samples", "3"],
     "6d5e85165d3c9e1664918affa6d1c2ca207088783a363dcf180c814d36a7422a"),
], ids=["verify-hyperboloid", "scan-euclidean", "retract-star", "verify-euclidean",
        "verify-star", "flow-readme", "merge-time-readme", "convergence-readme"])
def test_golden_report_bytes(capsys, tmp_path, argv, digest):
    star = tmp_path / "star.json"
    star.write_text(README_STAR)
    rc, out, err = run_cli(capsys, *(a.replace("{star}", str(star)) for a in argv))
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
