"""Command-line front end.

Thin orchestration only: parse flags, build the objects, call the library,
serialize the result.  All numerics live elsewhere.  Reports are emitted
with sorted keys and no timestamps, so identical invocations produce
byte-identical output.

Exit codes: 0 success, 1 validation/usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .flow import FlowConfig, flow_adaptive, merge_time
from .geometry import GeometryError, space_from_json
from .retraction import retract
from .subset_space import FiniteSubset, PointTuple
from .verify import ScanConfig, bound_suite, convergence_study, lipschitz_scan


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # A usage error, such as a flag the command does not take, is one error
    # line and exit code 1 like any bad input; argparse would print the usage
    # and exit 2, which is reserved for verification failures.
    def error(self, message):
        raise CliError(message)


def _json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{what} is not valid JSON: {exc}") from exc


def _json_file(path: str, what: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"{what} is not UTF-8 text: {exc}") from exc
    return _json(text, what)


def _space_json(ns: argparse.Namespace):
    """The space descriptor that --space-file holds or --space spells out."""
    if ns.space_file is not None:
        if ns.space is not None:
            raise CliError("give either --space or --space-file, not both")
        return _json_file(ns.space_file, "space file")
    if ns.space is None:
        raise CliError("a space is required (--space kind:dim or --space-file)")
    kind, sep, dim = ns.space.partition(":")
    if kind == "tree":
        raise CliError("tree spaces carry a topology; pass them via --space-file")
    if not sep:
        raise CliError("--space must look like euclidean:2 or hyperboloid:3")
    try:
        return {"kind": kind, "dim": int(dim)}
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _points(ns: argparse.Namespace, cls, field: str):
    """--set or --input parsed by cls.from_json; a bare array takes the --space."""
    if ns.set_json is not None and ns.input is not None:
        raise CliError("give either --set or --input, not both")
    if ns.set_json is not None:
        payload = _json(ns.set_json, "--set")
    elif ns.input is not None:
        payload = _json_file(ns.input, "input file")
    else:
        raise CliError(f"no input points (--set or --input with \"{field}\")")
    if not isinstance(payload, dict):
        payload = {"space": _space_json(ns), field: payload}
    return cls.from_json(payload)


# Each flow flag: the FlowConfig field it sets, its type and its help.  A
# command takes only the flags whose fields it reads.
_FLOW_FLAGS = {
    "--k": ("sweeps_per_run", int, "sweeps per unit run (a merge on a tree, the line or "
            "hyperboloid:1 runs the exact flow, and two points meet at their midpoint at d/2)"),
    "--merge-tol": ("merge_tolerance", float, "merged-gap fraction of the starting min gap "
                    "(not read on a tree, the line, hyperboloid:1 or two points)"),
    "--max-doublings": ("max_doublings", int, None),
}


def _flow_config(ns: argparse.Namespace) -> FlowConfig:
    return FlowConfig(**{field: getattr(ns, field) for field, _, _ in _FLOW_FLAGS.values()
                         if hasattr(ns, field)})


def _scan_config(ns: argparse.Namespace) -> ScanConfig:
    return ScanConfig(space=space_from_json(_space_json(ns)), n=ns.n, samples=ns.samples,
                      seed=ns.seed, flow=_flow_config(ns),
                      perturbation_scale=getattr(ns, "perturbation_scale",
                                                 ScanConfig.perturbation_scale))


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_json(obj, path: str | None) -> None:
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", path)


def run(ns: argparse.Namespace) -> int:
    """Execute one parsed command line.  Returns the process exit code."""
    if ns.command == "retract":
        a = _points(ns, FiniteSubset, "points")
        if ns.n is None:
            raise CliError("--n (the H(n) the input lives in) is required")
        report = retract(a, ns.n, _flow_config(ns))
        _emit_json(report.to_json(), ns.out)
        return 0

    if ns.command == "flow":
        x = _points(ns, PointTuple, "coords")
        if ns.time is None:
            raise CliError("--time is required for flow runs")
        report = flow_adaptive(x, ns.time, _flow_config(ns))
        _emit_json(report.to_json(), ns.out)
        if ns.trace_csv is not None:
            _emit(report.trace_csv(), ns.trace_csv)
        return 0

    if ns.command == "merge-time":
        x = _points(ns, PointTuple, "coords")
        t_star, merged = merge_time(x, _flow_config(ns))
        _emit_json({"input": x.to_json(), "t_star": t_star,
                    "merged": merged.to_json()}, ns.out)
        return 0

    if ns.command in ("verify", "scan", "convergence"):
        cfg = _scan_config(ns)
        if ns.command == "verify":
            report = bound_suite(cfg)
        elif ns.command == "scan":
            report = lipschitz_scan(cfg)
        else:
            if ns.time is None:
                raise CliError("--time is required for convergence runs")
            report = convergence_study(cfg, ns.time)
        _emit_json(report.to_json(), ns.out)
        if ns.csv is not None:
            _emit(report.to_csv(), ns.csv)
        return 0 if report.overall_pass else 2

    raise CliError(f"unknown command {ns.command!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="subsetflow",
        description="Lipschitz retractions of finite subset spaces by gradient flow",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common(p, flow_flags, needs_points=False):
        p.add_argument("--space", help="simple space as kind:dim, e.g. euclidean:2")
        p.add_argument("--space-file", help="JSON space descriptor (required for trees)")
        if needs_points:
            p.add_argument("--set", dest="set_json",
                           help="inline JSON array of points")
            p.add_argument("--input", help="JSON file with space plus points/coords")
        for flag in flow_flags:
            field, kind, help_text = _FLOW_FLAGS[flag]
            p.add_argument(flag, dest=field, type=kind, default=getattr(FlowConfig, field),
                           help=help_text)
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    merge_flags = ("--k", "--merge-tol")
    doubling_flags = ("--k", "--max-doublings")

    p = sub.add_parser("retract", help="retract a finite set into fewer points")
    common(p, merge_flags, needs_points=True)
    p.add_argument("--n", type=int, help="cardinality bound n of the ambient H(n)")

    p = sub.add_parser("flow", help="run the adaptive splitting flow on a tuple")
    common(p, doubling_flags, needs_points=True)
    p.add_argument("--time", type=float)
    p.add_argument("--trace-csv", help="write the (time, delta, F) trace here")

    p = sub.add_parser("merge-time", help="first-merge time of a tuple")
    common(p, merge_flags, needs_points=True)

    for name, help_text, flow_flags in (
            ("verify", "run the full invariant suite", tuple(_FLOW_FLAGS)),
            ("scan", "empirical Lipschitz ratio scan", merge_flags),
            ("convergence", "sweep-doubling convergence study", doubling_flags)):
        p = sub.add_parser(name, help=help_text)
        common(p, flow_flags)
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--csv", help="also write the report as CSV here")
        if name == "convergence":
            p.add_argument("--time", type=float)
        else:
            # convergence_study perturbs nothing
            p.add_argument("--perturbation-scale", type=float,
                           default=ScanConfig.perturbation_scale)
    return parser


def main(argv=None) -> int:
    try:
        return run(_build_parser().parse_args(argv))
    except SystemExit as exc:
        # --help
        return exc.code
    except (CliError, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
