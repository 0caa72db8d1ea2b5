"""Command-line front end.

Thin orchestration only: parse flags into a RunSpec, build the objects,
call the library, serialize the result.  All numerics live elsewhere.
Reports are emitted with sorted keys and no timestamps, so identical
RunSpecs produce byte-identical output.

Exit codes: 0 success, 1 validation/usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .flow import FlowConfig, flow_adaptive, merge_time
from .geometry import GeometryError, make_space, space_from_json
from .retraction import retract
from .subset_space import FiniteSubset, PointTuple, make_subset
from .verify import ScanConfig, bound_suite, convergence_study, lipschitz_scan

@dataclass(frozen=True)
class RunSpec:
    """Everything a run needs; raw point payloads are parsed in run()."""

    command: str
    space_arg: str | None = None
    space_file: str | None = None
    points: object = None  # decoded JSON payload for --set / --input
    n: int | None = None
    seed: int = 0
    samples: int = 200
    k: int = 256
    merge_tol: float = 1e-6
    max_doublings: int = 8
    time: float | None = None
    perturbation_scale: float = 0.05
    out: str | None = None
    csv: str | None = None
    trace_csv: str | None = None


class CliError(ValueError):
    pass


def _load_space(spec: RunSpec):
    if spec.space_file is not None:
        if spec.space_arg is not None:
            raise CliError("give either --space or --space-file, not both")
        with open(spec.space_file) as fh:
            return space_from_json(json.load(fh))
    if spec.space_arg is None:
        raise CliError("a space is required (--space kind:dim or --space-file)")
    kind, sep, dim = spec.space_arg.partition(":")
    if kind == "tree":
        raise CliError("tree spaces carry a topology; pass them via --space-file")
    if not sep:
        raise CliError("--space must look like euclidean:2 or hyperboloid:3")
    try:
        return make_space(kind, int(dim))
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _decode_points(spec: RunSpec, field: str):
    payload = spec.points
    if payload is None:
        raise CliError(f"no input points (--set or --input with \"{field}\")")
    if isinstance(payload, dict):
        for key in (field, "space"):
            if key not in payload:
                raise CliError(f"input file is missing the \"{key}\" field")
        space = space_from_json(payload["space"])
        items = payload[field]
    else:
        space = _load_space(spec)
        items = payload
    if not isinstance(items, list):
        raise CliError(f"\"{field}\" must be a JSON array of points")
    if not items:
        raise CliError("empty set")
    return space, [space.point_from_json(p) for p in items]


def _flow_config(spec: RunSpec) -> FlowConfig:
    return FlowConfig(sweeps_per_run=spec.k, merge_tolerance=spec.merge_tol,
                      max_doublings=spec.max_doublings)


def _scan_config(spec: RunSpec) -> ScanConfig:
    if spec.n is None:
        raise CliError("--n is required for verification runs")
    return ScanConfig(space=_load_space(spec), n=spec.n, samples=spec.samples,
                      seed=spec.seed, flow=_flow_config(spec),
                      perturbation_scale=spec.perturbation_scale)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_json(obj, path: str | None) -> None:
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", path)


def run(spec: RunSpec) -> int:
    """Execute one RunSpec.  Returns the process exit code."""
    if spec.command == "retract":
        space, pts = _decode_points(spec, "points")
        if spec.n is None:
            raise CliError("--n (the H(n) the input lives in) is required")
        a = make_subset(space, pts, 0.0)
        report = retract(a, spec.n, _flow_config(spec))
        _emit_json(report.to_json(), spec.out)
        return 0

    if spec.command == "flow":
        space, pts = _decode_points(spec, "coords")
        if spec.time is None:
            raise CliError("--time is required for flow runs")
        x = PointTuple(space, tuple(pts))
        report = flow_adaptive(x, spec.time, _flow_config(spec))
        _emit_json(report.to_json(), spec.out)
        if spec.trace_csv is not None:
            _emit(report.trace_csv(), spec.trace_csv)
        return 0

    if spec.command == "merge-time":
        space, pts = _decode_points(spec, "coords")
        x = PointTuple(space, tuple(pts))
        t_star, merged = merge_time(x, _flow_config(spec))
        _emit_json({"input": x.to_json(), "t_star": t_star,
                    "merged": merged.to_json()}, spec.out)
        return 0

    if spec.command in ("verify", "scan", "convergence"):
        cfg = _scan_config(spec)
        if spec.command == "verify":
            report = bound_suite(cfg)
        elif spec.command == "scan":
            report = lipschitz_scan(cfg)
        else:
            if spec.time is None:
                raise CliError("--time is required for convergence runs")
            report = convergence_study(cfg, spec.time)
        _emit_json(report.to_json(), spec.out)
        if spec.csv is not None:
            _emit(report.to_csv(), spec.csv)
        return 0 if report.overall_pass else 2

    raise CliError(f"unknown command {spec.command!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsetflow",
        description="Lipschitz retractions of finite subset spaces by gradient flow",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common(p, needs_points=False):
        p.add_argument("--space", help="simple space as kind:dim, e.g. euclidean:2")
        p.add_argument("--space-file", help="JSON space descriptor (required for trees)")
        if needs_points:
            p.add_argument("--set", dest="set_json",
                           help="inline JSON array of points")
            p.add_argument("--input", help="JSON file with space plus points/coords")
        p.add_argument("--k", type=int, default=256, help="sweeps per unit run")
        p.add_argument("--merge-tol", type=float, default=1e-6)
        p.add_argument("--max-doublings", type=int, default=8)
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("retract", help="retract a finite set into fewer points")
    common(p, needs_points=True)
    p.add_argument("--n", type=int, help="cardinality bound n of the ambient H(n)")

    p = sub.add_parser("flow", help="run the adaptive splitting flow on a tuple")
    common(p, needs_points=True)
    p.add_argument("--time", type=float)
    p.add_argument("--trace-csv", help="write the (time, delta, F) trace here")

    p = sub.add_parser("merge-time", help="first-merge time of a tuple")
    common(p, needs_points=True)

    for name, help_text in (("verify", "run the full invariant suite"),
                            ("scan", "empirical Lipschitz ratio scan"),
                            ("convergence", "sweep-doubling convergence study")):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--perturbation-scale", type=float, default=0.05)
        p.add_argument("--csv", help="also write the report as CSV here")
        if name == "convergence":
            p.add_argument("--time", type=float)
    return parser


def _to_spec(ns: argparse.Namespace) -> RunSpec:
    points = None
    if getattr(ns, "set_json", None) is not None and getattr(ns, "input", None) is not None:
        raise CliError("give either --set or --input, not both")
    if getattr(ns, "set_json", None) is not None:
        try:
            points = json.loads(ns.set_json)
        except json.JSONDecodeError as exc:
            raise CliError(f"--set is not valid JSON: {exc}") from exc
    elif getattr(ns, "input", None) is not None:
        try:
            with open(ns.input) as fh:
                points = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(f"input file is not valid JSON: {exc}") from exc
    return RunSpec(
        command=ns.command,
        space_arg=ns.space,
        space_file=ns.space_file,
        points=points,
        n=getattr(ns, "n", None),
        seed=getattr(ns, "seed", 0),
        samples=getattr(ns, "samples", 200),
        k=ns.k,
        merge_tol=ns.merge_tol,
        max_doublings=ns.max_doublings,
        time=getattr(ns, "time", None),
        perturbation_scale=getattr(ns, "perturbation_scale", 0.05),
        out=ns.out,
        csv=getattr(ns, "csv", None),
        trace_csv=getattr(ns, "trace_csv", None),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved for
        # verification failures here
        return 0 if exc.code == 0 else 1
    try:
        return run(_to_spec(ns))
    except (CliError, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
