"""Command-line interface.

    binoether check <file|--builtin NAME --n N> [--points K] [--seed S] ...
    binoether invariants <system> --at q1=...,p1=...
    binoether flow <system> --from q1=...,p1=... --t-end T --dt D
    binoether report <system> --json PATH

Exit codes: 0 when the overall verdict passes, 1 on a failing verdict or a
reported stop condition, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .expr import ExprError, PhaseSpace
from .geometry import PhasePoint, lie_derivative_mv
from .spectral import SpectralError, mixed_wedge_ratios, secular_roots
from .systems import SystemFileError, SystemSpec, builtin_system, load_system, run_report
from .verify import CheckConfig, CheckReport, FlowError, integrate_flow, trajectory_drift

_DEFAULTS = CheckConfig()


def _add_system_args(p: argparse.ArgumentParser):
    p.add_argument("system", nargs="?", help="path to a system file")
    p.add_argument("--builtin", metavar="NAME", help="built-in system name")
    p.add_argument("--n", type=int, default=2, help="degrees of freedom for --builtin")


def _add_config_args(p: argparse.ArgumentParser):
    # each dest is the CheckConfig field the flag sets
    p.add_argument("--points", dest="samples", metavar="POINTS", type=int, default=_DEFAULTS.samples,
                   help="regular sample points per check")
    p.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    p.add_argument("--tol", type=float, default=_DEFAULTS.tol, help="relative residual tolerance")
    p.add_argument("--box", type=float, default=_DEFAULTS.box, help="sampling box half-width")
    p.add_argument("--drift-tol", type=float, default=_DEFAULTS.drift_tol)
    p.add_argument("--t-end", type=float, default=_DEFAULTS.t_end)
    p.add_argument("--dt", type=float, default=_DEFAULTS.dt)


def _resolve_system(args) -> SystemSpec:
    if args.builtin:
        return builtin_system(args.builtin, args.n)
    if args.system:
        return load_system(args.system)
    raise SystemFileError("no system given: pass a file path or --builtin NAME --n N")


def _config(args) -> CheckConfig:
    return CheckConfig(**{f.name: getattr(args, f.name) for f in fields(CheckConfig)})


def _parse_point(text: str, space: PhaseSpace) -> PhasePoint:
    values: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"expected 'coord=value', got '{part}'")
        key, val = part.split("=", 1)
        key = key.strip()
        if key not in space.names:
            raise ValueError(f"unknown coordinate '{key}'")
        if key in values:
            raise ValueError(f"duplicate coordinate '{key}'")
        values[key] = float(val)
    missing = [name for name in space.names if name not in values]
    if missing:
        raise ValueError(f"missing coordinates: {', '.join(missing)}")
    return PhasePoint(tuple(values[name] for name in space.names))


def _print_report(report: CheckReport):
    print(f"system: {report.name}")
    for r in report.records:
        status = "PASS" if r.passed else "FAIL"
        line = (
            f"  {status}  {r.id:<18} residual {r.residual:10.3e}"
            f"  scale {r.scale:10.3e}  [{r.paper_anchor}]"
        )
        print(line)
        if r.notes:
            print(f"        {r.notes}")
    print(f"verdict: {'pass' if report.verdict else 'fail'}")


def _emit_json(report: CheckReport, path: str | None):
    if path:
        Path(path).write_text(report.to_json() + "\n", encoding="utf-8")
    else:
        print(report.to_json())


def _cmd_check(args) -> int:
    spec = _resolve_system(args)
    report = run_report(spec, _config(args))
    _print_report(report)
    if args.json:
        _emit_json(report, args.json)
    return 0 if report.verdict else 1


def _cmd_report(args) -> int:
    spec = _resolve_system(args)
    report = run_report(spec, _config(args))
    _emit_json(report, args.json)
    return 0 if report.verdict else 1


def _cmd_invariants(args) -> int:
    spec = _resolve_system(args)
    x = _parse_point(args.at, spec.space)
    What = lie_derivative_mv(spec.E, spec.W)
    spectrum = secular_roots(spec.W, What, x)
    invariants = mixed_wedge_ratios(spec.W, What, x)
    print(f"system: {spec.name}")
    print("point:  " + ", ".join(f"{k}={v:g}" for k, v in zip(spec.space.names, x)))
    for i, (c, multiple) in enumerate(zip(spectrum.roots, spectrum.multiple), start=1):
        flag = "  (multiple)" if multiple else ""
        print(f"  c{i}    = {c: .12g}{flag}")
    for l, y in enumerate(invariants.values, start=1):
        print(f"  Y({l})  = {y: .12g}")
    return 0


def _cmd_flow(args) -> int:
    spec = _resolve_system(args)
    x0 = _parse_point(args.start, spec.space)
    cfg = CheckConfig(t_end=args.t_end, dt=args.dt)
    traj = integrate_flow(spec.W, spec.h, x0, cfg)
    stride = max(1, (len(traj) - 1) // 10)
    print(f"system: {spec.name}")
    print("t        " + "  ".join(f"{name:>12}" for name in spec.space.names))
    for k in range(0, len(traj), stride):
        row = "  ".join(f"{v:12.6g}" for v in traj.states[k])
        print(f"{traj.times[k]:<8.4g} {row}")
    record = trajectory_drift(spec.W, lie_derivative_mv(spec.E, spec.W), traj, cfg)
    status = "PASS" if record.passed else "FAIL"
    print(f"conservation drift: {status}  (max |dQ| {record.residual:.3e}, scale {record.scale:.3e})")
    print(f"  {record.notes}")
    return 0 if record.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="binoether",
        description="Audit non-Noether symmetries of Hamiltonian systems: defining "
        "identities, conserved quantities, and involution under both Poisson structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the full audit, print a pass/fail table")
    _add_system_args(p_check)
    _add_config_args(p_check)
    p_check.add_argument("--json", metavar="PATH", help="also write the JSON report")
    p_check.set_defaults(fn=_cmd_check)

    p_inv = sub.add_parser("invariants", help="print c_i and Y(l) at a point")
    _add_system_args(p_inv)
    p_inv.add_argument("--at", required=True, metavar="q1=...,p1=...")
    p_inv.set_defaults(fn=_cmd_invariants)

    p_flow = sub.add_parser("flow", help="integrate the flow and audit conservation")
    _add_system_args(p_flow)
    p_flow.add_argument("--from", dest="start", required=True, metavar="q1=...,p1=...")
    p_flow.add_argument("--t-end", type=float, default=_DEFAULTS.t_end)
    p_flow.add_argument("--dt", type=float, default=_DEFAULTS.dt)
    p_flow.set_defaults(fn=_cmd_flow)

    p_rep = sub.add_parser("report", help="run the full pipeline, emit the JSON report")
    _add_system_args(p_rep)
    _add_config_args(p_rep)
    p_rep.add_argument("--json", metavar="PATH", help="write here instead of stdout")
    p_rep.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SystemFileError, FileNotFoundError, ValueError, ExprError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # OverflowError: a pencil norm or node-scale power beyond the float range
    except (SpectralError, FlowError, OverflowError) as err:
        print(f"stopped: {err}", file=sys.stderr)
        return 1
    except RecursionError:  # its own text depends on the stack depth at which it was raised
        print("stopped: maximum recursion depth exceeded", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
