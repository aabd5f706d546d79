"""Command-line front end.

Every subcommand reads a JSON config, writes into <out>/<name>/ the files
manifest.json, report.json, tables/*.csv and (for flow runs) trajectory.jsonl,
and prints a one-line summary. Exit codes: 0 success, 1 runtime or science
failure, 2 invalid config (the message names the offending field).

Data files are byte-deterministic for a fixed config; only manifest.json
(wall time) may differ between runs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import (ConfigInvalid, DomainError, ParamDomain, SphereCSFError,
                     TooFewNodes)
from .sphere import GreatCircle
from .curves import SphereArc, load_curve, save_curve
from .flow import FlowConfig, evolve_arc, evolve_closed, straightening_experiment
from .graphflow import PeriodicGraph, crosscheck, evolve_graph
from .jordan import (CURVE_KINDS, Spacing, construct_spacing, generate_curve,
                     multiplicity_at, multiplicity_sup, verify_spacing)
from .levelset import (AnnulusState, area_ode_check, classify_long_term,
                       make_annulus, sandwich_flow)

_MISSING = object()


def _json_default(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _fmt_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if value is None:
        return ""
    return str(value)


class RunDir:
    """Output folder <out>/<name> with the standard file layout."""

    def __init__(self, out: str, name: str):
        self.path = Path(out) / name
        (self.path / "tables").mkdir(parents=True, exist_ok=True)

    def write_json(self, rel: str, obj) -> None:
        text = json.dumps(obj, indent=2, sort_keys=True, default=_json_default)
        (self.path / rel).write_text(text + "\n")

    def write_jsonl(self, rel: str, rows) -> None:
        with open(self.path / rel, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row, default=_json_default) + "\n")

    def write_csv(self, rel: str, header, rows) -> None:
        with open(self.path / rel, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt_cell(v) for v in row) + "\n")


def _load_config(args, required: bool = True) -> dict:
    if args.config is None:
        if required:
            raise ConfigInvalid("config: this command requires --config")
        return {}
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigInvalid(f"config: file not found: {args.config}")
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config: not valid JSON ({exc})")
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config: top level must be a JSON object")
    return cfg


def _get(cfg: dict, name: str, default=_MISSING):
    if name in cfg:
        return cfg[name]
    if default is _MISSING:
        raise ConfigInvalid(f"{name}: required field is missing")
    return default


def _run_name(cfg: dict, fallback: str) -> str:
    name = cfg.get("name", fallback)
    if not isinstance(name, str) or not name or "/" in name or name in (".", ".."):
        raise ConfigInvalid(f"name: must be a plain directory name, got {name!r}")
    return name


def _pole(cfg: dict, field: str = "pole", default=(0.0, 0.0, 1.0)):
    raw = cfg.get(field, list(default))
    try:
        p = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigInvalid(f"{field}: must be a 3-vector, got {raw!r}")
    if p.shape != (3,):
        raise ConfigInvalid(f"{field}: must be a 3-vector, got {raw!r}")
    return p


def _build_curve(spec, field: str, seed: int):
    """A curve from {"file": path} or {"kind": name, **maker keyword arguments};
    --seed is the default of a maker's `seed`."""
    if not isinstance(spec, dict):
        raise ConfigInvalid(f"{field}: must be an object")
    params = dict(spec)
    try:
        if "file" in params:
            if len(params) > 1:
                raise ConfigInvalid(f"{field}: a file spec holds only 'file', "
                                    f"got {sorted(params)}")
            return load_curve(params["file"])
        kind = params.pop("kind", None)
        if kind not in CURVE_KINDS:
            raise ConfigInvalid(f"{field}.kind: unknown curve kind {kind!r} "
                                f"(known: {', '.join(CURVE_KINDS)})")
        if "seed" in inspect.signature(CURVE_KINDS[kind]).parameters:
            params.setdefault("seed", seed)
        return generate_curve(kind, **params)
    except ConfigInvalid:
        raise
    except (DomainError, ParamDomain, TooFewNodes, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"{field}: {exc}")


def _flow_config(cfg: dict, field: str = "flow") -> FlowConfig:
    raw = cfg.get(field, {})
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"{field}: must be an object")
    allowed = set(FlowConfig.__dataclass_fields__)
    for key in raw:
        if key not in allowed:
            raise ConfigInvalid(f"{field}.{key}: unknown field "
                                f"(known: {sorted(allowed)})")
    try:
        return FlowConfig(**raw)
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"{field}.{exc}")


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _write_manifest(run: RunDir, args, command: str, name: str, cfg: dict,
                    started: float) -> None:
    manifest = {
        "command": command,
        "name": name,
        "seed": args.seed,
        "format": args.format,
        "config": cfg,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "spherecsf": _version(),
        },
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    run.write_json("manifest.json", manifest)


def _version() -> str:
    from . import __version__
    return __version__


def _trajectory_rows(traj, include_nodes: bool):
    for s in traj.snapshots:
        row = {
            "t": s.t,
            "length": s.length,
            "total_curvature": s.total_curvature,
            "bending": s.bending,
            "area": s.enclosed_area,
        }
        if include_nodes:
            row["nodes"] = s.curve.nodes.tolist()
        yield row


def _write_trajectory(run: RunDir, args, traj, include_nodes: bool) -> None:
    if args.format == "jsonl":
        run.write_jsonl("trajectory.jsonl", _trajectory_rows(traj, include_nodes))
    run.write_csv("tables/trajectory.csv",
                  ["t", "length", "total_curvature", "bending", "area"],
                  ((s.t, s.length, s.total_curvature, s.bending,
                    s.enclosed_area) for s in traj.snapshots))


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args)
    name = _run_name(cfg, "simulate")
    curve = _build_curve(_get(cfg, "curve"), "curve", args.seed)
    fcfg = _flow_config(cfg)
    if isinstance(curve, SphereArc):
        if fcfg.max_time is None:
            raise ConfigInvalid("flow.max_time: required for arc evolution")
        traj = evolve_arc(curve, fcfg)
    else:
        traj = evolve_closed(curve, fcfg)
    run = RunDir(args.out, name)
    include_nodes = bool(args.nodes or cfg.get("record_nodes", False))
    _write_trajectory(run, args, traj, include_nodes)
    final = traj.final()
    save_curve(run.path / "tables" / "final_curve.csv", final.curve)
    run.write_json("report.json", {
        "terminal_status": traj.terminal_status,
        "snapshots": len(traj.snapshots),
        "final_time": final.t,
        "final_length": final.length,
        "final_total_curvature": final.total_curvature,
        "final_bending": final.bending,
        "final_area": final.enclosed_area,
        "final_nodes": final.curve.n,
    })
    _write_manifest(run, args, "simulate", name, cfg, started)
    _say(args, f"{name}: {traj.terminal_status} at t={final.t:.6f}, "
               f"length={final.length:.6f}")
    return 0


def cmd_multiplicity(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args)
    name = _run_name(cfg, "multiplicity")
    curve = _build_curve(_get(cfg, "curve"), "curve", args.seed)
    r = float(_get(cfg, "r"))
    if "pole" in cfg:
        report = multiplicity_at(curve, GreatCircle(_pole(cfg)), r)
    else:
        report = multiplicity_sup(curve, r,
                                  pole_samples=int(cfg.get("pole_samples", 2000)))
    run = RunDir(args.out, name)
    run.write_json("report.json", report.to_json())
    run.write_csv("tables/components.csv", ["start", "end"], report.components)
    _write_manifest(run, args, "multiplicity", name, cfg, started)
    _say(args, f"{name}: multiplicity {report.count} at pole "
               f"[{report.pole[0]:.6f}, {report.pole[1]:.6f}, {report.pole[2]:.6f}]")
    return 0


def cmd_spacing(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args)
    name = _run_name(cfg, "spacing")
    curve = _build_curve(_get(cfg, "curve"), "curve", args.seed)
    theta = float(_get(cfg, "theta"))
    x_samples = int(cfg.get("x_samples", 1000))
    run = RunDir(args.out, name)
    if "points" in cfg:
        spacing = Spacing(points=np.asarray(cfg["points"], dtype=float),
                          clearance=float(_get(cfg, "C")), theta=theta)
        check = verify_spacing(curve, spacing, x_samples=x_samples)
        run.write_json("report.json", {"mode": "verify", "ok": check.ok,
                                       "reason": check.reason,
                                       **spacing.to_json()})
        run.write_csv("tables/points.csv", ["x", "y", "z"], spacing.points)
        _write_manifest(run, args, "spacing", name, cfg, started)
        _say(args, f"{name}: verification {'passed' if check.ok else 'failed'}"
                   + (f" ({check.reason})" if check.reason else ""))
        return 0 if check.ok else 1
    spacing = construct_spacing(curve, theta,
                                margin=float(cfg.get("margin", 0.22)),
                                x_samples=x_samples)
    run.write_json("report.json", {"mode": "construct", **spacing.to_json()})
    run.write_csv("tables/points.csv", ["x", "y", "z"], spacing.points)
    _write_manifest(run, args, "spacing", name, cfg, started)
    _say(args, f"{name}: found {len(spacing.points)} points with clearance "
               f"{spacing.clearance:.6f}")
    return 0


def cmd_straighten(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args)
    name = _run_name(cfg, "straighten")
    curve = _build_curve(_get(cfg, "curve"), "curve", args.seed)
    if isinstance(curve, SphereArc):
        raise ConfigInvalid("curve: straighten needs a closed curve")
    g = GreatCircle(_pole(cfg))
    fcfg = _flow_config(cfg)
    if fcfg.max_time is None:
        raise ConfigInvalid("flow.max_time: required for straighten")
    res = straightening_experiment(curve, g,
                                   barrier_halfwidth=float(_get(cfg, "barrier_halfwidth")),
                                   alignment=float(_get(cfg, "alignment")),
                                   cfg=fcfg)
    run = RunDir(args.out, name)
    _write_trajectory(run, args, res.trajectory, bool(cfg.get("record_nodes", False)))
    run.write_csv("tables/deviations.csv",
                  ["t", "deviation", "max_height", "barrier_height"],
                  zip(res.times, res.deviations, res.max_heights,
                      res.barrier_heights))
    run.write_json("report.json", {
        "containment_ok": res.containment_ok,
        "first_aligned_time": res.first_aligned_time,
        "initial_deviation": float(res.deviations[0]),
        "final_deviation": float(res.deviations[-1]),
    })
    _write_manifest(run, args, "straighten", name, cfg, started)
    _say(args, f"{name}: contained={res.containment_ok}, aligned at "
               f"t={res.first_aligned_time}, final deviation "
               f"{res.deviations[-1]:.3e}")
    return 0


def _levelset_state(cfg: dict, seed: int):
    if "annulus" in cfg:
        ann = cfg["annulus"]
        if not isinstance(ann, dict):
            raise ConfigInvalid("annulus: must be an object")
        alpha = _build_curve(_get(ann, "alpha"), "annulus.alpha", seed)
        beta = _build_curve(_get(ann, "beta"), "annulus.beta", seed)
        return make_annulus(alpha, beta)
    return _build_curve(_get(cfg, "curve"), "curve", seed)


def cmd_levelset(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args)
    name = _run_name(cfg, "levelset")
    mode = cfg.get("mode", "sandwich")
    if mode not in ("sandwich", "area", "classify"):
        raise ConfigInvalid(f"mode: must be sandwich, area or classify, got {mode!r}")
    state = _levelset_state(cfg, args.seed)
    run = RunDir(args.out, name)

    if mode == "sandwich":
        result = sandwich_flow(state, n_levels=int(cfg.get("levels", 4)),
                               t_end=float(_get(cfg, "t")),
                               eps0=float(cfg.get("eps0", 0.1)))
        run.write_csv("tables/levels.csv",
                      ["eps", "gap_initial", "gap_final", "area_final", "skipped"],
                      ((r.eps, r.gap_initial, r.gap_final, r.area_final,
                        r.skipped or "") for r in result.rows))
        run.write_json("report.json", {
            "verdict": result.verdict, "t_end": result.t_end,
            "eps0": result.eps0,
            "levels": [{"eps": r.eps, "gap_initial": r.gap_initial,
                        "gap_final": r.gap_final, "area_final": r.area_final,
                        "skipped": r.skipped} for r in result.rows],
        })
        _say(args, f"{name}: verdict {result.verdict}")
    elif mode == "area":
        if not isinstance(state, AnnulusState):
            raise ConfigInvalid("annulus: required for mode 'area'")
        report = area_ode_check(state, float(_get(cfg, "t")))
        run.write_csv("tables/areas.csv", ["t", "area", "model"],
                      zip(report.times, report.areas, report.model))
        run.write_json("report.json", {"residual": report.residual,
                                       "initial_area": state.area})
        _say(args, f"{name}: area-law residual {report.residual:.3e}")
    else:
        if not isinstance(state, AnnulusState):
            raise ConfigInvalid("annulus: required for mode 'classify'")
        out = classify_long_term(state, max_time=float(_get(cfg, "max_time")))
        run.write_json("report.json", {
            "verdict": out.verdict,
            "expected_verdict": out.expected_verdict,
            "consistent": out.consistent,
            "complement_area_max": out.complement_area_max,
            "extinction_time": out.extinction_time,
            "final_area": out.final_area,
        })
        _say(args, f"{name}: verdict {out.verdict} (expected "
                   f"{out.expected_verdict}, consistent={out.consistent})")
    _write_manifest(run, args, "levelset", name, cfg, started)
    return 0


def _graph_initial(cfg: dict) -> PeriodicGraph:
    if "values" in cfg:
        return PeriodicGraph(np.asarray(cfg["values"], dtype=float))
    n = int(cfg.get("n", 256))
    x = 2.0 * np.pi * np.arange(n) / n
    h = np.full(n, float(cfg.get("constant_height", 0.0)))
    terms = cfg.get("harmonics", [])
    if not isinstance(terms, list):
        raise ConfigInvalid("harmonics: must be a list of objects")
    for i, term in enumerate(terms):
        if not isinstance(term, dict) or "mode" not in term:
            raise ConfigInvalid(f"harmonics[{i}].mode: required")
        k = int(term["mode"])
        h += float(term.get("sin_height", 0.0)) * np.sin(k * x)
        h += float(term.get("cos_height", 0.0)) * np.cos(k * x)
    if np.abs(h).max() >= np.pi / 2:
        raise ConfigInvalid("harmonics: heights must stay below pi/2")
    return PeriodicGraph(np.tan(h))


def cmd_graphflow(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args)
    name = _run_name(cfg, "graphflow")
    t_end = float(_get(cfg, "t"))
    initial = _graph_initial(cfg)
    run = RunDir(args.out, name)
    report = {"t": t_end, "n": initial.n}
    if cfg.get("crosscheck", False):
        out = crosscheck(initial, GreatCircle(_pole(cfg)), t_end,
                         curve_nodes=int(cfg.get("curve_nodes", 512)),
                         dt=float(cfg.get("dt", 1e-4)))
        final = out["graph"]
        report["gap"] = out["gap"]
        _say(args, f"{name}: crosscheck gap {out['gap']:.3e}")
    else:
        dt = cfg.get("dt")
        final = evolve_graph(initial, t_end, dt=None if dt is None else float(dt))
        _say(args, f"{name}: evolved to t={t_end}")
    report["max_height"] = float(np.abs(final.heights).max())
    run.write_csv("tables/profile.csv", ["x", "u"], zip(final.x, final.values))
    run.write_json("report.json", report)
    _write_manifest(run, args, "graphflow", name, cfg, started)
    return 0


def cmd_verify(args) -> int:
    from .acceptance import CHECKS, run_checks
    started = time.monotonic()
    cfg = _load_config(args, required=False)
    name = _run_name(cfg, "verify")
    names = cfg.get("checks")
    if names is not None:
        if (not isinstance(names, list)
                or any(not isinstance(x, str) for x in names)):
            raise ConfigInvalid("checks: must be a list of check names")
        unknown = [x for x in names if x not in CHECKS]
        if unknown:
            raise ConfigInvalid(f"checks: unknown names {unknown} "
                                f"(known: {list(CHECKS)})")
    results = []
    for check_name in (names if names is not None else list(CHECKS)):
        result = run_checks([check_name])[0]
        results.append(result)
        _say(args, f"{'PASS' if result.passed else 'FAIL'} "
                   f"{result.name}: {result.detail}")
    run = RunDir(args.out, name)
    run.write_json("report.json", {
        "all_passed": all(r.passed for r in results),
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail,
                    "measured": r.measured} for r in results],
    })
    run.write_csv("tables/checks.csv", ["name", "passed"],
                  ((r.name, r.passed) for r in results))
    _write_manifest(run, args, "verify", name, cfg, started)
    failed = [r.name for r in results if not r.passed]
    if failed:
        _say(args, f"{len(failed)} of {len(results)} checks failed: {failed}")
        return 1
    _say(args, f"all {len(results)} checks passed")
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherecsf",
        description="curve shortening flow on the unit sphere")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": (cmd_simulate, "evolve a curve and record its trajectory"),
        "multiplicity": (cmd_multiplicity, "band multiplicity of a curve"),
        "spacing": (cmd_spacing, "construct or verify a spaced point set"),
        "straighten": (cmd_straighten, "band-confined straightening run"),
        "levelset": (cmd_levelset, "offset sandwich, area law, or trichotomy"),
        "graphflow": (cmd_graphflow, "periodic graph evolution over a great circle"),
        "verify": (cmd_verify, "run the built-in acceptance checks"),
    }
    extra_flags = {"simulate": [("--nodes", "record node positions in the trajectory")]}
    for cmd, (func, help_text) in commands.items():
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--out", default="out", help="output root directory")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized generators")
        p.add_argument("--format", choices=("csv", "jsonl"), default="jsonl",
                       help="trajectory serialization format")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the stdout summary")
        for flag, help_flag in extra_flags.get(cmd, []):
            p.add_argument(flag, action="store_true", help=help_flag)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SphereCSFError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
