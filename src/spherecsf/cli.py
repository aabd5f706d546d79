"""Command-line front end.

Every subcommand reads a JSON config, writes into <out>/<name>/ the files
manifest.json, report.json, tables/*.csv and (for flow runs) trajectory.jsonl,
and prints a one-line summary. Exit codes: 0 success, 1 runtime or science
failure, 2 invalid config (the message names the offending field).

`main` is the one run skeleton: it loads the config, names the run, hands the
subcommand its `RunDir`, and writes manifest.json once the subcommand returns.
A run that raises leaves no directory behind.

Data files are byte-deterministic for a fixed config; only manifest.json
(wall times) may differ between runs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (ConfigInvalid, DomainError, ParamDomain, SphereCSFError,
                     TooFewNodes)
from .sphere import GreatCircle
from .curves import SphereArc, load_curve, save_curve
from .flow import (FlowConfig, _is_number, evolve_arc, evolve_closed,
                   straightening_experiment)
from .graphflow import PeriodicGraph, crosscheck, evolve_graph
from .jordan import (CURVE_KINDS, Spacing, construct_spacing, multiplicity_at,
                     multiplicity_sup, verify_spacing)
from .levelset import (AnnulusState, SandwichRow, area_ode_check,
                       classify_long_term, make_annulus, sandwich_flow)

# inspect's marker of a parameter without a default: maker defaults pass to _get as is
_MISSING = inspect.Parameter.empty
# the JSON type each kind of _get takes, as named in its error message
_JSON_KINDS = {int: "an integer", float: "a real number", bool: "true or false",
               str: "a string", dict: "an object", list: "a list"}
_TRAJECTORY_FIELDS = ["t", "length", "total_curvature", "bending", "area"]


def _fmt_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if value is None:
        return ""
    return str(value)


class RunDir:
    """Output folder <out>/<name> with the standard file layout, made (with
    its tables/ subfolder) on the first write."""

    def __init__(self, out: str, name: str):
        self.name = name
        self.path = Path(out) / name
        self.manifest = {}  # the command's own manifest.json fields

    def file(self, rel: str) -> Path:
        (self.path / "tables").mkdir(parents=True, exist_ok=True)
        return self.path / rel

    def write_json(self, rel: str, obj) -> None:
        text = json.dumps(obj, indent=2, sort_keys=True)
        self.file(rel).write_text(text + "\n")

    def write_jsonl(self, rel: str, rows) -> None:
        with open(self.file(rel), "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")

    def write_csv(self, rel: str, header, rows) -> None:
        with open(self.file(rel), "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt_cell(v) for v in row) + "\n")


def _load_config(args, required: bool) -> dict:
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


def _get(cfg: dict, name: str, default=_MISSING, kind=None, where: str = ""):
    """Field `name` of `cfg` checked or converted by `kind`, or `default` as
    given when the field is absent. A null stands for an absent field whose
    default is None. The kinds int, float, bool, str, dict and list take only
    their JSON type: int a JSON integer, float any JSON number (returned as a
    float), and neither of them a bool, by FlowConfig's rule. Any other kind
    (_floats(...), FlowConfig) converts the value; a ConfigInvalid it raises
    names a field inside this one. A missing required field, or a value `kind`
    does not take, raises ConfigInvalid naming the field after the prefix
    `where`, the path of `cfg` ("", "curve.", "harmonics[0].")."""
    path = where + name
    if name not in cfg:
        if default is _MISSING:
            raise ConfigInvalid(f"{path}: required field is missing")
        return default
    value = cfg[name]
    if kind is None or (value is None and default is None):
        return value
    if kind in _JSON_KINDS:
        if not (_is_number(value, kind is int) if kind in (int, float)
                else type(value) is kind):
            raise ConfigInvalid(f"{path}: must be {_JSON_KINDS[kind]}, got {value!r}")
        if kind is not float:
            return value
    try:
        return kind(value)
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"{path}.{exc}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid(f"{path}: cannot read {value!r} ({exc})")


def _only(obj: dict, known, where: str = "") -> dict:
    """`obj`, if it is an object with no key outside `known`; `where` as in _get."""
    if type(obj) is not dict:
        raise TypeError("must be an object")
    for key in obj:
        if key not in known:
            raise ConfigInvalid(f"{where}{key}: unknown field (known: {sorted(known)})")
    return obj


def _floats(*shape):
    """The kind of an array of reals of this shape; None is any length."""
    def read(value) -> np.ndarray:
        arr = np.asarray(value, dtype=float)
        if arr.ndim != len(shape) or any(
                want not in (None, got) for want, got in zip(shape, arr.shape)):
            raise ValueError(f"shape {arr.shape} is not {shape} (None: any length)")
        return arr
    return read


def _run_name(cfg: dict, fallback: str) -> str:
    name = _get(cfg, "name", fallback, str)
    if not name or "/" in name or name in (".", ".."):
        raise ConfigInvalid(f"name: must be a plain directory name, got {name!r}")
    return name


def _pole(cfg: dict) -> np.ndarray:
    return _get(cfg, "pole", np.array([0.0, 0.0, 1.0]), _floats(3))


# the kind of each maker keyword of jordan.CURVE_KINDS that is not a real
_CURVE_KEYS = {"pole": _floats(3), **dict.fromkeys(("n", "mode", "seed", "depth",
                                                    "base_nodes"), int)}


def _build_curve(spec: dict, field: str, seed: int):
    """A curve from {"file": path} or {"kind": name, **maker keyword arguments},
    each keyword read by its kind in _CURVE_KEYS (else a real), at the maker's
    default when absent; --seed is the default of a maker's `seed`."""
    where = field + "."
    if "file" in spec:
        _only(spec, ("file",), where)
        make, params = load_curve, {"path": _get(spec, "file", kind=str, where=where)}
    else:
        kind = _get(spec, "kind", kind=str, where=where)
        if kind not in CURVE_KINDS:
            raise ConfigInvalid(f"{where}kind: unknown curve kind {kind!r} "
                                f"(known: {', '.join(CURVE_KINDS)})")
        make = CURVE_KINDS[kind]
        keys = inspect.signature(make).parameters
        _only(spec, ("kind", *keys), where)
        params = {key: _get(spec, key, seed if key == "seed" else p.default,
                            _CURVE_KEYS.get(key, float), where)
                  for key, p in keys.items()}
    try:
        return make(**params)
    except (DomainError, ParamDomain, TooFewNodes, OSError) as exc:
        raise ConfigInvalid(f"{field}: {exc}")


def _flow_config(cfg: dict) -> FlowConfig:
    # FlowConfig checks and names its own fields
    return _get(cfg, "flow", FlowConfig(), lambda raw: FlowConfig(
        **_only(raw, FlowConfig.__dataclass_fields__)))


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _write_manifest(run: RunDir, args, cfg: dict, wall_time_s: float) -> None:
    run.write_json("manifest.json", {
        "command": args.command,
        "name": run.name,
        "seed": args.seed,
        "format": args.format,
        "config": cfg,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "spherecsf": __version__,
        },
        "wall_time_s": wall_time_s,
        **run.manifest,
    })


def _with_flow(result) -> dict:
    """asdict(result) with its `runs` written as "flow", one FlowStats.to_json()
    per run, in run order."""
    report = asdict(result)
    del report["runs"]
    return {**report, "flow": [s.to_json() for s in result.runs]}


def _write_trajectory(run: RunDir, args, traj, include_nodes: bool) -> None:
    rows = [(s.t, s.length, s.total_curvature, s.bending, s.enclosed_area)
            for s in traj.snapshots]
    if args.format == "jsonl":
        run.write_jsonl("trajectory.jsonl", (
            dict(zip(_TRAJECTORY_FIELDS, row),
                 **({"nodes": s.curve.nodes.tolist()} if include_nodes else {}))
            for row, s in zip(rows, traj.snapshots)))
    run.write_csv("tables/trajectory.csv", _TRAJECTORY_FIELDS, rows)


# ---------------------------------------------------------------------------
# subcommands: each takes (args, cfg, run), writes its report and tables into
# run and returns its exit code


def cmd_simulate(args, cfg: dict, run: RunDir) -> int:
    curve = _build_curve(_get(cfg, "curve", kind=dict), "curve", args.seed)
    fcfg = _flow_config(cfg)
    if isinstance(curve, SphereArc):
        if fcfg.max_time is None:
            raise ConfigInvalid("flow.max_time: required for arc evolution")
        traj = evolve_arc(curve, fcfg)
    else:
        traj = evolve_closed(curve, fcfg)
    _write_trajectory(run, args, traj,
                      _get(cfg, "record_nodes", False, bool) or args.nodes)
    final = traj.final()
    save_curve(run.file("tables/final_curve.csv"), final.curve)
    run.write_json("report.json", {
        "terminal_status": traj.terminal_status,
        "snapshots": len(traj.snapshots),
        "final_time": final.t,
        "final_length": final.length,
        "final_total_curvature": final.total_curvature,
        "final_bending": final.bending,
        "final_area": final.enclosed_area,
        "final_nodes": final.curve.n,
        "flow": traj.stats.to_json(),
    })
    _say(args, f"{run.name}: {traj.terminal_status} at t={final.t:.6f}, "
               f"length={final.length:.6f}")
    return 0


def cmd_multiplicity(args, cfg: dict, run: RunDir) -> int:
    curve = _build_curve(_get(cfg, "curve", kind=dict), "curve", args.seed)
    r = _get(cfg, "r", kind=float)
    if "pole" in cfg:
        report = multiplicity_at(curve, GreatCircle(_pole(cfg)), r)
    else:
        report = multiplicity_sup(
            curve, r, pole_samples=_get(cfg, "pole_samples", 2000, int))
    run.write_json("report.json", report.to_json())
    run.write_csv("tables/components.csv", ["start", "end"], report.components)
    _say(args, f"{run.name}: multiplicity {report.count} at pole "
               f"[{report.pole[0]:.6f}, {report.pole[1]:.6f}, {report.pole[2]:.6f}]")
    return 0


def cmd_spacing(args, cfg: dict, run: RunDir) -> int:
    curve = _build_curve(_get(cfg, "curve", kind=dict), "curve", args.seed)
    theta = _get(cfg, "theta", kind=float)
    x_samples = _get(cfg, "x_samples", 1000, int)
    if "points" in cfg:
        points = _get(cfg, "points", kind=_floats(None, 3))
        spacing = Spacing(points=points, clearance=_get(cfg, "C", kind=float),
                          theta=theta)
        check = verify_spacing(curve, spacing, x_samples=x_samples)
        report = {"mode": "verify", "ok": check.ok, "reason": check.reason}
        summary = (f"verification {'passed' if check.ok else 'failed'}"
                   + (f" ({check.reason})" if check.reason else ""))
        rc = 0 if check.ok else 1
    else:
        spacing = construct_spacing(curve, theta,
                                    margin=_get(cfg, "margin", 0.22, float),
                                    x_samples=x_samples)
        report = {"mode": "construct"}
        summary = (f"found {len(spacing.points)} points with clearance "
                   f"{spacing.clearance:.6f}")
        rc = 0
    run.write_json("report.json", {**report, **spacing.to_json()})
    run.write_csv("tables/points.csv", ["x", "y", "z"], spacing.points)
    _say(args, f"{run.name}: {summary}")
    return rc


def cmd_straighten(args, cfg: dict, run: RunDir) -> int:
    curve = _build_curve(_get(cfg, "curve", kind=dict), "curve", args.seed)
    if isinstance(curve, SphereArc):
        raise ConfigInvalid("curve: straighten needs a closed curve")
    g = GreatCircle(_pole(cfg))
    fcfg = _flow_config(cfg)
    if fcfg.max_time is None:
        raise ConfigInvalid("flow.max_time: required for straighten")
    res = straightening_experiment(
        curve, g, barrier_halfwidth=_get(cfg, "barrier_halfwidth", kind=float),
        alignment=_get(cfg, "alignment", kind=float), cfg=fcfg)
    _write_trajectory(run, args, res.trajectory,
                      _get(cfg, "record_nodes", False, bool))
    run.write_csv("tables/deviations.csv",
                  ["t", "deviation", "max_height", "barrier_height"],
                  zip(res.times, res.deviations, res.max_heights,
                      res.barrier_heights))
    run.write_json("report.json", {
        "containment_ok": res.containment_ok,
        "first_aligned_time": res.first_aligned_time,
        "initial_deviation": float(res.deviations[0]),
        "final_deviation": float(res.deviations[-1]),
        "flow": res.trajectory.stats.to_json(),
    })
    _say(args, f"{run.name}: contained={res.containment_ok}, aligned at "
               f"t={res.first_aligned_time}, final deviation "
               f"{res.deviations[-1]:.3e}")
    return 0


def _levelset_state(cfg: dict, seed: int):
    if "annulus" in cfg:
        ann = _only(_get(cfg, "annulus", kind=dict), ("alpha", "beta"), "annulus.")
        alpha = _build_curve(_get(ann, "alpha", kind=dict), "annulus.alpha", seed)
        beta = _build_curve(_get(ann, "beta", kind=dict), "annulus.beta", seed)
        return make_annulus(alpha, beta)
    return _build_curve(_get(cfg, "curve", kind=dict), "curve", seed)


def cmd_levelset(args, cfg: dict, run: RunDir) -> int:
    mode = _get(cfg, "mode", "sandwich", str)
    if mode not in ("sandwich", "area", "classify"):
        raise ConfigInvalid(f"mode: must be sandwich, area or classify, got {mode!r}")
    state = _levelset_state(cfg, args.seed)
    if mode != "sandwich" and not isinstance(state, AnnulusState):
        raise ConfigInvalid(f"annulus: required for mode {mode!r}")

    if mode == "sandwich":
        result = sandwich_flow(state, n_levels=_get(cfg, "levels", 4, int),
                               t_end=_get(cfg, "t", kind=float),
                               eps0=_get(cfg, "eps0", 0.1, float))
        run.write_csv("tables/levels.csv", [f.name for f in fields(SandwichRow)],
                      map(astuple, result.levels))
        run.write_json("report.json", _with_flow(result))
        _say(args, f"{run.name}: verdict {result.verdict}")
    elif mode == "area":
        report = area_ode_check(state, _get(cfg, "t", kind=float))
        run.write_csv("tables/areas.csv", ["t", "area", "model"],
                      zip(report.times, report.areas, report.model))
        run.write_json("report.json", {"residual": report.residual,
                                       "initial_area": state.area,
                                       "flow": [s.to_json() for s in report.runs]})
        _say(args, f"{run.name}: area-law residual {report.residual:.3e}")
    else:
        out = classify_long_term(state, max_time=_get(cfg, "max_time", kind=float))
        run.write_json("report.json", _with_flow(out))
        _say(args, f"{run.name}: verdict {out.verdict} (expected "
                   f"{out.expected_verdict}, consistent={out.consistent})")
    return 0


def _graph_initial(cfg: dict) -> PeriodicGraph:
    if "values" in cfg:
        return PeriodicGraph(_get(cfg, "values", kind=_floats(None)))
    n = _get(cfg, "n", 256, int)
    x = 2.0 * np.pi * np.arange(n) / n
    h = np.full(n, _get(cfg, "constant_height", 0.0, float))
    for i, term in enumerate(_get(cfg, "harmonics", [], list)):
        where = f"harmonics[{i}]."
        if not isinstance(term, dict):
            raise ConfigInvalid(f"harmonics[{i}]: must be an object")
        _only(term, ("mode", "sin_height", "cos_height"), where)
        k = _get(term, "mode", kind=int, where=where)
        h += _get(term, "sin_height", 0.0, float, where) * np.sin(k * x)
        h += _get(term, "cos_height", 0.0, float, where) * np.cos(k * x)
    if np.abs(h).max() >= np.pi / 2:
        raise ConfigInvalid("harmonics: heights must stay below pi/2")
    return PeriodicGraph(np.tan(h))


def cmd_graphflow(args, cfg: dict, run: RunDir) -> int:
    t_end = _get(cfg, "t", kind=float)
    initial = _graph_initial(cfg)
    dt = _get(cfg, "dt", None, float)
    report = {"t": t_end, "n": initial.n}
    if _get(cfg, "crosscheck", False, bool):
        out = crosscheck(initial, GreatCircle(_pole(cfg)), t_end,
                         curve_nodes=_get(cfg, "curve_nodes", 512, int), dt=dt)
        final = out["graph"]
        report["gap"], report["flow"] = out["gap"], out["flow"].to_json()
        _say(args, f"{run.name}: crosscheck gap {out['gap']:.3e}")
    else:
        final = evolve_graph(initial, t_end, dt=dt)
        _say(args, f"{run.name}: evolved to t={t_end}")
    report["max_height"] = float(np.abs(final.heights).max())
    run.write_csv("tables/profile.csv", ["x", "u"], zip(final.x, final.values))
    run.write_json("report.json", report)
    return 0


def cmd_verify(args, cfg: dict, run: RunDir) -> int:
    from .acceptance import CHECKS, LEDGER
    known = list(CHECKS)
    names = _get(cfg, "checks", None, list)
    if names is not None:
        # list membership compares by ==, so a non-string entry is unknown
        unknown = [x for x in names if x not in known]
        if unknown:
            raise ConfigInvalid(f"checks: unknown names {unknown} (known: {known})")
        repeated = [x for i, x in enumerate(names) if x in names[:i]]
        if repeated:
            raise ConfigInvalid(f"checks: repeated names {repeated}")
    results, run.manifest["check_wall_s"] = [], {}
    for check_name in (known if names is None else names):
        started = time.monotonic()
        result = CHECKS[check_name]()
        run.manifest["check_wall_s"][check_name] = round(time.monotonic() - started, 3)
        results.append(result)
        ledger = " ".join(f"{k}={result.measured[k]}" for k in LEDGER)
        _say(args, f"{'PASS' if result.passed else 'FAIL'} "
                   f"{result.name}: {result.detail} [{ledger}]")
    run.write_json("report.json", {
        "all_passed": all(r.passed for r in results),
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail,
                    "measured": r.measured} for r in results],
    })
    run.write_csv("tables/checks.csv", ["name", "passed"],
                  ((r.name, r.passed) for r in results))
    failed = [r.name for r in results if not r.passed]
    _say(args, f"{len(failed)} of {len(results)} checks failed: {failed}" if failed
         else f"all {len(results)} checks passed")
    runs = {id(s): s for r in results for s in r.runs}.values()  # a shared run once
    _say(args, f"totals over {len(runs)} distinct runs: "
               + " ".join(f"{k}={sum(getattr(s, k) for s in runs)}" for k in LEDGER))
    return 1 if failed else 0


# ---------------------------------------------------------------------------

# name: (function, help, whether --config is required, its config fields
# besides `name`)
_COMMANDS = {
    "simulate": (cmd_simulate, "evolve a curve and record its trajectory", True,
                 ("curve", "flow", "record_nodes")),
    "multiplicity": (cmd_multiplicity, "band multiplicity of a curve", True,
                     ("curve", "r", "pole", "pole_samples")),
    "spacing": (cmd_spacing, "construct or verify a spaced point set", True,
                ("curve", "theta", "x_samples", "points", "C", "margin")),
    "straighten": (cmd_straighten, "band-confined straightening run", True,
                   ("curve", "pole", "flow", "barrier_halfwidth", "alignment",
                    "record_nodes")),
    "levelset": (cmd_levelset, "offset sandwich, area law, or trichotomy", True,
                 ("mode", "curve", "annulus", "t", "levels", "eps0", "max_time")),
    "graphflow": (cmd_graphflow, "periodic graph evolution over a great circle",
                  True, ("t", "values", "n", "constant_height", "harmonics", "dt",
                         "crosscheck", "pole", "curve_nodes")),
    "verify": (cmd_verify, "run the built-in acceptance checks", False, ("checks",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherecsf",
        description="curve shortening flow on the unit sphere")
    sub = parser.add_subparsers(dest="command", required=True)
    extra_flags = {"simulate": [("--nodes", "record node positions in the trajectory")]}
    for cmd, (func, help_text, needs_config, _) in _COMMANDS.items():
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
        p.set_defaults(func=func, needs_config=needs_config)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        cfg = _only(_load_config(args, args.needs_config),
                    ("name", *_COMMANDS[args.command][3]))
        run = RunDir(args.out, _run_name(cfg, args.command))
        rc = args.func(args, cfg, run)
        _write_manifest(run, args, cfg, round(time.monotonic() - started, 3))
        return rc
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SphereCSFError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
