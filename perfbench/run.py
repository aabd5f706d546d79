"""Layered benchmark for spherecsf.

    python3 perfbench/run.py --workload flow-fixed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1    # every workload, each in a fresh process

One run is one process on one BLAS/OpenMP thread. It imports spherecsf from
src/ and builds the seeded inputs SETUP_REPS times (setup_s is the median),
then runs whole passes in a closed loop until --seconds have passed: one
untimed warm-up pass, then at least MIN_PASSES timed ones. Every pass's
outputs are checked after its timer stops. With --trace 1, the timed passes
alternate: untraced, then traced with a span around each call into spherecsf;
the gap between their medians is the tracing overhead.

The last line of stdout is the JSON result. The run also writes the result,
the environment and, when tracing, every span to .perfbench-out/. The exit
status is 0 when every check passed, 1 when one failed or a call raised, and
2 when spherecsf cannot be imported from the checkout.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import COUNTERS, LAYERS, SPANS, WORKLOADS, Placement  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 9
MIN_PASSES = 2          # timed passes, after one untimed warm-up pass
MIN_TRACED_PASSES = 4   # two traced and two untraced
# calibrate()'s typical time on the 2-core sandbox where the benchmark was
# defined; it only sets the unit of wall_adj_s
CAL_REF_S = 0.2


_CAL_RNG = np.random.default_rng(0)
_CAL_SMALL = _CAL_RNG.normal(size=(512, 3))
_CAL_BIG = _CAL_RNG.normal(size=(2, 16, 1536, 3))


def calibrate() -> float:
    """Seconds taken by a fixed numpy kernel that is not spherecsf code.

    It mixes the program's two regimes, many calls on small arrays (the
    stepper) and a few large temporaries (the pairwise queries), so its time
    tracks the machine's speed at that moment. On a shared machine that speed
    drifts by tens of percent over a minute; pass time scaled by calibration
    time (wall_adj_s) does not drift with it.
    """
    t0 = time.perf_counter()
    x = _CAL_SMALL
    for _ in range(1500):
        d = np.roll(x, -1, axis=0) - x
        c = np.linalg.norm(d, axis=1, keepdims=True)
        np.arccos(np.clip(np.sum(x * (x + d / c), axis=1), -1.0, 1.0))
    for _ in range(32):
        np.linalg.norm(np.cross(_CAL_BIG[0], _CAL_BIG[1]), axis=2).max()
    return time.perf_counter() - t0


class ProgramMissing(Exception):
    pass


def import_program() -> SimpleNamespace:
    """Import spherecsf afresh from this checkout's src/ (never an installed copy)."""
    if not (SRC / "spherecsf" / "__init__.py").is_file():
        raise ProgramMissing(f"no spherecsf package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.partition(".")[0] == "spherecsf"]:
        del sys.modules[name]
    sc = importlib.import_module("spherecsf")
    if not Path(sc.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"spherecsf resolved to {sc.__file__}, outside {SRC}")
    return SimpleNamespace(sc=sc, cli=importlib.import_module("spherecsf.cli"))


def load_refs() -> dict:
    return json.loads((HERE / "reference.json").read_text())


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    """sha256 over src/spherecsf/*.py, which names the program in a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    for p in sorted((SRC / "spherecsf").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one workload in this process


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    workdir = OUT / f"{name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            prog = import_program()
            inputs = wl.setup(prog, Placement(seed), workdir)
            setup_s.append(time.perf_counter() - t0)
        refs = load_refs()

        tracer = spans.Tracer()
        state: dict = {}
        walls = {False: [], True: []}
        adj_walls = []  # untraced pass time at the reference calibration speed
        counters = []
        checks = []
        raised = 0
        min_passes = 1 + (MIN_TRACED_PASSES if trace else MIN_PASSES)
        k = 0
        deadline = time.perf_counter() + seconds
        cal = calibrate()
        while k < min_passes or time.perf_counter() < deadline:
            # pass 0 warms caches and allocators: checked, not timed
            record = trace and k > 0 and k % 2 == 0
            tracer.begin_pass(name, record)
            t0 = time.perf_counter()
            try:
                out = wl.run(prog, inputs, tracer)
            except Exception:  # a library call raised: count it, keep measuring
                traceback.print_exc(file=sys.stderr)
                raised += 1
                out = None
            wall = time.perf_counter() - t0
            tracer.end_pass()
            cal_after = calibrate()
            if k > 0:
                walls[record].append(wall)
                if not record:
                    adj_walls.append(wall * CAL_REF_S / (0.5 * (cal + cal_after)))
            cal = cal_after
            if out is not None:
                pass_checks, pass_counters = wl.check(inputs, out, state, refs)
                checks += pass_checks
                counters.append(pass_counters)
            k += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_checks = [c for c in checks if not c.passed]
    for c in failed_checks[:10]:
        print(f"check failed: {c.name}: error {c.error!r} > tolerance {c.tolerance!r}",
              file=sys.stderr)
    attempted = tracer.calls
    failed = min(attempted, raised + len(failed_checks))
    ratios = [c.ratio for c in checks if c.tolerance > 0 and math.isfinite(c.error)]
    worst = max(checks, key=lambda c: c.ratio if c.tolerance > 0 else -1.0, default=None)

    if trace:
        summaries = spans.pass_summaries(tracer.spans)
        metrics = {}
        for span in SPANS:
            metrics[f"{span}.s"] = (spans.median_of(summaries, "seconds", span), "s")
            metrics[f"{span}.calls"] = (spans.median_of(summaries, "calls", span), "count")
        for counter, unit in COUNTERS.items():
            metrics[counter] = (float(statistics.median(c.get(counter, 0) for c in counters))
                                if counters else 0.0, unit)
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = (spans.median_of(summaries, "self_s", layer), "s")
        metrics["trace_overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(walls[False]), "s")
        metrics["span_coverage"] = (float(statistics.median(s["coverage"] for s in summaries)),
                                    "ratio")
    else:
        metrics = {
            "wall_adj_s": (statistics.median(adj_walls), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "error_ratio": (max(ratios, default=0.0), "ratio"),
        }

    result = {
        "correct": not failed_checks and raised == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": name,
        "environment": environment(seed),
        "wall_s": statistics.median(walls[False]),
        "passes": {"untraced_s": walls[False], "traced_s": walls[True],
                   "untraced_adj_s": adj_walls},
        "setup_s": setup_s,
        "fail_frac": failed / attempted if attempted else 1.0,
        "worst_check": None if worst is None else
        {"name": worst.name, "error": worst.error, "tolerance": worst.tolerance},
        "result": result,
    }
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()) + "\n")

    print(f"workload {name}: {len(walls[False])} untraced and {len(walls[True])} traced "
          f"timed passes, wall_s {details['wall_s']:.6g} s (median, unadjusted), "
          f"fail_frac {details['fail_frac']:.4g} ({failed}/{attempted})")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    print("environment " + json.dumps(details["environment"]))
    return result


# ---------------------------------------------------------------------------
# every workload, each in a fresh process


def run_all(seed: int, seconds: float, trace: bool) -> int:
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit status {proc.returncode})")
            ok = False
            continue
        ok &= proc.returncode == 0 and result["correct"]
        print(f"{lines[0]}, correct={result['correct']}")
        for key, m in result["metrics"].items():
            print(f"  {name}.{key} = {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this process (default: all, each "
                             "in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
