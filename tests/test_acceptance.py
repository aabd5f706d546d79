"""Acceptance criteria, one test per built-in check.

Each test runs a single named check from spherecsf.acceptance at its stated
tolerance and prints one [PASS]/[FAIL] line (visible with pytest -s, and in
the failure output otherwise). The checks are numbered in their canonical
order; see spherecsf.acceptance.CHECKS.

Each check's measured values are also pinned to acceptance_measured.json, as
`spherecsf verify` writes them to report.json. A change that means to move a
value rewrites that file and records the before and after values.
"""
import json
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest

from spherecsf import FlowConfig, acceptance, circle_curve, evolve_closed
from spherecsf.acceptance import CHECKS, LEDGER

ORDER = list(CHECKS)
assert len(ORDER) == 15
MEASURED = json.loads(Path(__file__).with_name("acceptance_measured.json").read_text())
# c11's gap between the final arc and its sampled geodesic is one arccos
# quantum (1.49e-8), so rounding moves it by whole quanta
ABS_TOL = {("dirichlet-scaling", "geodesic_gap"): 1e-7}
IDS = [f"c{i + 1:02d}-{name}" for i, name in enumerate(ORDER)]


@lru_cache(maxsize=None)
def _run(name):
    """The named check's result, run once for every test that reads it."""
    return CHECKS[name]()


def _same(got, want, abs_tol=None) -> bool:
    """Floats to a relative 1e-9 (or to `abs_tol`), lists elementwise, and
    anything else exactly and of the same type."""
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w, abs_tol) for g, w in zip(got, want)))
    if isinstance(want, float):
        bound = 1e-9 * abs(want) if abs_tol is None else abs_tol
        return isinstance(got, float) and abs(got - want) <= bound
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("name", ORDER, ids=IDS)
def test_acceptance(name):
    result = _run(name)
    line = f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.detail}"
    print(line)
    assert result.passed, line
    got = json.loads(json.dumps(result.measured))
    want = MEASURED[name]
    assert sorted(got) == sorted(want)
    moved = {k: (want[k], got[k]) for k in want
             if not _same(got[k], want[k], ABS_TOL.get((name, k)))}
    assert not moved, f"{name}: measured values moved (pinned, now): {moved}"


def test_same_compares_by_kind():
    assert _same(1.0, 1.0 + 1e-12) and not _same(1.0, 1.0 + 1e-8)
    assert _same(1.5e-8, 1.49e-8, 1e-7) and not _same(1.5e-8, 1.49e-8)
    assert not _same(1, 1.0) and not _same(True, 1) and not _same(1.0, None)
    assert _same(None, None) and _same("MeasureZeroCurve", "MeasureZeroCurve")
    assert _same([1.0, 2.0], [1.0, 2.0]) and not _same([1.0], [1.0, 2.0])


def test_result_sums_the_ledger_once_per_run():
    # a run listed twice counts once; a distinct run with equal counters counts
    cfg = FlowConfig(snapshot_dt=1e-3, max_time=1e-3)
    stats = evolve_closed(circle_curve(0.5, n=64), cfg).stats
    result = acceptance._result("inner", True, "", runs=[stats, stats],
                                steps=stats.accepted_steps)
    measured = result.measured
    assert len(result.runs) == 1 and result.runs[0] is stats
    assert measured["accepted_steps"] == measured["steps"] > 0
    assert measured["evaluations"] == measured["accepted_steps"]
    assert measured["remeshes"] == 0
    twice = acceptance._result("twice", True, "", runs=[stats, replace(stats)])
    assert twice.measured["accepted_steps"] == 2 * stats.accepted_steps
    # no runs: three zeros
    assert acceptance._result("none", True, "").measured == dict.fromkeys(LEDGER, 0)
