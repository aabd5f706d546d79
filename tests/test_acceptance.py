"""Acceptance criteria, one test per built-in check.

Each test runs a single named check from spherecsf.acceptance at its stated
tolerance and prints one [PASS]/[FAIL] line (visible with pytest -s, and in
the failure output otherwise). The checks are numbered in their canonical
order; see spherecsf.acceptance.CHECKS.
"""
import pytest

from spherecsf.acceptance import CHECKS

ORDER = list(CHECKS)
assert len(ORDER) == 15


@pytest.mark.parametrize(
    "name", ORDER,
    ids=[f"c{i + 1:02d}-{name}" for i, name in enumerate(ORDER)])
def test_acceptance(name):
    result = CHECKS[name]()
    line = f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.detail}"
    print(line)
    assert result.passed, line
