"""The self-check battery passes at small degree and respects the guard."""

import re
import time

import pytest

from snfourier.errors import DegreeGuardError, check_degree
from snfourier.verify import format_table, run_battery


def test_battery_all_pass_at_n4_under_10s():
    start = time.monotonic()
    results = run_battery(4, seed=7)
    elapsed = time.monotonic() - start
    assert len(results) == 10
    failures = [r for r in results if not r.passed]
    assert not failures, format_table(results)
    assert elapsed < 10.0


def test_battery_table_format():
    results = run_battery(3, seed=0)
    table = format_table(results)
    lines = table.strip().split("\n")
    assert len(lines) == 11
    assert all("PASS" in line for line in lines[:-1])
    # each check's seconds stand between its verdict and its detail
    assert all(re.search(r"  PASS +\d+\.\d\d s  \S", line) for line in lines[:-1])
    assert lines[-1] == "10/10 checks passed"


def test_battery_guard():
    with pytest.raises(DegreeGuardError):
        run_battery(12)
    with pytest.raises(DegreeGuardError):
        run_battery(5, guard=4)
    with pytest.raises(ValueError):
        run_battery(1)


def test_guard_only_tightens():
    # a guard above the default must not admit degrees the default rejects
    with pytest.raises(DegreeGuardError):
        check_degree(10, guard=12)
    assert check_degree(9, guard=12) == 9
    with pytest.raises(DegreeGuardError):
        check_degree(5, guard=4)
