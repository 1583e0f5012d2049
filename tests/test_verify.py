"""The self-check battery passes at small degree and respects the guard."""

import math
import re
import time

import numpy as np
import pytest

import snfourier.verify
from snfourier.errors import DegreeGuardError, check_degree
from snfourier.perms import encode_batch
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


def test_lehmer_check_names_a_broken_ranking_kernel(monkeypatch):
    # rank r as n! - 1 - r: still a bijection, so only a check of the ranks sees it
    def reversed_ranks(one_lines):
        one_lines = np.asarray(one_lines)
        return math.factorial(one_lines.shape[1]) - 1 - encode_batch(one_lines)

    monkeypatch.setattr(snfourier.verify, "encode_batch", reversed_ranks)
    lehmer = run_battery(4, seed=7)[0]
    assert lehmer.name == "lehmer bijections"
    assert not lehmer.passed
    assert lehmer.detail == "encode_batch mismatch at n=2 rank=0"


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
