"""Acceptance gate: every criterion of the built-in verification battery
must pass, each printing one PASS/FAIL line.  All comparisons are exact
(integer or field equality); there are no tolerances to tune.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or via
the CLI as `maxcurves verify-paper`.
"""

import itertools
import time

import pytest

from maxcurves.verification import CRITERIA, _run, check_hermitian_counts


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[name for name, _ in CRITERIA])
def test_acceptance_criterion(name, fn):
    result = _run(name, fn)
    print(result.line())
    if result.skipped:
        pytest.skip(result.detail)
    assert result.passed, result.detail


def test_hermitian_counts_detail_is_reproducible():
    # the detail carries no wall time, so identical runs print identical text
    first, second = check_hermitian_counts(), check_hermitian_counts()
    assert first == second
    assert first[0]


def test_criterion_times_do_not_follow_the_wall_clock(monkeypatch):
    # a wall clock that steps back an hour at every reading: the durations
    # are read from a monotonic clock, so they stay non-negative and the
    # 1 s gate sees the true times
    readings = itertools.count(0, -3600.0)
    monkeypatch.setattr(time, "time", lambda: next(readings))
    result = _run("1-hermitian-counts", check_hermitian_counts)
    assert result.passed, result.detail
    assert result.seconds >= 0
