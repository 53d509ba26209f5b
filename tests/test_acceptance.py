"""Acceptance gate: every criterion of the built-in verification battery
must pass, each printing one PASS/FAIL line.  All comparisons are exact
(integer or field equality); there are no tolerances to tune.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or via
the CLI as `maxcurves verify-paper`.
"""

import pytest

from maxcurves.verification import CRITERIA, BatteryContext, _run, check_hermitian_counts


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[name for name, _ in CRITERIA])
def test_acceptance_criterion(name, fn):
    result = _run(name, fn, BatteryContext())
    print(result.line())
    if result.skipped:
        pytest.skip(result.detail)
    assert result.passed, result.detail


def test_hermitian_counts_detail_is_reproducible():
    # the detail carries no wall time, so identical runs print identical text
    ctx = BatteryContext()
    first, second = check_hermitian_counts(ctx), check_hermitian_counts(ctx)
    assert first == second
    assert first[0]
