"""Acceptance gate: every criterion of the built-in verification battery
must pass, each printing one PASS/FAIL line.  All comparisons are exact
(integer or field equality); there are no tolerances to tune.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or via
the CLI as `maxcurves verify-paper`.
"""

import ast
import itertools
import time
from pathlib import Path

import pytest

from maxcurves import verification
from maxcurves.verification import CRITERIA, _run, check_hermitian_counts


def _private_reads(source: str) -> list[str]:
    """The _-prefixed names that the module imports from maxcurves or reads
    as attributes of what it imported from there (dunders aside)."""
    tree = ast.parse(source)
    imported, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "maxcurves"):
            for alias in node.names:
                imported.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    found.append(alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "maxcurves":
                    imported.add(alias.asname or "maxcurves")
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in imported:
            found += [a for a in chain if a.startswith("_") and not a.startswith("__")]
    return found


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[name for name, _ in CRITERIA])
def test_acceptance_criterion(name, fn):
    result = _run(name, fn)
    print(result.line())
    if result.skipped:
        pytest.skip(result.detail)
    assert result.passed, result.detail


def test_the_battery_reads_no_private_name_of_the_kernel():
    # the battery checks the package through its public names: a check that
    # drives a kernel internal re-tests what that kernel's own tests pin
    assert _private_reads(Path(verification.__file__).read_text()) == []
    assert _private_reads("from . import counting\ncounting._lift_poly(m, 2)\n") == [
        "_lift_poly"]
    assert _private_reads("from .fields import _rref\n") == ["_rref"]
    assert _private_reads("import maxcurves.counting as c\nc.x._y\n") == ["_y"]


# the reads of another module's _ name that the package makes on purpose:
# the sweep kernels read the numpy tables, and quotients eliminates by _rref
ALLOWED_PRIVATE_READS = {
    "counting.py": ["_np_tables"],
    "quotients.py": ["_np_tables", "_rref"],
}


def test_modules_read_only_the_allowed_private_names():
    package = Path(verification.__file__).parent
    found = {f.name: _private_reads(f.read_text()) for f in sorted(package.glob("*.py"))}
    assert "fields.py" in found
    assert {name: reads for name, reads in found.items() if reads} == ALLOWED_PRIVATE_READS


def _table_reads(source: str) -> set[str]:
    """The ExtField table attributes (_exp, _log, _zech) the source reads."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in ("_exp", "_log", "_zech")}


def test_only_fields_reads_the_table_storage():
    # the doubled int32 memoryviews are the storage of fields alone; other
    # modules read the tables through _np_tables or the ExtField methods
    package = Path(verification.__file__).parent
    assert {f.name for f in package.glob("*.py") if _table_reads(f.read_text())} == {
        "fields.py"}
    assert _table_reads("exp = np.frombuffer(L._exp)\nF.x._zech[0]\n") == {"_exp", "_zech"}


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
