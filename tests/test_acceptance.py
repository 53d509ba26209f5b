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
# the sweep kernels read the numpy tables, and curves eliminates by _rref
ALLOWED_PRIVATE_READS = {
    "counting.py": ["_np_tables"],
    "curves.py": ["_rref"],
    "quotients.py": ["_np_tables"],
}


def test_modules_read_only_the_allowed_private_names():
    package = Path(verification.__file__).parent
    found = {f.name: _private_reads(f.read_text()) for f in sorted(package.glob("*.py"))}
    assert "fields.py" in found
    assert {name: reads for name, reads in found.items() if reads} == ALLOWED_PRIVATE_READS


TABLE_STORAGE = ("_exp", "_log", "_zech")
PACKED_FORM = ("_tail", "_bits")


def _attr_reads(source: str, names) -> set[str]:
    """The attributes among `names` that the source reads."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in names}


def _modules_reading(names) -> set[str]:
    package = Path(verification.__file__).parent
    return {f.name for f in package.glob("*.py") if _attr_reads(f.read_text(), names)}


def test_only_fields_reads_the_table_storage():
    # the doubled int32 memoryviews are the storage of fields alone; other
    # modules read the tables through _np_tables or the ExtField methods
    assert _modules_reading(TABLE_STORAGE) == {"fields.py"}
    assert _attr_reads("exp = np.frombuffer(L._exp)\nF.x._zech[0]\n", TABLE_STORAGE) == {
        "_exp", "_zech"}


def test_only_fields_reads_the_packed_form():
    # the batched operations rely on the packed representation: the modulus
    # tail and, in characteristic 2, the modulus bit vector; other modules
    # multiply through the ExtField methods
    assert _modules_reading(PACKED_FORM) == {"fields.py"}
    assert _attr_reads("t = F._tail[0]\nF.x._bits ^ 1\n", PACKED_FORM) == {"_tail", "_bits"}


def _split_callers(source: str) -> set[str]:
    """The functions of the source that name split_prime_power, "" for a
    use outside every function."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if "split_prime_power" in (getattr(child, "id", None), getattr(child, "attr", None)):
                found.add(where)
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_only_tower_field_splits_sqrt_q():
    # a field F_(sqrt_q^j) is built from sqrt_q = p^h in one place,
    # curves.tower_field; the branch series need h itself for their
    # Frobenius spreading
    package = Path(verification.__file__).parent
    assert _split_callers((package / "curves.py").read_text()) == {
        "tower_field", "branch_series", "branch_expansion_check"}
    assert _split_callers((package / "quotients.py").read_text()) == set()
    assert _split_callers("def f():\n    def g():\n        x._intfactor.split_prime_power(4)\n"
                          "p, h = split_prime_power(8)\n") == {"g", ""}


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
