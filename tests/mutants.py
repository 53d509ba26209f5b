"""Mutants that the differential tests must kill.

Run from the repository root, with the standard library and the test
dependencies only:

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named mutants
    python3 tests/mutants.py --list

A mutant is (name, file under src/maxcurves, old text, new text, tests).
The old text must occur exactly once in the file, or the mutant is stale.
The named tests of every selected mutant first run once against an
unmutated copy of src/, where they must pass.  Then, for each mutant, the
script copies src/ to a temporary directory, replaces the old text by the
new one there, and runs only that mutant's tests against the copy: the
mutant is killed when they fail (or time out).  It exits 1 if any mutant
survives or is stale, or if the unmutated run fails.

EQUIVALENT lists the known mutants that no test can kill, each with the
reason; they are checked for staleness but not run.  A fast path lands
with its mutants added here.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600   # seconds per pytest run; a mutant that hangs its tests is killed

MUTANTS = [
    # every root is a Frobenius kernel
    ("frame-trace-coefficients", "curves.py",
     "frobenius_kernel(F3, F3.k // 3, (1, 1, 1), 2 * F3.k // 3)",
     "frobenius_kernel(F3, F3.k // 3, (1, 1, 0), 2 * F3.k // 3)",
     ["tests/test_curves.py::test_frame_parameter_matches_the_root_finder"]),
    ("trace-line-coefficients", "quotients.py",
     "frobenius_kernel(F3, qfrob, (1, 1, 1), 2 * qfrob)",
     "frobenius_kernel(F3, qfrob, (1, 1, 0), 2 * qfrob)",
     ["tests/test_quotients.py::test_trace_line_histogram_shape"]),
    ("frame-power-s", "curves.py",
     "F3.pow_v(zs, sqrt_q - 1)",
     "F3.pow_v(zs, sqrt_q)",
     ["tests/test_curves.py::test_frame_parameter_matches_the_root_finder"]),
    ("frame-largest-admissible", "curves.py",
     "a = min(admissible)",
     "a = max(admissible)",
     ["tests/test_curves.py::test_frame_parameter_matches_the_root_finder"]),
    ("cone-gcd-degree", "counting.py",
     "- x).degree() + (1 if inf_mult else 0)",
     "- x).degree() - 1 + (1 if inf_mult else 0)",
     ["tests/test_counting.py::test_triple_point_lines_match_the_root_finder"]),
    # Frob^(m/2) - I: equivalent at p = 2, so only the odd-p triples kill it
    ("geer-vlugt-minus-identity", "curves.py",
     "frobenius_kernel(field, m // 2, (1, 1), m // 2)",
     "frobenius_kernel(field, m // 2, (-1, 1), m // 2)",
     ["tests/test_curves.py::test_geer_vlugt_b_matches_the_root_finder"]),
    # the Zech-logarithm sweep and its tables
    ("zech-minus-one-dropped", "counting.py",
     "    np.copyto(s, -1, where=r < 0)\n",
     "",
     ["tests/test_counting.py::test_zech_sweep_matches_digit_reference"]),
    ("zech-without-digit-carry", "fields.py",
     "        one_plus[exp % p == p - 1] -= p\n",
     "",
     ["tests/test_counting.py::test_zech_table_closed_form"]),
    ("sweep-skips-a-row", "counting.py",
     "for i in range(0, rows.size, block)]",
     "for i in range(0, rows.size, block + 1)]",
     ["tests/test_counting.py::test_sweep_blocks_keep_the_sweep_order"]),
    # embeddings
    ("preimage-without-exact-check", "fields.py",
     "        if not np.array_equal(x @ self._matrix % p, vec):\n"
     "            raise ValueError(\"element is not in the embedded subfield\")\n",
     "",
     ["tests/test_fields.py::test_matrix_path_past_the_eager_cap"]),
    ("largest-root-as-gen-image", "fields.py",
     "roots = sorted(v for v in set(conjugates) if mod_poly.eval_i(v) == 0)",
     "roots = sorted((v for v in set(conjugates) if mod_poly.eval_i(v) == 0), reverse=True)",
     ["tests/test_fields.py::test_gen_image_is_the_least_root"]),
    ("rabin-without-gcds", "fields.py",
     "    return all(\n        _vgcd(",
     "    return True or all(\n        _vgcd(",
     ["tests/test_fields.py::test_rabin_test_matches_distinct_degree_sieve"]),
    # batched characteristic-2 arithmetic past the tables
    ("fold-drops-a-tail-term", "fields.py",
     "tail = [e for e, _ in self._tail]",
     "tail = [e for e, _ in self._tail][1:]",
     ["tests/test_fields.py::test_batched_arithmetic_matches_the_scalar_path"]),
]

EQUIVALENT = [
    ("fiber-zech-mask", "quotients.py",
     "np.flatnonzero((z >= 0) & (r % m == 0))",
     "np.flatnonzero(r % m == 0)",
     "_np_tables stores Z(h) as -1, so r(h) = h(s + 1) + 1 = 1 (mod n) there, "
     "which no m >= 3 divides; the mask keeps the enumerator off the sentinel"),
]


def _stale(file: str, old: str) -> bool:
    return (ROOT / "src" / "maxcurves" / file).read_text().count(old) != 1


def _run(tests: list[str], mutant=None) -> tuple[int, float]:
    """pytest's exit code for the tests against a copy of src/, with the
    mutant's old text replaced by its new text when one is given."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            _, file, old, new, _ = mutant
            path = src / "maxcurves" / file
            path.write_text(path.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            code = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT).returncode
        except subprocess.TimeoutExpired:
            code = -1
        return code, time.perf_counter() - start


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for name, file, *_ in MUTANTS:
            print(f"{name}\t{file}")
        return 0
    known = {m[0] for m in MUTANTS}
    unknown = sorted(set(argv) - known)
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    bad = 0
    for name, file, old, _, reason in EQUIVALENT if not argv else []:
        stale = _stale(file, old)
        bad += stale
        print(f"{'STALE' if stale else 'equivalent':10} {name}: {reason}")
    live = []
    for mutant in chosen:
        if _stale(mutant[1], mutant[2]):
            print(f"{'STALE':10} {mutant[0]}: its old text does not occur exactly once")
            bad += 1
        else:
            live.append(mutant)
    tests = sorted({t for m in live for t in m[4]})
    if not tests:
        return 1 if bad else 0
    code, seconds = _run(tests)
    if code != 0:
        print(f"the {len(tests)} named tests fail on the unmutated code (exit {code})")
        return 1
    print(f"{'clean':10} {len(tests)} named tests pass unmutated ({seconds:.1f} s)")
    for mutant in live:
        code, seconds = _run(mutant[4], mutant)
        killed = code != 0
        bad += not killed
        verdict = "killed" if code > 0 else "timed out" if code else "SURVIVED"
        print(f"{verdict:10} {mutant[0]} ({seconds:.1f} s)", flush=True)
    print(f"{len(live)} mutants run, {bad} survived or stale")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
