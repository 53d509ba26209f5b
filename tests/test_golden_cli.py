"""Golden CLI outputs: stdout and exit code, byte for byte, for a fixed list
of commands.

Each command's expected output is tests/golden/<name>.out; its first line
is "exit <code>" and the rest is stdout exactly as the CLI writes it.  The
files were written once, from the code before the change that added this
test; they are the record of what the CLI prints and must not be rewritten
to make a failing comparison pass.  To add a command, add it to GOLDEN and
run

    PYTHONPATH=src python tests/test_golden_cli.py NAME ...

which writes tests/golden/NAME.out for each NAME given from the code as it
stands (and refuses to overwrite a file that exists).
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from maxcurves.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GOLDEN = {
    # construct, all ten tags
    "construct-hermitian-5": "construct --model hermitian --sqrt-q 5",
    "construct-hermitian-fermat-8": "construct --model hermitian-fermat --sqrt-q 8",
    "construct-envelope-5": "construct --model envelope --sqrt-q 5",
    "construct-smooth-cyclic-5": "construct --model smooth-cyclic --sqrt-q 5",
    "construct-quotient-frame-8": "construct --model quotient-frame --sqrt-q 8",
    "construct-quotient-rational-5": "construct --model quotient-rational --sqrt-q 5",
    "construct-quotient-rational-8": "construct --model quotient-rational --sqrt-q 8",
    "construct-geer-vlugt-2-4-1": "construct --model geer-vlugt --p 2 --m 4 --r 1",
    "construct-artin-schreier-5-2": "construct --model artin-schreier --sqrt-q 5 --t 2",
    "construct-fermat-5-3": "construct --model fermat --sqrt-q 5 --t 3",
    "construct-char2-chain-8": "construct --model char2-chain --sqrt-q 8",
    # the t = 1 family members, which are the Hermitian curve and its Fermat
    # form, and the additive terms at r > 1, odd p and the smallest chain
    "construct-artin-schreier-8-1": "construct --model artin-schreier --sqrt-q 8 --t 1",
    "construct-fermat-4-1": "construct --model fermat --sqrt-q 4 --t 1",
    "construct-hermitian-8": "construct --model hermitian --sqrt-q 8",
    "construct-geer-vlugt-2-8-3": "construct --model geer-vlugt --p 2 --m 8 --r 3",
    "construct-geer-vlugt-3-4-1": "construct --model geer-vlugt --p 3 --m 4 --r 1",
    "construct-char2-chain-2": "construct --model char2-chain --sqrt-q 2",
    # count, every tag
    "count-hermitian-5": "count --model hermitian --sqrt-q 5",
    "count-hermitian-3-k2": "count --model hermitian --sqrt-q 3 --k 2",
    "count-hermitian-fermat-4-k2": "count --model hermitian-fermat --sqrt-q 4 --k 2",
    "count-envelope-5": "count --model envelope --sqrt-q 5",
    "count-envelope-5-k2": "count --model envelope --sqrt-q 5 --k 2",
    "count-smooth-cyclic-3": "count --model smooth-cyclic --sqrt-q 3",
    "count-quotient-frame-2": "count --model quotient-frame --sqrt-q 2",
    "count-quotient-rational-5": "count --model quotient-rational --sqrt-q 5",
    "count-quotient-rational-5-k2": "count --model quotient-rational --sqrt-q 5 --k 2",
    "count-quotient-rational-8": "count --model quotient-rational --sqrt-q 8",
    "count-quotient-rational-11": "count --model quotient-rational --sqrt-q 11",
    "count-geer-vlugt-2-4-1": "count --model geer-vlugt --p 2 --m 4 --r 1",
    "count-artin-schreier-5-2": "count --model artin-schreier --sqrt-q 5 --t 2",
    "count-fermat-5-3": "count --model fermat --sqrt-q 5 --t 3",
    "count-char2-chain-4-k2": "count --model char2-chain --sqrt-q 4 --k 2",
    # the orbit sweep over an extension: nodes, odd characteristic,
    # non-ordinary points and a smooth model
    "count-quotient-rational-8-k2": "count --model quotient-rational --sqrt-q 8 --k 2",
    "count-hermitian-9-k2": "count --model hermitian --sqrt-q 9 --k 2",
    "count-envelope-7-k2": "count --model envelope --sqrt-q 7 --k 2",
    "count-smooth-cyclic-4-k2": "count --model smooth-cyclic --sqrt-q 4 --k 2",
    # one kernel row per numpy pass at the production block size (F_65536)
    "count-hermitian-4-k4": "count --model hermitian --sqrt-q 4 --k 4",
    # the vectorized singular filter at 91 singular points
    "count-quotient-rational-17": "count --model quotient-rational --sqrt-q 17",
    "verify-maximal-quotient-rational-5": "verify-maximal --model quotient-rational --sqrt-q 5",
    "verify-maximal-envelope-5": "verify-maximal --model envelope --sqrt-q 5",
    # a fibre product with r > 1: 2049 points over F_256, the Hasse-Weil
    # bound, and one non-ordinary singular point, so the verdict is inconsistent
    "verify-maximal-geer-vlugt-2-8-3": "verify-maximal --model geer-vlugt --p 2 --m 8 --r 3",
    "quotient-8-19": "quotient --sqrt-q 8 --d 19",
    "quotient-5-21": "quotient --sqrt-q 5 --d 21",
    "census-2-json": "census --sqrt-q 2",
    "census-5-json": "census --sqrt-q 5",
    "census-8-json": "census --sqrt-q 8",
    "census-2-csv": "census --sqrt-q 2 --format csv",
    "census-5-csv": "census --sqrt-q 5 --format csv",
    "census-8-csv": "census --sqrt-q 8 --format csv",
    "census-2-table": "census --sqrt-q 2 --format table",
    "census-5-table": "census --sqrt-q 5 --format table",
    "census-8-table": "census --sqrt-q 8 --format table",
    # the frame field F_(q^3) past the discrete-log tables: odd p at 27,
    # characteristic 2 at 32 and 64, where the embedding scan and the trace
    # line run on arrays
    "census-27-json": "census --sqrt-q 27",
    "census-32-json": "census --sqrt-q 32",
    "census-64-json": "census --sqrt-q 64",
    "quotient-64-37": "quotient --sqrt-q 64 --d 37",
    # roots taken as Frobenius kernels: the odd-p frame field past the
    # discrete-log table cap, the scaling constant c over F_(q^3) without
    # tables, and b in F_(2^20)
    "census-67-json": "census --sqrt-q 67",
    "count-quotient-rational-29": "count --model quotient-rational --sqrt-q 29",
    "construct-geer-vlugt-2-20-1": "construct --model geer-vlugt --p 2 --m 20 --r 1",
    "dim-d-5-7": "dim-d --sqrt-q 5 --d 7",
    "dim-d-8-19": "dim-d --sqrt-q 8 --d 19",
    "sv-hermitian-5": "sv --g 10 --degd 6 --r 2 --eps 0,1,5 --nu 0,5 --q 25",
    "semigroup-5-6": "semigroup --gens 5,6",
    "semigroup-97-100-101": "semigroup --gens 97,100,101",
    "semigroup-3-5-6-table": "semigroup --gens 3,5,6 --format table",
    "field-5-3": "field --p 5 --k 3",
    "field-2-12-table": "field --p 2 --k 12 --format table",
}


def render(command: str) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(command.split())
    return f"exit {code}\n" + buf.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_cli_output(name):
    want = (GOLDEN_DIR / f"{name}.out").read_text()
    assert render(GOLDEN[name]) == want


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.out")) == sorted(GOLDEN)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sys.argv[1:]:
        path = GOLDEN_DIR / f"{name}.out"
        if path.exists():
            raise SystemExit(f"{path} exists; golden files are not rewritten")
        path.write_text(render(GOLDEN[name]))
