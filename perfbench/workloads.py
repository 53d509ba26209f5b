"""The benchmark's workloads: fixed exact jobs and the oracle for each.

A job runs the program the way a user does: CLI jobs call
maxcurves.cli.main with the cache flag after the subcommand (flags placed
before it are dropped by the parser), library jobs call the public function.
Oracles check only mathematical results, never timings or lift orders, so a
correct change of algorithm still passes.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from spans import CRITERIA


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[str], object]          # cache directory -> output
    check: Callable[[object], str | None]  # output -> problem, None if correct


def extension_count(q: int, g: int, k: int) -> int:
    """Points over F_{q^k} of a curve of genus g maximal over F_q: every
    Frobenius eigenvalue is -sqrt(q)."""
    s = math.isqrt(q)
    return q**k + 1 - 2 * g * (-s) ** k


def cli_job(name: str, argv: list[str], check) -> Job:
    def run(cache_dir: str):
        from maxcurves import cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main([*argv, "--cache-dir", cache_dir])
        if rc != 0:
            return {"exit": rc, "stderr": err.getvalue()[-500:]}
        return {"exit": 0, "payload": json.loads(out.getvalue())}

    def checked(out):
        if out["exit"] != 0:
            return f"exit code {out['exit']}: {out['stderr']}"
        return check(out["payload"])

    return Job(name, run, checked)


def _expect(label: str, got, want) -> str | None:
    return None if got == want else f"{label} = {got!r}, want {want!r}"


def check_paper(payload) -> str | None:
    names = [r["name"] for r in payload]
    if names != list(CRITERIA):
        return f"criteria {names}, want {list(CRITERIA)}"
    bad = [r["name"] for r in payload if r["passed"] is not True or r["skipped"]]
    return f"not passed: {bad}" if bad else None


def check_twist(payload) -> str | None:
    b = payload["burnside"]
    return (_expect("count", b["count"], 81)
            or _expect("expected", b["expected"], 81)
            or _expect("n_js", b["n_js"], [513] + [57] * 18))


def check_hermitian_k2(payload) -> str | None:
    return (_expect("prediction", extension_count(64, 28, 2), 513)
            or _expect("total", payload["total"], 513))


def check_rational_k2(payload) -> str | None:
    return (_expect("prediction", extension_count(25, 3, 2), 476)
            or _expect("resolved_total", payload["resolved_total"], 476))


def run_fibers(_cache_dir: str):
    from maxcurves import quotients

    rep = quotients.fiber_statistics(5, 3)
    return {"total_points": rep.total_points, "histogram": dict(rep.histogram)}


def check_fibers(out) -> str | None:
    return (_expect("total_points", out["total_points"], 18126)
            or _expect("histogram", out["histogram"], {1: 3, 3: 6041}))


WORKLOADS: dict[str, tuple[Job, ...]] = {
    "paper": (
        cli_job("verify-paper", ["verify-paper"], check_paper),
    ),
    "twist-char2": (
        cli_job("quotient-sq8-d19", ["quotient", "--sqrt-q", "8", "--d", "19"], check_twist),
    ),
    "ext-counts": (
        cli_job("count-hermitian-sq8-k2",
                ["count", "--model", "hermitian", "--sqrt-q", "8", "--k", "2"],
                check_hermitian_k2),
        cli_job("count-quotient-rational-sq5-k2",
                ["count", "--model", "quotient-rational", "--sqrt-q", "5", "--k", "2"],
                check_rational_k2),
        Job("fiber-statistics-sq5-d3", run_fibers, check_fibers),
    ),
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's jobs; the seed only fixes their order.  The jobs are
    fixed exact computations, so no input is drawn at random."""
    jobs = list(WORKLOADS[workload])
    random.Random(seed).shuffle(jobs)
    return jobs


def criterion_seconds(job: Job, out) -> dict[str, float]:
    """verify-paper's own per-criterion timings, as per-layer metrics."""
    if job.name != "verify-paper" or out.get("exit") != 0:
        return {}
    return {f"verification.{r['name']}.s": r["seconds"] for r in out["payload"]}
