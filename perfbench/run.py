"""maxcurves benchmark: cold-start runs of fixed exact workloads.

    python3 perfbench/run.py --workload {paper,twist-char2,ext-counts} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
./src.  Each pass is a closed loop with one client: a fresh interpreter runs
the workload's jobs one at a time against an empty results cache, with the
default single worker, so it starts cold the way a CLI user does, and checks
every output against an oracle.

--trace 0 runs passes back to back until another pass would overrun
--seconds (always at least one) and reports the end-to-end metrics: median
pass wall time, median set-up time, median peak RSS.  --trace 1 runs one
untraced and one traced pass and reports the per-layer metrics of the traced
one.  Every time is scaled to the reference CPU speed (see calibrate.py);
the raw times are in the results file.  The last line of standard output is a JSON object with the keys
correct, attempted, failed and metrics; a results file with provenance and
every sample goes to .bench_results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import kernel_now, scaled  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
SETUP_PROBES = 15         # extra interpreters started only to time set-up
RUN_LIMIT_S = 170         # a run must end within 180 s
BUILD_TIMEOUT_S = 120


class BenchError(Exception):
    pass


class Bench:
    """One benchmark run in the checkout at `root`."""

    def __init__(self, root: Path, scratch: Path, deadline: float):
        self.root = root
        self.src = root / "src"
        self.scratch = scratch
        self.deadline = deadline
        home = scratch / "home"
        home.mkdir()
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update({
            "PYTHONPATH": str(self.src),
            "PYTHONPYCACHEPREFIX": str(root / ".bench_build" / "pycache"),
            "PYTHONHASHSEED": "0",
            "HOME": str(home),
            # numpy's BLAS pool would add threads; the jobs do no float BLAS work
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })
        self._n = 0

    def build(self):
        """Byte-compile the package, so set-up never includes compiling."""
        try:
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(self.src)],
                           env=self.env, check=True, timeout=BUILD_TIMEOUT_S,
                           stdout=sys.stderr)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            raise BenchError(f"build failed: {exc}") from exc

    def _worker(self, extra_args: list[str]) -> dict:
        self._n += 1
        out = self.scratch / f"pass{self._n}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(self.src),
               "--out", str(out), *extra_args]
        kernel_s = kernel_now()
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=self.env, stdout=sys.stderr)
        try:
            rc = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("worker overran the run's time limit") from None
        if rc != 0:
            raise BenchError(f"worker exited with code {rc}")
        result = json.loads(out.read_text())
        # the kernel timed just before the spawn and just after the import
        # bracket the set-up interval
        result["setup_raw_s"] = result["ready"] - spawned
        result["setup_kernel_s"] = (kernel_s + result["ready_kernel_s"]) / 2
        result["setup_s"] = scaled(result["setup_raw_s"], result["setup_kernel_s"])
        result["duration_s"] = time.monotonic() - spawned
        return result

    def probe(self) -> dict:
        return self._worker(["--probe"])

    def run_pass(self, workload: str, seed: int, trace: bool, spans: Path | None) -> dict:
        cache_dir = Path(tempfile.mkdtemp(prefix="cache", dir=self.scratch))
        self.env["MAXCURVES_CACHE_DIR"] = str(cache_dir)
        args = ["--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
                "--cache-dir", str(cache_dir)]
        if spans is not None:
            args += ["--spans", str(spans)]
        try:
            return self._worker(args)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(root: Path, seed: int, probe: dict) -> dict:
    return {
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root / "src"),
        "python": probe["python"],
        "numpy": probe["numpy"],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def measure(bench: Bench, workload: str, seed: int, seconds: int, trace: bool,
            spans: Path) -> dict:
    probes = [bench.probe() for _ in range(SETUP_PROBES)]
    if trace:
        passes = [bench.run_pass(workload, seed, False, None),
                  bench.run_pass(workload, seed, True, spans)]
    else:
        passes = []
        start = time.monotonic()
        while True:
            passes.append(bench.run_pass(workload, seed, False, None))
            now = time.monotonic()
            last = passes[-1]["duration_s"]
            if now - start + last > seconds or now + last > bench.deadline:
                break
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        p["wall_ref_s"] = scaled(p["wall_s"], p["kernel_s"])
    if trace:
        plain, traced = passes
        units = {name: unit for name, unit, _ in PER_LAYER}
        speed = scaled(1.0, traced["kernel_s"])
        metrics = {}
        for name, value in traced["layers"].items():
            if units[name] == "s":
                value *= speed
            elif units[name] == "1/s":
                value /= speed
            metrics[name] = value
        metrics["process.cpu_s"] = scaled(plain["cpu_s"], plain["kernel_s"])
        metrics["trace.overhead_frac"] = traced["wall_ref_s"] / plain["wall_ref_s"] - 1
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_ref_s"] for p in passes),
            "setup_s": statistics.median(p["setup_s"] for p in probes + passes),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        }
        units = dict(END_TO_END)
    return {
        "correct": failed == 0,   # a pass that was not cold fails all its jobs
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "probes": probes,
        "passes": passes,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "maxcurves" / "__init__.py").is_file():
        print("benchmark error: run from the root of a maxcurves checkout "
              "(src/maxcurves not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    results_dir = root / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    (root / ".bench_run").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=stem, dir=root / ".bench_run"))
    load_start = os.getloadavg()
    try:
        bench = Bench(root, scratch, deadline)
        bench.build()
        run = measure(bench, args.workload, args.seed, args.seconds, bool(args.trace),
                      results_dir / f"{stem}.spans.jsonl")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "provenance": {**provenance(root, args.seed, run["probes"][0]),
                       "loadavg_start": load_start, "loadavg_end": os.getloadavg()},
        **run,
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    raw = ", ".join(f"{p['wall_s']:.2f} s" for p in run["passes"])
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(run['passes'])} pass(es) of raw wall time {raw}, "
          f"results in .bench_results/{stem}.json")
    for name, m in run["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':48s} {run['failed'] / run['attempted']:.6g} "
          f"({run['failed']} of {run['attempted']} jobs)")
    print(json.dumps({k: run[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
