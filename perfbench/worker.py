"""One cold pass of a workload, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py --src SRC --workload W --seed N --trace 0|1 \
        --cache-dir EMPTY_DIR --out RESULT.json [--spans SPANS.jsonl]
    python3 perfbench/worker.py --src SRC --probe --out RESULT.json

The pass records the monotonic time at which `import maxcurves` (and with it
numpy) has completed, so the parent can time interpreter start-up and import
as set-up.  It then runs the workload's jobs one at a time, checks every
output against its oracle and writes a JSON result.  While the jobs run,
a calibration kernel is timed every 0.2 s (calibrate.py), so the parent can
scale the pass's times to the reference CPU speed.  With --probe it stops
after the import.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from calibrate import Sampler, kernel_now
from spans import Tracer, install_cache_guard, install_layers, layer_metrics
from workloads import WORKLOADS, criterion_seconds, jobs_for


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(jobs, cache_dir: Path, tracer: Tracer) -> dict:
    """Run the jobs in order against a results cache that must start empty.

    A job that raises, exits non-zero or fails its oracle is a failed job.
    A warm cache directory, or any cache hit, fails every job of the pass,
    because the pass would no longer measure a cold start.
    """
    warm = cache_dir.is_dir() and any(cache_dir.iterdir())
    outputs = []
    with Sampler() as speed:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        for job in jobs:
            j0 = time.perf_counter()
            try:
                out, error = job.run(str(cache_dir)), None
            except (Exception, SystemExit) as exc:  # a failed job, the pass goes on
                out, error = None, f"{type(exc).__name__}: {exc}"
            outputs.append((job, out, error, time.perf_counter() - j0))
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0

    records, extra = [], {}
    for job, out, error, seconds in outputs:
        problem = error
        if problem is None:
            try:
                problem = job.check(out)
                extra.update(criterion_seconds(job, out))
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"malformed output: {type(exc).__name__}: {exc}"
        records.append({"job": job.name, "seconds": seconds, "problem": problem})
    hits = tracer.counters["cache.get.hits"]
    cold = not warm and hits == 0
    failed = len(jobs) if not cold else sum(r["problem"] is not None for r in records)
    return {
        "jobs": records,
        "attempted": len(jobs),
        "failed": failed,
        "cold": cold,
        "warm_cache_dir": warm,
        "cache_get_hits": hits,
        "wall_s": wall,
        "cpu_s": cpu,
        "kernel_s": speed.kernel_s(),
        "kernel_samples": speed.samples,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "extra": extra,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--src", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cache-dir", type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    import numpy
    import maxcurves
    import maxcurves.cli  # noqa: F401  (the CLI jobs' entry point)

    ready = time.monotonic()
    where = Path(maxcurves.__file__).resolve()
    if args.src.resolve() not in where.parents:
        print(f"maxcurves imported from {where}, not from {args.src}", file=sys.stderr)
        return 2
    result = {"ready": ready, "ready_kernel_s": kernel_now(),
              "python": sys.version.split()[0], "numpy": numpy.__version__}
    if not args.probe:
        if args.workload is None or args.cache_dir is None:
            ap.error("--workload and --cache-dir are required without --probe")
        tracer = Tracer(run_id=args.out.stem)
        (install_layers if args.trace else install_cache_guard)(tracer)
        result.update(run_pass(jobs_for(args.workload, args.seed), args.cache_dir, tracer))
        tracer.uninstall()
        if args.trace:
            result["layers"] = layer_metrics(tracer, result["extra"])
            result["n_spans"] = len(tracer.spans)
            if args.spans is not None:
                tracer.write_spans(args.spans)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
