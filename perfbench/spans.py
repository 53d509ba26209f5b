"""Spans and counters recorded from outside the program.

A Tracer rebinds public functions of the maxcurves modules, in every module
namespace that holds them, and methods on their classes.  Each call then
becomes a span: id, parent span, name, start, end and the process peak RSS
at both ends.  All spans of one run share the tracer's run id.  Spans stay
in memory and are written out when the run ends.  Nothing under src/ is
changed; the wrappers are removed again by Tracer.uninstall().

The harness runs every job with one worker thread, so a single span stack
describes the nesting.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time
from collections import Counter

# span record fields, kept as lists for low overhead while tracing
ID, PARENT, NAME, START, END, RSS0, RSS1 = range(7)


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Collects spans and named counters for one run."""

    def __init__(self, run_id: str, clock=time.perf_counter, rss=_maxrss_kib):
        self.run_id = run_id
        self.clock = clock
        self.rss = rss
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []
        self._seen: dict[str, dict[int, object]] = {}

    # -- recording ------------------------------------------------------------

    def wrap(self, fn, name: str, on_return=None, on_raise=None):
        """fn wrapped so that each call records a span called `name`.

        on_return(tracer, result, bound_args) and on_raise(tracer, exc,
        bound_args) update counters; arguments are bound to parameter names
        only when a hook needs them.
        """
        sig = inspect.signature(fn) if (on_return or on_raise) else None
        stack, clock, rss = self._stack, self.clock, self.rss

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            span = [self._next_id, stack[-1][ID] if stack else 0, name,
                    clock(), 0.0, rss(), 0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span)
                if on_raise is not None:
                    on_raise(self, exc, sig.bind(*args, **kwargs).arguments)
                raise
            self._close(span)
            if on_return is not None:
                on_return(self, result, sig.bind(*args, **kwargs).arguments)
            return result

        return traced

    def _close(self, span):
        span[END] = self.clock()
        span[RSS1] = self.rss()
        self._stack.pop()
        self.spans.append(span)

    def is_new(self, kind: str, obj) -> bool:
        """True the first time this object is seen under `kind`.  Objects
        are kept alive so that their ids are never reused."""
        seen = self._seen.setdefault(kind, {})
        if id(obj) in seen:
            return False
        seen[id(obj)] = obj
        return True

    # -- installing -----------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, *,
                       namespaces, on_return=None, on_raise=None):
        """Rebind module.attr in every namespace that holds the same object,
        so callers that imported it by name call the wrapper too."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, on_return, on_raise)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._undo.append((ns, key, original))
                    setattr(ns, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, *, on_return=None):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, on_return))

    def uninstall(self):
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)

    # -- output ---------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": s[ID], "parent": s[PARENT],
                    "name": s[NAME], "start": s[START], "end": s[END],
                    "maxrss_kib": [s[RSS0], s[RSS1]],
                }) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[str, float]:
    """Per span name: summed duration minus the time covered by child spans."""
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out: dict[str, float] = {}
    for s in spans:
        own = (s[END] - s[START]) - _covered(children.get(s[ID], ()), s[START], s[END])
        out[s[NAME]] = out.get(s[NAME], 0.0) + own
    return out


def self_rss_kib(spans) -> dict[str, int]:
    """Per span name: growth of the peak RSS during the span that no child
    span accounts for."""
    child_rise: dict[int, int] = {}
    for s in spans:
        child_rise[s[PARENT]] = child_rise.get(s[PARENT], 0) + s[RSS1] - s[RSS0]
    out: dict[str, int] = {}
    for s in spans:
        own = (s[RSS1] - s[RSS0]) - child_rise.get(s[ID], 0)
        out[s[NAME]] = out.get(s[NAME], 0) + own
    return out


def inclusive_times(spans, groups: dict[str, str]) -> dict[str, float]:
    """Per group: summed duration of its outermost spans, so a group member
    called inside another member is not counted twice.  `groups` maps span
    names to group names; spans of other names are ignored."""
    by_id = {s[ID]: s for s in spans}
    out: dict[str, float] = {}
    for s in spans:
        group = groups.get(s[NAME])
        if group is None:
            continue
        parent = by_id.get(s[PARENT])
        nested = False
        while parent is not None:
            if groups.get(parent[NAME]) == group:
                nested = True
                break
            parent = by_id.get(parent[PARENT])
        if not nested:
            out[group] = out.get(group, 0.0) + (s[END] - s[START])
    return out


def call_counts(spans) -> Counter:
    return Counter(s[NAME] for s in spans)


# ---------------------------------------------------------------------------
# the maxcurves layers
# ---------------------------------------------------------------------------

CONSTRUCTORS = (
    "hermitian_canonical", "hermitian_fermat", "envelope_model",
    "smooth_cyclic_model", "quotient_plane_model", "quotient_model_rational",
    "artin_schreier_quotient", "fermat_quotient", "char2_chain_curve",
    "geer_vlugt_curve",
)

CRITERIA = (
    "1-hermitian-counts", "2-quotient-pipeline-sq5", "3-quotient-pipeline-sq8",
    "4-burnside-machine-sq5", "5-riemann-hurwitz-ledger", "6-semigroup-oracle",
    "7-quotient-semigroup-genus", "8-dimension-formulas", "9-order-sv-arithmetic",
    "10-family-cross-checks", "11-structural-identities", "12-property-suites",
)

# every per-layer metric the traced run reports, in BENCHMARK.json order
PER_LAYER = (
    ("quotients.lang_solve.self_s", "s", "lower"),
    ("quotients.lang_solve.calls", "count", "lower"),
    ("quotients.lang_solve.lift_order_sum", "count", "lower"),
    ("quotients.lang_solve.lift_order_max", "count", "lower"),
    ("quotients.lang_solve.cap_skips", "count", "lower"),
    ("quotients.twisted_fixed_count.self_s", "s", "lower"),
    ("quotients.twisted_fixed_count.calls", "count", "lower"),
    ("quotients.twisted_fixed_count.rss_self_mib", "MiB", "lower"),
    ("quotients.twisted_points", "count", "lower"),
    ("quotients.burnside_quotient_count.s", "s", "lower"),
    ("quotients.fiber_statistics.self_s", "s", "lower"),
    ("quotients.fiber_points", "count", "lower"),
    ("counting.count_projective_points.self_s", "s", "lower"),
    ("counting.count_projective_points.calls", "count", "lower"),
    ("counting.count_projective_points.rss_self_mib", "MiB", "lower"),
    ("counting.points_swept", "count", "lower"),
    ("counting.sweep_points_per_s", "1/s", "higher"),
    ("counting.tangent_cone_data.self_s", "s", "lower"),
    ("counting.tangent_cone_data.calls", "count", "lower"),
    ("fields.poly_roots.self_s", "s", "lower"),
    ("fields.poly_roots.calls", "count", "lower"),
    ("fields.embed.s", "s", "lower"),
    ("fields.embed.new", "count", "lower"),
    ("fields.build_field.self_s", "s", "lower"),
    ("fields.build_field.calls", "count", "lower"),
    ("fields.build_field.new", "count", "lower"),
    ("fields.ensure_tables.self_s", "s", "lower"),
    ("curves.quotient_model_rational.s", "s", "lower"),
    ("curves.constructors.s", "s", "lower"),
    ("cache.get.calls", "count", "lower"),
    ("cache.get.hits", "count", "lower"),
    ("cache.put.calls", "count", "lower"),
    ("cache.self_s", "s", "lower"),
    *((f"verification.{c}.s", "s", "lower") for c in CRITERIA),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


def install_cache_guard(tracer: Tracer):
    """Count results-cache lookups and hits; cheap enough for timed runs."""
    from maxcurves.cache import ResultsCache

    def on_get(t, result, _args):
        t.counters["cache.get.hits"] += result is not None

    tracer.patch_method(ResultsCache, "get", "cache.get", on_return=on_get)
    tracer.patch_method(ResultsCache, "put", "cache.put")


def install_layers(tracer: Tracer):
    """Wrap every layer boundary named in PER_LAYER, plus the cache guard."""
    from maxcurves import counting, curves, fields, quotients
    from maxcurves.errors import CapError

    namespaces = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "maxcurves" or n.startswith("maxcurves."))]
    c = tracer.counters

    def lang_done(t, sol, _args):
        c["quotients.lang_solve.lift_order_sum"] += sol.s
        c["quotients.lang_solve.lift_order_max"] = max(
            c["quotients.lang_solve.lift_order_max"], sol.s)

    def lang_failed(t, exc, _args):
        if isinstance(exc, CapError):
            c["quotients.lang_solve.cap_skips"] += 1

    def twisted_done(t, _n, args):
        q = args["sol"].base.order
        c["quotients.twisted_points"] += q * q + q + 1

    def fiber_done(t, rep, _args):
        c["quotients.fiber_points"] += rep.total_points

    def count_done(t, _rep, args):
        big_q = args["model"].field.order ** args.get("k", 1)
        c["counting.points_swept"] += big_q * big_q + big_q + 1

    def new_object(metric):
        def hook(t, obj, _args):
            c[metric] += t.is_new(metric, obj)
        return hook

    fn = functools.partial(tracer.patch_function, namespaces=namespaces)
    fn(quotients, "lang_solve", "quotients.lang_solve",
       on_return=lang_done, on_raise=lang_failed)
    fn(quotients, "twisted_fixed_count", "quotients.twisted_fixed_count",
       on_return=twisted_done)
    fn(quotients, "burnside_quotient_count", "quotients.burnside_quotient_count")
    fn(quotients, "fiber_statistics", "quotients.fiber_statistics", on_return=fiber_done)
    fn(counting, "count_projective_points", "counting.count_projective_points",
       on_return=count_done)
    fn(counting, "tangent_cone_data", "counting.tangent_cone_data")
    fn(fields, "poly_roots", "fields.poly_roots")
    fn(fields, "embed", "fields.embed", on_return=new_object("fields.embed.new"))
    fn(fields, "build_field", "fields.build_field",
       on_return=new_object("fields.build_field.new"))
    for name in CONSTRUCTORS:
        fn(curves, name, f"curves.{name}")
    tracer.patch_method(fields.ExtField, "ensure_tables", "fields.ensure_tables")
    install_cache_guard(tracer)


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER metric from the tracer's spans and counters; names
    missing from both (a layer the workload never calls) read 0."""
    spans = tracer.spans
    selfs = self_times(spans)
    rss = self_rss_kib(spans)
    calls = call_counts(spans)
    out: dict[str, float] = dict(tracer.counters)
    # inclusive times; the constructor group is timed at its outermost calls
    out.update(inclusive_times(spans, {
        f"curves.{n}": "curves.constructors.s" for n in CONSTRUCTORS}))
    out.update(inclusive_times(spans, {
        "quotients.burnside_quotient_count": "quotients.burnside_quotient_count.s",
        "fields.embed": "fields.embed.s",
        "curves.quotient_model_rational": "curves.quotient_model_rational.s",
    }))
    for name in ("quotients.lang_solve", "quotients.twisted_fixed_count",
                 "quotients.fiber_statistics", "counting.count_projective_points",
                 "counting.tangent_cone_data", "fields.poly_roots",
                 "fields.build_field", "fields.ensure_tables"):
        out[f"{name}.self_s"] = selfs.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in ("quotients.twisted_fixed_count", "counting.count_projective_points"):
        out[f"{name}.rss_self_mib"] = rss.get(name, 0) / 1024
    sweep_s = out["counting.count_projective_points.self_s"]
    out["counting.sweep_points_per_s"] = (
        out.get("counting.points_swept", 0) / sweep_s if sweep_s > 0 else 0.0)
    out["cache.get.calls"] = calls.get("cache.get", 0)
    out["cache.put.calls"] = calls.get("cache.put", 0)
    out["cache.self_s"] = selfs.get("cache.get", 0.0) + selfs.get("cache.put", 0.0)
    out.update(extra)
    return {name: out.get(name, 0) for name, _unit, _better in PER_LAYER}
