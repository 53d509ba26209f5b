"""Command-line workbench.

Subcommands: field, construct, count, verify-maximal, quotient, census,
semigroup, dim-d, sv, verify-paper.  Output formats: json (default,
byte-reproducible except the wall-time "seconds" of each verify-paper row),
csv, table.  Exit codes: 0 all verdicts pass, 1 some verdict failed, 2
usage error or cap exceeded.  The two global flags, --format and
--cache-dir, go before or after the subcommand.  Results are cached on
disk only under --cache-dir DIR; without it nothing is read from or
written to disk.  No flag moves a computational cap.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from ._intfactor import divisors
from .cache import ResultsCache
from .counting import (
    CountReport,
    count_projective_points,
    hasse_weil_bounds,
    maximality_check,
)
from .curves import (
    CurveModel,
    artin_schreier_quotient,
    char2_chain_curve,
    envelope_model,
    fermat_quotient,
    geer_vlugt_curve,
    hermitian_canonical,
    hermitian_fermat,
    quotient_model_rational,
    quotient_plane_model,
    singer_frame,
    smooth_cyclic_model,
)
from .errors import CapError, ConsistencyError
from .fields import build_field
from .quotients import (
    burnside_quotient_count,
    divisor_report,
    hurwitz_check,
    hurwitz_genus,
)
from .semigroups import (
    OrderSequence,
    linear_series_dim,
    linear_series_orders,
    semigroup_from_generators,
    stohr_voloch_degrees,
)
from .verification import CRITERIA, run_battery


FORMATS = ("json", "csv", "table")


# ---------------------------------------------------------------------------
# model registry
# ---------------------------------------------------------------------------

# tag -> (constructor, the flags it takes in order); every flag is required
MODELS = {
    "hermitian": (hermitian_canonical, ("sqrt_q",)),
    "hermitian-fermat": (hermitian_fermat, ("sqrt_q",)),
    "envelope": (envelope_model, ("sqrt_q",)),
    "smooth-cyclic": (smooth_cyclic_model, ("sqrt_q",)),
    "quotient-frame": (quotient_plane_model, ("sqrt_q",)),
    "quotient-rational": (quotient_model_rational, ("sqrt_q",)),
    "geer-vlugt": (geer_vlugt_curve, ("p", "m", "r")),
    "artin-schreier": (artin_schreier_quotient, ("sqrt_q", "t")),
    "fermat": (fermat_quotient, ("sqrt_q", "t")),
    "char2-chain": (char2_chain_curve, ("sqrt_q",)),
}
MODEL_TAGS = tuple(MODELS)


def make_model(tag: str, args) -> CurveModel:
    build, flags = MODELS[tag]
    if "sqrt_q" in flags and args.sqrt_q is None:
        raise ValueError(f"model {tag!r} needs --sqrt-q")
    if any(getattr(args, f) is None for f in flags):
        names = [f"--{f}" for f in flags if f != "sqrt_q"]
        listed = ", ".join(names[:-1]) + " and " + names[-1] if len(names) > 1 else names[0]
        raise ValueError(f"{tag} needs {listed}")
    return build(*(getattr(args, f) for f in flags))


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def emit(payload, fmt: str):
    """Write a cmd_* payload, a dict or a list of row dicts, in one of FORMATS."""
    out = sys.stdout
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        return
    if isinstance(payload, dict):
        if fmt == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(("key", "value"))
            writer.writerows((k, json.dumps(payload[k], sort_keys=True)) for k in sorted(payload))
        else:
            width = max((len(k) for k in payload), default=0)
            for k in sorted(payload):
                out.write(f"{k.ljust(width)}  {payload[k]}\n")
        return
    cols = list(payload[0])
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows([r.get(c) for c in cols] for r in payload)
    else:
        widths = [max(len(c), *(len(str(r.get(c, ""))) for r in payload)) for c in cols]
        out.write("  ".join(c.ljust(w) for c, w in zip(cols, widths)) + "\n")
        for r in payload:
            out.write("  ".join(str(r.get(c, "")).ljust(w) for c, w in zip(cols, widths)) + "\n")


# ---------------------------------------------------------------------------
# subcommand implementations (payload, ok)
# ---------------------------------------------------------------------------

def cmd_field(args, cache):
    F = build_field(args.p, args.k)
    d = F.descriptor()
    d["order"] = F.order
    d["group_order"] = F.group_order
    return d, True


def cmd_construct(args, cache):
    model = make_model(args.model, args)
    payload = model.serialize()
    payload["tag"] = model.tag()
    return payload, True


def _cached(cache, payload, compute):
    got = cache.get(payload)
    if got is None:
        got = compute().to_dict()
        cache.put(payload, got)
    return got


def _cached_count(model, k, cache):
    return _cached(cache, {"kind": "count", "model": model.serialize(), "k": k},
                   lambda: count_projective_points(model, k))


def cmd_count(args, cache):
    model = make_model(args.model, args)
    return _cached_count(model, args.k, cache), True


def cmd_verify_maximal(args, cache):
    model = make_model(args.model, args)
    report_d = _cached_count(model, 1, cache)
    report = CountReport(**{**report_d, "singular_points": tuple(
        tuple(p) for p in report_d["singular_points"])})
    genus = model.expected_genus if args.genus is None else args.genus
    verdict = maximality_check(report, genus)
    payload = {"count": report_d, "verdict": verdict.to_dict()}
    return payload, verdict.verdict == "maximal"


def cmd_quotient(args, cache):
    rep = _cached(cache, {"kind": "burnside", "sqrt_q": args.sqrt_q, "d": args.d},
                  lambda: burnside_quotient_count(args.sqrt_q, args.d))
    payload = {
        "burnside": rep,
        "hurwitz": hurwitz_check(args.sqrt_q, args.d).to_dict(),
        "divisor": divisor_report(args.sqrt_q, args.d),
    }
    return payload, rep["ok"]


def cmd_census(args, cache):
    sq = args.sqrt_q
    q = sq * sq
    n = q - sq + 1
    singer_frame(sq)     # the d = n row needs F_{q^3}: meet its cap before any row
    rows = []
    for d in divisors(n):
        genus = hurwitz_genus(sq, d)
        expected = hasse_weil_bounds(q, genus)[1]
        dim_d = linear_series_dim(sq, d)
        counts = {}     # method -> measured, in row order
        if d == 1:
            counts["direct"] = _cached_count(hermitian_canonical(sq), 1, cache)["total"]
        elif d == 3:
            rep = _cached_count(quotient_model_rational(sq), 1, cache)
            counts["direct"] = rep["resolved_total"]
        if d > 1:
            counts["burnside"] = _cached(cache, {"kind": "burnside", "sqrt_q": sq, "d": d},
                                         lambda: burnside_quotient_count(sq, d))["count"]
        rows += [{"sqrt_q": sq, "d": d, "genus": genus, "expected": expected,
                  "measured": measured, "dim_d": dim_d, "method": method,
                  "verdict": "pass" if measured == expected else "fail"}
                 for method, measured in counts.items()]
    return rows, all(r["verdict"] == "pass" for r in rows)


def cmd_semigroup(args, cache):
    gens = [int(x) for x in args.gens.split(",")]
    sg = semigroup_from_generators(gens)
    payload = {
        "generators": gens,
        "gaps": sg.gap_list(),
        "genus": sg.genus,
        "conductor": sg.conductor,
        "multiplicity": sg.multiplicity(),
    }
    return payload, True


def cmd_dim_d(args, cache):
    sq, d = args.sqrt_q, args.d
    qualifying = linear_series_orders(sq, d)
    payload = {"sqrt_q": sq, "d": d, "dim": 1 + len(qualifying), "qualifying": qualifying}
    return payload, True


def cmd_sv(args, cache):
    eps = OrderSequence("D", tuple(int(x) for x in args.eps.split(",")))
    nu = OrderSequence("frobenius", tuple(int(x) for x in args.nu.split(",")))
    rep = stohr_voloch_degrees(args.g, args.degd, args.r, eps, nu, args.q)
    return rep.to_dict(), True


def cmd_verify_paper(args, cache):
    results = run_battery(args.only or None)
    for res in results:
        print(res.line(), file=sys.stderr)
    payload = [
        {"detail": r.detail, "name": r.name, "passed": r.passed,
         "seconds": round(r.seconds, 3), "skipped": r.skipped}
        for r in results
    ]
    return payload, all(r.passed or r.skipped for r in results)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_model_args(sp):
    sp.add_argument("--model", required=True, choices=MODEL_TAGS)
    sp.add_argument("--sqrt-q", dest="sqrt_q", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--t", type=int)


def _common_flags(default=None) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, argument_default=default)
    common.add_argument("--format", dest="fmt", choices=FORMATS)
    common.add_argument("--cache-dir", help="results cache directory; no cache without it")
    return common


def build_parser() -> argparse.ArgumentParser:
    # The global flags are accepted before and after the subcommand.  The
    # subcommand's copy has SUPPRESS defaults, so it sets a flag only when
    # the user gives it there and never overwrites one given before.
    common = _common_flags(argparse.SUPPRESS)
    ap = argparse.ArgumentParser(
        prog="maxcurves",
        parents=[_common_flags()],
        description="Explicit maximal-curve models over finite fields: "
                    "construction, exact point counts, cyclic quotients and "
                    "semigroup arithmetic.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    sp = add_parser("field", help="build a field and print its descriptor")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(fn=cmd_field)

    sp = add_parser("construct", help="construct a plane model")
    _add_model_args(sp)
    sp.set_defaults(fn=cmd_construct)

    sp = add_parser("count", help="count points over an extension")
    _add_model_args(sp)
    sp.add_argument("--k", type=int, default=1)
    sp.set_defaults(fn=cmd_count)

    sp = add_parser("verify-maximal", help="check the Hasse-Weil verdict")
    _add_model_args(sp)
    sp.add_argument("--genus", type=int)
    sp.set_defaults(fn=cmd_verify_maximal)

    sp = add_parser("quotient", help="Burnside quotient count plus Hurwitz data")
    sp.add_argument("--sqrt-q", dest="sqrt_q", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.set_defaults(fn=cmd_quotient)

    sp = add_parser("census", help="one row per divisor of q - sqrt_q + 1")
    sp.add_argument("--sqrt-q", dest="sqrt_q", type=int, required=True)
    sp.set_defaults(fn=cmd_census)

    sp = add_parser("semigroup", help="a numerical semigroup from its generators: an exact "
                                           "Apery-set computation, independent of "
                                           "the closed genus formulas")
    sp.add_argument("--gens", required=True, help="comma-separated generators")
    sp.set_defaults(fn=cmd_semigroup)

    sp = add_parser("dim-d", help="distinguished series dimension on a quotient")
    sp.add_argument("--sqrt-q", dest="sqrt_q", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.set_defaults(fn=cmd_dim_d)

    sp = add_parser("sv", help="ramification/Frobenius divisor degrees and bound")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--degd", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--eps", required=True, help="comma-separated orders")
    sp.add_argument("--nu", required=True, help="comma-separated Frobenius orders")
    sp.add_argument("--q", type=int, required=True)
    sp.set_defaults(fn=cmd_sv)

    sp = add_parser("verify-paper", help="run the built-in verification battery")
    sp.add_argument("--only", action="append", choices=[name for name, _ in CRITERIA],
                    metavar="NAME", help="run only the named checks")
    sp.set_defaults(fn=cmd_verify_paper)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    ap.exit_on_error = False
    try:
        args = ap.parse_args(argv)
    except argparse.ArgumentError as exc:
        # an unknown flag before the subcommand makes argparse read its value
        # as the subcommand's name; the global flags alone name that flag
        pre = argparse.ArgumentParser(add_help=False, exit_on_error=False,
                                      parents=[_common_flags()])
        pre.add_argument("rest", nargs=argparse.REMAINDER)
        try:
            unknown = pre.parse_known_args(argv)[1]
        except argparse.ArgumentError:
            unknown = []
        ap.error(f"unrecognized arguments: {' '.join(unknown)}" if unknown else str(exc))
    cache = ResultsCache(args.cache_dir or None)
    try:
        payload, ok = args.fn(args, cache)
    except (ValueError, CapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    emit(payload, args.fmt or "json")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
