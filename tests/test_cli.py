import argparse
import csv
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import maxcurves
from maxcurves import ConsistencyError, cli, counting, curves, quotients, semigroups
from maxcurves.cache import ResultsCache, content_key
from maxcurves.cli import MODELS, build_parser, emit, main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field_command(capsys):
    code, out, _ = run_cli(["field", "--p", "5", "--k", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 125
    assert payload["modulus"] == [1, 1, 0, 1]
    assert payload["group_order"] == 124


def test_construct_command(capsys):
    code, out, _ = run_cli(
        ["construct", "--model", "quotient-rational", "--sqrt-q", "5"],
        capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["tag"] == "quotient-rational-sq5"
    assert payload["poly"]["degree"] == 6
    assert payload["poly"]["field"] == {"p": 5, "k": 2, "modulus": [2, 0, 1]}
    assert payload["expected_genus"] == 3


def test_count_command_and_cache(tmp_path, capsys):
    args = ["count", "--model", "hermitian", "--sqrt-q", "5",
            "--cache-dir", str(tmp_path)]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reruns
    assert json.loads(out1)["total"] == 126
    assert list(tmp_path.glob("*.json")), "cache file written"


def test_census_rows(tmp_path, capsys):
    code, out, _ = run_cli(
        ["census", "--sqrt-q", "3", "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    rows = json.loads(out)
    assert [(r["d"], r["genus"], r["measured"]) for r in rows] == [
        (1, 3, 28), (7, 0, 10)]
    assert all(r["verdict"] == "pass" for r in rows)
    # warm-cache rerun is byte-identical
    code2, out2, _ = run_cli(
        ["census", "--sqrt-q", "3", "--cache-dir", str(tmp_path)], capsys)
    assert code2 == 0 and out2 == out
    # csv output carries the documented column order
    code, out, _ = run_cli(
        ["census", "--sqrt-q", "3", "--format", "csv", "--cache-dir", str(tmp_path)],
        capsys)
    assert out == ("sqrt_q,d,genus,expected,measured,dim_d,method,verdict\n"
                   "3,1,3,28,28,2,direct,pass\n"
                   "3,7,0,10,10,4,burnside,pass\n")


def test_quotient_command(tmp_path, capsys):
    code, out, _ = run_cli(
        ["quotient", "--sqrt-q", "5", "--d", "3", "--cache-dir", str(tmp_path)],
        capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["burnside"]["count"] == 56
    assert payload["burnside"]["n_js"] == [126, 21, 21]
    assert payload["hurwitz"]["identity_holds"]
    assert payload["divisor"]["admissible"]


def test_quotient_past_the_old_lift_cap(capsys):
    # (8, 57) was skipped while each twist needed a Lang lift of order 513
    code, out, _ = run_cli(["quotient", "--sqrt-q", "8", "--d", "57"], capsys)
    assert code == 0
    burnside = json.loads(out)["burnside"]
    assert burnside["count"] == 65 == burnside["expected"]
    assert burnside["n_js"] == [513] + [57] * 56
    assert "lift_orders" not in burnside


def test_quotient_past_the_element_cap_exits_2(capsys):
    # F_{q^3} = F_{2^42} at sqrt_q = 128 is past the 2^40 element cap
    code, out, err = run_cli(["quotient", "--sqrt-q", "128", "--d", "3"], capsys)
    assert code == 2 and out == ""
    assert f"error: field size 2^42 exceeds cap {2**40}" in err


@pytest.mark.parametrize("argv", [
    ["quotient", "--sqrt-q", "128", "--d", "3"],
    ["census", "--sqrt-q", "128"],
])
def test_the_element_cap_refuses_before_any_work(argv, monkeypatch, capsys):
    # F_{q^3} = F_{2^42} is refused before the N_0 sweep over F_{2^14} and
    # before the root finding of the frame parameter in F_{2^21}
    def no_work(*args):
        raise AssertionError("work done before the element cap")

    monkeypatch.setattr(counting, "_sweep_zeros", no_work)
    monkeypatch.setattr(curves, "frame_parameter", no_work)
    assert run_cli(argv, capsys) == (2, "", f"error: field size 2^42 exceeds cap {2**40}\n")


def test_a_consistency_failure_exits_1(monkeypatch, capsys):
    # a failed internal cross-check prints one line on stderr, nothing on
    # stdout, and exits 1, apart from the exit 2 of bad input
    def fail(sqrt_q, d):
        raise ConsistencyError(f"Kummer count 0 differs from the Burnside count {sqrt_q * d}")

    monkeypatch.setattr(cli, "burnside_quotient_count", fail)
    assert run_cli(["quotient", "--sqrt-q", "5", "--d", "3"], capsys) == (
        1, "", "consistency failure: Kummer count 0 differs from the Burnside count 15\n")


def test_census_sweeps_the_fermat_model_once(monkeypatch, capsys):
    # N_0 depends on sqrt_q alone, so the d = 3, 7 and 21 rows share one sweep
    # fresh caches, whatever other tests have counted
    monkeypatch.setattr(quotients, "_untwisted_count",
                        lru_cache(quotients._untwisted_count.__wrapped__))
    monkeypatch.setattr(quotients, "burnside_quotient_count",
                        lru_cache(quotients.burnside_quotient_count.__wrapped__))
    monkeypatch.setattr(cli, "burnside_quotient_count", quotients.burnside_quotient_count)
    sweep, swept = quotients.count_projective_points, []
    monkeypatch.setattr(quotients, "count_projective_points",
                        lambda model: swept.append(model.name) or sweep(model))
    code, out, _ = run_cli(["census", "--sqrt-q", "5"], capsys)
    assert code == 0 and [r["d"] for r in json.loads(out)] == [1, 3, 3, 7, 21]
    assert swept == ["hermitian-fermat"]


@pytest.mark.parametrize("sqrt_q", ["9", "11", "13", "16"])
def test_census_measures_every_row(sqrt_q, capsys):
    code, out, _ = run_cli(["census", "--sqrt-q", sqrt_q], capsys)
    assert code == 0
    rows = json.loads(out)
    assert all(r["measured"] == r["expected"] and r["verdict"] == "pass" for r in rows)
    assert rows[-1]["genus"] == 0  # the d = n row


def test_semigroup_command(capsys):
    code, out, _ = run_cli(["semigroup", "--gens", "3,5,6"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["gaps"] == [1, 2, 4, 7]
    assert payload["genus"] == 4


def test_dim_d_command(capsys):
    code, out, _ = run_cli(["dim-d", "--sqrt-q", "5", "--d", "7"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 5
    assert payload["qualifying"] == [14, 21, 28, 35]


def test_dim_d_reads_membership_without_the_gap_set(monkeypatch, capsys):
    # the gap set of the branch semigroup has s(s - 1)/2 elements; dim-d asks
    # s membership questions, and at sqrt_q = 8192 builds no gap set
    def no_gap_set(*args):
        raise AssertionError("gap set built")

    monkeypatch.setattr(semigroups, "hermitian_point_semigroup", no_gap_set)
    monkeypatch.setattr(semigroups, "NumericalSemigroup", no_gap_set)
    code, out, _ = run_cli(["dim-d", "--sqrt-q", "8192", "--d", "1"], capsys)
    assert code == 0
    assert json.loads(out) == {"sqrt_q": 8192, "d": 1, "dim": 2, "qualifying": [8192]}


def test_dim_d_refuses_a_sqrt_q_past_the_field_cap(monkeypatch, capsys):
    # dim-d asks s membership questions: F_q past the element cap is refused
    # before the first
    def no_membership_test(*args):
        raise AssertionError("membership tested")

    monkeypatch.setattr(semigroups, "in_hermitian_semigroup", no_membership_test)
    code, out, err = run_cli(["dim-d", "--sqrt-q", "1000000007", "--d", "1"], capsys)
    assert (code, out, err) == (
        2, "", "error: field size 1000000007^2 exceeds cap 1099511627776\n")


@pytest.mark.parametrize("sq,d", [(5, 7), (8, 19), (17, 7)])
def test_dim_d_asks_each_membership_question_once(monkeypatch, capsys, sq, d):
    # one pass over h = d, 2d, ..., d*s gives both dim and the qualifying h
    asked = []
    member = semigroups.in_hermitian_semigroup

    def recorded(s, h):
        asked.append(h)
        return member(s, h)

    monkeypatch.setattr(semigroups, "in_hermitian_semigroup", recorded)
    code, out, _ = run_cli(["dim-d", "--sqrt-q", str(sq), "--d", str(d)], capsys)
    payload = json.loads(out)
    assert code == 0 and asked == list(range(d, d * sq + 1, d))
    assert payload["dim"] == 1 + len(payload["qualifying"]) == semigroups.linear_series_dim(sq, d)


@pytest.mark.parametrize("d", [0, 2])
def test_dim_d_rejects_a_non_divisor(d, capsys):
    code, out, err = run_cli(["dim-d", "--sqrt-q", "5", "--d", str(d)], capsys)
    assert code == 2 and out == ""
    assert f"error: {d} does not divide q - sqrt_q + 1" in err


@pytest.mark.parametrize("command", ["quotient", "dim-d"])
def test_a_non_divisor_is_refused_before_the_action_is_built(command, monkeypatch, capsys):
    from maxcurves import quotients

    def no_action(sqrt_q):
        raise AssertionError("the cyclic action was built")

    monkeypatch.setattr(quotients, "hermitian_cyclic_action", no_action)
    code, out, err = run_cli([command, "--sqrt-q", "32", "--d", "2"], capsys)
    assert (code, out, err) == (2, "", "error: 2 does not divide q - sqrt_q + 1 = 993\n")


@pytest.mark.parametrize("args,err", [
    (["dim-d", "--sqrt-q", "6", "--d", "31"], "error: 6 is not a prime power\n"),
    (["dim-d", "--sqrt-q", "1", "--d", "1"], "error: 1 is not a prime power\n"),
    (["quotient", "--sqrt-q", "6", "--d", "31"], "error: 6 is not a prime power\n"),
    (["construct", "--model", "quotient-frame", "--sqrt-q", "7"],
     "error: 3 does not divide q - sqrt_q + 1 = 43\n"),
])
def test_divisor_arithmetic_refusals(args, err, capsys):
    assert run_cli(args, capsys) == (2, "", err)


def test_model_constructors_take_exactly_their_flags():
    # a constructor builds over its own field: it takes no argument the
    # command line does not set
    for tag, (build, flags) in MODELS.items():
        assert tuple(inspect.signature(build).parameters) == flags, tag


def test_pinned_signatures():
    from maxcurves import cube_cover_identity
    from maxcurves._intfactor import factorize

    for fn, params in ((cube_cover_identity, ["sqrt_q"]),
                       (emit, ["payload", "fmt"]), (factorize, ["n"])):
        assert list(inspect.signature(fn).parameters) == params, fn.__name__


def test_verify_maximal_rejects_a_negative_genus(capsys):
    code, out, err = run_cli(
        ["verify-maximal", "--model", "hermitian", "--sqrt-q", "5", "--genus=-1"], capsys)
    assert (code, out, err) == (2, "", "error: genus is nonnegative\n")


@pytest.mark.parametrize("gens,bad", [("-1,3,5", "-1"), ("0,3,5", "0")])
def test_semigroup_rejects_a_nonpositive_generator(gens, bad, capsys):
    code, out, err = run_cli(["semigroup", f"--gens={gens}"], capsys)
    assert (code, out, err) == (2, "", f"error: generators must be positive, got {bad}\n")


@pytest.mark.parametrize("gens,gaps", [
    # m - 1 = 2^24 + 1 residues are gaps: refused before the Apery set is listed
    ("16777218,16777219", 16777217),
    # the genus (a - 1)a/2 of <a, a + 1> is read off the Apery set
    ("100000,100001", 4999950000),
    ("6000,6001", 17997000),
    ("5794,5795", 16782321),
])
def test_semigroup_past_the_gap_cap_exits_2(gens, gaps, capsys):
    code, out, err = run_cli(["semigroup", f"--gens={gens}"], capsys)
    assert (code, out, err) == (
        2, "", f"error: the semigroup has at least {gaps} gaps, above the 2^24 gap cap\n")


def test_sv_command(capsys):
    code, out, _ = run_cli(
        ["sv", "--g", "10", "--degd", "6", "--r", "2", "--eps", "0,1,5",
         "--nu", "0,5", "--q", "25"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["deg_frobenius"] == 252
    assert payload["bound"] == [126, 1]


def test_verify_maximal_pass_and_fail(tmp_path, capsys):
    code, _, _ = run_cli(
        ["verify-maximal", "--model", "hermitian", "--sqrt-q", "5",
         "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    code, out, _ = run_cli(
        ["verify-maximal", "--model", "hermitian", "--sqrt-q", "5",
         "--genus", "3", "--cache-dir", str(tmp_path)], capsys)
    assert code == 1
    assert json.loads(out)["verdict"]["verdict"] == "inconsistent"


def test_verify_paper_single_criterion(capsys):
    code, out, err = run_cli(
        ["verify-paper", "--only", "5-riemann-hurwitz-ledger"], capsys)
    assert code == 0
    assert "PASS" in err
    payload = json.loads(out)
    assert payload[0]["passed"]


def test_usage_errors(capsys):
    code, _, err = run_cli(["count", "--model", "geer-vlugt"], capsys)
    assert code == 2 and "needs" in err
    code, _, _ = run_cli(["count", "--model", "hermitian", "--sqrt-q", "6"], capsys)
    assert code == 2  # 6 is not a prime power
    # not maximal at (3, 2, 1), which has r = m/2, nor at (3, 6, 1): 1 + T does
    # not divide T^(m/2) - 1 over F_3 at m = 2 or 6
    for m in ("2", "6"):
        code, out, err = run_cli(["verify-maximal", "--model", "geer-vlugt", "--p", "3",
                                  "--m", m, "--r", "1"], capsys)
        assert (code, out) == (2, "") and "dividing T^(m/2) - 1 in F_p[T]" in err


@pytest.mark.parametrize("args,flag", [
    (["--model", "hermitian"], "--sqrt-q"),
    (["--model", "hermitian-fermat"], "--sqrt-q"),
    (["--model", "envelope"], "--sqrt-q"),
    (["--model", "smooth-cyclic"], "--sqrt-q"),
    (["--model", "quotient-frame"], "--sqrt-q"),
    (["--model", "quotient-rational"], "--sqrt-q"),
    (["--model", "char2-chain"], "--sqrt-q"),
    (["--model", "artin-schreier", "--t", "2"], "--sqrt-q"),
    (["--model", "artin-schreier", "--sqrt-q", "5"], "--t"),
    (["--model", "fermat", "--t", "2"], "--sqrt-q"),
    (["--model", "fermat", "--sqrt-q", "5"], "--t"),
    (["--model", "geer-vlugt", "--m", "4", "--r", "1"], "--p"),
    (["--model", "geer-vlugt", "--p", "3", "--r", "1"], "--m"),
    (["--model", "geer-vlugt", "--p", "3", "--m", "4"], "--r"),
])
def test_model_missing_flag(args, flag, capsys):
    code, out, err = run_cli(["construct", *args], capsys)
    assert code == 2 and out == ""
    assert "needs" in err and flag in err


def test_count_past_the_table_cap_exits_2(monkeypatch, capsys):
    # 25^9 elements: the table cap fires before F_{5^18} is built
    def no_lift_field(*args, **kwargs):
        raise AssertionError("the lift field was built")

    monkeypatch.setattr("maxcurves.counting.build_field", no_lift_field)
    code, out, err = run_cli(["count", "--model", "hermitian", "--sqrt-q", "5",
                              "--k", "9"], capsys)
    assert code == 2 and out == ""
    assert "the 3814697265625-element field exceeds the 2^18 discrete-log table cap" in err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_count_k_below_one_exits_2(k, monkeypatch, capsys):
    # refused by name before the table cap reads 25^k, a float at k < 0,
    # and before build_field would refuse a degree below 1 without naming k
    def no_work(*args):
        raise AssertionError("work done before k was checked")

    monkeypatch.setattr(counting, "check_table_cap", no_work)
    monkeypatch.setattr(counting, "build_field", no_work)
    assert run_cli(["count", "--model", "hermitian", "--sqrt-q", "5", f"--k={k}"], capsys) == (
        2, "", f"error: the extension degree k must be at least 1, not {k}\n")


def test_model_serialization_is_reproducible():
    # every deterministic choice (moduli, frame root, scaling constant)
    # feeds these hashes; a change here means construction drifted across
    # runs and cache keys went stale
    from maxcurves import quotient_model_rational

    assert content_key(quotient_model_rational(5).serialize()) == (
        "92486ffb320944bd16d755807df10a7072189a1c2098f587fb63d646a99175de")
    assert content_key(quotient_model_rational(8).serialize()) == (
        "11f66bfd9096c4ed7487c3921af166c085bb8b0422213467c182f52cf07a975a")


def test_cache_keys_distinguish_payloads():
    a = content_key({"kind": "count", "model": {"x": 1}, "k": 1})
    b = content_key({"kind": "count", "model": {"x": 2}, "k": 1})
    c = content_key({"kind": "count", "model": {"x": 1}, "k": 2})
    assert len({a, b, c}) == 3


def test_cache_roundtrip_and_corruption(tmp_path):
    cache = ResultsCache(tmp_path)
    payload = {"kind": "count", "model": {"m": 1}, "k": 1}
    cache.put(payload, {"total": 7})
    assert cache.get(payload) == {"total": 7}
    # corrupt the entry: the cache must treat it as a miss
    victim = next(tmp_path.glob("*.json"))
    victim.write_text("{not json")
    assert cache.get(payload) is None
    disabled = ResultsCache(None)
    disabled.put(payload, {"total": 7})
    assert disabled.get(payload) is None


def test_cache_entry_from_another_schema_is_a_miss(tmp_path, monkeypatch):
    payload = {"kind": "burnside", "sqrt_q": 5, "d": 3}
    monkeypatch.setattr(ResultsCache, "SCHEMA", ResultsCache.SCHEMA - 1)
    ResultsCache(tmp_path).put(payload, {"count": 56})
    assert ResultsCache(tmp_path).get(payload) == {"count": 56}
    monkeypatch.undo()
    assert ResultsCache(tmp_path).get(payload) is None
    # an entry stored without a schema, at the bare payload key, is a miss too
    legacy = tmp_path / f"{content_key(payload)}.json"
    legacy.write_text(json.dumps({"payload": payload, "value": {"count": 56}}))
    assert ResultsCache(tmp_path).get(payload) is None


@pytest.mark.parametrize("before", [True, False])
def test_global_flags_either_side_of_the_subcommand(before):
    flags = ["--cache-dir", "/x", "--format", "csv"]
    sub = ["field", "--p", "5", "--k", "3"]
    args = build_parser().parse_args(flags + sub if before else sub + flags)
    assert (args.cache_dir, args.fmt) == ("/x", "csv")
    plain = build_parser().parse_args(sub)
    assert (plain.cache_dir, plain.fmt) == (None, None)


@pytest.mark.parametrize("flag,value", [("--lang-s-max", "0"), ("--lang-s-max", "-3"),
                                        ("--lang-s-max", "two"), ("--lang-s-max", "1")])
@pytest.mark.parametrize("before", [True, False])
def test_non_positive_knob_flags_exit_2(flag, value, before, capsys):
    # the Lang lift cap is fixed; --lang-s-max is refused whatever its value.
    # Before the subcommand a separate value would be read as the
    # subcommand's name, so the flag is given there as one token.
    sub = ["field", "--p", "5", "--k", "1"]
    given = [f"{flag}={value}"] if before else [flag, value]
    with pytest.raises(SystemExit) as exc:
        main(given + sub if before else sub + given)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(given)}" in err


@pytest.mark.parametrize("value", ["0", "1", "two"])
def test_unknown_flag_with_a_value_before_the_subcommand(value, capsys):
    # the separate value must not be taken for the subcommand's name; only
    # the flag is named, since whether it takes a value is unknown
    with pytest.raises(SystemExit) as exc:
        main(["--format", "json", "--lang-s-max", value, "field", "--p", "5", "--k", "1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.rstrip().endswith("error: unrecognized arguments: --lang-s-max")
    assert "invalid choice" not in err


def test_unknown_subcommand_is_still_an_invalid_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--format", "json", "bogus"])
    assert exc.value.code == 2
    assert "argument command: invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("before", [True, False])
def test_workers_flag_is_unrecognized(before, capsys):
    # the plane sweep has one serial path; there is no --workers flag.  The
    # one-token form stays one unknown argument before the subcommand too,
    # where a separate value would be read as the subcommand's name.
    sub = ["field", "--p", "5", "--k", "1"]
    argv = ["--workers=2"] + sub if before else sub + ["--workers=2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers=2" in capsys.readouterr().err


def test_cache_dir_before_the_subcommand_is_used(tmp_path, capsys):
    code, out, _ = run_cli(
        ["--cache-dir", str(tmp_path), "--format", "csv",
         "count", "--model", "hermitian", "--sqrt-q", "3"], capsys)
    assert code == 0
    assert out.startswith("key,value")
    assert list(tmp_path.glob("*.json")), "cache file written"


@pytest.mark.parametrize("extra", [[], ["--cache-dir", ""]], ids=["bare", "empty-dir"])
def test_no_cache_dir_writes_nothing(extra, tmp_path, monkeypatch, capsys):
    # without a --cache-dir, or with an empty one, the cache is off: neither
    # HOME, the working directory nor MAXCURVES_CACHE_DIR leads to a file
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("MAXCURVES_CACHE_DIR", str(tmp_path / "env"))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["count", "--model", "hermitian", "--sqrt-q", "3", *extra],
                           capsys)
    assert code == 0 and json.loads(out)["total"] == 28
    assert list(tmp_path.rglob("*")) == []


@pytest.mark.parametrize("given", [["--config", "x"], ["--no-cache"]],
                         ids=["config", "no-cache"])
@pytest.mark.parametrize("before", [True, False])
def test_removed_flags_are_unrecognized(given, before, capsys):
    # neither is an option; before the subcommand only the flag is named,
    # since whether it takes a value is unknown
    sub = ["field", "--p", "5", "--k", "1"]
    with pytest.raises(SystemExit) as exc:
        main(given + sub if before else sub + given)
    assert exc.value.code == 2
    named = given[0] if before else " ".join(given)
    assert f"unrecognized arguments: {named}" in capsys.readouterr().err


def test_verify_paper_unknown_criterion_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--only", "bogus"])
    assert exc.value.code == 2
    assert "argument --only: invalid choice: 'bogus'" in capsys.readouterr().err


def test_census_sqrt_q_4(capsys):
    code, out, _ = run_cli(["census", "--sqrt-q", "4"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert [(r["d"], r["measured"]) for r in rows] == [(1, 65), (13, 17)]
    assert all(r["verdict"] == "pass" for r in rows)


CENSUS_2 = (
    '[{"d":1,"dim_d":2,"expected":9,"genus":1,"measured":9,"method":"direct","sqrt_q":2,"verdict":"pass"},'
    '{"d":3,"dim_d":3,"expected":5,"genus":0,"measured":5,"method":"direct","sqrt_q":2,"verdict":"pass"},'
    '{"d":3,"dim_d":3,"expected":5,"genus":0,"measured":5,"method":"burnside","sqrt_q":2,"verdict":"pass"}]'
)
CENSUS_8 = (
    '[{"d":1,"dim_d":2,"expected":513,"genus":28,"measured":513,"method":"direct","sqrt_q":8,"verdict":"pass"},'
    '{"d":3,"dim_d":3,"expected":209,"genus":9,"measured":209,"method":"direct","sqrt_q":8,"verdict":"pass"},'
    '{"d":3,"dim_d":3,"expected":209,"genus":9,"measured":209,"method":"burnside","sqrt_q":8,"verdict":"pass"},'
    '{"d":19,"dim_d":8,"expected":81,"genus":1,"measured":81,"method":"burnside","sqrt_q":8,"verdict":"pass"},'
    '{"d":57,"dim_d":9,"expected":65,"genus":0,"measured":65,"method":"burnside","sqrt_q":8,"verdict":"pass"}]'
)


@pytest.mark.parametrize("sqrt_q,want", [("2", CENSUS_2), ("8", CENSUS_8)])
def test_census_exact_json(sqrt_q, want, capsys):
    # sqrt_q = 2 has the d = 3 direct row next to its Burnside row; sqrt_q
    # = 8 has the d = 57 row, measured since the count left the lift field
    code, out, _ = run_cli(["census", "--sqrt-q", sqrt_q], capsys)
    assert code == 0
    assert out == want + "\n"


@pytest.mark.parametrize("args", [
    ["--model", "hermitian", "--sqrt-q", "5"],
    ["--model", "hermitian-fermat", "--sqrt-q", "5"],
    ["--model", "envelope", "--sqrt-q", "5"],
    ["--model", "smooth-cyclic", "--sqrt-q", "5"],
    ["--model", "quotient-frame", "--sqrt-q", "5"],
    ["--model", "quotient-rational", "--sqrt-q", "5"],
    ["--model", "geer-vlugt", "--p", "3", "--m", "4", "--r", "1"],
    ["--model", "artin-schreier", "--sqrt-q", "5", "--t", "2"],
    ["--model", "fermat", "--sqrt-q", "5", "--t", "2"],
    ["--model", "char2-chain", "--sqrt-q", "4"],
])
def test_construct_all_tags(args, capsys):
    code, out, _ = run_cli(["construct", *args], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["poly"]["terms"]


def test_table_format(capsys):
    code, out, _ = run_cli(
        ["census", "--sqrt-q", "3", "--format", "table"], capsys)
    assert code == 0
    assert out.splitlines()[0].split() == list(
        ("sqrt_q", "d", "genus", "expected", "measured", "dim_d", "method", "verdict"))


@pytest.mark.parametrize("args", [
    ["field", "--p", "5", "--k", "3"],
    ["quotient", "--sqrt-q", "5", "--d", "3"],
    ["verify-paper", "--only", "1-hermitian-counts", "--only", "5-riemann-hurwitz-ledger"],
])
def test_csv_rows_are_as_wide_as_the_header(args, capsys):
    # list-valued fields and details carry commas, so they must be quoted
    code, out, _ = run_cli([*args, "--format", "csv"], capsys)
    assert code == 0
    header, *rows = csv.reader(out.splitlines())
    assert rows and all(len(row) == len(header) for row in rows)
    assert any("," in field for row in rows for field in row)


def test_list_columns_are_the_row_keys_in_order(capsys):
    # a list payload's csv and table columns are its rows' keys, in order
    for fmt in ("csv", "table"):
        code, out, _ = run_cli(["verify-paper", "--only", "5-riemann-hurwitz-ledger",
                                "--format", fmt], capsys)
        assert code == 0
        assert out.splitlines()[0].split("," if fmt == "csv" else None) == [
            "detail", "name", "passed", "seconds", "skipped"]


def test_readme_flags_are_parser_options():
    # a flag deleted from the parser must not live on in the README
    ap = build_parser()
    [sub] = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    options = {o for parser in (ap, *sub.choices.values())
               for a in parser._actions for o in a.option_strings}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    assert named and named <= options, sorted(named - options)


def test_readme_cli_commands_run(tmp_path, monkeypatch, capsys):
    # every command of the README's CLI section runs as shown, and with no
    # --cache-dir it writes no file, neither in the home nor the working
    # directory
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n")[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("maxcurves ")]
    assert len(commands) >= 8
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, out, err = run_cli(argv, capsys)
        assert code == 0, (argv, err)
        assert out
    assert list(tmp_path.rglob("*")) == []


def test_counts_never_import_numpy_ma():
    # numpy.ma costs a fresh process about 13 ms and 1.7 MiB on its first
    # import (np.unique pulls it in), more than the whole twisted count of
    # quotient --sqrt-q 8 --d 19; a fresh interpreter runs both commands
    code = ("import contextlib, io, sys\n"
            "from maxcurves.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main('count --model hermitian --sqrt-q 8 --k 2'.split()) == 0\n"
            "    assert main('quotient --sqrt-q 8 --d 19'.split()) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(maxcurves.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout == "False\n"
