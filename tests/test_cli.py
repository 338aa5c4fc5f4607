import json
import time
from pathlib import Path

import jsonschema
import pytest

from reinhardt.classify import REPORT_SCHEMA
from reinhardt.cli import main

SPECS = Path(__file__).resolve().parent.parent / "specs"
HARTOGS = str(SPECS / "hartogs.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_json_validates(capsys):
    code, out, err = run(capsys, "classify", HARTOGS, "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["command"] == "classify"
    jsonschema.validate(doc["report"], REPORT_SCHEMA)
    assert doc["report"]["spaces"]["ainf"]["evidence"]["failing_epsilon"] == [1, 1]


def test_classify_text_mentions_criteria(capsys):
    code, out, _ = run(capsys, "classify", HARTOGS)
    assert code == 0
    assert "ainf" in out and "failing epsilon = [1, 1]" in out
    assert "lineality-rational-type" in out


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "classify", HARTOGS, "--json")
    _, second, _ = run(capsys, "classify", HARTOGS, "--json")
    assert first == second
    _, a, _ = run(capsys, "volume", HARTOGS, "--mc", "--samples", "20000",
                  "--seed", "9", "--json")
    _, b, _ = run(capsys, "volume", HARTOGS, "--mc", "--samples", "20000",
                  "--seed", "9", "--json")
    assert a == b


def test_echo_spec_round_trips(capsys):
    raw = Path(HARTOGS).read_text(encoding="utf-8")
    code, out, _ = run(capsys, "classify", HARTOGS, "--echo-spec")
    assert code == 0 and out == raw
    code, out, _ = run(capsys, "spectrum", HARTOGS, "--space", "hinf", "--box", "1",
                       "--echo-spec")
    assert code == 0 and out == raw


def test_norm_exact(capsys):
    code, out, _ = run(capsys, "norm", HARTOGS, "--nu", "0,0", "--p", "1", "--exact")
    assert code == 0
    assert "pi^2/2" in out and "[4.934802200" in out


def test_norm_json(capsys):
    code, out, _ = run(capsys, "norm", HARTOGS, "--nu", "0,0", "--p", "1",
                       "--exact", "--json")
    doc = json.loads(out)
    assert doc["result"]["kind"] == "exact"
    assert doc["result"]["symbolic"] == "pi^2/2"
    lo, hi = (float(x) for x in doc["result"]["interval"])
    assert lo <= 4.9348022005 <= hi


def test_volume_mc_requires_seed(capsys):
    code, _, err = run(capsys, "volume", HARTOGS, "--mc", "--samples", "1000")
    assert code == 1 and "seed" in err


def test_witness_command(capsys):
    code, out, _ = run(capsys, "witness", HARTOGS, "--k", "0", "--exterior", "3,3/2",
                       "--j0", "1", "--verify", "--p-list", "1,2,3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["N"] == 6
    assert doc["certificate"]["all_ok"] is True
    assert all(c["ok"] for c in doc["certificate"]["checks"])


def test_witness_with_huge_exterior_power_is_a_spec_error(tmp_path, capsys):
    # |b^alpha_j0| = 3^(2^70) * 3^(2^70 + 1): too large to compute at all
    m = 2 ** 70
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps({"n": 2, "constraints": [
        {"alpha": [str(m), str(m + 1)], "c": "1"},
        {"alpha": [str(m - 1), str(m)], "c": "1"}]}))
    start = time.perf_counter()
    code, _, err = run(capsys, "witness", str(frame), "--exterior", "3,3", "--j0", "1")
    assert time.perf_counter() - start < 5
    assert code == 1 and err.startswith("error:")


def test_witness_verify_with_d_beyond_float_range_is_a_spec_error(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "witness", HARTOGS, "--k", "0", "--exterior", f"{10 ** 400},1",
                       "--j0", "1", "--verify")
    assert time.perf_counter() - start < 5
    assert code == 1 and err.startswith("error:")


def test_spectrum_command(capsys):
    strip = str(SPECS / "multiplicative_strip.json")
    code, out, _ = run(capsys, "spectrum", strip, "--space", "hinf", "--box", "3",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["members"] == [[0, 0], [1, 1], [2, 2], [3, 3]]


def test_sup_command(capsys):
    code, out, _ = run(capsys, "sup", HARTOGS, "--nu", "2,-1")
    assert code == 0 and "= 1" in out


def test_exit_code_spec_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n":1,"constraints":[{"alpha":["1"],"c":"-1"}]}')
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 1 and err


def test_exit_code_empty_domain(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(
        '{"n":1,"constraints":[{"alpha":["1"],"c":"1"},{"alpha":["-1"],"c":"1/2"}]}')
    code, _, err = run(capsys, "classify", str(empty))
    assert code == 2 and "empty" in err


def test_an_all_zero_exponent_names_its_constraint(tmp_path, capsys):
    bad = tmp_path / "zero.json"
    bad.write_text('{"n": 2, "constraints": [{"alpha": ["1","0"], "c": "2"}, '
                   '{"alpha": ["0","0"], "c": "2"}]}')
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 1 and "constraint 1: 'alpha' must have a nonzero entry" in err


def test_a_large_quadratic_d_is_tested_once_and_refused_from_2_64(tmp_path, capsys):
    """The d check is one integer square root: a spec over d = 10^12 + 39
    parses, classifies and scans a box-2 spectrum at once."""
    doc = {"n": 2, "quadratic_d": 10 ** 12 + 39, "constraints": [
        {"alpha": ["1", "0"], "c": "1"}, {"alpha": ["0", "1"], "c": "1"},
        {"alpha": ["1", {"a": "1", "b": "1/1000000"}], "c": {"a": "1/2", "b": "1/1000000"}}]}
    path = tmp_path / "big_d.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert run(capsys, "classify", str(path), "--json")[0] == 0
    assert run(capsys, "spectrum", str(path), "--space", "hinf", "--box", "2")[0] == 0
    assert time.perf_counter() - start < 0.1
    doc["quadratic_d"] = 2 ** 64 + 13
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "classify", str(path))
    assert code == 1 and "[2, 2^64)" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/path.json")
    assert code == 1 and err


def test_bad_flags(capsys):
    code, _, err = run(capsys, "spectrum", HARTOGS, "--space", "nosuch", "--box", "2")
    assert code == 1
    code, _, err = run(capsys, "norm", HARTOGS, "--nu", "1,2,3", "--p", "1")
    assert code == 1


def test_flag_errors_name_the_flag(capsys):
    code, out, err = run(capsys, "witness", HARTOGS, "--exterior", "3,3/2", "--j0", "1",
                         "--rows", "a,b")
    assert code == 1 and out == "" and "--rows must be comma-separated integers" in err
    code, out, err = run(capsys, "spectrum", HARTOGS, "--space", "lp", "--box", "2")
    assert code == 1 and out == "" and "--p" in err and "None" not in err
    code, out, err = run(capsys, "spectrum", HARTOGS, "--space", "hinfk", "--box", "2")
    assert code == 1 and out == "" and "--k" in err


@pytest.mark.parametrize("flags,message", [
    (["--space", "hinf", "--k", "3"], "--space hinf with --k 3: space hinf takes no k parameter"),
    (["--space", "l2", "--p", "2"], "--space l2 with --p 2: space l2 takes no p parameter"),
    (["--space", "ldiamond"], "--space ldiamond with no --p or --k: space ldiamond_ak needs"),
    (["--space", "ak", "--k", "-1"], "--space ak with --k -1: space ak needs an integer"),
    (["--space", "lp", "--p", "1/2"], "--space lp with --p 1/2: space lp needs a rational"),
], ids=["extra", "extra-p", "missing", "k-out-of-range", "p-out-of-range"])
def test_spectrum_parameters_are_checked_by_the_space(capsys, flags, message):
    # an extra parameter used to be dropped, an out-of-range one to be "missing"
    code, out, err = run(capsys, "spectrum", HARTOGS, "--box", "1", *flags)
    assert code == 1 and out == "" and message in err


def test_mc_sample_count_must_be_positive(capsys):
    polydisc = str(SPECS / "polydisc.json")
    for samples in ("0", "-5"):
        code, out, err = run(capsys, "norm", polydisc, "--nu", "0,0", "--mc", "--seed", "1",
                             "--samples", samples)
        assert code == 1 and out == "" and "samples" in err and "acceptance" not in err


def test_mc_reports_a_divergent_integral_as_infinite(capsys):
    unit_disc = str(SPECS / "unit_disc.json")
    for method in (["--mc", "--samples", "100000", "--seed", "1"], ["--exact"]):
        code, out, err = run(capsys, "norm", unit_disc, "--nu", "-2", *method)
        assert (code, out, err) == (0, "integral of |z^[-2]|^1: infinite\n", "")
        code, out, err = run(capsys, "norm", unit_disc, "--nu", "-2", *method, "--json")
        assert code == 0 and json.loads(out)["result"] == {"kind": "infinite", "ray": ["-1"]}


def test_mc_seed_must_fit_64_bits(capsys):
    unit_disc = str(SPECS / "unit_disc.json")
    for seed in ("-1", str(2 ** 64)):
        code, out, err = run(capsys, "volume", unit_disc, "--mc", "--samples", "1000",
                             "--seed", seed)
        assert code == 1 and out == "" and err == f"error: seed must be an integer in " \
            f"[0, 2^64), got {seed}\n"
    code, out, err = run(capsys, "volume", unit_disc, "--mc", "--samples", "1000",
                         "--seed", str(2 ** 64 - 1))
    assert code == 0 and f"seed {2 ** 64 - 1})" in out and err == ""


def test_norm_and_volume_take_no_rows(capsys):
    # the annulus has two constraints for n = 1: an exact norm over one of
    # them would be the integral over the unit disc, a superset of the domain
    annulus = str(SPECS / "annulus.json")
    code, out, err = run(capsys, "norm", annulus, "--nu", "1", "--p", "2", "--exact",
                         "--rows", "1")
    assert code == 1 and out == "" and "--rows" in err
    code, out, err = run(capsys, "volume", annulus, "--exact", "--rows", "1")
    assert code == 1 and out == "" and "--rows" in err
    code, out, err = run(capsys, "norm", annulus, "--nu", "1", "--p", "2", "--exact")
    assert code == 1 and out == "" and "need exactly 1 constraints" in err


def test_usage_errors_exit_1(capsys):
    code, out, err = run(capsys, "norm", HARTOGS, "--bogus")
    assert code == 1 and out == "" and "usage:" in err
    code, out, err = run(capsys, "norm", HARTOGS, "--nu", "0,0", "--bogus")
    assert code == 1 and out == "" and "unrecognized arguments: --bogus" in err
    code, out, err = run(capsys, "norm", HARTOGS, "--p", "1")
    assert code == 1 and out == "" and "--nu" in err
    code, out, err = run(capsys, "norm", HARTOGS, "--nu", "0,0", "--exact", "--mc",
                         "--seed", "1")
    assert code == 1 and out == "" and "not allowed with argument" in err
    code, out, err = run(capsys, "volume", HARTOGS, "--mc", "--exact", "--seed", "1")
    assert code == 1 and out == "" and "not allowed with argument" in err
    code, out, err = run(capsys)
    assert code == 1 and out == "" and "usage:" in err
    for argv in (["norm", HARTOGS, "--nu", "0,0", "--p", "1/0"],
                 ["witness", HARTOGS, "--exterior", "3,1/0", "--j0", "1"],
                 ["witness", HARTOGS, "--exterior", "3,3/2", "--j0", "1", "--verify",
                  "--p-list", "1/0"],
                 ["norm", HARTOGS, "--nu", "0,0", "--p", "\u0661"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("error:")
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "usage:" in capsys.readouterr().out
