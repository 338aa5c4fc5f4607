"""Byte-identical CLI ``--json`` output and LP certificates for the gallery.

The files under ``tests/golden/`` were recorded with the dense-tableau
simplex.  A change to the LP kernel must keep Bland's pivot sequence: the
CLI outputs check the verdicts and spectra, and ``gallery_lps.json`` checks
every vertex, dual, ray and Farkas vector of the LPs those commands solve,
which the verdicts alone do not pin down.  ``montecarlo.json`` holds the
``repr`` of seeded Monte-Carlo estimates and coefficient reports, one case
per path of the block kernel, and for the cases whose exponents are all 0 or 1
a digest of every per-sample value, so a faster kernel must keep every output
bit.

Re-record (only when a change is meant to move them) from the repository
root with ``PYTHONPATH=src python tests/test_golden.py --record``.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from reinhardt import (coefficient_inequality_check, exponents, load_spec, lp_norm_monte_carlo,
                       parse_spec, simplex)
from reinhardt.cli import main
from reinhardt.loglin import LogLin
from reinhardt.montecarlo import BLOCK_SIZE, _Sampler, _weighted_powers
from reinhardt.scalars import QuadExt, quad, scalar_to_json

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
LP_GOLDEN = GOLDEN / "gallery_lps.json"
MC_GOLDEN = GOLDEN / "montecarlo.json"
SPECS = sorted(p.stem for p in (ROOT / "specs").glob("*.json"))

CASES = [(f"classify_{name}", ["classify", f"specs/{name}.json", "--json"]) for name in SPECS] + [
    ("spectrum_hartogs_l2_box2",
     ["spectrum", "specs/hartogs.json", "--space", "l2", "--box", "2", "--json"]),
    ("spectrum_multiplicative_strip_hinf_box3",
     ["spectrum", "specs/multiplicative_strip.json", "--space", "hinf", "--box", "3", "--json"]),
    ("spectrum_hartogs_half_ldiamond_k1_box2",
     ["spectrum", "specs/hartogs_half.json", "--space", "ldiamond", "--k", "1", "--box", "2",
      "--json"]),
    ("spectrum_hartogs_half_ak_k1_box2",
     ["spectrum", "specs/hartogs_half.json", "--space", "ak", "--k", "1", "--box", "2",
      "--json"]),
    ("spectrum_irrational_slope_lp_3_2_box2",
     ["spectrum", "specs/irrational_slope.json", "--space", "lp", "--p", "3/2", "--box", "2",
      "--json"]),
    ("spectrum_irrational_slope_hinfk_k1_box2",
     ["spectrum", "specs/irrational_slope.json", "--space", "hinfk", "--k", "1", "--box", "2",
      "--json"]),
    ("spectrum_disc_times_plane_l2_box2",
     ["spectrum", "specs/disc_times_plane.json", "--space", "l2", "--box", "2", "--json"]),
]


def test_gallery_is_complete():
    assert len(SPECS) == 8
    assert sorted(p.stem for p in GOLDEN.glob("*.json") if p not in (LP_GOLDEN, MC_GOLDEN)) == \
        sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_json_output_matches_golden(name, argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(argv)
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    assert out.out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


# -- LP certificates ----------------------------------------------------------

def _encode(x):
    if isinstance(x, LogLin):
        return {"const": _encode(x.const), "terms": [[_encode(b), _encode(c)] for b, c in x.terms]}
    if isinstance(x, (list, tuple)):
        return [_encode(v) for v in x]
    if isinstance(x, (str, bool)):
        return x
    return scalar_to_json(x)


def _decode_scalar(x, d):
    return Fraction(x) if isinstance(x, str) else quad(Fraction(x["a"]), Fraction(x["b"]), d)


def _decode_loglin(x, d):
    return LogLin(_decode_scalar(x["const"], d),
                  tuple((_decode_scalar(b, d), _decode_scalar(c, d)) for b, c in x["terms"]))


def _encode_certificate(cert):
    return {f.name: _encode(getattr(cert, f.name)) for f in fields(cert)
            if getattr(cert, f.name) is not None}


def test_gallery_lp_certificates_match_golden():
    cases = json.loads(LP_GOLDEN.read_text(encoding="utf-8"))
    assert len(cases) > 100
    for case in cases:
        d = case["d"]
        a = [[_decode_scalar(x, d) for x in row] for row in case["a"]]
        b = [_decode_loglin(x, d) for x in case["b"]]
        c = [_decode_scalar(x, d) for x in case["c"]]
        assert _encode_certificate(simplex.solve_lp(a, b, c)) == case["certificate"]


# -- Monte Carlo ------------------------------------------------------------

CHAIN3 = ('{"n":3,"constraints":[{"alpha":["1","-1","0"],"c":"1"},'
          '{"alpha":["0","1","-1"],"c":"1"},{"alpha":["0","0","1"],"c":"1"}]}')

# name -> (domain, nu, p, samples, seed); the per-sample exponents nu*p pick
# the path through the block kernel
MC_CASES = {
    "annulus_nu1_p2": ("annulus", (1,), "2", 4 * BLOCK_SIZE, 101),  # n=1: x*x, not pow
    "polydisc_nu1_1_p1": ("polydisc", (1, 1), "1", 4 * BLOCK_SIZE, 102),  # two unit columns
    "hartogs_nu0_0_p1": ("hartogs", (0, 0), "1", 4 * BLOCK_SIZE, 103),  # all exponents zero
    "annulus_nu-1_p1": ("annulus", (-1,), "1", 4 * BLOCK_SIZE, 104),  # negative exponent
    "hartogs_half_nu2_1_p3/2": ("hartogs_half", (2, 1), "3/2", 4 * BLOCK_SIZE, 105),
    "chain3_nu1_0_2_p1": ("chain3", (1, 0, 2), "1", 4 * BLOCK_SIZE, 106),  # mixed 1, 0, 2
    "hartogs_nu1_0_p1_partial_block": ("hartogs", (1, 0), "1", 2 * BLOCK_SIZE + 12345, 107),
    "unit_disc_nu2_p2": ("unit_disc", (2,), "2", 4 * BLOCK_SIZE, 108),
    "hartogs_nu0_2_p2": ("hartogs", (0, 2), "2", 4 * BLOCK_SIZE, 109),
    "polydisc_nu1_1_p2": ("polydisc", (1, 1), "2", 4 * BLOCK_SIZE, 110),
}
# name -> (domain, Laurent polynomial, p, samples, seed)
COEFFICIENT_CASES = {
    "polydisc": ("polydisc", {(0, 0): 1.0, (1, 0): 1.0}, "2", 4 * BLOCK_SIZE, 11),
    "annulus_laurent": ("annulus", {(1,): 1.0, (-1,): 1.0}, "2", 4 * BLOCK_SIZE, 12),
}


def _unit_exponents(nu, p) -> bool:
    """Exponents nu_j * p of 0 and 1 need no ``pow``, so every per-sample
    value is the same on every CPU; numpy's SIMD ``pow`` rounds about 5% of
    single values differently from its baseline loop."""
    return all(e * Fraction(p) in (0, 1) for e in nu)


def _mc_spec(name):
    return parse_spec(CHAIN3) if name == "chain3" else load_spec(str(ROOT / "specs" /
                                                                      f"{name}.json"))


def _values_sha256(spec, nu, p, samples, seed) -> str:
    """Digest of every per-sample value the estimator sums: the sums alone
    can hide a last-bit change in a few values."""
    exps = np.array(nu, dtype=float) * float(Fraction(p))
    sampler = _Sampler(spec, seed, with_phases=False)
    digest = hashlib.sha256()
    for block, start in enumerate(range(0, samples, BLOCK_SIZE)):
        count = min(BLOCK_SIZE, samples - start)
        r, _, ok = sampler.block(block, count)
        digest.update(_weighted_powers(r, ok, exps, sampler.weight, np.empty(count)).tobytes())
    return digest.hexdigest()


def montecarlo_results(unit_only: bool = False) -> dict:
    """``repr`` of every Monte-Carlo golden case, computed by the library, or
    of the cases with exponents 0 and 1 only."""
    out = {}
    for name, (domain, nu, p, samples, seed) in MC_CASES.items():
        unit = _unit_exponents(nu, p)
        if unit_only and not unit:
            continue
        spec = _mc_spec(domain)
        r = lp_norm_monte_carlo(spec, exponents(*nu), Fraction(p), samples, seed)
        out[name] = {"estimate": repr(r.estimate), "stderr": repr(r.stderr)}
        if unit:
            out[name]["values_sha256"] = _values_sha256(spec, nu, p, samples, seed)
    if unit_only:
        return out
    for name, (domain, poly, p, samples, seed) in COEFFICIENT_CASES.items():
        report = coefficient_inequality_check(_mc_spec(domain), poly, Fraction(p), samples, seed)
        out["coefficient_" + name] = repr(report)
    return out


def test_montecarlo_matches_golden():
    assert montecarlo_results() == json.loads(MC_GOLDEN.read_text(encoding="utf-8"))


def test_montecarlo_golden_without_simd_dispatch():
    """The cases with exponents 0 and 1, digests included, keep their bits
    with every numpy SIMD dispatch target switched off.  The other cases go
    through ``pow``, whose SIMD and baseline loops differ in the last bit of
    some values, and the complex coefficient reports through ``exp`` and
    ``abs``, so neither is pinned across CPUs."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__, "--montecarlo"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300, check=True)
    golden = json.loads(MC_GOLDEN.read_text(encoding="utf-8"))
    got = json.loads(proc.stdout)
    assert got and got == {name: golden[name] for name in got}


def record() -> None:
    """Rewrite every golden file from the ``reinhardt`` on ``sys.path``, in a
    fresh process, so that no LP is skipped by a warm cache."""
    seen, cases = set(), []
    solve = simplex.solve_lp

    def recording(a_rows, b_vals, objective):
        cert = solve(a_rows, b_vals, objective)
        values = [x for row in a_rows for x in row] + list(objective) + \
            [s for b in b_vals for s in (b.const, *(v for t in b.terms for v in t))]
        d = next((x.d for x in values if isinstance(x, QuadExt)), None)
        case = {"d": d, "a": _encode(a_rows), "b": _encode(b_vals), "c": _encode(objective),
                "certificate": _encode_certificate(cert)}
        key = json.dumps(case, sort_keys=True)
        if key not in seen:
            seen.add(key)
            cases.append(case)
        return cert

    modules = [m for m in list(sys.modules.values())
               if getattr(m, "__name__", "").startswith("reinhardt.")
               and getattr(m, "solve_lp", None) is solve]
    for m in modules:
        m.solve_lp = recording
    try:
        for name, argv in CASES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            (GOLDEN / f"{name}.json").write_text(out.getvalue(), encoding="utf-8")
    finally:
        for m in modules:
            m.solve_lp = solve
    LP_GOLDEN.write_text(json.dumps(cases, separators=(",", ":")) + "\n", encoding="utf-8")
    MC_GOLDEN.write_text(json.dumps(montecarlo_results(), indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] == ["--montecarlo"]:
        print(json.dumps(montecarlo_results(unit_only=True)))
        sys.exit(0)
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    os.chdir(ROOT)
    record()
