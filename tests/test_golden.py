"""Byte-identical CLI ``--json`` output and LP certificates for the gallery.

The files under ``tests/golden/`` were recorded with the dense-tableau
simplex.  A change to the LP kernel must keep Bland's pivot sequence: the
CLI outputs check the verdicts and spectra, and ``gallery_lps.json`` checks
every vertex, dual, ray and Farkas vector of the LPs those commands solve,
which the verdicts alone do not pin down.  ``random_lps.json`` holds the
seeded LPs of ``conftest.seeded_lps`` (integer, mixed log bases, Q(sqrt 2),
Q(sqrt 5), pivots of negative norm, Bland ties, infeasible and unbounded),
each with its certificate and its number of ``_Tableau.pivot`` calls.
``recession_cones.json`` holds the seeded cone systems of
``conftest.seeded_cone_systems`` (integer, Q(sqrt 2) and Q(sqrt 3), with
lineality, implicit equalities and repeated rows), each with the lineality
basis and the rays of its recession cone in order, whose order feeds the
printed rays, and its sorted approach supports.  ``spectrum_memberships.json``
holds the verdict, criterion and evidence of ``monomial_in_space`` for thirteen
spaces over a small box, for the gallery, ``tests/specs/`` and the cone
systems with n <= 3 at thresholds 2.  ``montecarlo.json`` holds the
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
import string
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from conftest import seeded_cone_systems, seeded_lps
from reinhardt import (DomainSpec, LogPolyhedron, MonomialConstraint,
                       coefficient_inequality_check, cones, exponents, load_spec,
                       lp_norm_monte_carlo, monomial_in_space, parse_spec, simplex)
from reinhardt import spaces as sp
from reinhardt.cli import main
from reinhardt.loglin import LogLin
from reinhardt.montecarlo import BLOCK_SIZE, _Sampler, _weighted_powers
from reinhardt.scalars import QuadExt, quad, scalar_to_json

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
LP_GOLDEN = GOLDEN / "gallery_lps.json"
RANDOM_LP_GOLDEN = GOLDEN / "random_lps.json"
CONE_GOLDEN = GOLDEN / "recession_cones.json"
MEMBERSHIP_GOLDEN = GOLDEN / "spectrum_memberships.json"
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
    ("sup_hartogs_half_nu1_1", ["sup", "specs/hartogs_half.json", "--nu", "1,1", "--json"]),
    ("sup_multiplicative_strip_nu2_-1",
     ["sup", "specs/multiplicative_strip.json", "--nu", "2,-1", "--json"]),
    ("sup_irrational_slope_nu2_-1",
     ["sup", "specs/irrational_slope.json", "--nu", "2,-1", "--json"]),
    ("sup_unit_disc_nu-1", ["sup", "specs/unit_disc.json", "--nu", "-1", "--json"]),
    ("norm_exact_hartogs_half_nu1_0_p2",
     ["norm", "specs/hartogs_half.json", "--nu", "1,0", "--p", "2", "--exact", "--json"]),
    ("volume_exact_hartogs_half", ["volume", "specs/hartogs_half.json", "--exact", "--json"]),
    ("volume_exact_polydisc", ["volume", "specs/polydisc.json", "--exact", "--json"]),
    ("witness_hartogs_k1_exterior3_3-2_j01",
     ["witness", "specs/hartogs.json", "--k", "1", "--exterior", "3,3/2", "--j0", "1",
      "--p-list", "1,2,3", "--verify", "--json"]),
    ("witness_polydisc_k2_exterior5_5_j02",
     ["witness", "specs/polydisc.json", "--k", "2", "--exterior", "5,5", "--j0", "2",
      "--verify", "--json"]),
    # frames with n = 3 and 4: the chains |z1| < |z2| < ... < |zn| < 1 of tests/specs/
    ("witness_chain3_k2_exterior4_2_1_j01",
     ["witness", "tests/specs/chain3.json", "--k", "2", "--exterior", "4,2,1", "--j0", "1",
      "--verify", "--json"]),
    # a frame that is not the spec's whole constraint list: row 1 of the annulus
    ("witness_annulus_rows1_exterior2_j01_k1",
     ["witness", "specs/annulus.json", "--rows", "1", "--exterior", "2", "--j0", "1", "--k", "1",
      "--verify", "--json"]),
    ("norm_exact_chain4_nu1_0_2_0_p3_2",
     ["norm", "tests/specs/chain4.json", "--nu", "1,0,2,0", "--p", "3/2", "--exact", "--json"]),
    ("norm_exact_chain4_nu0_-2_0_0_p2",
     ["norm", "tests/specs/chain4.json", "--nu", "0,-2,0,0", "--p", "2", "--exact", "--json"]),
    # n = 3 with a plane of lineality: the order of a two-vector lattice and basis
    ("classify_plane3", ["classify", "tests/specs/plane3.json", "--json"]),
    ("classify_irrational_plane3", ["classify", "tests/specs/irrational_plane3.json", "--json"]),
    # exponents all 0: no pow in the block kernel, so the same bits on every CPU
    ("norm_mc_hartogs_nu0_0_p1",
     ["norm", "specs/hartogs.json", "--nu", "0,0", "--p", "1", "--mc", "--samples", "20000",
      "--seed", "3", "--json"]),
]


def test_gallery_is_complete():
    assert len(SPECS) == 8
    assert sorted(p.stem for p in GOLDEN.glob("*.json") if p not in (
        LP_GOLDEN, RANDOM_LP_GOLDEN, CONE_GOLDEN, MEMBERSHIP_GOLDEN, MC_GOLDEN)) == \
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


def _solve_case(case: dict) -> dict:
    """The encoded certificate ``solve_lp`` gives for a stored LP's inputs."""
    d = case["d"]
    a = [[_decode_scalar(x, d) for x in row] for row in case["a"]]
    b = [_decode_loglin(x, d) for x in case["b"]]
    c = [_decode_scalar(x, d) for x in case["c"]]
    return _encode_certificate(simplex.solve_lp(a, b, c))


def _lp_inputs(a_rows, b_vals, objective) -> dict:
    values = [x for row in a_rows for x in row] + list(objective) + \
        [s for b in b_vals for s in (b.const, *(v for t in b.terms for v in t))]
    d = next((x.d for x in values if isinstance(x, QuadExt)), None)
    return {"d": d, "a": _encode(a_rows), "b": _encode(b_vals), "c": _encode(objective)}


def _lp_inputs_key(case: dict) -> str:
    return json.dumps({k: case[k] for k in ("d", "a", "b", "c")}, sort_keys=True)


def test_gallery_lp_certificates_match_golden():
    cases = json.loads(LP_GOLDEN.read_text(encoding="utf-8"))
    assert len(cases) > 100
    for case in cases:
        assert _solve_case(case) == case["certificate"]


def random_lps_text() -> str:
    """JSON text of every seeded LP with its certificate and the number of
    ``_Tableau.pivot`` calls its solve made."""
    pivot = simplex._Tableau.pivot
    count = 0

    def counting(self, row, col):
        nonlocal count
        count += 1
        return pivot(self, row, col)

    cases = []
    simplex._Tableau.pivot = counting
    try:
        for name, (a, b, c) in seeded_lps():
            count = 0
            cert = simplex.solve_lp(a, b, c)
            cases.append({"name": name, **_lp_inputs(a, b, c),
                          "certificate": _encode_certificate(cert), "pivots": count})
    finally:
        simplex._Tableau.pivot = pivot
    return json.dumps(cases, separators=(",", ":")) + "\n"


def test_random_lp_certificates_and_pivot_counts_match_golden():
    """Byte for byte: the same inputs, certificates and pivot counts."""
    assert random_lps_text() == RANDOM_LP_GOLDEN.read_text(encoding="utf-8")


# -- recession cones ----------------------------------------------------------

def recession_cones_text() -> str:
    """JSON text of every seeded cone system with the generators of its
    recession cone, in order, and its sorted approach supports."""
    cases = []
    for name, (d, n, normals) in seeded_cone_systems():
        poly = LogPolyhedron(n=n, normals=tuple(normals), offsets=(1,) * len(normals))
        cone = poly.recession
        cases.append({"name": name, "d": d, "normals": _encode(normals),
                      "lineality": _encode([cone.vector(v) for v in cone.lineality]),
                      "rays": _encode([cone.vector(r) for r in cone.rays]),
                      "approach_supports": sorted(sorted(s) for s in poly.approach_supports)})
    return json.dumps(cases, separators=(",", ":")) + "\n"


def test_recession_cone_generators_match_golden():
    """Byte for byte: the same lineality bases, rays in the same order, and
    the same approach supports, each ray in its one form."""
    assert recession_cones_text() == CONE_GOLDEN.read_text(encoding="utf-8")
    for _, (_, n, normals) in seeded_cone_systems():
        poly = LogPolyhedron(n=n, normals=tuple(normals), offsets=(1,) * len(normals))
        cone = poly.recession
        assert all(cones._lead_normal(list(r), cone.d) == list(r) for r in cone.rays)


# -- spectrum memberships -----------------------------------------------------

MEMBERSHIP_SPACES = [sp.hinf(), sp.l2(), sp.lp(1), sp.lp(3)] + [
    make(k) for make in (sp.hinf_k, sp.ak, sp.ldiamond_ak) for k in (0, 1, 2)]
_OUTCOME_DIGITS = string.digits + string.ascii_letters


def _membership_specs():
    """``(name, spec)`` for the gallery, ``tests/specs/`` and the seeded cone
    systems with n <= 3, whose thresholds 2 put the origin inside."""
    for folder in ("specs", "tests/specs"):
        for path in sorted((ROOT / folder).glob("*.json")):
            yield f"{folder}/{path.stem}", load_spec(str(path))
    for name, (d, n, normals) in seeded_cone_systems():
        if n <= 3:
            yield name, DomainSpec(n=n, quadratic_d=d, constraints=tuple(
                MonomialConstraint(tuple(a), Fraction(2)) for a in normals))


def spectrum_memberships_text() -> str:
    """JSON text, one line per spec, of ``monomial_in_space`` for every space
    of ``MEMBERSHIP_SPACES`` and every nu in [-r, r]^n, r = 2 for n <= 2 and
    1 above.  Each spec lists its distinct ``[verdict, criterion, evidence]``
    outcomes once; each space is a string with one character per nu, in
    ``product`` order: the outcome's index, or "-" for z^nu undefined on G,
    whose evidence is nu itself."""
    lines = []
    for name, spec in _membership_specs():
        r = 2 if spec.n <= 2 else 1
        outcomes, spaces = {}, {}
        for space in MEMBERSHIP_SPACES:
            chars = []
            for nu in product(range(-r, r + 1), repeat=spec.n):
                m = monomial_in_space(spec, nu, space)
                if (m.verdict, m.criterion, m.evidence) == \
                        ("no", "undefined-on-interior-axis", {"nu": list(nu)}):
                    chars.append("-")
                    continue
                key = json.dumps([m.verdict, m.criterion, m.evidence], sort_keys=True)
                chars.append(_OUTCOME_DIGITS[outcomes.setdefault(key, len(outcomes))])
            spaces[str(space)] = "".join(chars)
        lines.append(json.dumps({"spec": name, "box": r, "spaces": spaces,
                                 "outcomes": [json.loads(k) for k in outcomes]},
                                separators=(",", ":"), sort_keys=True))
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_spectrum_memberships_match_golden():
    """Byte for byte: every verdict, criterion and evidence dict."""
    assert spectrum_memberships_text() == MEMBERSHIP_GOLDEN.read_text(encoding="utf-8")


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
    for r, _, ok in sampler.blocks(samples):
        digest.update(_weighted_powers(r, ok, exps, sampler.weight, np.empty(len(r))).tobytes())
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
    fresh process, so that no LP is skipped by a warm cache.

    Every LP already stored in ``gallery_lps.json`` is solved again from its
    stored inputs and kept, in its place; the LPs the gallery commands solve
    that are not stored yet are appended.  A re-record never drops a case.
    """
    stored = json.loads(LP_GOLDEN.read_text(encoding="utf-8")) if LP_GOLDEN.exists() else []
    cases = [{**case, "certificate": _solve_case(case)} for case in stored]
    seen = {_lp_inputs_key(case) for case in cases}
    solve = simplex.solve_lp

    def recording(a_rows, b_vals, objective, system=None):
        cert = solve(a_rows, b_vals, objective, system)
        case = _lp_inputs(a_rows, b_vals, objective)
        key = _lp_inputs_key(case)
        if key not in seen:
            seen.add(key)
            cases.append({**case, "certificate": _encode_certificate(cert)})
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
    RANDOM_LP_GOLDEN.write_text(random_lps_text(), encoding="utf-8")
    CONE_GOLDEN.write_text(recession_cones_text(), encoding="utf-8")
    MEMBERSHIP_GOLDEN.write_text(spectrum_memberships_text(), encoding="utf-8")
    MC_GOLDEN.write_text(json.dumps(montecarlo_results(), indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] == ["--montecarlo"]:
        print(json.dumps(montecarlo_results(unit_only=True)))
        sys.exit(0)
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    os.chdir(ROOT)
    record()
