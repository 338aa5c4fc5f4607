"""Byte-identical CLI ``--json`` output and LP certificates for the gallery.

The files under ``tests/golden/`` were recorded with the dense-tableau
simplex.  A change to the LP kernel must keep Bland's pivot sequence: the
CLI outputs check the verdicts and spectra, and ``gallery_lps.json`` checks
every vertex, dual, ray and Farkas vector of the LPs those commands solve,
which the verdicts alone do not pin down.

Re-record (only when a change is meant to move them) from the repository
root with ``PYTHONPATH=src python tests/test_golden.py --record``.
"""

import contextlib
import io
import json
import os
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from reinhardt import simplex
from reinhardt.cli import main
from reinhardt.loglin import LogLin
from reinhardt.scalars import QuadExt, quad, scalar_to_json

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
LP_GOLDEN = GOLDEN / "gallery_lps.json"
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
    assert sorted(p.stem for p in GOLDEN.glob("*.json") if p != LP_GOLDEN) == \
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    os.chdir(ROOT)
    record()
