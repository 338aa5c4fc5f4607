"""What ``import reinhardt`` loads: the exact core and mpmath, never numpy.

Each check runs in a fresh interpreter, since this test session has loaded
numpy already.  numpy and ``reinhardt.montecarlo`` load on the first read of
a Monte-Carlo name of the package, and exact work never reads one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
MC_ONLY = ("numpy", "reinhardt.montecarlo")
CLASSIFY_STACK = ("reinhardt.classify", "reinhardt.cones", "reinhardt.domain",
                  "reinhardt.simplex", "reinhardt.loglin", "reinhardt.precision", "mpmath")


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


def _run(code: str) -> str:
    return _python("-c", f"SPECS = {str(SPECS)!r}\n{code}").stdout


def test_import_loads_the_classify_stack_and_no_numpy():
    out = _run("import sys, reinhardt\n"
               f"print([m for m in {CLASSIFY_STACK!r} if m not in sys.modules])\n"
               f"print([m for m in {MC_ONLY!r} if m in sys.modules])")
    assert out.split("\n")[:2] == ["[]", "[]"]


def test_exact_work_never_loads_numpy():
    out = _run("""
import sys
from fractions import Fraction
import reinhardt as r
from reinhardt import spaces
specs = {name: r.load_spec(f"{SPECS}/{name}.json")
         for name in ("hartogs", "polydisc", "annulus", "unit_disc", "disc_times_plane")}
specs["parsed"] = r.parse_spec('{"n": 2, "constraints": [{"alpha": ["2", "1"], "c": "3"}]}')
for spec in specs.values():
    r.classify_all(spec)
r.sup_norm_monomial(specs["hartogs"], (1, 0))
r.lp_norm_exact_simplicial(r.SimplicialFrame.from_spec(specs["polydisc"]), (1, 0), 2)
r.spectrum_box(specs["hartogs"], spaces.l2(), 2)
frame = r.SimplicialFrame.from_spec(specs["hartogs"])
w = r.build_witness(r.WitnessSpec(frame=frame, k=1, exterior=r.radial(3, Fraction(3, 2)), j0=0))
assert r.verify_witness_membership(w, k=1, p_list=[1, 2]).ok
print([m for m in ("numpy", "reinhardt.montecarlo") if m in sys.modules])
""")
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["classify", "hartogs.json"],
    ["sup", "hartogs.json", "--nu", "1,0"],
    ["norm", "polydisc.json", "--nu", "1,0", "--p", "2", "--exact"],
    ["spectrum", "hartogs.json", "--space", "l2", "--box", "2"],
    ["witness", "hartogs.json", "--exterior", "3,3/2", "--j0", "1", "--k", "1", "--verify"],
], ids=lambda argv: argv[0])
def test_exact_cli_commands_never_load_numpy(argv):
    argv = [argv[0], str(SPECS / argv[1]), *argv[2:]]
    done = _python("-X", "importtime", "-m", "reinhardt", *argv)
    loaded = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
              if line.startswith("import time:")}
    assert "reinhardt.cli" in loaded
    assert not loaded & set(MC_ONLY)


@pytest.mark.parametrize("first_read", [
    "reinhardt.lp_norm_monte_carlo",
    "__import__('reinhardt', fromlist=['coefficient_inequality_check'])"
    ".coefficient_inequality_check",
    "getattr(reinhardt, 'montecarlo')",
], ids=["attribute", "from-import", "module"])
def test_first_monte_carlo_read_binds_every_name(first_read):
    out = _run(f"""
import sys, reinhardt
assert "numpy" not in sys.modules
got = {first_read}
mc = sys.modules["reinhardt.montecarlo"]
bound = vars(reinhardt)
assert bound["montecarlo"] is mc
assert bound["lp_norm_monte_carlo"] is mc.lp_norm_monte_carlo
assert bound["coefficient_inequality_check"] is mc.coefficient_inequality_check
assert got in (mc, mc.lp_norm_monte_carlo, mc.coefficient_inequality_check)
names = dir(reinhardt)
assert {{"montecarlo", "lp_norm_monte_carlo", "coefficient_inequality_check",
         "classify_all"}} <= set(names)
try:
    reinhardt.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
print("ok")
""")
    assert out.strip() == "ok"


def test_monte_carlo_names_are_listed_before_they_load():
    out = _run("import sys, reinhardt\n"
               "names = set(dir(reinhardt))\n"
               "print('numpy' in sys.modules, {'montecarlo', 'lp_norm_monte_carlo',"
               " 'coefficient_inequality_check'} <= names)")
    assert out.strip() == "False True"
