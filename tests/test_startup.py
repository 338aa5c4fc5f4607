"""What ``import reinhardt`` and its commands load: only what the call needs.

Each check runs in a fresh interpreter, since this test session has loaded
every module already.  The package loads the classify stack; norms, spaces,
spectrum and witness load on the first read of one of their names, numpy
and ``reinhardt.montecarlo`` on the first read of a Monte-Carlo name, and
mpmath with the first ladder rung on a log over Q(sqrt d), pi bound or
printed interval.  Exact work never loads numpy, and a classify never loads
mpmath unless a threshold is in Q(sqrt d) and its log reaches the ladder.
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
                  "reinhardt.simplex", "reinhardt.loglin", "reinhardt.precision")
ON_FIRST_USE = ("mpmath", "reinhardt.norms", "reinhardt.spaces", "reinhardt.spectrum",
                "reinhardt.witness", *MC_ONLY)
# x1 + sqrt2 x2 < log(1 + sqrt2), x1 > 0, x2 > 0: its emptiness proof signs
# one-term forms in log(1 + sqrt2), which need no ladder
QUADRATIC_THRESHOLD = ('{"n": 2, "quadratic_d": 2, "constraints": ['
                       '{"alpha": ["1", {"a": "0", "b": "1"}], "c": {"a": "1", "b": "1"}},'
                       '{"alpha": ["-1", "0"], "c": "1"}, {"alpha": ["0", "-1"], "c": "1"}]}')
# classify-stream op 492 of the benchmark: exponents in Q(sqrt3), rational
# thresholds, empty; its Farkas proof climbs the ladder on logs of integers only
QUADRATIC_EXPONENTS = (
    '{"n":2,"quadratic_d":3,"constraints":[{"alpha":["0","2"],"c":"1/9"},'
    '{"alpha":["-2",{"a":"-2","b":"-1"}],"c":"1/2"},'
    '{"alpha":[{"a":"1","b":"2"},{"a":"-2","b":"2"}],"c":"2/3"},'
    '{"alpha":["-2","-1"],"c":"5/2"},{"alpha":[{"a":"1","b":"-1"},{"a":"2","b":"-1"}],"c":"3"},'
    '{"alpha":["1","1"],"c":"1/4"}]}')

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
    """Nor mpmath, norms, spaces, spectrum or witness."""
    out = _run("import sys, reinhardt\n"
               f"print([m for m in {CLASSIFY_STACK!r} if m not in sys.modules])\n"
               f"print([m for m in {ON_FIRST_USE!r} if m in sys.modules])")
    assert out.split("\n")[:2] == ["[]", "[]"]


def test_exact_classify_never_loads_mpmath_and_the_ladder_does():
    """Logs of integers come from ``decimal``; a log over Q(sqrt d) needs mpmath."""
    out = _run(f"""
import sys
import reinhardt as r
from reinhardt import loglin
from reinhardt.scalars import quad
for name in ("annulus", "hartogs", "irrational_slope"):
    r.classify_all(r.load_spec(f"{{SPECS}}/{{name}}.json"))
print([m for m in {ON_FIRST_USE!r} if m in sys.modules])
report = r.classify_all(r.parse_spec({QUADRATIC_THRESHOLD!r}))
print(sorted((k, v.value, v.criterion) for k, v in report.verdicts.items()))
climbs, ladder = [], loglin.ladder_sign
loglin.ladder_sign = lambda *args, **kw: climbs.append(1) or ladder(*args, **kw)
try:
    r.classify_all(r.parse_spec({QUADRATIC_EXPONENTS!r}))
except r.EmptyDomainError:
    print(len(climbs) > 0, "mpmath" in sys.modules)
print((loglin.LogLin.of(1) - loglin.LogLin.log_of(quad(1, 1, 2))).sign(), "mpmath" in sys.modules)
""")
    assert out.split("\n")[:4] == ["[]", str(sorted([
        ("ainf", "yes", "axis-approach-blocked"), ("hinf", "yes", "lineality-rational-type"),
        ("hinf_k", "yes", "product-split"), ("l2", "yes", "lineality-zero"),
        ("lp_ak", "yes", "lineality-zero-proper-subset")])), "True False", "1 True"]

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


def _loaded(*argv: str) -> set[str]:
    """The modules ``python -m reinhardt argv`` imports, read off -X importtime."""
    done = _python("-X", "importtime", "-m", "reinhardt", *argv)
    return {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv", [
    ["classify", "hartogs.json"],
    ["sup", "hartogs.json", "--nu", "1,0"],
    ["norm", "polydisc.json", "--nu", "1,0", "--p", "2", "--exact"],
    ["spectrum", "hartogs.json", "--space", "l2", "--box", "2"],
    ["witness", "hartogs.json", "--exterior", "3,3/2", "--j0", "1", "--k", "1", "--verify"],
], ids=lambda argv: argv[0])
def test_exact_cli_commands_never_load_numpy(argv):
    loaded = _loaded(argv[0], str(SPECS / argv[1]), *argv[2:])
    assert "reinhardt.cli" in loaded
    assert not loaded & set(MC_ONLY)


def test_cli_classify_loads_no_norms_spectra_witnesses_or_mpmath():
    loaded = _loaded("classify", str(SPECS / "hartogs.json"))
    assert "reinhardt.classify" in loaded
    assert not loaded & {"mpmath", "reinhardt.norms", "reinhardt.spaces", "reinhardt.spectrum",
                         "reinhardt.witness"}


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


@pytest.mark.parametrize("module", ["norms", "spaces", "spectrum", "witness"])
def test_first_read_of_a_lazy_name_binds_its_module_and_every_name(module):
    """Listed by ``dir`` before they load; the first read binds them all."""
    out = _run(f"""
import sys, reinhardt
names = reinhardt._LAZY[{module!r}]
assert {{{module!r}, *names}} <= set(dir(reinhardt))
assert "reinhardt.{module}" not in sys.modules
got = getattr(reinhardt, names[-1])
mod = sys.modules["reinhardt.{module}"]
assert got is getattr(mod, names[-1]) and reinhardt.{module} is mod
assert all(vars(reinhardt)[n] is getattr(mod, n) for n in names)
print("ok")
""")
    assert out.strip() == "ok"
