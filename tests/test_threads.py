"""Interval evaluation and derived geometry from parallel threads of one process.

The ladder hands its rungs bits and every call that uses ``decimal`` builds
its own context, so a thread that climbs the ladder to 512 bits cannot have
its precision changed under it by a thread that prints a 64-bit display at
the same time.  A log-polyhedron
computes its derived geometry on first read, and a parsed domain holds its
frames, their N0, its cone's scan rows and its cleared LP rows from first
use, so threads that make those first reads together must each see the
serial values, and share one held frame and N0.  The package loads
norms, spaces, spectrum, witness and montecarlo on the first read of one
of their names, so threads that make that read together must each get the
same object.
"""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import libmp

from reinhardt import (LogPolyhedron, SimplicialFrame, WitnessSpec, build_witness, compute_n0,
                       lp_norm_exact_simplicial, load_spec, parse_spec, precision, radial,
                       spectrum_box, sup_norm_monomial)
from reinhardt.spaces import hinf_k
from reinhardt.loglin import LogLin
from reinhardt.norms import NormResult

# log 2 to 2000 bits; log(2) - (LOG2 -+ 2^-400) is about +-2^-400, so its sign
# needs the 512-bit rung of the ladder
LOG2 = Fraction(*libmp.to_rational(libmp.mpf_log(libmp.from_int(2), 2000)))
TINY = Fraction(1, 2 ** 400)


def _sign_task(i: int):
    q = LOG2 - TINY if i % 2 else LOG2 + TINY
    return (LogLin.log_of(2) - q).sign()


def _display_task(i: int, norm: NormResult, frame: SimplicialFrame):
    n0, _ = compute_n0(frame, i % 3)
    return norm.interval(), n0.interval_str()


def test_parallel_signs_and_displays_match_serial(hartogs, monkeypatch):
    monkeypatch.delenv("REINHARDT_PRECISION", raising=False)  # the default ladder cap
    frame = SimplicialFrame.from_spec(hartogs)
    norm = NormResult(kind="exact", coefficient=Fraction(3, 7), pi_power=2,
                      factors=((Fraction(1, 2), Fraction(1, 3)),))
    tasks = [(_sign_task, (i,)) if i % 3 else (_display_task, (i, norm, frame))
             for i in range(240)]
    serial = [fn(*args) for fn, args in tasks]
    assert {serial[i] for i in (1, 2)} == {1, -1}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside evaluations too
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(fn, *args) for fn, args in tasks]
            parallel = [f.result() for f in futures]  # re-raises BoundaryIndeterminate
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial


def test_parallel_first_log_bounds_of_one_integer_are_equal():
    # an integer near 2^200 at 1024 bits, asked for the first time by 8 threads at once
    p, bits = 2 ** 200 + 235, 1024
    precision._int_log_bounds.cache_clear()
    barrier = threading.Barrier(8, timeout=60)

    def bound(_):
        barrier.wait()
        return precision.log_bounds(p, bits)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(bound, range(8)))
    finally:
        sys.setswitchinterval(interval)
    assert len(set(got)) == 1
    lo, hi = got[0]
    assert 0 < hi - lo <= 2 and precision.log_bounds(p, bits) == got[0]


GEOMETRY = ("lineality", "integer_lattice", "recession", "approach_supports")


def _first_reads(poly: LogPolyhedron, start: int, barrier: threading.Barrier):
    """The derived geometry of ``poly``, read from ``GEOMETRY[start]`` on."""
    barrier.wait()
    names = GEOMETRY[start:] + GEOMETRY[:start]
    got = {name: getattr(poly, name) for name in names}
    return [got[name] for name in GEOMETRY]


def test_parallel_first_reads_of_derived_geometry_match_serial(gallery):
    here = Path(__file__).resolve().parent
    specs = list(gallery.values()) + [load_spec(str(here / "specs" / f"{name}.json"))
                                      for name in ("plane3", "irrational_plane3", "chain4")]

    def fresh(spec):
        poly = spec.log_polyhedron
        return LogPolyhedron(n=poly.n, normals=poly.normals, offsets=poly.offsets)

    threads = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside first reads too
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for spec in specs:
                serial = _first_reads(fresh(spec), 0, threading.Barrier(1))
                poly, barrier = fresh(spec), threading.Barrier(threads, timeout=60)
                futures = [pool.submit(_first_reads, poly, i % len(GEOMETRY), barrier)
                           for i in range(threads)]
                assert [f.result(timeout=60) for f in futures] == [serial] * threads
    finally:
        sys.setswitchinterval(interval)


def _held_reads(spec, barrier: threading.Barrier):
    """Answers that make the first use of ``spec``'s held frame, the frame's
    N0, the cone's scan rows and checked generators, and the LP rows."""
    barrier.wait()
    frame = SimplicialFrame.from_spec(spec)
    w = build_witness(WitnessSpec(frame=frame, k=1, exterior=radial(8, 4, 2), j0=0))
    return (frame, w.n0, w.N, sup_norm_monomial(spec, (1, 1, 0)),
            sup_norm_monomial(spec, (-1, 0, 0)), spectrum_box(spec, hinf_k(1), 1),
            lp_norm_exact_simplicial(frame, (1, 0, 2), 2))


def test_parallel_first_uses_of_held_objects_agree():
    text = (Path(__file__).resolve().parent / "specs" / "chain3.json").read_text()
    serial = _held_reads(parse_spec(text), threading.Barrier(1))
    threads = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            spec, barrier = parse_spec(text), threading.Barrier(threads, timeout=60)
            with ThreadPoolExecutor(max_workers=threads) as pool:
                got = [f.result(timeout=60) for f in
                       [pool.submit(_held_reads, spec, barrier) for _ in range(threads)]]
            assert all(g[0] is got[0][0] and g[1] is got[0][1] for g in got)
            assert [g[2:] for g in got] == [serial[2:]] * threads
            assert got[0][0] == serial[0] and got[0][1] == serial[1]
    finally:
        sys.setswitchinterval(interval)


_FIRST_CALLS = """
import sys, threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
import reinhardt

spec = reinhardt.load_spec(sys.argv[1])
name, module, call = sys.argv[2], "reinhardt." + sys.argv[3], eval("lambda fn: " + sys.argv[4])
assert module not in sys.modules
threads = 8
barrier = threading.Barrier(threads, timeout=60)


def first_call(_):
    barrier.wait()
    fn = getattr(reinhardt, name)
    return fn, call(fn)


sys.setswitchinterval(1e-6)  # switch threads often, inside the module import too
with ThreadPoolExecutor(max_workers=threads) as pool:
    got = list(pool.map(first_call, range(threads)))
sys.setswitchinterval(0.005)
own = getattr(sys.modules[module], name)
serial = call(own)
assert all(fn is own for fn, _ in got)
assert [result for _, result in got] == [serial] * threads
print("ok")
"""


# a lazily loaded name of each module -> (module, a first call of it)
FIRST_CALLS = {
    "lp_norm_monte_carlo": ("montecarlo", "fn(spec, (1, 0), 2, 5000, 11)"),
    "sup_norm_monomial": ("norms", "fn(spec, (1, 0))"),
    "spectrum_box": ("spectrum", "fn(spec, reinhardt.FunctionSpace('l2'), 1)"),
    "build_witness": ("witness", "fn(reinhardt.WitnessSpec(frame=reinhardt.SimplicialFrame"
                      ".from_spec(spec), k=1, exterior=reinhardt.radial(3, Fraction(3, 2)),"
                      " j0=0)).N"),
    "FunctionSpace": ("spaces", "fn('l2')"),
}


@pytest.mark.parametrize("name", list(FIRST_CALLS))
def test_parallel_first_calls_of_a_lazy_name_share_one_object(name):
    """8 threads of a fresh interpreter make the package's first read of
    ``name``, which loads its module, and call it at once: each gets the
    module's own object and the serial result."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", _FIRST_CALLS,
                           str(root / "specs" / "hartogs.json"), name, *FIRST_CALLS[name]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
