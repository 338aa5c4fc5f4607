"""Interval evaluation and derived geometry from parallel threads of one process.

The ladder hands its rungs bits and every precision that builds an interval
has its own fixed context, so a thread that climbs the ladder to 512 bits
cannot have its precision changed under it by a thread that prints a 64-bit
display at the same time.  A log-polyhedron
computes its derived geometry on first read, so threads that make those
first reads together must each see the serial values.  The package loads
its Monte-Carlo module on the first read of one of its names, so threads
that make that read together must each get the same function.
"""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

from mpmath import libmp

from reinhardt import LogPolyhedron, SimplicialFrame, compute_n0, load_spec
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


_FIRST_MC_CALLS = """
import sys, threading
from concurrent.futures import ThreadPoolExecutor
import reinhardt

spec = reinhardt.load_spec(sys.argv[1])
assert "reinhardt.montecarlo" not in sys.modules
threads = 8
barrier = threading.Barrier(threads, timeout=60)


def first_call(_):
    barrier.wait()
    fn = reinhardt.lp_norm_monte_carlo
    return fn, fn(spec, (1, 0), 2, 5000, 11)


sys.setswitchinterval(1e-6)  # switch threads often, inside the module import too
with ThreadPoolExecutor(max_workers=threads) as pool:
    got = list(pool.map(first_call, range(threads)))
sys.setswitchinterval(0.005)
serial = reinhardt.montecarlo.lp_norm_monte_carlo(spec, (1, 0), 2, 5000, 11)
assert all(fn is reinhardt.montecarlo.lp_norm_monte_carlo for fn, _ in got)
assert [result for _, result in got] == [serial] * threads
print("ok", serial.estimate)
"""


def test_parallel_first_monte_carlo_calls_share_one_function():
    """8 threads of a fresh interpreter make the package's first
    ``lp_norm_monte_carlo`` read and call at once."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", _FIRST_MC_CALLS,
                           str(root / "specs" / "hartogs.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ok ")
