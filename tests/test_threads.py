"""Interval evaluation and derived geometry from parallel threads of one process.

Every precision has its own fixed interval context, so a thread that climbs
the ladder to 512 bits cannot have its precision changed under it by a
thread that prints a 64-bit display at the same time.  A log-polyhedron
computes its derived geometry on first read, so threads that make those
first reads together must each see the serial values.
"""

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
