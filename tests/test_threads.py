"""Interval evaluation from parallel threads of one process.

Every precision has its own fixed interval context, so a thread that climbs
the ladder to 512 bits cannot have its precision changed under it by a
thread that prints a 64-bit display at the same time.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from mpmath import libmp

from reinhardt import SimplicialFrame, compute_n0
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


def test_parallel_signs_and_displays_match_serial(hartogs):
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
