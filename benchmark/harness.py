"""Closed-loop op runner: one caller, one worker process, per-op timeouts.

Ops run one at a time in a fixed order, each sent only after the previous
one returned.  The worker is a fresh interpreter (see ``worker.py``); when an
op exceeds its workload's timeout the worker is killed, which stops even a single
long big-integer call, and a new one is started for the next op.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
INPUT_DIR = BENCH_DIR / "inputs"
REFERENCE_DIR = BENCH_DIR / "references"
WORKER = BENCH_DIR / "worker.py"

# Each workload's inputs name its per-op timeout.  The references sort ops by
# their time at the recording commit: fast (under FAST_SHARE of the timeout),
# slow (over SLOW_FACTOR times it) or in the gap between; runs use fast ops
# only, so none runs near its timeout.  The traced pass runs under
# TRACED_FACTOR times the timeout, which leaves room for the tracing overhead.
FAST_SHARE = 1 / 3
SLOW_FACTOR = 5.0
TRACED_FACTOR = 2.5
STARTUP_TIMEOUT_S = 60.0


class WorkerError(RuntimeError):
    """The worker could not start or broke the protocol."""


class Worker:
    """One worker process; ``setup_s`` is spawn-to-ready wall time and
    ``setup_probe_s`` the host speed probe at its end."""

    def __init__(self, workload: str, trace: bool = False):
        cmd = [sys.executable, str(WORKER), "--workload", workload]
        if trace:
            cmd.append("--trace")
        env = dict(os.environ)
        env.pop("REINHARDT_PRECISION", None)  # the library's default ladder cap
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"  # one thread: numpy's BLAS pool would share the two cores
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     cwd=ROOT, env=env)
        self._buf = b""
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            ready = self._read_message(STARTUP_TIMEOUT_S)
        except WorkerError:
            self.kill()
            raise
        if ready is None or not ready.get("ready"):
            self.kill()
            raise WorkerError(f"worker for {workload} did not start")
        self.setup_s = time.perf_counter() - t0
        self.setup_probe_s = ready["probe_s"]
        self.wrapped = ready.get("wrapped", [])

    def _read_message(self, timeout: float):
        """Next JSON line, or None when ``timeout`` passes first."""
        deadline = time.perf_counter() + timeout
        while b"\n" not in self._buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not self._sel.select(left):
                return None
            chunk = os.read(self.proc.stdout.fileno(), 1 << 20)
            if not chunk:
                raise WorkerError(f"worker exited with code {self.proc.wait()}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def run(self, index: int, timeout: float):
        """Run op ``index``; returns the worker's message, or None on timeout."""
        try:
            self.proc.stdin.write(json.dumps({"op": index}).encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise WorkerError("worker closed its input") from exc
        msg = self._read_message(timeout)
        if msg is not None and msg.get("op") != index:
            raise WorkerError(f"worker answered op {msg.get('op')} for op {index}")
        return msg

    def kill(self) -> None:
        self._sel.close()
        self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()

    def close(self) -> None:
        """End of input lets the worker exit; kill it if it does not."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            pass
        self.kill()


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def expected_answer(op: dict, ref: dict):
    """(outcome, answer) the op must give, or None when it is not known.

    An answer known by construction wins over the recorded reference; a
    reference that timed out or hit the precision cap leaves it unknown.
    """
    if "known" in op:
        return op["known"]["outcome"], op["known"].get("answer")
    if ref["outcome"] in ("timeout", "indeterminate"):
        return None
    return ref["outcome"], ref["answer"]


def judge(op: dict, ref: dict, msg: dict | None) -> str | None:
    """Failure reason for one op, or None when it did not fail.

    Fails: a timeout, an error that is not a typed outcome, the precision cap
    on an op whose answer is known, an answer unlike the reference, or a
    Monte Carlo estimate more than 5 stderr from the exact value.
    """
    if msg is None:
        return "timeout"
    outcome = msg["outcome"]
    if outcome == "error":
        return "error"
    expected = expected_answer(op, ref)
    if expected is None:
        return None
    if outcome == "indeterminate":
        return "indeterminate"
    if (outcome, msg["answer"]) != tuple(expected):
        return "wrong"
    exact = ref.get("exact")
    if exact is not None and outcome == "ok" and op["kind"] == "mc":
        est, se = float(msg["answer"]["estimate"]), float(msg["answer"]["stderr"])
        if abs(est - exact) > 5 * se:
            return "wrong"
    return None


def eligible(op: dict, ref: dict) -> bool:
    """Whether runs use the op: it was fast at the recording commit and its
    recorded outcome passes ``judge``, so no op of a run is expected to fail.

    Left out: ops slower than ``FAST_SHARE`` of the timeout (among them the
    n = 5 specs that time out) and specs that are empty by construction but
    whose recorded outcome was ``BoundaryIndeterminate`` (most zero-form
    specs).
    """
    recorded = {"outcome": ref["outcome"], "answer": ref["answer"]}
    return ref["band"] == "fast" and judge(op, ref, recorded) is None


def pass_ops(inputs: dict, refs: list) -> list:
    """The op indices of one pass, the same for every seed.

    A group with k ops per pass (``inputs["per_pass"]``) sorts its eligible
    ops by recorded time, cuts them into k strata of equal size and takes the
    middle op of each, so a pass has the group's spread of op costs.
    """
    by_group: dict[str, list[int]] = {}
    for i, (op, ref) in enumerate(zip(inputs["ops"], refs)):
        if eligible(op, ref):
            by_group.setdefault(op["group"], []).append(i)
    ops = []
    for group, count in sorted(inputs["per_pass"].items()):
        pool = sorted(by_group.get(group, []), key=lambda i: (refs[i]["seed_s"], i))
        if len(pool) < count:
            raise ValueError(f"group {group} has {len(pool)} eligible ops, needs {count}")
        ops += [pool[(2 * s + 1) * len(pool) // (2 * count)] for s in range(count)]
    return ops


def pass_order(ops: list, seed: int, pass_no: int) -> list:
    """The order of ``ops`` in pass ``pass_no``, a pure function of ``seed``."""
    order = list(ops)
    random.Random(f"{seed}/{pass_no}").shuffle(order)
    return order


class Session:
    """Runs ops on a worker, replacing it after a timeout or a crash."""

    def __init__(self, workload: str, timeout: float, trace: bool = False):
        self.workload = workload
        self.trace = trace
        self.timeout = timeout
        self.worker: Worker | None = None
        self.peak_rss_mb = 0.0

    def start(self) -> tuple[float, float]:
        """(set-up wall time, host speed probe at its end) of a new worker."""
        self.worker = Worker(self.workload, self.trace)
        return self.worker.setup_s, self.worker.setup_probe_s

    def run(self, index: int):
        """(latency_s, message or None on timeout)."""
        if self.worker is None:
            self.start()
        t0 = time.perf_counter()
        try:
            msg = self.worker.run(index, self.timeout)
        except WorkerError:
            msg = {"op": index, "outcome": "error", "answer": "worker crashed",
                   "latency_s": time.perf_counter() - t0}
            self._drop()
            return msg["latency_s"], msg
        if msg is None:
            latency = time.perf_counter() - t0
            self._drop()
            return latency, None
        self.peak_rss_mb = max(self.peak_rss_mb, msg["rss_mb"])
        return msg["latency_s"], msg

    def restart(self) -> None:
        """A new worker: the next op meets empty library caches."""
        self.close()
        self.start()

    def _drop(self) -> None:
        self.worker.kill()
        self.worker = None

    def close(self) -> None:
        if self.worker is not None:
            self.worker.close()
            self.worker = None
