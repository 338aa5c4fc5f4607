"""The reinhardt benchmark: one workload per run, every answer checked.

    python3 benchmark/run.py --workload classify-stream --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (inputs in ``inputs/``, reference answers in ``references/``):

* ``classify-stream`` - ``parse_spec`` + ``classify_all`` on a stream of
  distinct specs;
* ``domain-session``  - spectra, sup norms, exact norms and witnesses,
  queried over and over on a few fixed domains;
* ``integrate``       - Monte Carlo integrals at 1e6 samples per query.

A run is a closed loop: one caller, one worker process, one op at a time.
It runs the workload's fixed set of ops (``harness.pass_ops``) in passes,
each in a new order drawn from ``--seed``, for about ``--seconds``.  On a
shared 2-vCPU virtual machine a core slows down by up to 2x for stretches of
a fraction of a second to minutes, so each op time is corrected by a host
speed probe taken around it, and each op's latency is the median of its
corrected times over the passes (``Tally.op_latency``); the latency
percentiles and rates are taken over these per-op latencies.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs untraced passes for half
the time, then the first pass again with the layer functions wrapped (see
``tracer.py``), and prints the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 whenever that
line is printed, also when some ops failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import harness
from tracer import SpanStore, layer_metrics

WORKLOADS = ("classify-stream", "domain-session", "integrate")
SETUP_STARTS = 7  # set-up is timed this many times per run; the median is reported
MIN_PASSES = 2
# classify-stream specs must be new to the library in every pass, so each
# pass gets a new worker; the other workloads keep one worker and its caches.
FRESH_WORKER_PER_PASS = {"classify-stream"}


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Tally:
    """Outcomes of the ops one run ran, pass by pass."""

    def __init__(self):
        self.records: list[tuple[int, int, float, dict | None, str | None]] = []
        self.passes = 0
        self.wall_s = 0.0

    def add(self, pass_no, index, latency, msg, reason) -> None:
        self.records.append((pass_no, index, latency, msg, reason))

    def base_probe(self) -> float | None:
        """The run's fastest host speed probe (see ``worker.host_speed_probe``)."""
        return min((msg["probe_s"] for *_, msg, _ in self.records
                    if msg is not None and "probe_s" in msg), default=None)

    def op_latency(self) -> dict:
        """Op index -> the median over the passes of its corrected latency.

        An op's latency is scaled by the run's fastest probe over the probe
        taken around the op, which takes out the host's slowdown at the
        time; an op without a probe (a timeout) keeps its wall time.
        """
        base = self.base_probe()
        per_op: dict = {}
        for _, index, latency, msg, _ in self.records:
            probe = msg.get("probe_s") if msg is not None else None
            per_op.setdefault(index, []).append(latency * base / probe if probe else latency)
        return {index: statistics.median(lats) for index, lats in per_op.items()}

    def slowdown(self) -> float:
        """Median probe over the fastest one: how slow the host ran."""
        probes = [msg["probe_s"] for *_, msg, _ in self.records
                  if msg is not None and "probe_s" in msg]
        return statistics.median(probes) / min(probes) if probes else 1.0

    def throughput(self) -> float:
        """Ops that completed, per second of their summed latencies (``op_latency``)."""
        done = {index for _, index, _, msg, _ in self.records if msg is not None}
        latency = self.op_latency()
        return len(done) / sum(latency[i] for i in done)

    @property
    def attempted(self) -> int:
        return len(self.records)

    def reasons(self) -> dict:
        out: dict = {}
        for *_, reason in self.records:
            if reason is not None:
                out[reason] = out.get(reason, 0) + 1
        return out

    @property
    def failed(self) -> int:
        return sum(self.reasons().values())

    @property
    def correct(self) -> bool:
        """No op gave a wrong answer or an untyped error."""
        reasons = self.reasons()
        return not reasons.get("wrong") and not reasons.get("error")

    def op_time(self, pass_no: int | None = None) -> float:
        return sum(latency for p, _, latency, _, _ in self.records
                   if pass_no is None or p == pass_no)


def run_pass(session: harness.Session, inputs: dict, refs: list, order, tally: Tally,
             store: SpanStore | None = None) -> None:
    """Run the op indices in ``order`` once, one after the other."""
    for index in order:
        latency, msg = session.run(index)
        reason = harness.judge(inputs["ops"][index], refs[index], msg)
        tally.add(tally.passes, index, latency, msg, reason)
        if store is not None and msg is not None and "trace" in msg:
            store.add(msg["trace"])
    tally.passes += 1


def run_passes(session: harness.Session, inputs: dict, refs: list, ops: list, seed: int,
               seconds: float, fresh_worker: bool) -> Tally:
    """Passes over ``ops`` while the next one is expected to end within ``seconds``."""
    tally = Tally()
    t0 = time.perf_counter()
    while True:
        done = tally.passes
        elapsed = time.perf_counter() - t0
        if done >= MIN_PASSES and elapsed * (done + 1) / done > seconds:
            break
        if fresh_worker and done:
            session.restart()
        run_pass(session, inputs, refs, harness.pass_order(ops, seed, done), tally)
    tally.wall_s = time.perf_counter() - t0
    return tally


def work_rates(inputs: dict, tally: Tally) -> dict:
    """monomials_per_s over spectrum ops and mc_samples_per_s over MC ops, where run."""
    sums = {"monomials_per_s": [0, 0.0], "mc_samples_per_s": [0, 0.0]}
    for index, latency in tally.op_latency().items():
        op = inputs["ops"][index]
        if op["kind"] == "spectrum":  # the whole box is decided
            n = json.loads(inputs["domains"][op["domain"]])["n"]
            key, count = "monomials_per_s", (2 * op["box"] + 1) ** n
        elif op["kind"] == "mc":
            key, count = "mc_samples_per_s", op["samples"]
        else:
            continue
        sums[key][0] += count
        sums[key][1] += latency
    return {key: (count / time_s, "1/s", count) for key, (count, time_s) in sums.items()
            if time_s}


def end_to_end(tally: Tally, setup: list, peak_rss_mb: float) -> dict:
    """``setup`` holds (wall time, probe) of each start; set-up times are
    corrected by the probe like op latencies."""
    latencies = list(tally.op_latency().values())
    n = len(latencies)
    base = min(tally.base_probe(), *(probe for _, probe in setup))
    return {
        "setup_s": (statistics.median(s * base / p for s, p in setup), "s", len(setup)),
        "ops_per_s": (tally.throughput(), "1/s", n),
        "latency_p50_ms": (1000 * percentile(latencies, 50), "ms", n),
        "latency_p90_ms": (1000 * percentile(latencies, 90), "ms", n),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }


def start_timed(workload: str, timeout: float, starts: int):
    """Start the worker ``starts`` times; keep the last one.  Returns (set-up
    time, probe) of each start."""
    setup = []
    for i in range(starts):
        session = harness.Session(workload, timeout=timeout)
        setup.append(session.start())
        if i + 1 < starts:
            session.close()
    return session, setup


def run_untraced(workload, inputs, refs, seed, seconds):
    ops = harness.pass_ops(inputs, refs)
    session, setup = start_timed(workload, inputs["timeout_s"], SETUP_STARTS)
    try:
        tally = run_passes(session, inputs, refs, ops, seed, seconds,
                           workload in FRESH_WORKER_PER_PASS)
    finally:
        session.close()
    metrics = end_to_end(tally, setup, session.peak_rss_mb)
    extra = work_rates(inputs, tally)
    extra["failed_frac"] = (tally.failed / tally.attempted, "ratio", tally.attempted)
    lines = [f"{workload} seed={seed}: {len(ops)} ops x {tally.passes} passes, "
             f"{tally.wall_s:.1f} s wall, {tally.op_time():.1f} s op time, "
             f"failed {tally.failed} {tally.reasons()}; host slowdown "
             f"{tally.slowdown():.2f}x; n = ops of a pass"]
    for name, (value, unit, count) in {**metrics, **extra}.items():
        lines.append(f"  {name:18s} {value:14.6g} {unit:6s} n={count}")
    print("\n".join(lines))
    return tally, {name: value[:2] for name, value in metrics.items()}


def run_traced(workload, inputs, refs, seed, seconds):
    """Untraced passes for half the time, then the first of them again in a
    fresh worker with the wrappers installed."""
    ops = harness.pass_ops(inputs, refs)
    session, _ = start_timed(workload, inputs["timeout_s"], 1)
    try:
        plain = run_passes(session, inputs, refs, ops, seed, seconds / 2,
                           workload in FRESH_WORKER_PER_PASS)
    finally:
        session.close()
    order = harness.pass_order(ops, seed, 0)
    traced = Tally()
    traced_session = harness.Session(workload, trace=True,
                                     timeout=inputs["timeout_s"] * harness.TRACED_FACTOR)
    traced_session.start()
    store = SpanStore(traced_session.worker.wrapped)
    try:
        run_pass(traced_session, inputs, refs, order, traced, store)
    finally:
        traced_session.close()
    metrics = layer_metrics(store)
    metrics["trace.overhead_ratio"] = (traced.op_time() / plain.op_time(0), "ratio")
    lines = [f"{workload} seed={seed} traced: {len(order)} ops, {plain.passes} untraced "
             f"passes failed {plain.failed} {plain.reasons()}, traced failed "
             f"{traced.failed} {traced.reasons()}"]
    if "simplex.pivots" not in metrics:
        lines.append("  simplex.pivots, simplex.pivots.self_s: absent "
                     "(simplex._Tableau.pivot no longer exists)")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:45s} {value:14.6g} {unit}")
    print("\n".join(lines))
    return plain, traced, metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """(tallies, metrics) of one workload's run."""
    inputs = harness.load_json(harness.INPUT_DIR / f"{workload}.json")
    refs = harness.load_json(harness.REFERENCE_DIR / f"{workload}.json")["ops"]
    if trace:
        plain, traced, metrics = run_traced(workload, inputs, refs, seed, seconds)
        return [plain, traced], metrics
    tally, metrics = run_untraced(workload, inputs, refs, seed, seconds)
    return [tally], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn (metrics prefixed by name)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    tallies, metrics = [], {}
    try:
        for workload in workloads:
            run_tallies, run_metrics = run_workload(workload, args.seed, args.seconds,
                                                    bool(args.trace))
            tallies += run_tallies
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + name: value for name, value in run_metrics.items()})
    except OSError as exc:
        print(f"benchmark: cannot read inputs: {exc}", file=sys.stderr)
        return 2
    except harness.WorkerError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(t.correct for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
