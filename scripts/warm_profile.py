#!/usr/bin/env python3
"""Replay one benchmark workload's pass ops warm and in process, and print
the summed per-op median latencies by op kind.

    python scripts/warm_profile.py WORKLOAD [ROUNDS]

WORKLOAD is a name from benchmark/inputs/ (classify-stream, domain-session
or integrate); ROUNDS (default 30) is the number of timed rounds.  The ops
are those of one benchmark pass (``harness.pass_ops``).  Each is run once
untimed, so that every domain holds what it derives, then ROUNDS times, in
an order shuffled per round; an op's latency is its median over the rounds.
Every answer is checked against benchmark/references/.  Nothing under
benchmark/ is written, and no worker process or host-speed correction is
involved: figures are wall times of this process.
"""

from __future__ import annotations

import random
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmark"
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import worker  # noqa: E402


def main(argv: list[str]) -> int:
    workloads = sorted(path.stem for path in harness.INPUT_DIR.glob("*.json"))
    try:
        workload, *rest = argv
        rounds = int(rest[0]) if rest else 30
        if len(rest) > 1 or workload not in workloads or rounds < 1:
            raise ValueError
    except ValueError:
        print(f"usage: python scripts/warm_profile.py WORKLOAD [ROUNDS], WORKLOAD in {workloads},"
              " ROUNDS >= 1", file=sys.stderr)
        return 2
    inputs = harness.load_json(harness.INPUT_DIR / f"{workload}.json")
    refs = harness.load_json(harness.REFERENCE_DIR / f"{workload}.json")["ops"]
    runner = worker.OpRunner(worker.import_reinhardt(), inputs)
    ops = harness.pass_ops(inputs, refs)
    times = defaultdict(list)
    wrong = 0
    for rnd in range(rounds + 1):  # round 0 warms, untimed
        order = list(ops)
        random.Random(f"warm/{rnd}").shuffle(order)
        for i in order:
            latency, outcome, answer = runner.run(i)
            reason = harness.judge(inputs["ops"][i], refs[i],
                                   {"outcome": outcome, "answer": answer})
            wrong += reason is not None
            if rnd:
                times[i].append(latency)
    by_kind = defaultdict(float)
    for i in ops:
        by_kind[inputs["ops"][i]["kind"]] += statistics.median(times[i])
    total = sum(by_kind.values())
    print(f"{workload}: {len(ops)} ops per pass, {rounds} warm rounds, "
          f"{wrong} failed checks of {len(ops) * (rounds + 1)}")
    for kind, seconds in sorted(by_kind.items()):
        print(f"  {kind:12s} {1e3 * seconds:9.2f} ms")
    print(f"  {'pass':12s} {1e3 * total:9.2f} ms   {len(ops) / total:8.0f} ops/s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
