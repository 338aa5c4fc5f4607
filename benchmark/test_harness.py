"""Self-tests of the benchmark harness.

    python3 -m pytest benchmark/test_harness.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import generate  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from worker import OpRunner, import_reinhardt  # noqa: E402


def _snapshot(lib) -> dict:
    """Every attribute of every reinhardt module and of every class they define."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "reinhardt" or name.startswith("reinhardt.")):
            continue
        for attr, value in vars(mod).items():
            snap[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("reinhardt"):
                for cattr, cvalue in vars(value).items():
                    snap[(name, attr, cattr)] = cvalue
    return snap


def test_wrappers_install_everywhere_and_restore_every_attribute():
    lib = import_reinhardt()
    before = _snapshot(lib)
    solve_lp, sign = lib.simplex.solve_lp, lib.loglin.LogLin.sign
    t = tracer.Tracer(lib)
    t.install()
    try:
        # a function imported by name into another module is wrapped there too
        assert lib.simplex.solve_lp is not solve_lp
        assert lib.cones.solve_lp is lib.simplex.solve_lp
        assert lib.solve_lp is lib.simplex.solve_lp
        assert lib.loglin.LogLin.sign is not sign
        assert set(tracer.SPANS) <= t.wrapped
        t.begin_op()
        spec = lib.parse_spec((generate.SPEC_DIR / "hartogs.json").read_text())
        traced = lib.classify_all(spec).to_json_dict()
        trace = t.end_op()
    finally:
        t.remove()
    after = _snapshot(lib)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced == lib.classify_all(spec).to_json_dict()
    store = tracer.SpanStore(t.wrapped)
    store.add(trace)
    metrics = tracer.layer_metrics(store)
    assert metrics["simplex.solve_lp.calls"][0] > 0
    assert metrics["classify.classify_all.self_s"][0] > 0


def test_self_time_subtracts_child_spans():
    store = tracer.SpanStore()
    ids = {name: i for i, name in enumerate(tracer.SPAN_NAMES)}
    # cones query [0, 10) calls solve_lp [1, 4) and [5, 6)
    for nid, parent, start, end in ((ids["cones.lp_optimize"], -1, 0.0, 10.0),
                                    (ids["simplex.solve_lp"], 0, 1.0, 4.0),
                                    (ids["simplex.solve_lp"], 0, 5.0, 6.0)):
        store.name.append(nid)
        store.parent.append(parent)
        store.start.append(start)
        store.end.append(end)
    metrics = tracer.layer_metrics(store)
    assert metrics["cones.lp_optimize.self_s"][0] == pytest.approx(6.0)
    assert metrics["simplex.solve_lp.self_s"][0] == pytest.approx(4.0)
    assert metrics["cones.lps_per_query"][0] == 2.0


def _loop(workload: str, indices: list, refs: list, timeout: float) -> run.Tally:
    inputs = harness.load_json(harness.INPUT_DIR / f"{workload}.json")
    session = harness.Session(workload, timeout=timeout)
    try:
        tally = run.Tally()
        run.run_pass(session, inputs, refs, indices, tally)
        return tally
    finally:
        session.close()


def test_injected_wrong_answer_is_a_failed_op():
    refs = harness.load_json(harness.REFERENCE_DIR / "domain-session.json")["ops"]
    index = next(i for i, r in enumerate(refs) if r["outcome"] == "ok")
    wrong = [dict(r) for r in refs]
    wrong[index]["answer"] = "not the answer"
    good = _loop("domain-session", [index], refs, 60.0)
    bad = _loop("domain-session", [index], wrong, 60.0)
    assert (good.failed, good.correct) == (0, True)
    assert (bad.failed, bad.reasons(), bad.correct) == (1, {"wrong": 1}, False)


def test_injected_timeout_is_a_failed_op_and_the_worker_is_replaced():
    refs = harness.load_json(harness.REFERENCE_DIR / "integrate.json")["ops"]
    tally = _loop("integrate", [0, 1], refs, 1e-3)  # far below any op's time
    assert tally.reasons() == {"timeout": 2}
    assert tally.correct


def test_judge_rules():
    op = {"kind": "classify"}
    ref = {"outcome": "ok", "answer": {"x": 1}}
    msg = {"outcome": "ok", "answer": {"x": 1}}
    assert harness.judge(op, ref, msg) is None
    assert harness.judge(op, ref, None) == "timeout"
    assert harness.judge(op, ref, {"outcome": "error", "answer": "boom"}) == "error"
    assert harness.judge(op, ref, {"outcome": "indeterminate", "answer": None}) == "indeterminate"
    unknown = {"outcome": "timeout", "answer": None}
    assert harness.judge(op, unknown, {"outcome": "indeterminate", "answer": None}) is None
    known_empty = {"kind": "classify", "known": {"outcome": "empty"}}
    assert harness.judge(known_empty, unknown, {"outcome": "empty", "answer": None}) is None
    assert harness.judge(known_empty, unknown,
                         {"outcome": "indeterminate", "answer": None}) == "indeterminate"
    mc = {"kind": "mc"}
    mc_ref = {"outcome": "ok", "answer": {"estimate": "1.0", "stderr": "0.01"}, "exact": 2.0}
    assert harness.judge(mc, mc_ref, {"outcome": "ok", "answer": mc_ref["answer"]}) == "wrong"


def test_generator_reproduces_the_stored_inputs():
    for name, doc in generate.build_inputs().items():
        stored = harness.load_json(harness.INPUT_DIR / f"{name}.json")
        assert json.loads(json.dumps(doc)) == stored, name


def test_references_cover_every_op_and_every_pass_op_is_eligible():
    for name in generate.WORKLOADS:
        inputs = harness.load_json(harness.INPUT_DIR / f"{name}.json")
        refs = harness.load_json(harness.REFERENCE_DIR / f"{name}.json")["ops"]
        assert len(refs) == len(inputs["ops"])
        ops = harness.pass_ops(inputs, refs)
        assert len(set(ops)) == len(ops) == sum(inputs["per_pass"].values()), name
        assert all(harness.eligible(inputs["ops"][i], refs[i]) for i in ops), name
        assert len(ops) >= 36, name  # the percentiles rest on every op of a pass


def test_ineligible_ops_are_slow_or_failed_at_the_recording_commit():
    op = {"kind": "classify", "known": {"outcome": "empty"}}
    assert harness.eligible(op, {"band": "fast", "outcome": "empty", "answer": None})
    assert not harness.eligible(op, {"band": "fast", "outcome": "indeterminate",
                                     "answer": None})
    assert not harness.eligible({"kind": "classify"},
                                {"band": "slow", "outcome": "timeout", "answer": None})


def test_pass_order_is_a_pure_function_of_the_seed_over_a_fixed_set():
    inputs = harness.load_json(harness.INPUT_DIR / "classify-stream.json")
    refs = harness.load_json(harness.REFERENCE_DIR / "classify-stream.json")["ops"]
    ops = harness.pass_ops(inputs, refs)
    assert harness.pass_order(ops, 7, 0) == harness.pass_order(ops, 7, 0)
    assert harness.pass_order(ops, 7, 0) != harness.pass_order(ops, 8, 0)
    assert harness.pass_order(ops, 7, 0) != harness.pass_order(ops, 7, 1)
    assert sorted(harness.pass_order(ops, 7, 1)) == sorted(ops)
    groups = [inputs["ops"][i]["group"] for i in ops]
    assert {g: groups.count(g) for g in set(groups)} == inputs["per_pass"]


def test_op_latency_is_the_median_over_passes_of_probe_corrected_times():
    tally = run.Tally()
    for pass_no, index, latency, probe in ((0, 1, 0.3, 1.0), (1, 1, 0.8, 2.0),
                                           (2, 1, 0.5, 1.0), (0, 2, 0.2, 1.0),
                                           (1, 2, 0.1, 1.0)):
        tally.add(pass_no, index, latency, {"outcome": "ok", "probe_s": probe}, None)
    tally.add(2, 2, 0.9, None, "timeout")  # no probe: the wall time stands
    # op 1: 0.3, 0.8 at a host twice as slow -> 0.4, 0.5; op 2: 0.2, 0.1, 0.9
    assert tally.op_latency() == pytest.approx({1: 0.4, 2: 0.2})
    assert tally.throughput() == pytest.approx(2 / 0.6)
    assert tally.slowdown() == pytest.approx(1.0)


def test_op_runner_answers_match_references_without_a_worker():
    lib = import_reinhardt()
    inputs = harness.load_json(harness.INPUT_DIR / "integrate.json")
    refs = harness.load_json(harness.REFERENCE_DIR / "integrate.json")["ops"]
    runner = OpRunner(lib, inputs)
    _, outcome, answer = runner.run(0)
    assert (outcome, answer) == (refs[0]["outcome"], refs[0]["answer"])
