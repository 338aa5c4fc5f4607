"""Benchmark worker: runs one workload's ops against the checkout's ``src/``.

The parent (``run.py`` or ``generate.py``) starts this file as a fresh
interpreter, so interpreter start, ``import reinhardt`` and input loading are
all part of the set-up it times.  The worker exists so that a timed-out op can
be killed even inside one long big-integer call, and then replaced.

Protocol, one JSON document per line:

* worker -> parent: ``{"ready": true, "probe_s": ...}`` once the inputs are
  loaded (with ``"wrapped"``, the traced function names, under ``--trace``);
* parent -> worker: ``{"op": <index into the workload's ops>}``;
* worker -> parent: ``{"op": i, "latency_s": ..., "probe_s": ..., "outcome": ...,
  "answer": ..., "rss_mb": ...}``, plus ``"trace"`` when started with ``--trace``;
  ``probe_s`` is the mean of ``host_speed_probe`` before and after the op.

End of input makes the worker exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

from harness import INPUT_DIR, ROOT, load_json


def import_reinhardt():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "reinhardt" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no reinhardt package under {src}")
    sys.path.insert(0, str(src))
    import reinhardt
    if Path(reinhardt.__file__).resolve().parent != (src / "reinhardt").resolve():
        raise SystemExit(f"benchmark: imported reinhardt from {reinhardt.__file__}, not {src}")
    return reinhardt


def host_speed_probe(tries: int = 3) -> float:
    """Best of ``tries`` timings of a fixed loop of about 0.5 ms of Fraction
    arithmetic, run at the end of set-up and right before and after each op.

    On a shared 2-vCPU virtual machine a core slows down by up to 2x for
    stretches of a fraction of a second to minutes; the probe reads how fast
    the core is just then, so the parent can scale op times to the run's
    fastest probe.
    """
    best = float("inf")
    for _ in range(tries):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 300):
            acc += Fraction(i % 89 + 1, i % 97 + 1)
        best = min(best, time.perf_counter() - t0)
    return best


def _space(op: dict):
    from reinhardt import spaces as sp
    kind = op["space"]
    if kind == "lp":
        return sp.lp(Fraction(op["p"]))
    if kind in ("hinfk", "ak", "ldiamond"):
        return {"hinfk": sp.hinf_k, "ak": sp.ak, "ldiamond": sp.ldiamond_ak}[kind](op["k"])
    return {"hinf": sp.hinf, "l2": sp.l2}[kind]()


class OpRunner:
    """Executes ops; ``run`` returns (latency_s, outcome, answer).

    Only the library calls are timed; turning results into JSON answers
    happens outside the timed region.
    """

    def __init__(self, lib, inputs: dict):
        self.lib = lib
        self.ops = inputs["ops"]
        # domain-session and integrate query a few fixed domains: parse them once
        self.domains = {name: lib.parse_spec(text)
                        for name, text in inputs.get("domains", {}).items()}

    def run(self, index: int):
        op = self.ops[index]
        lib = self.lib
        t0 = time.perf_counter()
        try:
            result = getattr(self, "_op_" + op["kind"])(op)
        except lib.EmptyDomainError:
            return time.perf_counter() - t0, "empty", None
        except lib.BoundaryIndeterminate:
            return time.perf_counter() - t0, "indeterminate", None
        except (lib.SpecError, lib.MonteCarloError) as exc:
            return time.perf_counter() - t0, "typed-error", type(exc).__name__
        except Exception as exc:  # noqa: BLE001 - an untyped error is a failed op
            return time.perf_counter() - t0, "error", f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        return latency, "ok", self._answer(op, result)

    # -- ops: each returns the raw library result ----------------------------

    def _op_classify(self, op):
        spec = self.lib.parse_spec(op["spec"])
        return self.lib.classify_all(spec)

    def _op_spectrum(self, op):
        return self.lib.spectrum_box(self.domains[op["domain"]], _space(op), op["box"])

    def _op_sup(self, op):
        nu = self.lib.exponents(*op["nu"])
        return self.lib.sup_norm_monomial(self.domains[op["domain"]], nu)

    def _op_norm(self, op):
        frame = self.lib.SimplicialFrame.from_spec(self.domains[op["domain"]], op.get("rows"))
        return self.lib.lp_norm_exact_simplicial(frame, self.lib.exponents(*op["nu"]),
                                                 Fraction(op["p"]))

    def _op_witness(self, op):
        lib = self.lib
        frame = lib.SimplicialFrame.from_spec(self.domains[op["domain"]], op.get("rows"))
        exterior = lib.radial(*[Fraction(x) for x in op["exterior"]])
        w = lib.build_witness(lib.WitnessSpec(frame=frame, k=op["k"], exterior=exterior,
                                              j0=op["j0"]))
        return lib.verify_witness_membership(w, k=op["k"],
                                             p_list=[Fraction(p) for p in op["p_list"]])

    def _op_mc(self, op):
        return self.lib.lp_norm_monte_carlo(self.domains[op["domain"]],
                                            self.lib.exponents(*op["nu"]),
                                            Fraction(op["p"]), op["samples"], op["seed"])

    def _op_coefficient(self, op):
        poly = {tuple(nu): complex(*coeff) for nu, coeff in op["poly"]}
        return self.lib.coefficient_inequality_check(self.domains[op["domain"]], poly,
                                                     Fraction(op["p"]), op["samples"],
                                                     op["seed"])

    # -- answers: JSON values compared against the stored references ---------

    def _answer(self, op, result):
        kind = op["kind"]
        if kind == "classify":
            return result.to_json_dict()
        if kind == "spectrum":
            return [list(nu) for nu in result]
        if kind in ("sup", "norm"):
            if result.kind == "exact":
                return {"kind": "exact", "value": result.symbolic()}
            return {"kind": result.kind, "ray": [str(x) for x in result.ray]}
        if kind == "witness":
            return {"N": result.witness.N, "ok": result.ok}
        if kind == "mc":
            return {"estimate": repr(result.estimate), "stderr": repr(result.stderr)}
        if kind == "coefficient":
            return {"passed": result.passed, "total": repr(result.total),
                    "terms": [repr(t.value) for t in result.terms]}
        raise ValueError(f"unknown op kind {kind}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    lib = import_reinhardt()
    runner = OpRunner(lib, load_json(INPUT_DIR / f"{args.workload}.json"))
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(lib)
        tracer.install()
    out = sys.stdout
    ready = {"ready": True, "probe_s": host_speed_probe()}
    if tracer is not None:
        ready["wrapped"] = sorted(tracer.wrapped)
    out.write(json.dumps(ready) + "\n")
    out.flush()
    for line in sys.stdin:
        index = json.loads(line)["op"]
        if tracer is not None:
            tracer.begin_op()
        before = host_speed_probe()
        latency, outcome, answer = runner.run(index)
        probe = (before + host_speed_probe()) / 2
        msg = {"op": index, "latency_s": latency, "probe_s": probe, "outcome": outcome,
               "answer": answer,
               "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if tracer is not None:
            msg["trace"] = tracer.end_op()
        out.write(json.dumps(msg) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    if hasattr(os, "sched_setaffinity"):
        # one core for the ops; the parent mostly waits, on whichever core is left
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.exit(main())
