"""Seeded generator of the benchmark's inputs, plus their reference answers.

    python3 benchmark/generate.py                          # rewrite inputs/*.json
    python3 benchmark/generate.py --references [WORKLOAD]  # also rerecord references/

Inputs are a pure function of ``GENERATOR_SEED``: ``build_inputs`` makes the
same documents every time, and the self-tests check that the stored files
still match it.  Runs read only the stored files, never this generator.

References are what the library answers at the commit that recorded them,
each op run under a long timeout.  The run time measured there sorts ops into
bands (see ``harness.FAST_SHARE``); runs use only fast ops that did not fail
at that commit (see ``harness.eligible``).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import harness

GENERATOR_SEED = 20261017
SPEC_DIR = harness.ROOT / "specs"
SLOW_ANSWER_CAP_S = 60.0  # time per timed-out op spent learning its answer
WORKLOADS = ("classify-stream", "domain-session", "integrate")

# classify-stream: specs per group, and specs per group in one pass (see
# ``harness.pass_ops``).  A pass is 36 specs, about 3 s at the recording commit,
# so that a run of 30 s holds several passes.
CLASSIFY_POOL = {"int-small": 240, "int-n5": 70, "int-n5-m12": 70, "quad": 180,
                 "chain": 90, "gallery": 120, "zero-form": 40}
CLASSIFY_PASS = {"int-small": 12, "quad": 10, "gallery": 4, "zero-form": 2, "chain": 3,
                 "int-n5": 3, "int-n5-m12": 2}
QUAD_FIELDS = (2, 3, 5)

# domain-session: the 2-D gallery plus two chains, queried over and over
SESSION_2D = ("hartogs", "hartogs_half", "polydisc", "disc_times_plane",
              "multiplicative_strip", "irrational_slope")
SESSION_SPACES = (("hinf", {}), ("hinfk", {"k": 1}), ("ak", {"k": 1}), ("l2", {}),
                  ("lp", {"p": "3/2"}), ("ldiamond", {"k": 1}))
SESSION_FRAMES = ("hartogs", "hartogs_half", "polydisc", "chain3", "chain4")
SESSION_WITNESS = ("hartogs", "polydisc", "chain3", "chain4")
SESSION_PASS = {"spectrum": 16, "sup": 58, "norm": 32, "witness": 8}  # about 1.5 s

# integrate: bounded domains with n = 1..4.  A constant integrand on a domain
# that fills its bounding box has zero variance, where a stderr check says
# nothing; every query on unit_disc and polydisc therefore has nu != 0.
INTEGRATE_2D = ("unit_disc", "annulus", "hartogs", "hartogs_half", "polydisc")
MC_SAMPLES = 1_000_000
MC_SEEDS_PER_QUERY = 4
MC_SEEDS_PER_PASS = 2  # a pass is 38 queries, about 4.5 s
MC_QUERIES = {
    "unit_disc": [((1,), "1"), ((2,), "2")],
    "annulus": [((0,), "1"), ((1,), "2"), ((-1,), "1")],
    "hartogs": [((0, 0), "1"), ((1, 0), "1"), ((0, 2), "2")],
    "hartogs_half": [((0, 0), "1"), ((2, 1), "1")],
    "polydisc": [((1, 0), "1"), ((1, 1), "2")],
    "chain3": [((0, 0, 0), "1"), ((1, 0, 0), "2")],
    "chain4": [((0, 0, 0, 0), "1"), ((0, 1, 0, 0), "1")],
}
COEFFICIENT_SAMPLES = 1 << 17
COEFFICIENT_QUERIES = {  # Laurent polynomials as [nu, [re, im]] terms
    "hartogs": [[[1, 0], [1, 0]], [[0, 1], [0, 2]], [[2, 1], [-1, 0]]],
    "polydisc": [[[0, 0], [1, 0]], [[1, 1], [1, 1]]],
    "chain3": [[[1, 0, 0], [2, 0]], [[0, 0, 1], [0, -1]]],
}


def _rat(rng: random.Random, lo: int = 1, hi: int = 9) -> str:
    return str(Fraction(rng.randint(lo, hi), rng.randint(lo, hi)))


def _doc(n: int, constraints: list, quadratic_d=None) -> str:
    doc: dict = {"n": n}
    if quadratic_d is not None:
        doc["quadratic_d"] = quadratic_d
    doc["constraints"] = constraints
    return json.dumps(doc, separators=(",", ":"))


def _int_alpha(rng: random.Random, n: int, span: int = 3) -> list:
    while True:
        alpha = [rng.randint(-span, span) for _ in range(n)]
        if any(alpha):
            return [str(a) for a in alpha]


def _quad_entry(rng: random.Random):
    a, b = rng.randint(-2, 2), rng.choice((-1, 0, 0, 1, 2))
    return str(a) if b == 0 else {"a": str(a), "b": str(b)}


def _quad_alpha(rng: random.Random, n: int) -> list:
    while True:
        alpha = [_quad_entry(rng) for _ in range(n)]
        if any(isinstance(x, dict) for x in alpha):  # at least one irrational entry
            return alpha


def random_int_spec(rng: random.Random, n: int, m: int) -> str:
    return _doc(n, [{"alpha": _int_alpha(rng, n), "c": _rat(rng)} for _ in range(m)])


def random_quad_spec(rng: random.Random, n: int, m: int, d: int) -> str:
    cons = [{"alpha": _quad_alpha(rng, n) if rng.random() < 0.6 else _int_alpha(rng, n, 2),
             "c": _rat(rng)} for _ in range(m)]
    return _doc(n, cons, d)


def chain_spec(rng: random.Random, n: int) -> str:
    """|z_p1| < c1 |z_p2| < ... < c_{n-1} |z_pn|, |z_pn| < c_n for a permutation p."""
    perm = list(range(n))
    rng.shuffle(perm)
    cons = []
    for i in range(n):
        alpha = ["0"] * n
        alpha[perm[i]] = "1"
        if i + 1 < n:
            alpha[perm[i + 1]] = "-1"
        cons.append({"alpha": alpha, "c": _rat(rng, 1, 4)})
    return _doc(n, cons)


def gallery_variant(rng: random.Random, text: str) -> str:
    """A gallery spec with coordinates permuted and thresholds rescaled."""
    doc = json.loads(text)
    n = doc["n"]
    perm = list(range(n))
    rng.shuffle(perm)
    cons = []
    for con in doc["constraints"]:
        c = Fraction(con["c"]) * Fraction(rng.randint(1, 5), rng.randint(1, 5))
        cons.append({"alpha": [con["alpha"][perm[j]] for j in range(n)], "c": str(c)})
    return _doc(n, cons, doc.get("quadratic_d"))


def _negate(entry):
    if isinstance(entry, dict):
        return {"a": str(-Fraction(entry["a"])), "b": str(-Fraction(entry["b"]))}
    return str(-Fraction(entry))


def _exact(entry):
    if isinstance(entry, dict):
        return Fraction(entry["a"]), Fraction(entry["b"])
    return Fraction(entry), Fraction(0)


def empty_by_construction(text: str) -> bool:
    """Two opposite rows |z^alpha| < c1 and |z^-alpha| < c2 with c1 * c2 <= 1.

    They ask for c1 > |z^alpha| > 1/c2 >= c1, so the domain is empty whatever
    the other rows say.
    """
    rows = [(tuple(map(_exact, con["alpha"])), Fraction(con["c"]))
            for con in json.loads(text)["constraints"]]
    for alpha, c1 in rows:
        opposite = tuple((-a, -b) for a, b in alpha)
        if any(beta == opposite and c1 * c2 <= 1 for beta, c2 in rows):
            return True
    return False


def zero_form_spec(rng: random.Random) -> str:
    """Empty by construction: |z^alpha| < c and |z^-alpha| < 1/c, plus noise rows.

    The log-form that decides emptiness, (log c) + (log 1/c), is exactly zero
    but its coefficients are irrational, so a solver that keeps log c and
    log 1/c as unrelated terms cannot decide it exactly.
    """
    n = rng.randint(2, 3)
    d = rng.choice(QUAD_FIELDS)
    alpha = _quad_alpha(rng, n)
    c = Fraction(rng.randint(2, 9), rng.randint(1, 3))
    cons = [{"alpha": alpha, "c": str(c)}, {"alpha": [_negate(x) for x in alpha],
                                            "c": str(1 / c)}]
    for _ in range(rng.randint(0, 2)):
        cons.append({"alpha": _int_alpha(rng, n, 2), "c": _rat(rng)})
    rng.shuffle(cons)
    return _doc(n, cons, d)


def gallery_texts() -> dict:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SPEC_DIR.glob("*.json"))}


def classify_ops(rng: random.Random) -> list:
    gallery = gallery_texts()
    names = sorted(gallery)
    makers = {
        "int-small": lambda: random_int_spec(rng, rng.randint(3, 4), rng.randint(2, 8)),
        "int-n5": lambda: random_int_spec(rng, 5, rng.randint(4, 11)),
        "int-n5-m12": lambda: random_int_spec(rng, 5, 12),
        "quad": lambda: random_quad_spec(rng, rng.randint(2, 4), rng.randint(2, 6),
                                         rng.choice(QUAD_FIELDS)),
        "chain": lambda: chain_spec(rng, rng.randint(2, 10)),
        "gallery": lambda: gallery_variant(rng, gallery[rng.choice(names)]),
        "zero-form": lambda: zero_form_spec(rng),
    }
    ops = []
    for group, count in CLASSIFY_POOL.items():
        for _ in range(count):
            op = {"kind": "classify", "group": group, "spec": makers[group]()}
            if empty_by_construction(op["spec"]):
                op["known"] = {"outcome": "empty"}
            ops.append(op)
    return ops


def standard_chain(n: int) -> str:
    """|z1| < |z2| < ... < |zn| < 1."""
    cons = []
    for i in range(n):
        alpha = ["0"] * n
        alpha[i] = "1"
        if i + 1 < n:
            alpha[i + 1] = "-1"
        cons.append({"alpha": alpha, "c": "1"})
    return _doc(n, cons)


def _grid(n: int, lo: int, hi: int) -> list:
    return [list(nu) for nu in product(range(lo, hi + 1), repeat=n)]


def _violating_rows(text: str, exterior: list) -> list:
    """Indices j0 of constraints |z^alpha| < 1 that the exterior point breaks."""
    rows = []
    for j0, con in enumerate(json.loads(text)["constraints"]):
        d = Fraction(1)
        for a, b in zip(con["alpha"], exterior):
            d *= Fraction(b) ** int(a)
        if d > 1:
            rows.append(j0)
    return rows


def session_inputs() -> dict:
    gallery = gallery_texts()
    domains = {name: gallery[name] for name in SESSION_2D}
    domains["chain3"] = standard_chain(3)
    domains["chain4"] = standard_chain(4)
    ops = []
    for name, text in domains.items():
        n = json.loads(text)["n"]
        for space, params in SESSION_SPACES:
            box = 0 if (n, space) == (4, "ldiamond") else (2 if n == 2 else 1)
            ops.append({"kind": "spectrum", "group": "spectrum", "domain": name,
                        "space": space, "box": box, **params})
        for nu in _grid(n, -2, 2) if n == 2 else _grid(n, -1, 1):
            ops.append({"kind": "sup", "group": "sup", "domain": name, "nu": nu})
    for name in SESSION_FRAMES:
        n = json.loads(domains[name])["n"]
        for nu in _grid(n, -1, 2) if n == 2 else _grid(n, 0, 1):
            for p in ("1", "2"):
                ops.append({"kind": "norm", "group": "norm", "domain": name, "nu": nu,
                            "p": p})
    for name in SESSION_WITNESS:
        n = json.loads(domains[name])["n"]
        exterior = [str(2 ** (n - j)) for j in range(n)]
        for j0 in _violating_rows(domains[name], exterior):
            for k in (0, 1, 2):
                ops.append({"kind": "witness", "group": "witness", "domain": name, "k": k,
                            "exterior": exterior, "j0": j0, "p_list": ["1", "2"]})
    return {"generator_seed": GENERATOR_SEED, "timeout_s": 6.0, "domains": domains,
            "per_pass": SESSION_PASS, "ops": ops}


def integrate_inputs(rng: random.Random) -> dict:
    gallery = gallery_texts()
    domains = {name: gallery[name] for name in INTEGRATE_2D}
    domains["chain3"] = standard_chain(3)
    domains["chain4"] = standard_chain(4)
    ops = []
    for name, queries in MC_QUERIES.items():
        for nu, p in queries:
            group = f"mc-{name}-{'_'.join(map(str, nu))}-p{p}"
            for _ in range(MC_SEEDS_PER_QUERY):
                ops.append({"kind": "mc", "group": group, "domain": name, "nu": list(nu),
                            "p": p, "samples": MC_SAMPLES, "seed": rng.getrandbits(32)})
    for name, poly in COEFFICIENT_QUERIES.items():
        for _ in range(MC_SEEDS_PER_QUERY):
            ops.append({"kind": "coefficient", "group": f"coefficient-{name}",
                        "domain": name, "poly": poly, "p": "2",
                        "samples": COEFFICIENT_SAMPLES, "seed": rng.getrandbits(32)})
    per_pass = {op["group"]: MC_SEEDS_PER_PASS for op in ops}  # every query
    return {"generator_seed": GENERATOR_SEED, "timeout_s": 2.0, "domains": domains,
            "per_pass": per_pass, "ops": ops}


def build_inputs() -> dict:
    """Every workload's input document, as a pure function of GENERATOR_SEED."""
    classify = {"generator_seed": GENERATOR_SEED, "timeout_s": 2.0,
                "per_pass": CLASSIFY_PASS, "ops": classify_ops(_rng("classify-stream"))}
    return {"classify-stream": classify, "domain-session": session_inputs(),
            "integrate": integrate_inputs(_rng("integrate"))}


def _rng(workload: str) -> random.Random:
    """Each workload draws from its own stream, so editing one leaves the others."""
    return random.Random(f"{GENERATOR_SEED}/{workload}")


def record_references(workload: str, inputs: dict) -> list:
    """Run every op once at this commit and record its answer, time and band."""
    timeout = inputs["timeout_s"]
    fast_max, slow_min = timeout * harness.FAST_SHARE, timeout * harness.SLOW_FACTOR
    session = harness.Session(workload, timeout=slow_min)
    refs = []
    try:
        for i, op in enumerate(inputs["ops"]):
            latency, msg = session.run(i)
            ref = {"seed_s": round(latency, 4)}
            if msg is None:
                ref.update(outcome="timeout", answer=None, band="slow")
            else:
                band = "fast" if latency < fast_max else ("slow" if latency > slow_min
                                                          else "gap")
                ref.update(outcome=msg["outcome"], answer=msg["answer"], band=band)
            refs.append(ref)
            print(f"{workload} {i + 1}/{len(inputs['ops'])} {op['group']} "
                  f"{ref['outcome']} {latency:.3f}s {ref['band']}", file=sys.stderr)
    finally:
        session.close()
    long = harness.Session(workload, timeout=SLOW_ANSWER_CAP_S)
    try:  # try to learn the answers of ops that timed out
        for i, ref in enumerate(refs):
            if ref["outcome"] == "timeout":
                latency, msg = long.run(i)
                if msg is not None:
                    ref.update(outcome=msg["outcome"], answer=msg["answer"],
                               seed_s=round(latency, 4))
    finally:
        long.close()
    if workload == "integrate":
        _add_exact_values(inputs, refs)
    return refs


def _add_exact_values(inputs: dict, refs: list) -> None:
    """Exact simplicial integral next to each MC reference, where one exists."""
    from worker import import_reinhardt
    lib = import_reinhardt()
    for op, ref in zip(inputs["ops"], refs):
        spec = lib.parse_spec(inputs["domains"][op["domain"]])
        if op["kind"] != "mc" or len(spec.constraints) != spec.n:
            continue
        exact = lib.lp_norm_exact_simplicial(lib.SimplicialFrame.from_spec(spec),
                                             lib.exponents(*op["nu"]), Fraction(op["p"]))
        ref["exact"] = float(exact)


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--references", nargs="*", metavar="WORKLOAD",
                        help="also record references/ for these workloads (all if none given)")
    args = parser.parse_args(argv)
    docs = build_inputs()
    for name, doc in docs.items():
        write_json(harness.INPUT_DIR / f"{name}.json", doc)
    if args.references is not None:
        for name in args.references or WORKLOADS:
            refs = record_references(name, docs[name])
            write_json(harness.REFERENCE_DIR / f"{name}.json", {"ops": refs})
    return 0


if __name__ == "__main__":
    sys.exit(main())
