"""Command-line front end: classify, norm, sup, witness, spectrum, volume.

Scriptable and deterministic: JSON mode emits exactly one JSON document with
sorted keys; every randomized path requires an explicit --seed; exact values
are printed symbolically together with a directed decimal interval, never as
a bare float.

Exit codes: 0 success, 1 spec or flag errors, 2 empty domain,
3 boundary-indeterminate at the precision cap.  Errors go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import classify_all
from .domain import DomainSpec, parse_spec, radial
from .errors import (BoundaryIndeterminate, EmptyDomainError, MonteCarloError,
                     ReinhardtError, SpecError)
from .scalars import parse_rational_literal

CRITERION_TEXT = {
    "lineality-rational-type": "the lineality space of the log-domain has an integer basis",
    "lineality-irrational": "the lineality space has no full integer lattice",
    "lineality-zero": "the lineality space of the log-domain is {0}",
    "lineality-positive-dim": "the log-domain contains a full line",
    "lineality-zero-proper-subset": "trivial lineality on a proper subset of C^n",
    "not-proper-subset": "the domain is all of C^n",
    "whole-space": "the domain is all of C^n",
    "axis-approach-witness": "a forbidden axis stratum is reachable along a recession ray",
    "axis-approach-blocked": "no forbidden axis stratum is reachable",
    "requires-hinf-domain": "classification applies only under the bounded-functions verdict",
    "product-split": "the domain is a constrained factor times a full free factor",
    "free-coords-vs-lineality": "lineality exceeds the constraint-free coordinates",
}


def _parse_int_vector(text: str, n: int | None, what: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise SpecError(f"{what} must be comma-separated integers: {text!r}") from exc
    if n is not None and len(parts) != n:
        raise SpecError(f"{what} needs {n} entries, got {len(parts)}")
    return parts


def _parse_rows(text: str | None, spec: DomainSpec):
    if text is None:
        return None
    rows = [r - 1 for r in _parse_int_vector(text, None, "--rows")]
    if any(not 0 <= r < len(spec.constraints) for r in rows):
        raise SpecError(f"--rows indices must be in 1..{len(spec.constraints)}")
    return rows


def _norm_json(result) -> dict:
    if result.kind == "exact":
        lo, hi = result.interval()
        return {"kind": "exact", "symbolic": result.symbolic(), "interval": [lo, hi]}
    if result.kind == "estimate":
        return {"kind": "estimate", "value": result.estimate, "stderr": result.stderr,
                "samples": result.samples, "seed": result.seed}
    return {"kind": result.kind,
            "ray": [str(x) for x in result.ray] if result.ray else None}


def _norm_text(result) -> str:
    if result.kind == "exact":
        lo, hi = result.interval()
        return f"{result.symbolic()}  in [{lo}, {hi}]"
    if result.kind == "estimate":
        return (f"{result.estimate:.6g} +/- {result.stderr:.2g} "
                f"({result.samples} samples, seed {result.seed})")
    return result.kind


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _cmd_classify(args, spec: DomainSpec) -> int:
    report = classify_all(spec)
    doc = report.to_json_dict()
    lines = [f"domain: n={spec.n}, {len(spec.constraints)} constraints"]
    flags = doc["flags"]
    lines.append(f"flags: fat={flags['fat']}, bounded={flags['bounded']}, "
                 f"finite_volume={flags['finite_volume']}, proper_subset={flags['proper_subset']}")
    for name in ("hinf", "l2", "lp_ak", "ainf", "hinf_k"):
        v = report.verdicts[name]
        line = f"{name:8s} {v.value:15s} {v.criterion}"
        why = CRITERION_TEXT.get(v.criterion)
        if why:
            line += f" ({why})"
        if v.criterion == "axis-approach-witness":
            line += f"; failing epsilon = {v.evidence['failing_epsilon']}"
        if v.criterion == "product-split":
            line += f"; m = {v.evidence['m']}"
        lines.append(line)
    _emit(args, {"command": "classify", "report": doc}, lines)
    return 0


def _cmd_sup(args, spec: DomainSpec) -> int:
    from .norms import sup_norm_monomial  # each command imports what it runs
    nu = _parse_int_vector(args.nu, spec.n, "--nu")
    result = sup_norm_monomial(spec, nu)
    doc = {"command": "sup", "nu": list(nu), "result": _norm_json(result)}
    _emit(args, doc, [f"sup |z^{list(nu)}| = {_norm_text(result)}"])
    return 0


def _run_norm(args, spec: DomainSpec, nu: tuple[int, ...]) -> int:
    from .norms import SimplicialFrame, lp_norm_exact_simplicial
    p = parse_rational_literal(args.p)
    if args.mc:
        if args.seed is None:
            raise SpecError("--mc requires an explicit --seed")
        from .montecarlo import lp_norm_monte_carlo  # numpy loads only for --mc
        result = lp_norm_monte_carlo(spec, nu, p, args.samples, args.seed)
    else:
        result = lp_norm_exact_simplicial(SimplicialFrame.from_spec(spec), nu, p)
    doc = {"command": "norm", "nu": list(nu), "p": str(p), "result": _norm_json(result)}
    _emit(args, doc, [f"integral of |z^{list(nu)}|^{p}: {_norm_text(result)}"])
    return 0


def _cmd_norm(args, spec: DomainSpec) -> int:
    return _run_norm(args, spec, _parse_int_vector(args.nu, spec.n, "--nu"))


def _cmd_volume(args, spec: DomainSpec) -> int:
    args.p = "1"
    return _run_norm(args, spec, (0,) * spec.n)


def _cmd_witness(args, spec: DomainSpec) -> int:
    from .norms import SimplicialFrame
    from .witness import WitnessSpec, build_witness, verify_witness_membership
    frame = SimplicialFrame.from_spec(spec, _parse_rows(args.rows, spec))
    exterior = radial(*[parse_rational_literal(x) for x in args.exterior.split(",")])
    wspec = WitnessSpec(frame=frame, k=args.k, exterior=exterior, j0=args.j0 - 1)
    w = build_witness(wspec)
    lo, hi = w.n0.interval_str()
    doc: dict = {"command": "witness", "N": w.N, "N0_interval": [lo, hi],
                 "alpha": list(w.alpha_sum), "j0": w.j0 + 1, "d": str(w.d),
                 "k": w.k, "singular_set": w.singular_location()}
    lines = [f"witness f_N with N = {w.N}, N0 in [{lo}, {hi}]",
             f"alpha = {list(w.alpha_sum)}, j0 = {w.j0 + 1}, d = {w.d}",
             f"singular along {w.singular_location()}"]
    if args.verify:
        p_list = [parse_rational_literal(x) for x in args.p_list.split(",")]
        cert = verify_witness_membership(w, k=args.k, p_list=p_list)
        doc["certificate"] = cert.to_json_dict()
        lines.append(f"certificate: {'all checks ok' if cert.ok else 'INVALID'}")
        for c in cert.checks:
            norm_txt = c.norm.symbolic() if c.norm.kind == "exact" else c.norm.kind
            lines.append(f"  sigma={list(c.sigma)} p={c.p}: norm {norm_txt} "
                         f"{'ok' if c.ok else 'FAILED'}")
    _emit(args, doc, lines)
    return 0


def _cmd_spectrum(args, spec: DomainSpec) -> int:
    from . import spaces as sp
    from .spectrum import spectrum_box
    spaces = {"hinf": sp.HINF, "l2": sp.L2, "lp": sp.LP, "hinfk": sp.HINF_K, "ak": sp.AK,
              "ldiamond": sp.LDIAMOND_AK}
    if args.space not in spaces:
        raise SpecError(f"--space must be one of {sorted(spaces)}")
    p = None if args.p is None else parse_rational_literal(args.p)
    try:
        space = sp.FunctionSpace(spaces[args.space], p=p, k=args.k)
    except ValueError as exc:  # name the flags that set the parameters p and k
        given = " ".join(f"--{flag} {value}" for flag, value in (("p", args.p), ("k", args.k))
                         if value is not None)
        raise SpecError(f"--space {args.space} with {given or 'no --p or --k'}: {exc}") from exc
    members = spectrum_box(spec, space, args.box)
    doc = {"command": "spectrum", "space": str(space), "box": args.box,
           "members": [list(nu) for nu in members]}
    _emit(args, doc, [f"{len(members)} members of {space} in [-{args.box},{args.box}]^n:"]
          + [f"  {list(nu)}" for nu in members])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reinhardt",
        description="Exact classification of n-circled domains given by "
                    "radial monomial constraints")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="path to a JSON spec document")
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        p.add_argument("--echo-spec", action="store_true",
                       help="echo the spec file back verbatim and exit")

    p = sub.add_parser("classify", help="per-space verdicts with evidence")
    common(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("sup", help="sup of |z^nu| over the domain")
    common(p)
    p.add_argument("--nu", required=True, help="integer exponents, e.g. 2,-1")
    p.set_defaults(fn=_cmd_sup)

    for name, fn in (("norm", _cmd_norm), ("volume", _cmd_volume)):
        p = sub.add_parser(name, help=f"{name}: exact simplicial formula or Monte Carlo")
        common(p)
        if name == "norm":
            p.add_argument("--nu", required=True)
            p.add_argument("--p", default="1", help="rational p >= 1")
        method = p.add_mutually_exclusive_group()
        method.add_argument("--exact", action="store_true",
                            help="exact simplicial value (default)")
        method.add_argument("--mc", action="store_true", help="Monte-Carlo estimate")
        p.add_argument("--samples", type=int, default=10 ** 6)
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("witness", help="build (and verify) the singular witness")
    common(p)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--exterior", required=True, help="radii of the exterior point, e.g. 3,3/2")
    p.add_argument("--j0", type=int, required=True, help="1-based violated constraint index")
    p.add_argument("--rows", default=None)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--p-list", default="1,2", dest="p_list")
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("spectrum", help="monomial members of a function space")
    common(p)
    p.add_argument("--space", required=True, help="hinf | l2 | lp | hinfk | ak | ldiamond")
    p.add_argument("--box", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--p", default=None)
    p.set_defaults(fn=_cmd_spectrum)
    return parser


def _attached_exponents(argv: list[str]) -> list[str]:
    """``--nu -1,3`` as ``--nu=-1,3``: argparse reads a separate value that
    starts with '-' as an option unless it is one negative number."""
    out, args = [], iter(argv)
    for arg in args:
        value = next(args, None) if arg == "--nu" else None
        if value is None:
            out.append(arg)
        elif value.startswith("-") and value[1:2].isdigit():
            out.append(f"{arg}={value}")
        else:
            out += [arg, value]
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_attached_exponents(argv))
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        return 1  # argparse has printed the usage error to stderr
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            text = fh.read()
        spec = parse_spec(text)
        if args.echo_spec:
            sys.stdout.write(text)
            return 0
        return args.fn(args, spec)
    except EmptyDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoundaryIndeterminate as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SpecError, MonteCarloError, ReinhardtError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
