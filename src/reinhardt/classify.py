"""Domain-of-holomorphy verdicts with machine-checkable evidence.

Each classifier reduces its question to exact geometry of the log-polyhedron:

* ``hinf``    — yes iff the lineality space is spanned by its integer points;
* ``l2``      — yes iff the lineality space is {0} (not-applicable for C^n);
* ``lp_ak``   — yes (for every k at once) iff the lineality space is {0} and
                the domain is a proper subset of C^n;
* ``ainf``    — needs ``hinf`` yes; fails exactly when some axis stratum
                carrying a negative constraint exponent is reachable along a
                recession ray, and the witnessing coordinate set is reported;
* ``hinf_k``  — yes (for every k >= 1 at once) iff the domain splits as a
                constrained factor times a full free factor.

Every "no" ships a concrete witness (irrational lineality basis, lineality
vector, or reachable coordinate set plus ray, the sup ray of t on the
approach cone, one of the two LP queries of :mod:`reinhardt.cones`); every
"yes" names the rule that fired.  ``classify_all`` additionally asserts the
implication lattice between the verdicts before returning the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cones import approach_certificate
from .domain import DomainSpec, has_finite_volume, is_bounded
from .errors import ReinhardtError
from .scalars import scalar_to_json, sign_of

YES = "yes"
NO = "no"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class Verdict:
    value: str
    criterion: str
    evidence: dict = field(default_factory=dict)

    @property
    def is_yes(self) -> bool:
        return self.value == YES


@dataclass(frozen=True)
class ClassificationReport:
    spec: DomainSpec
    verdicts: dict
    flags: dict

    def to_json_dict(self) -> dict:
        return {
            "flags": dict(self.flags),
            "spaces": {name: {
                "verdict": v.value,
                "criterion": v.criterion,
                "evidence": v.evidence,
            } for name, v in sorted(self.verdicts.items())},
        }


def _vector_json(vec) -> list:
    return [scalar_to_json(x) for x in vec]


def classify_hinf(spec: DomainSpec) -> Verdict:
    """Bounded holomorphic functions see every boundary point iff the
    lineality space of the log-domain has an integer basis."""
    poly = spec.log_polyhedron
    lin, lattice = poly.lineality, poly.integer_lattice
    if len(lattice) == len(lin):
        return Verdict(YES, "lineality-rational-type", {
            "lineality_dim": len(lin),
            "integer_lattice_basis": [list(v) for v in lattice]})
    return Verdict(NO, "lineality-irrational", {
        "lineality_dim": len(lin),
        "lineality_basis": [_vector_json(v) for v in lin],
        "integer_rank": len(lattice)})


def classify_l2(spec: DomainSpec) -> Verdict:
    """Square-integrable functions exist and pin the boundary iff the
    lineality space is trivial; the whole space C^n is out of scope."""
    if not spec.constraints:
        return Verdict(NOT_APPLICABLE, "whole-space",
                       {"note": "no constraints: the domain is all of C^n"})
    lin = spec.log_polyhedron.lineality
    return _lineality_positive_dim(lin) if lin else Verdict(YES, "lineality-zero", {})


def classify_lp_ak(spec: DomainSpec) -> Verdict:
    """k-independent verdict for finite-p integrable + closure-smooth spaces."""
    if not spec.constraints:
        return Verdict(NO, "not-proper-subset",
                       {"note": "the domain is all of C^n"})
    lin = spec.log_polyhedron.lineality
    if lin:
        return _lineality_positive_dim(lin)
    return Verdict(YES, "lineality-zero-proper-subset", {"uniform_in_k": True})


def _lineality_positive_dim(lin) -> Verdict:
    """The ``no`` of ``l2`` and ``lp_ak`` for a nonzero lineality space."""
    return Verdict(NO, "lineality-positive-dim", {
        "lineality_dim": len(lin),
        "lineality_vector": _vector_json(lin[0])})


def classify_ainf(spec: DomainSpec) -> Verdict:
    """All-order closure smoothness: every reachable axis stratum must be
    free of negative constraint exponents.

    For a coordinate set S with no negative exponent anywhere on S the
    contraction of those coordinates stays inside the domain, so S cannot
    obstruct; let N be the coordinates that carry a negative exponent.  A
    set S that meets N obstructs exactly when a recession ray reaches it,
    that is when S is a union of approach supports.  Such a union contains
    a support that meets N and is no larger, and that support obstructs
    too, so the first obstructing set in (size, lex) order is the least
    support that meets N.  The reported ray is the sup ray of t on the
    approach cone for it (:func:`approach_certificate`); a ``yes`` counts
    the 2^n - 2^(n - |N|) sets that meet N.
    """
    base = classify_hinf(spec)
    if not base.is_yes:
        return Verdict(NOT_APPLICABLE, "requires-hinf-domain",
                       {"hinf_criterion": base.criterion})
    poly = spec.log_polyhedron
    negative = spec.nonvanishing
    meeting = [s for s in poly.approach_supports if s & negative]
    if not meeting:
        return Verdict(YES, "axis-approach-blocked",
                       {"checked_sets": 2 ** spec.n - 2 ** (spec.n - len(negative))})
    coords = min(meeting, key=lambda s: (len(s), sorted(s)))
    ray = approach_certificate(poly, coords)
    if ray is None:
        raise ReinhardtError(f"approach LP disagrees with the ray supports on "
                             f"{sorted(coords)} (internal error)")
    return Verdict(NO, "axis-approach-witness", {
        "failing_epsilon": [1 if j in coords else 0 for j in range(spec.n)],
        "approach_ray": _vector_json(ray)})


def classify_hinf_k(spec: DomainSpec) -> Verdict:
    """k-independent (k >= 1): yes iff the domain is a constrained factor
    times a full C factor on the coordinates no constraint touches: it
    splits iff their number is the dimension of the lineality space."""
    lin = spec.log_polyhedron.lineality
    untouched = [j + 1 for j in range(spec.n)
                 if all(sign_of(con.alpha[j]) == 0 for con in spec.constraints)]
    if len(untouched) == len(lin):
        return Verdict(YES, "product-split", {
            "m": spec.n - len(untouched),
            "bounded_coords": [j for j in range(1, spec.n + 1) if j not in untouched],
            "free_coords": untouched})
    return Verdict(NO, "free-coords-vs-lineality", {
        "lineality_dim": len(lin),
        "untouched_coords": untouched,
        "lineality_vector": _vector_json(lin[0]) if lin else None})


def classify_all(spec: DomainSpec) -> ClassificationReport:
    """Run every classifier, attach flags, and check the verdict lattice."""
    verdicts = {
        "hinf": classify_hinf(spec),
        "l2": classify_l2(spec),
        "lp_ak": classify_lp_ak(spec),
        "ainf": classify_ainf(spec),
        "hinf_k": classify_hinf_k(spec),
    }
    flags = {
        "fat": "by-representation",
        "bounded": is_bounded(spec),
        "finite_volume": has_finite_volume(spec),
        "proper_subset": bool(spec.constraints),
    }
    _assert_lattice(spec, verdicts)
    return ClassificationReport(spec=spec, verdicts=verdicts, flags=flags)


def _assert_lattice(spec: DomainSpec, v: dict) -> None:
    if v["lp_ak"].is_yes and v["l2"].value == NO:
        raise AssertionError("verdict lattice violated: lp_ak yes must force l2 yes")
    if v["l2"].is_yes and not v["hinf"].is_yes:
        raise AssertionError("verdict lattice violated: l2 yes must force hinf yes")
    if v["ainf"].is_yes and not v["hinf"].is_yes:
        raise AssertionError("verdict lattice violated: ainf yes must force hinf yes")
    if v["lp_ak"].is_yes:
        if not v["hinf_k"].is_yes or v["hinf_k"].evidence.get("m") != spec.n:
            raise AssertionError("verdict lattice violated: lp_ak yes must split with m = n")


REPORT_SCHEMA = {
    "type": "object",
    "required": ["flags", "spaces"],
    "additionalProperties": False,
    "properties": {
        "flags": {
            "type": "object",
            "required": ["fat", "bounded", "finite_volume", "proper_subset"],
            "additionalProperties": False,
            "properties": {
                "fat": {"const": "by-representation"},
                "bounded": {"type": "boolean"},
                "finite_volume": {"type": "boolean"},
                "proper_subset": {"type": "boolean"},
            },
        },
        "spaces": {
            "type": "object",
            "required": ["hinf", "l2", "lp_ak", "ainf", "hinf_k"],
            "additionalProperties": False,
            "patternProperties": {
                "^(hinf|l2|lp_ak|ainf|hinf_k)$": {
                    "type": "object",
                    "required": ["verdict", "criterion", "evidence"],
                    "additionalProperties": False,
                    "properties": {
                        "verdict": {"enum": ["yes", "no", "not-applicable"]},
                        "criterion": {"type": "string"},
                        "evidence": {"type": "object"},
                    },
                },
            },
        },
    },
}
