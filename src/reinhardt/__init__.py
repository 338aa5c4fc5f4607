"""Exact geometry and function-space classification of n-circled domains.

``import reinhardt`` loads what ``parse_spec`` and ``classify_all`` need.
Each module of ``_LAZY`` loads, and binds itself and its names, on the
first read of one of them (PEP 562).  Every bound the package computes
comes from integers and the stdlib ``decimal`` (:mod:`reinhardt.precision`).
"""

import importlib

from .classify import (ClassificationReport, Verdict, classify_ainf, classify_all,
                       classify_hinf, classify_hinf_k, classify_l2, classify_lp_ak)
from .cones import (LogPolyhedron, RecessionCone, approach, approach_certificate,
                    interior_point, is_empty, lp_optimize, recession_contains)
from .domain import (DomainSpec, MonomialConstraint, RadialPoint, contains, exponents,
                     has_finite_volume, is_bounded, load_spec, parse_spec, radial)
from .errors import (BoundaryIndeterminate, EmptyDomainError, MonteCarloError, RayCapError,
                     ReinhardtError, SpecError)
from .scalars import QuadExt, quad
from .simplex import LPCertificate, solve_lp

__version__ = "0.1.0"

_LAZY = {
    "norms": ("NormResult", "SimplicialFrame", "find_integrable_monomial",
              "lp_norm_exact_simplicial", "lp_norm_finite", "sup_norm_monomial"),
    "spaces": ("FunctionSpace",),
    "spectrum": ("SpaceMembership", "monomial_in_space", "spectrum_box",
                 "spectrum_orthogonality_check"),
    "witness": ("TailBound", "WitnessCertificate", "WitnessFunction", "WitnessSpec",
                "build_witness", "compute_n0", "derive_tail_bound", "eval_witness_derivative",
                "verify_witness_membership"),
    "montecarlo": ("lp_norm_monte_carlo", "coefficient_inequality_check"),
}


def __getattr__(name):
    module = next((m for m, names in _LAZY.items() if name == m or name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not "from . import": that form reads the attribute back
    # through this hook before the import has bound it
    mod = importlib.import_module("." + module, __name__)
    # bind every name at once: later reads are plain lookups
    globals().update({n: getattr(mod, n) for n in _LAZY[module]}, **{module: mod})
    return globals()[name]


def __dir__():
    return sorted(set(globals()).union(_LAZY, *_LAZY.values()))
