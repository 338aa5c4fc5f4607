"""Exact geometry and function-space classification of n-circled domains."""

from .classify import (ClassificationReport, Verdict, classify_ainf, classify_all,
                       classify_hinf, classify_hinf_k, classify_l2, classify_lp_ak)
from .cones import (RecessionCone, approach, approach_certificate, has_finite_volume,
                    interior_point, is_bounded, is_empty, lp_optimize, recession_contains)
from .domain import (DomainSpec, LogPolyhedron, MonomialConstraint, RadialPoint, contains,
                     exponents, load_spec, parse_spec, radial)
from .errors import (BoundaryIndeterminate, EmptyDomainError, MonteCarloError, RayCapError,
                     ReinhardtError, SpecError)
from .montecarlo import coefficient_inequality_check, lp_norm_monte_carlo
from .norms import (NormResult, SimplicialFrame, find_integrable_monomial,
                    lp_norm_exact_simplicial, lp_norm_finite, sup_norm_monomial)
from .scalars import QuadExt, quad
from .simplex import LPCertificate, solve_lp
from .spaces import FunctionSpace
from .spectrum import (SpaceMembership, monomial_in_space, spectrum_box,
                       spectrum_orthogonality_check)
from .witness import (TailBound, WitnessCertificate, WitnessFunction, WitnessSpec,
                      build_witness, compute_n0, derive_tail_bound,
                      eval_witness_derivative, verify_witness_membership)

__version__ = "0.1.0"
