"""Per-layer tracing from outside the library.

``Tracer.install`` replaces every module attribute (and class attribute) of
the ``reinhardt`` package that binds one of the ``SPANS`` functions with a
wrapper that records a span: name, start, end and parent span.  Because the
package imports names into other modules (``from .simplex import solve_lp``),
one function can be bound in several places; each binding is wrapped.  A few
functions only feed counters (``COUNTED``), since a span per call would cost
more than the call.  ``remove`` puts every original object back.

Spans of one op travel to the parent process as packed arrays; the parent
keeps all of them until the run ends and computes the per-layer metrics from
them with ``layer_metrics``.
"""

from __future__ import annotations

import base64
import math
import sys
import time
from array import array

from fractions import Fraction

import numpy as np

# span name -> (module, attribute path); the name is "<module>.<function>"
SPANS = {
    "simplex.solve_lp": ("simplex", "solve_lp"),
    "simplex._Tableau.pivot": ("simplex", "_Tableau.pivot"),
    "loglin.sign": ("loglin", "LogLin.sign"),
    "precision.ladder_sign": ("precision", "ladder_sign"),
    "cones.interior_point": ("cones", "interior_point"),
    "cones.approach_certificate": ("cones", "approach_certificate"),
    "cones.recession_meets_halfspace": ("cones", "recession_meets_halfspace"),
    "cones.recession_improving_direction": ("cones", "recession_improving_direction"),
    "cones.cone_nonzero_direction": ("cones", "cone_nonzero_direction"),
    "cones.lineality_space": ("cones", "lineality_space"),
    "cones.lp_optimize": ("cones", "lp_optimize"),
    "spectrum.monomial_in_space": ("spectrum", "monomial_in_space"),
    "domain.parse_spec": ("domain", "parse_spec"),
    "domain.contains": ("domain", "contains"),
    "classify.classify_all": ("classify", "classify_all"),
    "linalg.kernel_basis": ("linalg", "kernel_basis"),
    "hnf.integer_kernel_basis": ("hnf", "integer_kernel_basis"),
    "norms.sup_norm_monomial": ("norms", "sup_norm_monomial"),
    "norms.lp_norm_exact_simplicial": ("norms", "lp_norm_exact_simplicial"),
    "witness.build_witness": ("witness", "build_witness"),
    "witness.verify_witness_membership": ("witness", "verify_witness_membership"),
    "montecarlo.lp_norm_monte_carlo": ("montecarlo", "lp_norm_monte_carlo"),
    "montecarlo.bounding_radii": ("montecarlo", "bounding_radii"),
    "montecarlo.coefficient_inequality_check": ("montecarlo",
                                                "coefficient_inequality_check"),
}
SPAN_NAMES = tuple(SPANS)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

# count-only hooks: key -> (module, attribute path)
QUADEXT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__", "__pow__")
COUNTED = {"precision.working_precision": ("precision", "working_precision"),
           **{f"scalars.QuadExt.{op}": ("scalars", f"QuadExt.{op}") for op in QUADEXT_OPS}}

CONES_QUERIES = [n for n in SPAN_NAMES if n.startswith("cones.")]
MONTECARLO = [n for n in SPAN_NAMES if n.startswith("montecarlo.")]
CALLS_AND_SELF = ["simplex.solve_lp", "loglin.sign", "precision.ladder_sign",
                  *CONES_QUERIES, "spectrum.monomial_in_space", "domain.contains"]
SELF_ONLY = ["domain.parse_spec", "classify.classify_all", "linalg.kernel_basis",
             "hnf.integer_kernel_basis", "norms.sup_norm_monomial",
             "norms.lp_norm_exact_simplicial", "witness.build_witness",
             "witness.verify_witness_membership", "montecarlo.lp_norm_monte_carlo",
             "montecarlo.bounding_radii"]
COUNTERS = ("max_exponent", "max_bits", "unresolved", "quadext_ops", "mc_samples")


def _resolve(lib, module: str, path: str):
    """(owner, attribute, object) for "func" or "Class.method" in a module."""
    owner = getattr(lib, module)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, vars(owner)[attr]


def _bindings(lib, owner, obj):
    """Every (namespace owner, attribute) of the package that binds ``obj``."""
    if isinstance(owner, type):
        return [(owner, a) for a, v in list(vars(owner).items()) if v is obj]
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == lib.__name__ or name.startswith(lib.__name__ + ".")):
            found += [(mod, a) for a, v in list(vars(mod).items()) if v is obj]
    return found


def exact_path_exponent(loglin) -> int:
    """Largest |q_i * lcm(denominators)| the exact sign path raises a base to.

    Mirrors the condition under which ``LogLin.sign`` takes its exact path
    (zero constant, rational coefficients), from the public fields only; 0
    when the call goes elsewhere.
    """
    terms = loglin.terms
    if not terms or loglin.const != 0:
        return 0
    coeffs = [c for _, c in terms]
    if not all(isinstance(c, (int, Fraction)) for c in coeffs):
        return 0
    coeffs = [Fraction(c) for c in coeffs]
    lcm = 1
    for c in coeffs:
        lcm = math.lcm(lcm, c.denominator)
    return max(abs(c.numerator) * (lcm // c.denominator) for c in coeffs)


class Tracer:
    """Wraps the package's layer functions and records spans per op."""

    def __init__(self, lib):
        self.lib = lib
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.installed: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()
        self._wrappers: list = []
        self._before = {"loglin.sign": self._sign_exponent,
                        "montecarlo.lp_norm_monte_carlo": self._mc_samples}

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, span: str, fn):
        nid = _ID[span]
        name_add, parent_add = self.name.append, self.parent.append
        start_add, end_add = self.start.append, self.end.append
        end, stack, clock = self.end, self.stack, time.perf_counter
        before = self._before.get(span)
        unresolved = self.lib.BoundaryIndeterminate if span == "precision.ladder_sign" else ()

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(end)
            name_add(nid)
            parent_add(stack[-1] if stack else -1)
            end_add(0.0)
            stack.append(idx)
            start_add(clock())
            try:
                return fn(*args, **kwargs)
            except unresolved:
                self.counters["unresolved"] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, key: str, fn):
        counters = self.counters
        if key == "precision.working_precision":
            def counted(*args, **kwargs):
                bits = args[0] if args else kwargs["bits"]
                if bits > counters["max_bits"]:
                    counters["max_bits"] = bits
                return fn(*args, **kwargs)
        else:
            def counted(*args, **kwargs):
                counters["quadext_ops"] += 1
                return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def _sign_exponent(self, args, kwargs):
        e = exact_path_exponent(args[0])
        if e > self.counters["max_exponent"]:
            self.counters["max_exponent"] = e

    def _mc_samples(self, args, kwargs):
        self.counters["mc_samples"] += int(args[3] if len(args) > 3 else kwargs["samples"])

    # -- install / remove -----------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every traced function; absent names are skipped."""
        plan = [(key, where, self._span_wrapper) for key, where in SPANS.items()]
        plan += [(key, where, self._count_wrapper) for key, where in COUNTED.items()]
        for key, (module, path), factory in plan:
            try:
                owner, _, obj = _resolve(self.lib, module, path)
            except (AttributeError, KeyError):
                continue  # reported as absent by layer_metrics
            if any(obj is w for w in self._wrappers):  # an alias wrapped already
                self.wrapped.add(key)
                continue
            wrapped = factory(key, obj)
            self._wrappers.append(wrapped)
            for where, attr in _bindings(self.lib, owner, obj):
                self.installed.append((where, attr, obj))
                setattr(where, attr, wrapped)
            self.wrapped.add(key)

    def remove(self) -> None:
        while self.installed:
            where, attr, obj = self.installed.pop()
            setattr(where, attr, obj)
        self.wrapped.clear()
        self._wrappers.clear()

    # -- per-op export --------------------------------------------------------

    def begin_op(self) -> None:
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.counters.update(dict.fromkeys(COUNTERS, 0))

    def end_op(self) -> dict:
        return {"spans": {key: base64.b64encode(getattr(self, key).tobytes()).decode()
                          for key in ("name", "parent", "start", "end")},
                "counters": dict(self.counters)}


class SpanStore:
    """The parent's copy of every span of a run, kept until the run ends."""

    def __init__(self, wrapped=()):
        self.wrapped = set(wrapped)
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)

    def add(self, trace: dict) -> None:
        arrays = {}
        for key, code in (("name", "H"), ("parent", "i"), ("start", "d"), ("end", "d")):
            arrays[key] = array(code, base64.b64decode(trace["spans"][key]))
        parent = np.frombuffer(arrays["parent"], dtype=np.int32)
        parent = np.where(parent >= 0, parent + len(self.name), -1).astype(np.int32)
        self.name.extend(arrays["name"])
        self.parent.frombytes(parent.tobytes())
        self.start.extend(arrays["start"])
        self.end.extend(arrays["end"])
        for key, value in trace["counters"].items():
            if key.startswith("max_"):
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value


def _under(inside: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Mask of spans with an ancestor in ``inside`` (parents precede children)."""
    valid = parent >= 0
    p = np.where(valid, parent, 0)
    has = np.zeros(len(parent), dtype=bool)
    while True:
        new = valid & (inside[p] | has[p])
        if np.array_equal(new, has):
            return has
        has = new


def layer_metrics(store: SpanStore) -> dict:
    """Per-layer metric values (name -> (value, unit)) from the stored spans."""
    name = np.frombuffer(store.name, dtype=np.uint16)
    parent = np.frombuffer(store.parent, dtype=np.int32).astype(np.int64)
    dur = np.frombuffer(store.end, dtype=np.float64) - np.frombuffer(store.start, dtype=np.float64)
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child

    def mask(*names):
        return np.isin(name, [_ID[n] for n in names])

    out: dict = {}
    for span in CALLS_AND_SELF:
        m = mask(span)
        out[f"{span}.calls"] = (int(m.sum()), "count")
        out[f"{span}.self_s"] = (float(self_s[m].sum()), "s")
    for span in SELF_ONLY:
        out[f"{span}.self_s"] = (float(self_s[mask(span)].sum()), "s")
    if "simplex._Tableau.pivot" in store.wrapped:
        pivots = mask("simplex._Tableau.pivot")
        out["simplex.pivots"] = (int(pivots.sum()), "count")
        out["simplex.pivots.self_s"] = (float(self_s[pivots].sum()), "s")
    sign = mask("loglin.sign")
    out["loglin.sign.max_call_s"] = (float(dur[sign].max()) if sign.any() else 0.0, "s")
    out["loglin.sign.max_exponent"] = (store.counters["max_exponent"], "count")
    out["precision.max_bits"] = (store.counters["max_bits"], "bits")
    out["precision.unresolved"] = (store.counters["unresolved"], "count")
    out["scalars.quadext_ops"] = (store.counters["quadext_ops"], "count")

    lp = mask("simplex.solve_lp")
    cones = mask(*CONES_QUERIES)
    queries = int((cones & ~_under(cones, parent)).sum())
    out["cones.lps_per_query"] = (_ratio((lp & _under(cones, parent)).sum(), queries), "ratio")
    mono = mask("spectrum.monomial_in_space")
    monomials = int((mono & ~_under(mono, parent)).sum())
    out["spectrum.lps_per_monomial"] = (_ratio((lp & _under(mono, parent)).sum(), monomials),
                                        "ratio")
    mc_self = float(self_s[mask("montecarlo.lp_norm_monte_carlo")].sum())
    out["montecarlo.samples_per_s"] = (_ratio(store.counters["mc_samples"], mc_self), "1/s")
    contains_mc = mask("domain.contains") & _under(mask(*MONTECARLO), parent)
    out["montecarlo.exact_readjudications"] = (int(contains_mc.sum()), "count")
    out["trace.spans"] = (len(dur), "count")
    return out


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0
