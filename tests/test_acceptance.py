"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test reports through the `acceptance` recorder, so the run ends with one
PASS/FAIL line per criterion in the terminal summary.
"""

import cmath
import math
import random
import time
from fractions import Fraction
from itertools import combinations, product

from conftest import random_spec, sample_interior_points

from reinhardt import (SimplicialFrame, approach, build_witness, classify_all,
                       classify_lp_ak, coefficient_inequality_check, exponents,
                       eval_witness_derivative, interior_point,
                       lp_norm_exact_simplicial, lp_norm_monte_carlo,
                       radial, spectrum_box, spectrum_orthogonality_check,
                       verify_witness_membership)
from reinhardt import spaces as sp
from reinhardt.loglin import LogLin
from reinhardt.witness import WitnessSpec


def test_criterion_1_hartogs_classification(acceptance, hartogs):
    with acceptance(1, "Hartogs-triangle classification matches end-to-end"):
        report = classify_all(hartogs)
        v = report.verdicts
        assert v["hinf"].value == "yes"
        assert v["l2"].value == "yes"
        assert v["lp_ak"].value == "yes" and classify_lp_ak(hartogs).value == "yes"
        assert v["hinf_k"].value == "yes" and v["hinf_k"].evidence["m"] == 2
        assert v["ainf"].value == "no"
        assert v["ainf"].evidence["failing_epsilon"] == [1, 1]


def test_criterion_2_gallery_verdicts(acceptance, annulus, disc_times_plane,
                                      multiplicative_strip, irrational_slope):
    with acceptance(2, "annulus/cylinder/strip/irrational verdicts exact"):
        assert classify_all(annulus).verdicts["ainf"].value == "yes"
        dtp = classify_all(disc_times_plane).verdicts
        assert dtp["hinf_k"].value == "yes" and dtp["hinf_k"].evidence["m"] == 1
        assert dtp["l2"].value == "no"
        ms = classify_all(multiplicative_strip).verdicts
        assert ms["hinf"].value == "yes"
        assert ms["l2"].value == "no"
        assert ms["hinf_k"].value == "no"
        assert classify_all(irrational_slope).verdicts["hinf"].value == "no"


def test_criterion_3_exact_and_mc_volumes(acceptance, hartogs, hartogs_half):
    with acceptance(3, "exact volumes pi^2/2 and pi^2/32; MC at 1e6/seed 42 agrees"):
        vol = lp_norm_exact_simplicial(SimplicialFrame.from_spec(hartogs),
                                       exponents(0, 0), 1)
        assert vol.symbolic() == "pi^2/2"
        vol_half = lp_norm_exact_simplicial(SimplicialFrame.from_spec(hartogs_half),
                                            exponents(0, 0), 1)
        assert vol_half.symbolic() == "pi^2/32"
        start = time.perf_counter()
        for spec, exact in ((hartogs, math.pi ** 2 / 2), (hartogs_half, math.pi ** 2 / 32)):
            est = lp_norm_monte_carlo(spec, exponents(0, 0), 1, 10 ** 6, seed=42)
            assert abs(est.estimate - exact) <= 3 * est.stderr
            assert est.stderr / exact <= 0.02
        elapsed = time.perf_counter() - start
        assert elapsed <= 10.0, f"MC runtime {elapsed:.1f}s exceeds 10s"


def test_criterion_4_witness_suite(acceptance, hartogs):
    with acceptance(4, "witness: N0 bracket, N=6, certificates, series, blow-up"):
        frame = SimplicialFrame.from_spec(hartogs)
        w = build_witness(WitnessSpec(frame=frame, k=0,
                                      exterior=radial(3, Fraction(3, 2)), j0=0))
        lo, hi = w.n0.interval_str()
        assert 5.2831 < float(lo) <= float(hi) < 5.2833
        assert w.N == 6

        norm_seen = None
        for k in (0, 1):
            cert = verify_witness_membership(w, k=k, p_list=[1, 2, 3])
            assert cert.ok
            for c in cert.checks:
                if c.sigma == (1, 0) and c.p == 1:
                    norm_seen = c.norm.symbolic()
        assert norm_seen == "4*pi^2/63"

        rng = random.Random(424242)
        checked = 0
        while checked < 100:
            r2 = rng.uniform(0.1, 0.95)
            r1 = rng.uniform(0.02, 0.95) * r2
            if r1 < 1e-3:
                continue
            z = (r1 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
                 r2 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
            closed = w.value(z)
            series = eval_witness_derivative(w, (0, 0), z, tol=1e-13 * abs(closed))
            assert abs(series - closed) <= 1e-9 * abs(closed)
            checked += 1

        near = abs(w.value(((2 - 1e-7) * 0.75, 0.75)))
        assert near > 1e6


def test_criterion_5_coefficient_inequality(acceptance, polydisc, annulus):
    with acceptance(5, "term norms bounded by the full norm on 50 seeded polynomials"):
        rng = random.Random(505050)
        start = time.perf_counter()
        cases = []
        for _ in range(25):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                nu = (rng.randint(0, 3), rng.randint(0, 3))  # defined on the polydisc
                terms[nu] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            cases.append((polydisc, terms))
        for _ in range(25):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                terms[(rng.randint(-2, 3),)] = complex(rng.uniform(-1, 1),
                                                       rng.uniform(-1, 1))
            cases.append((annulus, terms))
        for idx, (spec, terms) in enumerate(cases):
            for p in (1, 2):
                report = coefficient_inequality_check(spec, terms, p, 20_000,
                                                      seed=1000 + idx)
                assert report.passed, (terms, p)
        elapsed = time.perf_counter() - start
        assert elapsed <= 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def _seeded_suite():
    rng = random.Random(606060)
    specs = []
    for i in range(20):
        n = (2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4)[i]
        specs.append(random_spec(rng, n, force_lineality=(i % 5 != 4)))
    return specs


def test_criterion_6_translation_invariance(acceptance):
    with acceptance(6, "lineality translation invariance on 20 seeded specs"):
        rng = random.Random(616161)
        for spec in _seeded_suite():
            poly = spec.log_polyhedron
            basis = poly.lineality
            points = sample_interior_points(spec, 100, rng)
            for x in points:
                for f in basis:
                    for t in (1, -1, 5, -5, 10, -10):
                        moved = tuple(xi + Fraction(t) * fi for xi, fi in zip(x, f))
                        slacks = poly.half_space_slack(moved)
                        assert all(s.sign() > 0 for s in slacks)


def test_criterion_7_spectrum_orthogonality_and_chain(acceptance, multiplicative_strip,
                                                      disc_times_plane, hartogs,
                                                      annulus):
    with acceptance(7, "spectrum orthogonality and inclusion chain"):
        assert spectrum_orthogonality_check(multiplicative_strip, 5)
        assert spectrum_orthogonality_check(disc_times_plane, 5)
        rng = random.Random(707070)
        produced = 0
        while produced < 10:
            spec = random_spec(rng, 2, force_lineality=True)
            if not spec.log_polyhedron.lineality:
                continue
            assert spectrum_orthogonality_check(spec, 5)
            produced += 1
        for spec in (hartogs, annulus):
            hinf_box = set(spectrum_box(spec, sp.hinf(), 5))
            for k in (0, 1):
                ak_box = set(spectrum_box(spec, sp.ak(k), 5))
                hinfk_box = set(spectrum_box(spec, sp.hinf_k(k), 5))
                ldiamond_box = set(spectrum_box(spec, sp.ldiamond_ak(k), 5))
                assert ak_box <= hinfk_box <= hinf_box
                assert hinfk_box <= ldiamond_box


_SCALES_BY_N = {1: (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64),
                2: (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64),
                3: (1, 2, 3, 4, 8, 12, 16, 48, 64),
                4: (1, 2, 3, 4, 16, 64)}


def _brute_force_approach(spec, coords, rng):
    """Grid search for points of log G with the S-coordinates pushed below
    -T while the complement stays in a small window around an interior point."""
    poly = spec.log_polyhedron
    base = interior_point(poly)
    big_t = 1000
    jitter = Fraction(rng.randint(0, 7), 16)
    comp = [j for j in range(spec.n) if j not in coords]
    scales = _SCALES_BY_N[spec.n]
    window = (Fraction(0), Fraction(1) + jitter, Fraction(-1) - jitter)
    for s_combo in product(scales, repeat=len(coords)):
        for w_combo in product(window, repeat=len(comp)):
            x = list(base)
            for j, s in zip(sorted(coords), s_combo):
                x[j] = x[j] + LogLin.of(Fraction(-big_t * s))
            for j, w in zip(comp, w_combo):
                x[j] = x[j] + LogLin.of(w)
            if all(sl.sign() > 0 for sl in poly.half_space_slack(tuple(x))):
                return True
    return False


def test_criterion_8_approach_vs_sampling_oracle(acceptance, gallery):
    with acceptance(8, "ray-support approach agrees with the brute-force point search"):
        rng = random.Random(808080)
        suite = list(gallery.values()) + _seeded_suite()
        for spec in suite:
            poly = spec.log_polyhedron
            for size in range(1, spec.n + 1):
                for coords in combinations(range(spec.n), size):
                    supports_say = approach(poly, frozenset(coords))
                    oracle_says = _brute_force_approach(spec, set(coords), rng)
                    assert supports_say == oracle_says, (spec, coords)
