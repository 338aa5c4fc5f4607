"""What a parsed domain derives once and holds: its frames per tuple of rows,
each frame's N0 per order k (and ladder cap) and spot-checked tail bounds
per j0, order k and N, the cleared LP rows and the rows A d <= 0 of the ray
LP, the recession cone's scan order and checked generators, and the
coordinates that never vanish.  A query on a domain that has answered many
others must give exactly the answer it gives on a fresh parse."""

from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

import reinhardt
from reinhardt import domain, spaces as sp, witness
from reinhardt import SimplicialFrame, SpecError, parse_spec
from reinhardt.scalars import quad

HERE = Path(__file__).resolve().parent
TEXTS = {path.stem: path.read_text(encoding="utf-8")
         for path in [*sorted((HERE.parent / "specs").glob("*.json")),
                      *(HERE / "specs" / f"{name}.json" for name in ("chain3", "plane3"))]}
# four rows in dimension 2, so that frames of different rows share one domain
TEXTS["four_rows"] = ('{"n": 2, "constraints": [{"alpha": ["1", "-1"], "c": "1"}, '
                      '{"alpha": ["0", "1"], "c": "1"}, {"alpha": ["1", "1"], "c": "1"}, '
                      '{"alpha": ["2", "1"], "c": "3"}]}')
SPACES = [sp.hinf(), sp.l2(), sp.lp(3), sp.hinf_k(1), sp.ak(1), sp.ldiamond_ak(1)]


def _answer(query, spec):
    """The result of ``query(spec)``, or the type and text of its error."""
    try:
        result = query(spec)
    except (reinhardt.ReinhardtError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return result.to_json_dict() if hasattr(result, "to_json_dict") else result


def _witness(rows, k, j0, exterior):
    def query(spec):
        frame = SimplicialFrame.from_spec(spec, rows)
        w = reinhardt.build_witness(reinhardt.WitnessSpec(
            frame=frame, k=k, exterior=reinhardt.radial(*exterior), j0=j0))
        return reinhardt.verify_witness_membership(w, k=k)
    return query


def _queries(spec):
    """Sup, exact norm, membership and witness queries on ``spec``."""
    n, m = spec.n, len(spec.constraints)
    box = list(product(range(-1, 2), repeat=n))
    queries = [lambda s, nu=nu: reinhardt.sup_norm_monomial(s, reinhardt.exponents(*nu))
               for nu in box]
    # an exponent outside the field of the normals: its LPs are cleared anew
    queries.append(lambda s: reinhardt.sup_norm_monomial(s, (quad(0, 1, 3),) + (0,) * (n - 1)))
    queries += [lambda s, nu=nu, space=space: reinhardt.monomial_in_space(s, nu, space)
                for nu in box for space in SPACES]
    for rows in permutations(range(m), n):
        queries += [lambda s, rows=rows, nu=nu, p=p: reinhardt.lp_norm_exact_simplicial(
            SimplicialFrame.from_spec(s, rows), nu, p) for nu in box[:3] for p in (1, 2)]
        exterior = [Fraction(2 ** (n - j)) for j in range(n)]
        queries += [_witness(rows, k, j0, exterior) for k in (0, 1) for j0 in range(n)]
    return queries


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_warm_answers_equal_cold_answers(name):
    text = TEXTS[name]
    queries = _queries(parse_spec(text))
    cold = [_answer(query, parse_spec(text)) for query in queries]
    warm = parse_spec(text)
    forward = [_answer(query, warm) for query in queries]
    backward = [_answer(query, warm) for query in reversed(queries)][::-1]
    assert forward == cold
    assert backward == cold
    assert any(not isinstance(a, tuple) for a in cold)


def test_same_rows_give_the_same_frame_and_n0_is_computed_once(monkeypatch):
    monkeypatch.delenv("REINHARDT_PRECISION", raising=False)
    spec = parse_spec(TEXTS["four_rows"])
    frame = SimplicialFrame.from_spec(spec, [0, 1])
    assert SimplicialFrame.from_spec(spec, (0, 1)) is frame
    assert SimplicialFrame.from_spec(spec, [1, 0]) is not frame
    assert SimplicialFrame.from_spec(parse_spec(TEXTS["four_rows"]), [0, 1]) is not frame
    calls = []
    compute_n0 = witness.compute_n0

    def counting(frame, k):
        calls.append(k)
        return compute_n0(frame, k)

    monkeypatch.setattr(witness, "compute_n0", counting)
    for k in (0, 1, 0, 2, 1, 2):  # each call takes its frame from from_spec
        _witness((0, 1), k, 0, (Fraction(4), Fraction(2)))(spec)
    assert calls == [0, 1, 2]
    monkeypatch.setenv("REINHARDT_PRECISION", "64")  # N0's ceiling may move with the cap
    _witness((0, 1), 1, 0, (Fraction(4), Fraction(2)))(spec)
    assert calls == [0, 1, 2, 1]


# |det| = E, the floor of U^2 / pi^2, puts N0's pi branch L + 2 pi / sqrt(E) within
# 2^-76 of the integer 1, below it: N is 1 at the default cap and 2 at a 64-bit cap
U = 2 ** 40 + 7
E = 122489794980697202373541
NEAR_TIE = ((1, 0), (E - U, E))


def test_tail_bounds_are_checked_once_per_frame_j0_and_k(monkeypatch):
    monkeypatch.delenv("REINHARDT_PRECISION", raising=False)
    calls = []
    tail_bounds = witness.tail_bounds

    def counting(w, k):
        calls.append((w.j0, k, w.N))
        return tail_bounds(w, k)

    monkeypatch.setattr(witness, "tail_bounds", counting)
    spec = parse_spec(TEXTS["four_rows"])
    for k, j0 in ((0, 0), (1, 0), (0, 0), (1, 1), (1, 0), (0, 1), (1, 1)):
        _witness((0, 1), k, j0, (Fraction(4), Fraction(2)))(spec)  # the frame from from_spec
    assert [(j0, k) for j0, k, _ in calls] == [(0, 0), (0, 1), (1, 1), (1, 0)]
    w = _build(SimplicialFrame.from_spec(spec, (0, 1)), 1, 0, (4, 2))
    reinhardt.verify_witness_membership(w, k=2)  # orders above the witness's own k
    reinhardt.verify_witness_membership(w, k=2)
    # derive_tail_bound reads the held bounds too
    assert [reinhardt.derive_tail_bound(w, k) for k in (2, 1, 0)] == list(w.tails_to(2))[::-1]
    assert calls[4:] == [(0, 2, w.N)]
    monkeypatch.setenv("REINHARDT_PRECISION", "64")  # the same N: nothing to check anew
    _witness((0, 1), 1, 0, (Fraction(4), Fraction(2)))(spec)
    assert len(calls) == 5

    del calls[:]
    frame = SimplicialFrame.from_rows(NEAR_TIE, (1, 1))
    monkeypatch.delenv("REINHARDT_PRECISION")
    assert [_build(frame, 0, 0, (2, 1)).N for _ in range(2)] == [1, 1]
    monkeypatch.setenv("REINHARDT_PRECISION", "64")  # another cap, another N
    assert [_build(frame, 0, 0, (2, 1)).N for _ in range(2)] == [2, 2]
    monkeypatch.delenv("REINHARDT_PRECISION")
    assert _build(frame, 0, 0, (2, 1)).N == 1
    assert calls == [(0, 0, 1), (0, 0, 2)]


def _build(frame, k, j0, exterior):
    """The witness of ``frame``, with its tail bounds of the orders 0..k."""
    w = reinhardt.build_witness(reinhardt.WitnessSpec(
        frame=frame, k=k, exterior=reinhardt.radial(*exterior), j0=j0))
    assert len(w.tails) == k + 1
    return w


def test_warm_witness_certificates_equal_cold_ones():
    """Certificates up to order 2 of witnesses of orders 0..2 on one warm
    domain, in two orders, equal those on a fresh parse each."""
    text = TEXTS["four_rows"]
    cases = [(rows, k, j0, cert_k) for rows in ((0, 1), (1, 2), (0, 2)) for k in range(3)
             for j0 in range(2) for cert_k in range(3)]

    def certificate(spec, rows, k, j0, cert_k):
        w = _build(SimplicialFrame.from_spec(spec, rows), k, j0, (4, 3))
        return reinhardt.verify_witness_membership(w, k=cert_k).to_json_dict()

    cold = [certificate(parse_spec(text), *case) for case in cases]
    warm = parse_spec(text)
    assert [certificate(warm, *case) for case in cases] == cold
    assert [certificate(warm, *case) for case in reversed(cases)][::-1] == cold


def test_held_tables_stop_growing_at_their_cap(monkeypatch):
    monkeypatch.setattr(domain, "HELD_KEYS", 1)
    spec = parse_spec(TEXTS["four_rows"])
    first = SimplicialFrame.from_spec(spec, [0, 1])
    other = SimplicialFrame.from_spec(spec, [1, 2])
    assert SimplicialFrame.from_spec(spec, [0, 1]) is first
    assert SimplicialFrame.from_spec(spec, [1, 2]) is not other
    assert SimplicialFrame.from_spec(spec, [1, 2]) == other


@pytest.mark.parametrize("rows", [[-1, 0], [0, 5], [0.0, 1], ["0", 1]])
def test_frame_row_indices_must_name_constraints(hartogs, rows):
    with pytest.raises(SpecError, match=r"frame row indices must be integers in 0\.\.1"):
        SimplicialFrame.from_spec(hartogs, rows)


def test_nonvanishing_coordinates_are_those_with_a_negative_exponent(gallery):
    assert gallery["hartogs"].nonvanishing == frozenset({1})
    assert gallery["polydisc"].nonvanishing == frozenset()
    assert gallery["annulus"].nonvanishing == frozenset({0})
