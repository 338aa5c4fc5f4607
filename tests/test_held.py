"""What a parsed domain derives once and holds: its frames per tuple of rows,
each frame's N0 per order k (and ladder cap), the cleared LP rows, the
recession cone's scan order and checked generators, and the coordinates
that never vanish.  A query on a domain that has answered many others must
give exactly the answer it gives on a fresh parse."""

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
