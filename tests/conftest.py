"""Shared fixtures: the named domain gallery, seeded spec and LP generators,
and the acceptance-criteria summary printed at the end of the run."""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from reinhardt import DomainSpec, MonomialConstraint, interior_point, load_spec
from reinhardt.linalg import dot
from reinhardt.loglin import LogLin
from reinhardt.scalars import quad

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"

# floor((1/2)^sqrt2 2^110) / 2^110: with |z| < 1/2, the bound |z^sqrt2| < NEAR_TIE
# puts the emptiness LP's ratio tests within about 2^-110 of a tie
NEAR_TIE = Fraction(487055913352370060086506805660324, 2 ** 110)

_acceptance_results: list[tuple[int, str, bool]] = []


class AcceptanceRecorder:
    """Context manager factory: records one pass/fail line per criterion."""

    @contextmanager
    def __call__(self, number: int, description: str):
        try:
            yield
        except BaseException:
            _acceptance_results.append((number, description, False))
            raise
        _acceptance_results.append((number, description, True))


@pytest.fixture
def acceptance():
    return AcceptanceRecorder()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for number, description, passed in sorted(_acceptance_results):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number}: {status} - {description}")


def _load(name: str) -> DomainSpec:
    return load_spec(str(SPEC_DIR / f"{name}.json"))


@pytest.fixture(scope="session")
def hartogs() -> DomainSpec:
    return _load("hartogs")


@pytest.fixture(scope="session")
def polydisc() -> DomainSpec:
    return _load("polydisc")


@pytest.fixture(scope="session")
def annulus() -> DomainSpec:
    return _load("annulus")


@pytest.fixture(scope="session")
def disc_times_plane() -> DomainSpec:
    return _load("disc_times_plane")


@pytest.fixture(scope="session")
def multiplicative_strip() -> DomainSpec:
    return _load("multiplicative_strip")


@pytest.fixture(scope="session")
def irrational_slope() -> DomainSpec:
    return _load("irrational_slope")


@pytest.fixture(scope="session")
def hartogs_half() -> DomainSpec:
    return _load("hartogs_half")


@pytest.fixture(scope="session")
def unit_disc() -> DomainSpec:
    return _load("unit_disc")


@pytest.fixture(scope="session")
def gallery(hartogs, polydisc, annulus, disc_times_plane, multiplicative_strip,
            irrational_slope, hartogs_half, unit_disc):
    return {
        "hartogs": hartogs,
        "polydisc": polydisc,
        "annulus": annulus,
        "disc_times_plane": disc_times_plane,
        "multiplicative_strip": multiplicative_strip,
        "irrational_slope": irrational_slope,
        "hartogs_half": hartogs_half,
        "unit_disc": unit_disc,
    }


def random_spec(rng: random.Random, n: int, max_constraints: int = 3,
                force_lineality: bool = False) -> DomainSpec:
    """Seeded nonempty spec with integer normals in [-3, 3]."""
    while True:
        if force_lineality:
            m = rng.randint(1, max(1, n - 1))  # rank < n forces a kernel
        else:
            m = rng.randint(1, max_constraints)
        constraints = []
        for _ in range(m):
            row = [rng.randint(-3, 3) for _ in range(n)]
            if all(x == 0 for x in row):
                row[rng.randrange(n)] = 1
            c = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            constraints.append(MonomialConstraint(tuple(Fraction(x) for x in row), c))
        spec = DomainSpec(n=n, constraints=tuple(constraints))
        if interior_point(spec.log_polyhedron) is not None:
            return spec


def sample_interior_points(spec: DomainSpec, count: int, rng: random.Random,
                           max_tries: int = 10_000):
    """Exactly-verified interior points of log G: the LP point plus rational
    jitter, each candidate re-checked with exact slack signs."""
    poly = spec.log_polyhedron
    base = interior_point(poly)
    assert base is not None
    points = []
    tries = 0
    scale = Fraction(1, 2)
    while len(points) < count and tries < max_tries:
        tries += 1
        jitter = [Fraction(rng.randint(-8, 8), 16) * scale for _ in range(spec.n)]
        cand = tuple(b + j for b, j in zip(base, jitter))
        if all(s.sign() > 0 for s in poly.half_space_slack(cand)):
            points.append(cand)
        elif tries % 50 == 0:
            scale /= 2  # shrink toward the known interior point
    assert len(points) == count, "interior sampling failed to converge"
    return points


# -- seeded LPs: (a, b, c) for solve_lp ----------------------------------------

LOG_BASES = (Fraction(2), Fraction(3), Fraction(1, 5))
SQRT2 = quad(0, 1, 2)


def log_rhs(rng: random.Random) -> LogLin:
    """const + sum q_k log b_k with small rational q_k, some of them zero."""
    value = LogLin.of(Fraction(rng.randint(-2, 3), rng.randint(1, 2)))
    for base in LOG_BASES:
        if rng.random() < 0.6:
            value = value + LogLin.log_of(base, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return value


def integer_lp(rng: random.Random):
    m, n = rng.randint(1, 5), rng.randint(1, 4)
    a = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
    b = [LogLin.of(Fraction(rng.randint(-3, 6), rng.randint(1, 3))) for _ in range(m)]
    c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    return a, b, c


def mixed_log_lp(rng: random.Random):
    m, n = rng.randint(2, 5), rng.randint(1, 3)
    a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
    b = [log_rhs(rng) for _ in range(m)]
    c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    return a, b, c


def sqrt2_lp(rng: random.Random):
    m, n = rng.randint(2, 5), rng.randint(1, 3)
    a = [[quad(rng.randint(-2, 2), rng.randint(-2, 2), 2) for _ in range(n)] for _ in range(m)]
    b = [LogLin.of(Fraction(rng.randint(-2, 5), rng.randint(1, 3))) if rng.random() < 0.5
         else log_rhs(rng) for _ in range(m)]
    c = [rng.choice([Fraction(rng.randint(-2, 2)), quad(rng.randint(-2, 2), 1, 2)])
         for _ in range(n)]
    return a, b, c


def sqrt5_lp(rng: random.Random):
    """Entries in (1/2)Z[sqrt 5]: d = 5 = 1 mod 4, so (1 + sqrt 5)/2 is an
    algebraic integer and half-integer parts occur."""
    m, n = rng.randint(2, 5), rng.randint(1, 3)
    a = [[quad(Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3), 2), 5)
          for _ in range(n)] for _ in range(m)]
    b = [log_rhs(rng) for _ in range(m)]
    c = [quad(rng.randint(-2, 2), Fraction(rng.randint(-1, 1), 2), 5) for _ in range(n)]
    return a, b, c


def negative_norm_lp(rng: random.Random, d: int):
    """Every nonzero entry is a + b sqrt(d) with a^2 < b^2 d, such as
    1 - sqrt 2: a first pivot divides by an element of negative norm."""
    m, n = rng.randint(2, 5), rng.randint(1, 3)
    a = [[quad(rng.randint(-1, 1), rng.choice((-2, -1, 1, 2)), d) if rng.random() < 0.85
          else Fraction(0) for _ in range(n)] for _ in range(m)]
    b = [log_rhs(rng) if rng.random() < 0.5 else LogLin.of(Fraction(rng.randint(-2, 4)))
         for _ in range(m)]
    c = [quad(rng.randint(-2, 2), rng.choice((-1, 1)), d) for _ in range(n)]
    return a, b, c


def degenerate_lp(rng: random.Random):
    """Repeated and scaled rows with zero right-hand sides: every ratio test
    ties at zero, so the leaving row comes from Bland's tie-break."""
    n = rng.randint(2, 3)
    base_rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rng.randint(2, 3))]
    a, b = [], []
    for row in base_rows:
        for _ in range(rng.randint(1, 3)):
            scale = rng.choice([Fraction(1), Fraction(2), Fraction(1, 3), SQRT2])
            a.append([scale * x for x in row])
            b.append(LogLin.zero())
    # bounding rows keep most cases optimal; x = 0 stays feasible throughout
    for j in range(n):
        for s in (1, -1):
            if rng.random() < 0.8:
                row = [Fraction(0)] * n
                row[j] = Fraction(s)
                a.append(row)
                b.append(LogLin.zero() if rng.random() < 0.5 else
                         LogLin.log_of(rng.choice(LOG_BASES[:2]), Fraction(1, rng.randint(1, 3))))
    order = list(range(len(a)))
    rng.shuffle(order)
    a, b = [a[i] for i in order], [b[i] for i in order]
    c = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
    return a, b, c


def infeasible_lp(rng: random.Random, d: int | None = None):
    """Rows of a random LP plus one row that a positive combination of them
    contradicts by a positive margin, a constant or a log."""
    a, b, c = mixed_log_lp(rng)
    if d is not None:
        a = [[x * quad(rng.randint(1, 2), rng.choice((-1, 1)), d) for x in row] for row in a]
    picked = rng.sample(range(len(a)), rng.randint(1, len(a)))
    mult = {i: Fraction(rng.randint(1, 3), rng.randint(1, 2)) for i in picked}
    combo = [sum((mult[i] * a[i][j] for i in picked), Fraction(0)) for j in range(len(c))]
    margin = (LogLin.of(Fraction(rng.randint(1, 3), rng.randint(1, 4))) if rng.random() < 0.5
              else LogLin.log_of(rng.choice(LOG_BASES[:2]), Fraction(1, rng.randint(1, 3))))
    rhs = sum((b[i] * mult[i] for i in picked), LogLin.zero())
    pos = rng.randint(0, len(a))
    a.insert(pos, [-x for x in combo])
    b.insert(pos, -rhs - margin)
    return a, b, c


def unbounded_lp(rng: random.Random, d: int | None = None):
    """Rows with A ray <= 0 strictly satisfied at a known point x0, and an
    objective with <c, ray> > 0; a negative right-hand side sends it through
    phase I."""
    m, n = rng.randint(2, 5), rng.randint(2, 3)
    one = Fraction(1) if d is None else quad(1, rng.choice((-1, 1)), d)
    ray = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
    if not any(ray):
        ray[rng.randrange(n)] = Fraction(1)
    x0 = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
    a, b = [], []
    for _ in range(m):
        row = [Fraction(rng.randint(-3, 3)) * (one if rng.random() < 0.5 else 1)
               for _ in range(n)]
        if dot(row, ray) > 0:
            row = [-x for x in row]
        a.append(row)
        b.append(LogLin.of(dot(row, x0)) +
                 (LogLin.of(Fraction(1, rng.randint(1, 3))) if rng.random() < 0.3 else
                  LogLin.log_of(rng.choice(LOG_BASES[:2]), Fraction(1, rng.randint(1, 3)))))
    c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    s = dot(c, ray)
    if s <= 0:
        c = [cj + (1 - s) * rj for cj, rj in zip(c, ray)]
    return a, b, c


def seeded_lps():
    """Every seeded LP family, as ``(name, (a, b, c))``; the first four
    families are the ones ``tests/test_simplex.py`` checks against HiGHS."""
    families = [
        ("integer", 1000, 40, integer_lp),
        ("mixed-log", 2000, 20, mixed_log_lp),
        ("sqrt2", 3000, 20, sqrt2_lp),
        ("degenerate", 4000, 20, degenerate_lp),
        ("sqrt5", 5000, 12, sqrt5_lp),
        ("negative-norm-sqrt2", 6000, 8, lambda rng: negative_norm_lp(rng, 2)),
        ("negative-norm-sqrt5", 6100, 8, lambda rng: negative_norm_lp(rng, 5)),
        ("infeasible", 7000, 8, infeasible_lp),
        ("infeasible-sqrt2", 7100, 6, lambda rng: infeasible_lp(rng, 2)),
        ("infeasible-sqrt5", 7200, 6, lambda rng: infeasible_lp(rng, 5)),
        ("unbounded", 8000, 8, unbounded_lp),
        ("unbounded-sqrt2", 8100, 6, lambda rng: unbounded_lp(rng, 2)),
        ("unbounded-sqrt5", 8200, 6, lambda rng: unbounded_lp(rng, 5)),
    ]
    for name, base, count, make in families:
        for seed in range(count):
            yield f"{name}-{seed}", make(random.Random(base + seed))


# -- seeded cone systems: (d, n, normals) for the recession cone ---------------

def _cone_scalar(rng: random.Random, d: int | None):
    a = rng.randint(-3, 3)
    if d is None or rng.random() < 0.3:
        return Fraction(a)
    return quad(a, rng.randint(-2, 2), d)


def cone_system(rng: random.Random, d: int | None, shape: str):
    """Nonzero normals in dimension n <= 6 over Q or Q(sqrt d), entries in
    [-3, 3] or [-3, 3] + [-2, 2] sqrt(d).

    ``shape`` is ``"generic"``; ``"lineality"``, whose rows are combinations
    of fewer than n base rows; ``"equalities"``, where some rows come with a
    positive multiple of their negation (implicit equalities of the cone);
    or ``"scaled"``, where rows are repeated times a positive scalar, an
    irrational one over Q(sqrt d)."""
    n = rng.randint(1, 6)
    rank_cap = rng.randint(1, max(1, n - 1)) if shape == "lineality" else n
    # over Q(sqrt d) some base rows are rational, so that some rays have
    # rational directions and irrational representatives
    base = [[_cone_scalar(rng, None if rng.random() < 0.4 else d) for _ in range(n)]
            for _ in range(rank_cap)]
    rows = []
    for _ in range(rng.randint(1, 9)):
        coeffs = [rng.randint(-2, 2) for _ in base]
        row = [sum((c * b[j] for c, b in zip(coeffs, base)), Fraction(0)) for j in range(n)]
        if any(row):
            rows.append(row)
    extra = []
    for row in rows:
        if shape == "equalities" and rng.random() < 0.4:
            extra.append([-Fraction(rng.randint(1, 3), rng.randint(1, 2)) * x for x in row])
        if shape == "scaled" and rng.random() < 0.4:
            scale = Fraction(rng.randint(1, 3)) if d is None else quad(rng.randint(2, 3), 1, d)
            extra.append([scale * x for x in row])
    rows += extra
    rng.shuffle(rows)
    return d, n, [tuple(row) for row in rows]


def seeded_cone_systems():
    """Every seeded cone system, as ``(name, (d, n, normals))``."""
    shapes = [("generic", 40), ("lineality", 16), ("equalities", 16), ("scaled", 8)]
    for d, base in ((None, 9000), (2, 9500), (3, 9800)):
        field = "integer" if d is None else f"sqrt{d}"
        for k, (shape, count) in enumerate(shapes):
            for seed in range(count // 2 if d else count):
                yield (f"{field}-{shape}-{seed}",
                       cone_system(random.Random(base + 100 * k + seed), d, shape))
