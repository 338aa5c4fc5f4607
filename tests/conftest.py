"""Shared fixtures: the named domain gallery, seeded spec generators, and
the acceptance-criteria summary printed at the end of the run."""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from reinhardt import DomainSpec, MonomialConstraint, interior_point, load_spec

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"

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
