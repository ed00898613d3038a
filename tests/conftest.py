import random

import pytest

from sepax.mechanisms import ZOO, MechanismTable, random_mechanism

POPULATION_SEED = 11000

_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    """Collect one pass/fail line per acceptance criterion; printed in the
    terminal summary so they survive output capture."""
    _acceptance_lines.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def population() -> list[MechanismTable]:
    """Shared mechanism population: the full zoo at m in {2, 3, 4}, 500
    seeded random tables at m=3, and 50 at m=4."""
    tables = [
        factory(m) for m in (2, 3, 4) for _, factory in sorted(ZOO.items())
    ]
    rng = random.Random(POPULATION_SEED)
    tables.extend(
        random_mechanism(3, rng, name=f"accept-3-{i}") for i in range(500)
    )
    tables.extend(
        random_mechanism(4, rng, name=f"accept-4-{i}") for i in range(50)
    )
    return tables
