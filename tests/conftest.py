from __future__ import annotations

import pytest

from phinmod.padic import LocalFieldDesc


@pytest.fixture(scope="session")
def q3() -> LocalFieldDesc:
    return LocalFieldDesc(3, 1, 1, (0, 1), ((-3,), (1,)))


@pytest.fixture(scope="session")
def q2() -> LocalFieldDesc:
    return LocalFieldDesc(2, 1, 1, (0, 1), ((-2,), (1,)))


@pytest.fixture(scope="session")
def q3_ram() -> LocalFieldDesc:
    # totally ramified quadratic step: pi^2 = 3
    return LocalFieldDesc(3, 1, 2, (0, 1), ((-3,), (0,), (1,)))


@pytest.fixture(scope="session")
def q5_unr() -> LocalFieldDesc:
    # unramified quadratic step: theta^2 + theta + 2 = 0 mod 5 irreducible
    return LocalFieldDesc(5, 2, 1, (2, 1, 1), ((-5, 0), (1, 0)))


@pytest.fixture(scope="session")
def q9() -> LocalFieldDesc:
    # unramified quadratic step: theta^2 + 1 = 0 mod 3 irreducible
    return LocalFieldDesc(3, 2, 1, (1, 0, 1), ((-3, 0), (1, 0)))


@pytest.fixture(scope="session")
def q3_mixed() -> LocalFieldDesc:
    # f_l = 2 and e_l = 2 together: theta^2 + 1 = 0, pi^2 = 3
    return LocalFieldDesc(3, 2, 2, (1, 0, 1), ((-3, 0), (0, 0), (1, 0)))


@pytest.fixture(scope="session")
def q3_eis() -> LocalFieldDesc:
    # totally ramified quadratic step whose pi^2 is not 3: pi^2 + 3 pi + 3 = 0
    return LocalFieldDesc(3, 1, 2, (0, 1), ((3,), (3,), (1,)))


@pytest.fixture(scope="session")
def all_fields(q3, q2, q3_ram, q5_unr, q3_mixed, q3_eis):
    return [q3, q2, q3_ram, q5_unr, q3_mixed, q3_eis]
