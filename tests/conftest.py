import pytest

from rgas import zerofinder


@pytest.fixture(scope="session")
def zeros3000() -> zerofinder.ZeroTable:
    return zerofinder.find_zeros(3000)


@pytest.fixture(scope="session")
def zeros10000() -> zerofinder.ZeroTable:
    return zerofinder.find_zeros(10_000)


@pytest.fixture(scope="session")
def zeros1000(zeros3000) -> zerofinder.ZeroTable:
    return zeros3000.head(1000)


@pytest.fixture(scope="session")
def zeros200(zeros3000) -> zerofinder.ZeroTable:
    return zeros3000.head(200)


@pytest.fixture(scope="session")
def zeros100(zeros3000) -> zerofinder.ZeroTable:
    return zeros3000.head(100)
