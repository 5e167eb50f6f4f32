import pytest

from multiwalk.objectives import get_objective
from multiwalk.targets import compute_target


@pytest.fixture(scope="session")
def ehrenfest4_target():
    return compute_target(get_objective("ehrenfest4"))


@pytest.fixture(scope="session")
def ehrenfest4_spec(ehrenfest4_target):
    rec = ehrenfest4_target
    return get_objective("ehrenfest4").with_target(rec.value_target)


@pytest.fixture(scope="session")
def ehrenfest15_spec():
    rec = compute_target(get_objective("ehrenfest15"))
    return get_objective("ehrenfest15").with_target(rec.value_target)


@pytest.fixture(scope="session")
def wild1_spec():
    rec = compute_target(get_objective("wild1"))
    return get_objective("wild1").with_target(rec.value_target)


@pytest.fixture(scope="session")
def trefethen1_spec():
    rec = compute_target(get_objective("trefethen1"))
    return get_objective("trefethen1").with_target(rec.value_target)
