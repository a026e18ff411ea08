import pytest
from hypothesis import settings

from ribbonlab import enumerate_graphs

settings.register_profile("ci", max_examples=50, deadline=None, derandomize=True)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def universe2():
    return list(enumerate_graphs(2))


@pytest.fixture(scope="session")
def universe3():
    return list(enumerate_graphs(3))


@pytest.fixture(scope="session")
def universe4():
    return list(enumerate_graphs(4))


@pytest.fixture(scope="session")
def raw_universe3():
    """Every signed rotation system with at most 3 edges, isomorphs included."""
    return list(enumerate_graphs(3, dedup=False))
