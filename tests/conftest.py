import pytest

from kummer_chern.assembly import kummer_chern_numbers, kummer_genus_series
from kummer_chern.localization import find_generic_model


@pytest.fixture(scope="session")
def p2_model():
    return find_generic_model("p2", 8)


@pytest.fixture(scope="session")
def p1xp1_model():
    return find_generic_model("p1xp1", 6)


@pytest.fixture(scope="session")
def p2_series(p2_model):
    """The Kummer genus series of the plane through z^8 (the heavy computation).

    Assembled once per session: the assembly cache keeps one model only,
    so a later test that assembles another model would evict it.
    """
    return kummer_genus_series(p2_model, 8)


@pytest.fixture(scope="session")
def kummer_results_p2(p2_model, p2_series):
    """KummerResult for n = 1..8 on the plane, served from p2_series."""
    return {n: kummer_chern_numbers(p2_model, n) for n in range(1, 9)}


@pytest.fixture(scope="session")
def kummer_results_p1xp1(p1xp1_model):
    kummer_genus_series(p1xp1_model, 6)
    return {n: kummer_chern_numbers(p1xp1_model, n) for n in range(1, 7)}
