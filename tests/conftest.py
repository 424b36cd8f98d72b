import pytest

from kummer_chern import localization
from kummer_chern.assembly import kummer_chern_numbers, kummer_genus_series
from kummer_chern.localization import find_generic_model

# fans that are not presets, by name: counter-clockwise rays, the largest
# absolute ray coordinate M and (c1^2, c2).  F2 has dual entries of size 2,
# beyond the 0 and +-1 of p2 and p1xp1.
EXTRA_FANS = {
    "f2": (((1, 0), (0, 1), (-1, 2), (0, -1)), 2, (8, 4)),
    "hexagon": (((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)), 1, (6, 6)),
}


@pytest.fixture
def extra_fans(monkeypatch):
    """EXTRA_FANS, added to localization.FANS for one test."""
    for name, (rays, _, _) in EXTRA_FANS.items():
        monkeypatch.setitem(localization.FANS, name, rays)
    return EXTRA_FANS


@pytest.fixture(scope="session")
def p2_model():
    return find_generic_model("p2", 8)


@pytest.fixture(scope="session")
def p1xp1_model():
    return find_generic_model("p1xp1", 6)


@pytest.fixture(scope="session")
def p2_series(p2_model):
    """The Kummer genus series of the plane through z^8.

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
