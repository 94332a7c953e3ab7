import numpy as np
import pytest

from priorstab import Prior
from priorstab.beliefs import PriorCatalog, default_catalog
from priorstab.scenarios import REGIME_ORDER


@pytest.fixture(scope="module")
def catalog():
    return default_catalog()


EXPECTED_MASSES = {
    "boom_biased": (0.70, 0.10, 0.10, 0.10),
    "recovery_focused": (0.10, 0.70, 0.10, 0.10),
    "stagnation_oriented": (0.10, 0.10, 0.70, 0.10),
    "recession_focused": (0.10, 0.10, 0.10, 0.70),
    "uniform": (0.25, 0.25, 0.25, 0.25),
    "growth_tilted": (0.40, 0.25, 0.20, 0.15),
    "defensive": (0.15, 0.15, 0.25, 0.45),
    "opportunistic": (0.35, 0.10, 0.35, 0.20),
}


def test_eight_entries_in_order(catalog):
    assert catalog.names() == tuple(EXPECTED_MASSES)
    assert catalog.states == REGIME_ORDER


def test_documented_masses(catalog):
    for name, masses in EXPECTED_MASSES.items():
        assert catalog.get(name).mass == pytest.approx(masses, abs=1e-12)


def test_every_entry_is_a_distribution(catalog):
    for prior in catalog.entries:
        assert prior.mass.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(prior.mass > 0.0)


def test_regime_focused_modes_match_names(catalog):
    focus = {
        "boom_biased": "Expansion",
        "recovery_focused": "Recovery",
        "stagnation_oriented": "Stagnation",
        "recession_focused": "Recession",
    }
    for name, state in focus.items():
        prior = catalog.get(name)
        assert catalog.states[int(np.argmax(prior.mass))] == state


def test_exactly_one_uniform(catalog):
    flat = [
        p.name for p in catalog.entries if np.allclose(p.mass, 0.25, rtol=0, atol=1e-12)
    ]
    assert flat == ["uniform"]


def test_opportunistic_top_two(catalog):
    mass = catalog.get("opportunistic").mass
    top_two = {catalog.states[j] for j in np.argsort(-mass)[:2]}
    assert top_two == {"Expansion", "Stagnation"}


def test_unknown_name(catalog):
    with pytest.raises(KeyError):
        catalog.get("nope")


def test_catalog_validation_rejects_wrong_count(catalog):
    with pytest.raises(ValueError):
        PriorCatalog(states=catalog.states, entries=catalog.entries[:5])


def test_catalog_validation_requires_one_uniform(catalog):
    doubled = tuple(
        Prior("second_flat", [0.25, 0.25, 0.25, 0.25]) if p.name == "boom_biased" else p
        for p in catalog.entries
    )
    with pytest.raises(ValueError):
        PriorCatalog(states=catalog.states, entries=doubled)
