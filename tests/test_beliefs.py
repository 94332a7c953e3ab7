import numpy as np
import pytest

from priorstab.beliefs import default_catalog
from priorstab.scenarios import _REGIME_ORDER


@pytest.fixture(scope="module")
def states():
    return default_catalog()[0]


@pytest.fixture(scope="module")
def priors():
    return default_catalog()[1]


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


def prior_named(priors, name):
    return next(p for p in priors if p.name == name)


def test_eight_entries_in_order(states, priors):
    assert tuple(p.name for p in priors) == tuple(EXPECTED_MASSES)
    assert states == _REGIME_ORDER


def test_documented_masses(priors):
    for name, masses in EXPECTED_MASSES.items():
        assert prior_named(priors, name).mass == pytest.approx(masses, abs=1e-12)


def test_every_entry_is_a_distribution(priors):
    for prior in priors:
        assert prior.mass.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(prior.mass > 0.0)


def test_regime_focused_modes_match_names(states, priors):
    focus = {
        "boom_biased": "Expansion",
        "recovery_focused": "Recovery",
        "stagnation_oriented": "Stagnation",
        "recession_focused": "Recession",
    }
    for name, state in focus.items():
        prior = prior_named(priors, name)
        assert states[int(np.argmax(prior.mass))] == state


def test_exactly_one_uniform(priors):
    flat = [
        p.name for p in priors if np.allclose(p.mass, 0.25, rtol=0, atol=1e-12)
    ]
    assert flat == ["uniform"]


def test_opportunistic_top_two(states, priors):
    mass = prior_named(priors, "opportunistic").mass
    top_two = {states[j] for j in np.argsort(-mass)[:2]}
    assert top_two == {"Expansion", "Stagnation"}
