"""The eight stock belief specifications over the four-regime state space.

The masses are implementation defaults shipped as an editable CSV inside the
package; swap in your own priors file to override any of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .core import Prior
from .scenarios import REGIME_ORDER

__all__ = ["PriorCatalog", "default_catalog"]

_CATALOG_RESOURCE = "default_priors.csv"


@dataclass(frozen=True)
class PriorCatalog:
    """Exactly eight named priors on a common state space, one of them uniform."""

    states: tuple[str, ...]
    entries: tuple[Prior, ...]

    def __post_init__(self):
        if len(self.entries) != 8:
            raise ValueError(f"catalog must hold exactly 8 priors, got {len(self.entries)}")
        names = [p.name for p in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("catalog prior names must be unique")
        m = len(self.states)
        uniform = [
            p.name for p in self.entries if np.allclose(p.mass, 1.0 / m, rtol=0, atol=1e-12)
        ]
        if len(uniform) != 1:
            raise ValueError(f"catalog must contain exactly one uniform prior, found {uniform}")


def default_catalog() -> PriorCatalog:
    """Load the packaged eight-prior catalog over the regime state space."""
    from .io import _rows_from_stream, parse_priors  # local import to avoid a module cycle

    resource = resources.files("priorstab").joinpath("data", _CATALOG_RESOURCE)
    with resource.open("r", encoding="utf-8") as fh:
        states, priors = parse_priors(_rows_from_stream(fh, _CATALOG_RESOURCE), _CATALOG_RESOURCE)
    if states != REGIME_ORDER:
        raise ValueError(
            f"packaged catalog states {states} do not match the regime order"
        )
    return PriorCatalog(states=states, entries=tuple(priors))
