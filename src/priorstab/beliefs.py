"""The eight stock belief specifications over the four-regime state space.

The masses are implementation defaults shipped as an editable CSV inside the
package; swap in your own priors file to override any of them.
"""

from __future__ import annotations

from importlib import resources

from .core import Prior
from .io import load_priors

__all__ = ["default_catalog"]


def default_catalog() -> tuple[tuple[str, ...], list[Prior]]:
    """The packaged eight-prior catalog over the regime states, as
    ``(states, priors)``, read by `io.load_priors`."""
    resource = resources.files("priorstab").joinpath("data", "default_priors.csv")
    with resources.as_file(resource) as path:
        return load_priors(path)
