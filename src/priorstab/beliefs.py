"""The eight stock belief specifications over the four-regime state space.

The masses are implementation defaults shipped as an editable CSV inside the
package; swap in your own priors file to override any of them.
"""

from __future__ import annotations

from importlib import resources

from .core import Prior
from .io import _rows_from_stream, parse_priors

__all__ = ["default_catalog"]

_CATALOG_RESOURCE = "default_priors.csv"


def default_catalog() -> tuple[tuple[str, ...], list[Prior]]:
    """The packaged eight-prior catalog over the regime states, as
    ``(states, priors)`` in the shape of `io.load_priors`."""
    resource = resources.files("priorstab").joinpath("data", _CATALOG_RESOURCE)
    with resource.open("r", encoding="utf-8") as fh:
        return parse_priors(_rows_from_stream(fh, _CATALOG_RESOURCE), _CATALOG_RESOURCE)
