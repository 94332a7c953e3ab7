"""Stability analysis of Bayes-optimal acts under banded prior perturbations.

The package measures how far a reference prior can move before an optimal
act loses its optimality (robustness radius), how far it must move before a
suboptimal act gains it (contamination need), certifies acts that no prior
can ever make optimal, and trades these stability measures off against
selection costs along an exactly computed path.  A scenario pipeline builds
the underlying decision problems from monthly return data.
"""

__version__ = "0.1.0"

from .core import DecisionProblem, Prior, bayes_acts
from .selection import selection_path, variance_cost
from .stability import contamination_need, robustness_radius, stability_profile

__all__ = [
    "__version__",
    "DecisionProblem",
    "Prior",
    "bayes_acts",
    "robustness_radius",
    "contamination_need",
    "stability_profile",
    "variance_cost",
    "selection_path",
]
