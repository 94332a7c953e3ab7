"""Stability analysis of Bayes-optimal acts under banded prior perturbations.

The package measures how far a reference prior can move before an optimal
act loses its optimality (robustness radius), how far it must move before a
suboptimal act gains it (contamination need), certifies acts that no prior
can ever make optimal, and trades these stability measures off against
selection costs along an exactly computed path.  A scenario pipeline builds
the underlying decision problems from monthly return data.
"""

__version__ = "0.1.0"

from .beliefs import PriorCatalog, default_catalog
from .core import (
    BayesSet,
    DecisionProblem,
    Prior,
    bayes_acts,
    expected_utility,
)
from .lp import BandBox, SolverError, minimize_over_band
from .scenarios import (
    REGIME_ORDER,
    PortfolioBook,
    RegimeModel,
    ReturnPanel,
    generic_labels,
    kmeans_partition,
    label_regimes,
    monthly_features,
    portfolio_returns,
    utility_matrix,
)
from .selection import (
    CostAssignment,
    GammaResult,
    RexResult,
    ScoreBranch,
    SelectionPath,
    gamma_aggregate,
    rex_score,
    selection_path,
    variance_cost,
)
from .stability import (
    DominanceCertificate,
    Need,
    NeedKind,
    Radius,
    RadiusKind,
    StabilityProfile,
    StabilityRow,
    contamination_need,
    robustness_radius,
    stability_profile,
    strict_inadmissibility_certificate,
)

__all__ = [
    "__version__",
    "BandBox",
    "BayesSet",
    "CostAssignment",
    "DecisionProblem",
    "DominanceCertificate",
    "GammaResult",
    "Need",
    "NeedKind",
    "PortfolioBook",
    "Prior",
    "PriorCatalog",
    "Radius",
    "RadiusKind",
    "REGIME_ORDER",
    "RegimeModel",
    "ReturnPanel",
    "RexResult",
    "ScoreBranch",
    "SelectionPath",
    "SolverError",
    "StabilityProfile",
    "StabilityRow",
    "bayes_acts",
    "contamination_need",
    "default_catalog",
    "expected_utility",
    "gamma_aggregate",
    "generic_labels",
    "kmeans_partition",
    "label_regimes",
    "minimize_over_band",
    "monthly_features",
    "portfolio_returns",
    "rex_score",
    "robustness_radius",
    "selection_path",
    "stability_profile",
    "strict_inadmissibility_certificate",
    "utility_matrix",
    "variance_cost",
]
