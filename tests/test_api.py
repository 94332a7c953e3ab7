"""The public surface: every module's ``__all__`` resolves, and the package's
names are pinned, so a name cannot go stale or regrow unnoticed."""

import importlib

import pytest

import priorstab

MODULES = ("beliefs", "cli", "core", "io", "lp", "scenarios", "selection", "stability")

PUBLIC = [
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
    "REGIME_ORDER",
    "Radius",
    "RadiusKind",
    "RegimeModel",
    "ReturnPanel",
    "RexResult",
    "ScoreBranch",
    "SelectionPath",
    "SolverError",
    "StabilityProfile",
    "StabilityRow",
    "__version__",
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


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    namespace = {}
    exec(f"from priorstab.{module} import *", namespace)
    exported = importlib.import_module(f"priorstab.{module}").__all__
    assert set(exported) <= set(namespace)


def test_package_names_are_pinned():
    assert sorted(priorstab.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(priorstab, name)
