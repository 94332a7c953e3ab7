"""The public surface: every module's ``__all__`` resolves, and the names of
the package and of every module are pinned, so a name cannot go stale or
regrow unnoticed.  Each exported function or constant is read outside its
module.  The package exports what the README's library example
imports, and that example runs and prints what its comments say."""

import argparse
import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

import priorstab
from priorstab.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

PUBLIC = [
    "DecisionProblem",
    "Prior",
    "__version__",
    "bayes_acts",
    "contamination_need",
    "robustness_radius",
    "selection_path",
    "stability_profile",
    "variance_cost",
]

NAMES = {
    "beliefs": ["default_catalog"],
    "cli": ["main", "run"],
    "core": ["BayesSet", "DecisionProblem", "Prior", "TIE_TOL", "bayes_acts"],
    "io": [
        "ConsistencyError",
        "INADMISSIBLE",
        "InputError",
        "NOT_BAYES",
        "daily_market",
        "format_number",
        "load_costs",
        "load_daily",
        "load_monthly",
        "load_priors",
        "load_utilities",
        "load_weights",
        "render_data_rows",
        "render_json",
        "render_rows",
        "write_reports",
    ],
    "lp": [
        "SolverError",
        "minimize_over_band",
        "solve_stack",
        "start_tableaux",
    ],
    "scenarios": [
        "PortfolioBook",
        "RegimeModel",
        "ReturnPanel",
        "kmeans_partition",
        "label_regimes",
        "monthly_features",
        "portfolio_returns",
        "utility_matrix",
    ],
    "selection": [
        "CostAssignment",
        "PathSegment",
        "Ranking",
        "SelectionPath",
        "gamma_aggregate",
        "rex_score",
        "selection_path",
        "variance_cost",
    ],
    "stability": [
        "DominanceCertificate",
        "Need",
        "Radius",
        "StabilityProfile",
        "StabilityRow",
        "contamination_need",
        "robustness_radius",
        "stability_profile",
    ],
}


@pytest.mark.parametrize("module", sorted(NAMES))
def test_star_import_resolves(module):
    namespace = {}
    exec(f"from priorstab.{module} import *", namespace)
    exported = importlib.import_module(f"priorstab.{module}").__all__
    assert set(exported) <= set(namespace)


def test_package_names_are_pinned():
    assert sorted(priorstab.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(priorstab, name)


@pytest.mark.parametrize("module", sorted(NAMES))
def test_kernel_names_are_pinned(module):
    assert sorted(importlib.import_module(f"priorstab.{module}").__all__) == NAMES[module]


@pytest.mark.parametrize("module", sorted(NAMES))
def test_every_exported_function_and_constant_has_an_outside_reader(module):
    # a reader is another package module, the README or a bench script;
    # classes are exempt, as the README imports result types from their modules
    package = Path(priorstab.__file__).parent
    sources = [p for p in package.glob("*.py") if p.stem != module]
    sources += [p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_")]
    text = "\n".join(p.read_text(encoding="utf-8") for p in [README, *sources])
    exported = importlib.import_module(f"priorstab.{module}")
    unread = [name for name in exported.__all__
              if not isinstance(getattr(exported, name), type)
              and not re.search(rf"\b{re.escape(name)}\b", text)]
    assert unread == []


def readme_example() -> str:
    """The python block under the README's "Library use" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_readme_example_imports_the_package_surface():
    imported = {alias.name for node in ast.walk(ast.parse(readme_example()))
                if isinstance(node, ast.ImportFrom) and node.module == "priorstab"
                for alias in node.names}
    assert sorted(imported | {"__version__"}) == PUBLIC


def test_readme_example_runs_as_its_comments_say():
    # each expression line ends in a comment holding the literal it evaluates to
    source = readme_example()
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace = {}
    checked = 0
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert value == ast.literal_eval(comments[node.end_lineno]), ast.unparse(node)
            checked += 1
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert checked >= 5


def test_readme_usage_blocks_match_the_parser():
    # the flags in the sh block under each "### `priorstab <cmd>`" heading
    # are the sub-parser's options; --out is documented once, for every command
    text = README.read_text(encoding="utf-8")
    documented = {
        command: set(re.findall(r"--[a-z][a-z-]*", block))
        for command, block in re.findall(r"^### `priorstab (\w+)`\n\n```sh\n(.*?)```",
                                         text, re.M | re.S)
    }
    commands = next(action.choices for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {command: {flag for action in sub._actions for flag in action.option_strings}
               for command, sub in commands.items()}
    assert all("--out" in flags for flags in options.values())
    assert "Every command takes `--out DIR`" in text
    assert documented == {command: flags - {"-h", "--help", "--out"}
                          for command, flags in options.items()}
