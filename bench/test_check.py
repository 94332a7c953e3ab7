"""Tests of the benchmark's independent checker.

Run from the root of a checkout:  python3 -m pytest bench/test_check.py -q

Real reports come from priorstab.cli.main run on small seeded inputs; each
class of corrupted report must then be rejected.
"""

import copy
import json
import os
import sys
from contextlib import redirect_stdout
from io import StringIO

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import workloads as wl  # noqa: E402
from priorstab import DecisionProblem, Prior, contamination_need  # noqa: E402
from priorstab.cli import main  # noqa: E402

WEIGHTS = os.path.join(os.path.dirname(HERE), "src", "priorstab", "data", "default_weights.csv")

# Conditional mean returns of six portfolios over the four regimes: the
# table the package's own test suite anchors on.
PORTFOLIO_ACTS = (
    "equity_core",
    "balanced_equity",
    "multi_asset",
    "bond_dominant",
    "real_asset_tilt",
    "equal_weight",
)
PORTFOLIO_UTILITIES = np.array(
    [
        [0.021, 0.059, -0.011, -0.049],
        [0.018, 0.051, -0.011, -0.037],
        [0.015, 0.051, -0.011, -0.029],
        [0.006, 0.024, -0.007, -0.024],
        [0.014, 0.042, -0.008, -0.045],
        [0.015, 0.041, -0.009, -0.024],
    ]
)


def cli(*argv):
    assert main(list(argv)) == 0


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    """Ten acts over four states, one of them strictly dominated by a mixture."""
    out = tmp_path_factory.mktemp("table")
    rng = np.random.default_rng(11)
    U = rng.uniform(-1.0, 1.0, size=(10, 4))
    U[9] = 0.5 * (U[0] + U[1]) - 0.05
    t = {
        "acts": tuple(f"act{i}" for i in range(10)),
        "states": tuple(f"s{j}" for j in range(4)),
        "utilities": U,
        "prior_names": ("p1", "p2", "p3", "p4"),
        "priors": wl.dirichlet_priors(rng, 4, 4),
    }
    files = wl.write_table(str(out), "t", t)
    cli("analyze", "--utilities", files["utilities"], "--priors", files["priors"],
        "--out", str(out))
    cli("path", "--utilities", files["utilities"], "--priors", files["priors"],
        "--prior", "p1", "--out", str(out))
    return t, json.loads(read(out / "stability.json")), json.loads(read(out / "path.json"))


def stability_errors(t, doc):
    return check.check_stability(doc, t["acts"], t["states"], t["utilities"],
                                 t["prior_names"], t["priors"])


def rows_where(doc, predicate):
    return [r for r in doc["rows"] if predicate(r)]


def test_band_min_matches_highs():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = int(rng.integers(2, 7))
        d = rng.uniform(-1.0, 1.0, m)
        center = rng.dirichlet(np.ones(m))
        eps = float(rng.choice([0.0, rng.uniform(0.0, 1.0), 1.0]))
        bounds = [(max(0.0, c - eps), min(1.0, c + eps)) for c in center]
        res = check.linprog(d, A_eq=np.ones((1, m)), b_eq=[1.0], bounds=bounds,
                            method="highs", options=check.HIGHS_OPTIONS)
        assert res.status == 0
        assert check.band_min(d, center, eps)[0] == pytest.approx(res.fun, abs=1e-9)
        assert check.band_max(d, center, eps)[0] >= check.band_min(d, center, eps)[0]


def test_clean_reports_pass(table):
    t, stability, path = table
    assert stability_errors(t, stability) == []
    assert check.check_path(path, stability, t["acts"], t["utilities"], "p1", 3.0) == []
    assert rows_where(stability, lambda r: r["con"] == check.INADMISSIBLE)
    assert rows_where(stability, lambda r: isinstance(r["con"], float) and r["con"] > 0)


def test_need_off_by_1e_6_is_rejected(table):
    t, stability, _ = table
    doc = copy.deepcopy(stability)
    row = rows_where(doc, lambda r: isinstance(r["con"], float) and r["con"] > 0)[0]
    row["con"] += 1e-6
    assert any("HiGHS gives" in e for e in stability_errors(t, doc))


def test_flipped_is_bayes_is_rejected(table):
    t, stability, _ = table
    doc = copy.deepcopy(stability)
    doc["rows"][0]["is_bayes"] = not doc["rows"][0]["is_bayes"]
    assert stability_errors(t, doc)


def test_radius_too_large_is_rejected(table):
    t, stability, _ = table
    doc = copy.deepcopy(stability)
    row = rows_where(doc, lambda r: r["is_bayes"] and r["rob"] < 1.0 - 1e-4)[0]
    row["rob"] += 1e-4
    assert any("not optimal throughout the band" in e for e in stability_errors(t, doc))


def test_radius_too_small_is_rejected(table):
    t, stability, _ = table
    doc = copy.deepcopy(stability)
    row = rows_where(doc, lambda r: r["is_bayes"] and r["rob"] > 1e-4)[0]
    row["rob"] -= 1e-4
    assert any("still optimal" in e for e in stability_errors(t, doc))


def test_certificate_with_a_negative_margin_is_rejected(table):
    t, stability, _ = table
    doc = copy.deepcopy(stability)
    cert = rows_where(doc, lambda r: r["con"] == check.INADMISSIBLE)[0]["certificate"]
    cert["margins"][0] = -abs(cert["margins"][0])
    assert any("certificate" in e for e in stability_errors(t, doc))


def test_inadmissible_label_on_an_admissible_act_is_rejected(table):
    t, stability, _ = table
    doc = copy.deepcopy(stability)
    row = rows_where(doc, lambda r: isinstance(r["con"], float) and r["con"] > 0)[0]
    row["con"] = check.INADMISSIBLE
    assert stability_errors(t, doc)


def test_segment_naming_the_wrong_act_is_rejected(table):
    t, stability, path = table
    doc = copy.deepcopy(path)
    seg = doc["segments"][0]
    others = [l["act"] for l in doc["lines"]
              if l["act"] != seg["act"] and not l["inadmissible"]]
    seg["act"] = others[-1]
    errors = check.check_path(doc, stability, t["acts"], t["utilities"], "p1", 3.0)
    assert any("maximize the score" in e for e in errors)


def test_baselines(tmp_path):
    rng = np.random.default_rng([5, 3])
    t = {
        "acts": PORTFOLIO_ACTS,
        "states": wl.REGIMES,
        "utilities": PORTFOLIO_UTILITIES,
        "prior_names": ("d0001", "d0002", "d0003"),
        "priors": wl.dirichlet_priors(rng, 3, len(wl.REGIMES)),
    }
    files = wl.write_table(str(tmp_path), "s", t)
    buf = StringIO()
    with redirect_stdout(buf):
        cli("baselines", "--utilities", files["utilities"], "--priors", files["priors"],
            "--prior", "d0002", "--out", str(tmp_path))
    text = read(tmp_path / "baselines.csv")
    args = (t["acts"], t["utilities"], "d0002", t["priors"][1], 0.1, 0.5, 0.5)
    assert check.check_baselines(text, buf.getvalue(), *args) == []
    value = text.splitlines()[1].rsplit(",", 1)
    bad = text.replace(",".join(value), f"{value[0]},{float(value[1]) + 1e-6}", 1)
    assert check.check_baselines(bad, buf.getvalue(), *args)
    swapped = buf.getvalue().replace("worst-case optimal: ", "worst-case optimal: equity_core, ")
    assert check.check_baselines(text, swapped, *args)


def test_scenarios_and_a_mislabeled_month(tmp_path):
    panel = wl.make_panel(9, months=96)
    files = wl.write_panel(str(tmp_path), panel)
    cli("scenarios", "--monthly", files["monthly"], "--daily", files["daily"],
        "--weights", WEIGHTS, "--out", str(tmp_path))
    regimes = read(tmp_path / "regimes.csv")
    utilities = read(tmp_path / "utilities.csv")

    def errors(reg, util):
        return check.check_scenarios(reg, util, panel["months"], panel["returns"], wl.ASSETS,
                                     panel["planted"], read(WEIGHTS), wl.REGIMES)

    assert errors(regimes, utilities) == []
    lines = regimes.splitlines()
    month, cluster, label = lines[1].split(",")
    other = next(r for r in wl.REGIMES if r != label)
    lines[1] = f"{month},{cluster},{other}"
    assert errors("\n".join(lines) + "\n", utilities)
    row = utilities.splitlines()[1].split(",")
    row[1] = repr(float(row[1]) * (1 + 1e-9))
    assert errors(regimes, utilities.replace(utilities.splitlines()[1], ",".join(row)))


def test_tight_highs_tolerances_resolve_a_tiny_need():
    """A prior under which one act trails the best by ~1e-8: the need is of
    order 1e-7, which HiGHS' default tolerances round to 0."""
    U = PORTFOLIO_UTILITIES
    a = PORTFOLIO_ACTS.index("equal_weight")
    # Move from a prior where equal_weight is optimal towards one where it is
    # not, and stop just past the switch.
    inside, outside = np.array([0.05, 0.05, 0.1, 0.8]), np.array([0.4, 0.4, 0.1, 0.1])
    for _ in range(200):
        mid = 0.5 * (inside + outside)
        gap = (U @ mid).max() - U[a] @ mid
        if gap > 0.0:
            outside = mid
        else:
            inside = mid
        if 0.0 < gap < 5e-8:
            break
    assert 0.0 < gap < 5e-8
    need = check.highs_need(U, a, outside)
    problem = DecisionProblem(PORTFOLIO_ACTS, wl.REGIMES, U)
    exact = contamination_need(problem, "equal_weight", Prior("p", outside)).epsilon
    assert need > 1e-7
    assert abs(need - exact) < check.NEED_TOL
