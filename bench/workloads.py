"""Seeded inputs of the benchmark workloads.

Every function here is a pure function of its seed: the same seed writes the
same bytes.  The program under test only ever sees the files written here.
"""

from __future__ import annotations

import csv
import os

import numpy as np

ASSETS = ("equity", "bonds", "commodities", "real_estate", "intl_equity")
REGIMES = ("Expansion", "Recovery", "Stagnation", "Recession")

# Planted (market return, realized volatility) centres.  The noise around
# them is bounded, and the boxes it spans are far apart in standardized
# feature space, so any k-means optimum recovers the planted partition month
# by month and the centroid geometry yields the four labels in this order.
PLANTED_CENTRES = {
    "Expansion": (0.030, 0.008),
    "Recovery": (0.015, 0.022),
    "Stagnation": (0.000, 0.012),
    "Recession": (-0.030, 0.035),
}
RET_HALF_WIDTH = 0.004
VOL_HALF_WIDTH = 0.002

# Regime means of the non-market asset classes (monthly), and their noise.
OTHER_MEANS = {
    "bonds": (0.002, 0.004, 0.003, 0.006),
    "commodities": (0.012, 0.006, -0.002, -0.020),
    "real_estate": (0.015, 0.012, 0.000, -0.030),
    "intl_equity": (0.025, 0.014, -0.002, -0.035),
}
OTHER_NOISE = 0.01

PANEL_MONTHS = 480

# dense-tables: (acts, states) of the tables one run holds, each under
# DENSE_PRIORS Dirichlet priors.  The tables come from DENSE_TABLE_SEED and
# the run's seed draws only their priors, so that every run does nearly the
# same LP work: over 20 seeds, the interquartile range of the simplex pivots
# a run's profiles take was 4% of the median when the seed also drew the
# tables, and 0.6% with these fixed tables.
DENSE_SHAPES = ((24, 8), (24, 8), (20, 10), (20, 10))
DENSE_TABLE_SEED = 0
DENSE_PRIORS = 4


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cells(values) -> list[str]:
    return [repr(float(v)) for v in values]


def dirichlet_priors(rng: np.random.Generator, count: int, m: int) -> np.ndarray:
    """Dirichlet(1) draws, each renormalized so it sums to 1 as exactly as
    floating point allows (the program accepts sums within 1e-9)."""
    masses = rng.dirichlet(np.ones(m), size=count)
    return masses / masses.sum(axis=1, keepdims=True)


def month_labels(count: int, start_year: int = 1985) -> list[str]:
    return [f"{start_year + i // 12:04d}-{i % 12 + 1:02d}" for i in range(count)]


def make_panel(seed: int, months: int = PANEL_MONTHS) -> dict:
    """Monthly returns of the five asset classes, daily market returns, and
    the planted regime of every month."""
    rng = np.random.default_rng([seed, 1])
    planted = np.repeat(np.arange(4), months // 4)
    planted = np.concatenate([planted, rng.integers(0, 4, months - planted.size)])
    rng.shuffle(planted)
    names = [REGIMES[g] for g in planted]
    centre = np.array([PLANTED_CENTRES[n] for n in names])
    ret = centre[:, 0] + rng.uniform(-RET_HALF_WIDTH, RET_HALF_WIDTH, months)
    vol = centre[:, 1] + rng.uniform(-VOL_HALF_WIDTH, VOL_HALF_WIDTH, months)

    returns = np.empty((months, len(ASSETS)))
    returns[:, 0] = ret
    for k, asset in enumerate(ASSETS[1:], start=1):
        means = np.array(OTHER_MEANS[asset])[planted]
        returns[:, k] = means + rng.normal(0.0, OTHER_NOISE, months)

    labels = month_labels(months)
    daily = []
    for i, month in enumerate(labels):
        days = int(rng.integers(20, 23))
        z = rng.standard_normal(days)
        z = (z - z.mean()) / z.std(ddof=1)
        # The daily returns sum to the monthly market return and their
        # sample standard deviation is the planted volatility.
        obs = ret[i] / days + vol[i] * z
        daily.extend((f"{month}-{d + 1:02d}", float(x)) for d, x in enumerate(obs))
    return {"months": labels, "returns": returns, "daily": daily, "planted": names}


def write_panel(directory: str, panel: dict) -> dict:
    monthly = os.path.join(directory, "monthly.csv")
    daily = os.path.join(directory, "daily.csv")
    write_csv(monthly, ["date", *ASSETS],
              [[m, *_cells(r)] for m, r in zip(panel["months"], panel["returns"])])
    write_csv(daily, ["date", ASSETS[0]], [[d, repr(x)] for d, x in panel["daily"]])
    return {"monthly": monthly, "daily": daily}


def make_dense_table(seed: int, index: int, n: int, m: int, priors: int) -> dict:
    """Fixed table ``index`` of n acts x m states under priors drawn from ``seed``."""
    table_rng = np.random.default_rng([DENSE_TABLE_SEED, 2, index])
    prior_rng = np.random.default_rng([seed, 4, index])
    return {
        "acts": tuple(f"act{i:02d}" for i in range(n)),
        "states": tuple(f"s{j}" for j in range(m)),
        "utilities": table_rng.uniform(-1.0, 1.0, size=(n, m)),
        "prior_names": tuple(f"p{k + 1}" for k in range(priors)),
        "priors": dirichlet_priors(prior_rng, priors, m),
    }


def write_table(directory: str, tag: str, table: dict) -> dict:
    utilities = os.path.join(directory, f"{tag}_utilities.csv")
    priors = os.path.join(directory, f"{tag}_priors.csv")
    write_csv(utilities, ["act", *table["states"]],
              [[a, *_cells(row)] for a, row in zip(table["acts"], table["utilities"])])
    write_csv(priors, ["prior", *table["states"]],
              [[n, *_cells(p)] for n, p in zip(table["prior_names"], table["priors"])])
    return {"utilities": utilities, "priors": priors}
