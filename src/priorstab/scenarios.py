"""From monthly return data to a regime-conditioned decision problem.

Pipeline: fixed-weight portfolio returns, (market return, realized
volatility) features per month, k-means partition of the months into
regimes, qualitative regime labels from the centroid geometry, and the
conditional mean return of each portfolio per regime as the utility matrix.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace

import numpy as np

from .core import DecisionProblem
from .lp import SolverError

__all__ = [
    "REGIME_ORDER",
    "PortfolioBook",
    "RegimeModel",
    "ReturnPanel",
    "generic_labels",
    "kmeans_partition",
    "label_regimes",
    "monthly_features",
    "portfolio_returns",
    "utility_matrix",
]

REGIME_ORDER = ("Expansion", "Recovery", "Stagnation", "Recession")

_MONTH_RE = re.compile(r"^\d{4}-\d{2}$")
MIN_DAILY_OBS = 5
# k-means: seeded k-means++ restarts, and Lloyd's iteration cap and
# centroid-shift tolerance in each
_RESTARTS = 10
_MAX_ITER = 100
_SHIFT_TOL = 1e-8


class _RowError(ValueError):
    """A rule that one row breaks; ``row`` is the row's index."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class ReturnPanel:
    """Monthly asset returns, with optional volatility or daily-return backing."""

    months: tuple[str, ...]
    assets: tuple[str, ...]
    returns: np.ndarray
    volatility: np.ndarray | None = None
    daily: dict[str, np.ndarray] | None = None

    def __post_init__(self):
        months = tuple(self.months)
        assets = tuple(self.assets)
        r = np.asarray(self.returns, dtype=float)
        if len(months) < 1 or len(assets) < 1:
            raise ValueError("panel needs at least one month and one asset")
        if len(set(assets)) != len(assets):
            raise ValueError("panel asset names must be unique")
        for i, m in enumerate(months):
            if not _MONTH_RE.match(m):
                raise _RowError(f"malformed month label {m!r} (expected YYYY-MM)", i)
            if i and m <= months[i - 1]:
                raise _RowError("months must be strictly increasing", i)
        if r.shape != (len(months), len(assets)):
            raise ValueError(f"returns shape {r.shape} does not match panel labels")
        if not np.all(np.isfinite(r)):
            raise ValueError("panel returns must be finite")
        vol = self.volatility
        if vol is not None:
            vol = np.asarray(vol, dtype=float)
            if vol.shape != (len(months),) or not np.all(np.isfinite(vol)):
                raise ValueError("volatility must be one finite value per month")
        object.__setattr__(self, "months", months)
        object.__setattr__(self, "assets", assets)
        object.__setattr__(self, "returns", r)
        object.__setattr__(self, "volatility", vol)

    @property
    def num_months(self) -> int:
        return len(self.months)


@dataclass(frozen=True)
class PortfolioBook:
    """Named fixed-weight portfolios over a common asset universe."""

    names: tuple[str, ...]
    assets: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        assets = tuple(self.assets)
        w = np.asarray(self.weights, dtype=float)
        if len(set(names)) != len(names):
            raise ValueError("portfolio names must be unique")
        if len(set(assets)) != len(assets):
            raise ValueError("portfolio asset names must be unique")
        if w.shape != (len(names), len(assets)):
            raise ValueError(f"weights shape {w.shape} does not match labels")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        bad = np.flatnonzero(np.abs(w.sum(axis=1) - 1.0) > 1e-9).tolist()
        if bad:
            raise _RowError(f"portfolio weights must sum to 1: "
                            f"{', '.join(names[i] for i in bad)}", bad[0])
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "assets", assets)
        object.__setattr__(self, "weights", w)


def portfolio_returns(panel: ReturnPanel, book: PortfolioBook) -> np.ndarray:
    """Months-by-portfolios return matrix from the panel and the weight book."""
    if set(book.assets) != set(panel.assets):
        missing = sorted(set(book.assets) - set(panel.assets))
        extra = sorted(set(panel.assets) - set(book.assets))
        raise ValueError(
            f"asset mismatch between panel and weights "
            f"(missing from panel: {missing}, absent from weights: {extra})"
        )
    order = [book.assets.index(a) for a in panel.assets]
    return panel.returns @ book.weights[:, order].T


def monthly_features(panel: ReturnPanel, market_asset: str) -> np.ndarray:
    """Per-month (market return, realized volatility) feature pairs.

    A precomputed volatility series wins when present; otherwise the
    volatility of a month is the sample standard deviation of that month's
    daily market returns, requiring at least ``MIN_DAILY_OBS`` observations.
    """
    if market_asset not in panel.assets:
        raise ValueError(f"market asset {market_asset!r} not in panel")
    market = panel.returns[:, panel.assets.index(market_asset)]
    if panel.volatility is not None:
        return np.column_stack([market, panel.volatility])
    if panel.daily is None:
        raise ValueError("panel has neither a volatility series nor daily returns")
    vol = np.empty(panel.num_months)
    for i, month in enumerate(panel.months):
        obs = panel.daily.get(month)
        if obs is None or len(obs) == 0:
            raise ValueError(f"month {month}: no daily market returns available")
        if len(obs) < MIN_DAILY_OBS:
            raise ValueError(
                f"month {month}: only {len(obs)} daily observations "
                f"(need at least {MIN_DAILY_OBS})"
            )
        arr = np.asarray(obs, dtype=float)
        # exactly-constant months deserve exactly zero, not rounding dust
        vol[i] = 0.0 if np.ptp(arr) == 0.0 else float(arr.std(ddof=1))
    return np.column_stack([market, vol])


@dataclass(frozen=True)
class RegimeModel:
    """A k-means partition of months in standardized feature space."""

    k: int
    centroids: np.ndarray
    assignment: np.ndarray
    wcss: float
    months: tuple[str, ...] | None = None
    labels: dict[int, str] | None = None

    def partition(self) -> dict[int, np.ndarray]:
        return {j: np.flatnonzero(self.assignment == j) for j in range(self.k)}

    def state_order(self) -> tuple[int, ...]:
        """Cluster indices in reporting order: canonical regime order when
        the four standard labels are present, cluster index otherwise."""
        if self.labels is None:
            raise ValueError("model has no labels yet")
        if set(self.labels.values()) == set(REGIME_ORDER):
            by_name = {name: j for j, name in self.labels.items()}
            return tuple(by_name[name] for name in REGIME_ORDER)
        return tuple(sorted(self.labels))


def _standardize(features: np.ndarray) -> np.ndarray:
    mean = features.mean(axis=0)
    sd = features.std(axis=0)
    sd = np.where(sd < 1e-15, 1.0, sd)
    return (features - mean) / sd


def _kmeanspp_init(points: np.ndarray, k: int, rng: random.Random) -> np.ndarray:
    # k-means++ on one uniform u = rng.random() per centre: the first centre is
    # point int(u * n); each later one is the first point whose normalized
    # cumulative squared distance to the nearest centre exceeds u (numpy's
    # choice(p=) rule), or a uniform point once every distance is zero
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.random() * n)]
    sq_dist = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        cdf = np.cumsum(sq_dist)
        u = rng.random()
        if cdf[-1] <= 0.0:
            idx = int(u * n)
        else:
            idx = min(int(np.searchsorted(cdf / cdf[-1], u, side="right")), n - 1)
        centroids[j] = points[idx]
        sq_dist = np.minimum(sq_dist, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _assign(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, float]:
    sq = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assignment = sq.argmin(axis=1)  # ties resolve to the lower cluster index
    wcss = float(sq[np.arange(points.shape[0]), assignment].sum())
    return assignment, wcss


def _lloyd(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    k = centroids.shape[0]
    assignment, wcss = _assign(points, centroids)
    for _ in range(_MAX_ITER):
        new_centroids = centroids.copy()
        used = set()
        for j in range(k):
            members = points[assignment == j]
            if len(members):
                new_centroids[j] = members.mean(axis=0)
        # Re-seed empty clusters at the point currently served worst.
        dist = ((points - new_centroids[assignment]) ** 2).sum(axis=1)
        for j in range(k):
            if np.any(assignment == j):
                continue
            order = np.argsort(-dist, kind="stable")
            for idx in order:
                if int(idx) not in used:
                    new_centroids[j] = points[idx]
                    used.add(int(idx))
                    break
        new_assignment, new_wcss = _assign(points, new_centroids)
        if new_wcss > wcss + 1e-12 * (1.0 + wcss):
            raise SolverError("clustering objective increased across an iteration")
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids, assignment, wcss = new_centroids, new_assignment, new_wcss
        if shift < _SHIFT_TOL:
            break
    return centroids, assignment, wcss


def kmeans_partition(
    features: np.ndarray,
    k: int,
    seed: int,
    months=None,
) -> RegimeModel:
    """Seeded k-means over standardized monthly features.

    Runs ``_RESTARTS`` (10) k-means++ initializations from one ``random.Random``
    stream of the nonnegative integer ``seed`` and keeps the partition with the
    lowest within-cluster sum of squares: a pure function of (features, k, seed).
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be a months-by-dimensions matrix")
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    if k < 1:
        raise ValueError(f"cluster count must be at least 1, got {k}")
    if X.shape[0] < k:
        raise ValueError(f"{X.shape[0]} observations cannot support {k} clusters")
    if months is not None:
        months = tuple(months)
        if len(months) != X.shape[0]:
            raise ValueError("month labels do not match the feature rows")
    Z = _standardize(X)
    rng = random.Random(int(seed))
    best = None
    for _ in range(_RESTARTS):
        init = _kmeanspp_init(Z, k, rng)
        centroids, assignment, wcss = _lloyd(Z, init)
        if best is None or wcss < best[2]:
            best = (centroids, assignment, wcss)
    centroids, assignment, wcss = best
    return RegimeModel(
        k=k, centroids=centroids, assignment=assignment, wcss=wcss, months=months
    )


def label_regimes(model: RegimeModel) -> RegimeModel:
    """Name four clusters from their standardized (return, volatility) centroids.

    Score each centroid by return minus volatility: the best is Expansion and
    the worst Recession; of the middle two, the higher return is Recovery and
    the lower Stagnation.  All ties break toward the lower cluster index, so
    the labeling is deterministic and invariant to centroid order.
    """
    if model.k != 4:
        raise ValueError(f"regime labeling requires exactly 4 clusters, got {model.k}")
    score = model.centroids[:, 0] - model.centroids[:, 1]
    by_score = sorted(range(4), key=lambda j: (-score[j], j))
    middle = sorted(by_score[1:3], key=lambda j: (-model.centroids[j, 0], j))
    labels = {
        by_score[0]: "Expansion",
        middle[0]: "Recovery",
        middle[1]: "Stagnation",
        by_score[3]: "Recession",
    }
    return replace(model, labels=labels)


def generic_labels(model: RegimeModel) -> RegimeModel:
    """Index-based labels for cluster counts other than four."""
    return replace(model, labels={j: f"regime_{j + 1}" for j in range(model.k)})


def utility_matrix(returns: np.ndarray, model: RegimeModel, acts) -> DecisionProblem:
    """Conditional mean return of each act per regime, as a decision problem."""
    R = np.asarray(returns, dtype=float)
    acts = tuple(acts)
    if R.ndim != 2 or R.shape[1] != len(acts):
        raise ValueError("returns must be a months-by-acts matrix")
    if R.shape[0] != model.assignment.size:
        raise ValueError("returns and regime assignment cover different months")
    if model.labels is None:
        raise ValueError("regime model must be labeled first")
    order = model.state_order()
    partition = model.partition()
    columns = []
    for j in order:
        members = partition[j]
        if members.size == 0:
            raise ValueError(
                f"regime {model.labels[j]!r} has no months; cannot take a conditional mean"
            )
        columns.append(R[members].mean(axis=0))
    states = tuple(model.labels[j] for j in order)
    return DecisionProblem(acts, states, np.column_stack(columns))
