"""Checks of priorstab's reports against computations made apart from it.

Nothing here imports priorstab.  Expected utilities and Bayes sets are
recomputed with numpy, band extremes with a sort-and-fill written here,
contamination needs and dominance with scipy's HiGHS at tight tolerances,
and scenario utilities with a plain group-by.  Every check function returns
a list of error strings; an empty list means the report passed.
"""

from __future__ import annotations

import csv
import io

import numpy as np
from scipy.optimize import linprog

NOT_BAYES = "NOT_BAYES"
INADMISSIBLE = "INADMISSIBLE"

TIE_TOL = 1e-12       # documented expected-utility tie threshold of the Bayes set
NEED_TOL = 1e-9       # agreement required between a finite need and HiGHS
MARGIN_TOL = 1e-9     # slack allowed on "optimal throughout the band at rob"
RADIUS_PROBE = 1e-5   # an exact or bisected radius is off by less than this
CSV_REL_TOL = 1e-8    # report CSVs print 9 significant digits

# HiGHS defaults (1e-7) are too loose for needs of order 1e-7: on the
# six-portfolio table a prior under which equal_weight trails the best act
# by 1.7e-8 gets need 0 from default HiGHS, where the exact need is 6.1e-7.
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


# ---------------------------------------------------------------------------
# Independent kernels.

def band_min(directions, center, eps: float) -> np.ndarray:
    """min <pi, d> over {pi in simplex : |pi - center| <= eps} for each row d.

    Sort-and-fill: start every coordinate at its lower bound and pour the
    remaining mass into coordinates in ascending order of d, each up to its
    upper bound.
    """
    D = np.atleast_2d(np.asarray(directions, dtype=float))
    center = np.asarray(center, dtype=float)
    lo = np.maximum(0.0, center - eps)
    hi = np.minimum(1.0, center + eps)
    residual = 1.0 - lo.sum()
    order = np.argsort(D, axis=1, kind="stable")
    caps = (hi - lo)[order]
    before = np.cumsum(caps, axis=1) - caps
    fill = np.clip(residual - before, 0.0, caps)
    return D @ lo + (np.take_along_axis(D, order, axis=1) * fill).sum(axis=1)


def band_max(directions, center, eps: float) -> np.ndarray:
    return -band_min(-np.asarray(directions, dtype=float), center, eps)


def worst_case_margin(U: np.ndarray, a: int, center, eps: float) -> float:
    """Smallest advantage of act a over any competitor across the band."""
    diffs = U[a] - np.delete(U, a, axis=0)
    return float(band_min(diffs, center, eps).min())


def _highs(c, A_ub, b_ub, A_eq, b_eq, bounds):
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs", options=HIGHS_OPTIONS)
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return res


def highs_need(U: np.ndarray, a: int, center) -> float | None:
    """Smallest band radius at which some prior makes act a optimal, or None
    when no prior does (the min-eps program is infeasible)."""
    m = U.shape[1]
    G = np.delete(U, a, axis=0) - U[a]          # <pi, u_b - u_a> <= 0
    eye = np.eye(m)
    A_ub = np.vstack([
        np.hstack([G, np.zeros((G.shape[0], 1))]),
        np.hstack([eye, -np.ones((m, 1))]),      # pi_j - eps <= pi0_j
        np.hstack([-eye, -np.ones((m, 1))]),     # -pi_j - eps <= -pi0_j
    ])
    b_ub = np.concatenate([np.zeros(G.shape[0]), center, -np.asarray(center)])
    A_eq = np.concatenate([np.ones(m), [0.0]])[None, :]
    c = np.zeros(m + 1)
    c[m] = 1.0
    res = _highs(c, A_ub, b_ub, A_eq, [1.0], [(0.0, None)] * m + [(0.0, 1.0)])
    return None if res.status == 2 else float(res.x[m])


def highs_admissible(U: np.ndarray, a: int) -> bool:
    """Is act a optimal under some prior of the simplex?"""
    m = U.shape[1]
    G = np.delete(U, a, axis=0) - U[a]
    res = _highs(np.zeros(m), G, np.zeros(G.shape[0]), np.ones((1, m)), [1.0],
                 [(0.0, None)] * m)
    return res.status == 0


def argmax_set(acts, values) -> tuple[str, ...]:
    values = np.asarray(values, dtype=float)
    best = values.max()
    return tuple(a for a, v in zip(acts, values) if v >= best - TIE_TOL)


def _close(x: float, y: float, rel: float, scale: float = 0.0) -> bool:
    return abs(x - y) <= rel * max(abs(y), scale)


# ---------------------------------------------------------------------------
# Readers of the inputs and outputs, written apart from priorstab's io.

def read_table(text: str, first: str) -> tuple[list[str], list[str], np.ndarray]:
    """`<first>,<col>...` CSV at full precision: (row names, columns, values)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][0] != first:
        raise ValueError(f"header does not start with {first!r}")
    names = [r[0] for r in rows[1:]]
    return names, rows[0][1:], np.array([[float(x) for x in r[1:]] for r in rows[1:]])


def _number(cell):
    return cell if isinstance(cell, str) else float(cell)


# ---------------------------------------------------------------------------
# analyze / stability_profile

class HighsCache:
    """HiGHS results already computed: admissibility per (table, act), which
    ignores the prior, and need per (table, act, prior)."""

    def __init__(self):
        self._admissible: dict[tuple[bytes, int], bool] = {}
        self._need: dict[tuple[bytes, int, bytes], float | None] = {}

    def admissible(self, U: np.ndarray, a: int) -> bool:
        key = (U.tobytes(), a)
        if key not in self._admissible:
            self._admissible[key] = highs_admissible(U, a)
        return self._admissible[key]

    def need(self, U: np.ndarray, a: int, center) -> float | None:
        key = (U.tobytes(), a, np.asarray(center, dtype=float).tobytes())
        if key not in self._need:
            self._need[key] = highs_need(U, a, center)
        return self._need[key]


def check_stability(doc: dict, acts, states, U: np.ndarray, prior_names, masses,
                    rng: np.random.Generator | None = None,
                    max_need_checks: int | None = None,
                    highs: HighsCache | None = None) -> list[str]:
    """Check a stability report (the JSON written by analyze).

    Every row gets the cheap checks.  Finite needs are compared with HiGHS;
    when ``max_need_checks`` is set, a sample of that many drawn with ``rng``.
    """
    highs = highs or HighsCache()
    errors: list[str] = []
    acts, prior_names = list(acts), list(prior_names)
    n = len(acts)
    if doc.get("acts") != acts or doc.get("states") != list(states):
        return ["acts or states differ from the input"]
    reported = doc.get("priors", [])
    if [p["name"] for p in reported] != prior_names:
        return ["prior names differ from the input"]
    for p, mass in zip(reported, masses):
        if not np.allclose(p["mass"], mass, rtol=0.0, atol=1e-12):
            errors.append(f"prior {p['name']}: masses differ from the input")
    rows = doc.get("rows", [])
    if len(rows) != n * len(prior_names):
        return errors + [f"{len(rows)} rows for {n} acts x {len(prior_names)} priors"]

    scale = float(np.abs(U).max()) or 1.0
    finite_needs = []
    for k, p in enumerate(reported):
        pi = np.asarray(p["mass"], dtype=float)
        eu = U @ pi
        best = eu.max()
        for a in range(n):
            row = rows[k * n + a]
            where = f"prior {p['name']}, act {acts[a]}"
            if row["prior"] != p["name"] or row["act"] != acts[a]:
                errors.append(f"{where}: row out of order")
                continue
            if abs(row["expected_utility"] - eu[a]) > 1e-12 * scale:
                errors.append(f"{where}: expected utility {row['expected_utility']!r} != {eu[a]!r}")
            bayes = bool(eu[a] >= best - TIE_TOL)
            if row["is_bayes"] is not bayes:
                errors.append(f"{where}: is_bayes {row['is_bayes']} but recomputed {bayes}")
            rob, con = _number(row["rob"]), _number(row["con"])
            if (con == 0.0) != row["is_bayes"] or isinstance(rob, str) == row["is_bayes"]:
                errors.append(f"{where}: con == 0, is_bayes and a numeric rob disagree")
            if isinstance(rob, str) and rob != NOT_BAYES:
                errors.append(f"{where}: unknown rob sentinel {rob!r}")
            if isinstance(con, str) and con != INADMISSIBLE:
                errors.append(f"{where}: unknown con sentinel {con!r}")
            if isinstance(rob, float):
                errors += _check_radius(where, U, a, pi, rob)
            if con == INADMISSIBLE:
                errors += _check_certificate(where, U, acts, a, row.get("certificate"))
                if highs.admissible(U, a):
                    errors.append(f"{where}: INADMISSIBLE but HiGHS finds a prior making it optimal")
                continue
            if row.get("certificate") is not None:
                errors.append(f"{where}: certificate on a row with a finite need")
            if not isinstance(con, float) or not 0.0 <= con <= 1.0:
                errors.append(f"{where}: con {con!r} is not a radius in [0, 1]")
                continue
            if con > 0.0:
                if not highs.admissible(U, a):
                    errors.append(f"{where}: finite need but HiGHS finds the act dominated")
                # Cheap necessary condition: within the band of radius con
                # (give or take the need tolerance), the act reaches each
                # competitor separately.
                radius = min(1.0, con + NEED_TOL)
                reach = band_max(U[a] - np.delete(U, a, axis=0), pi, radius).min()
                if reach < -MARGIN_TOL * scale:
                    errors.append(f"{where}: at radius con some competitor always wins")
                finite_needs.append((where, a, pi, con))

    if max_need_checks is not None and len(finite_needs) > max_need_checks:
        rng = rng or np.random.default_rng(0)
        pick = sorted(rng.choice(len(finite_needs), size=max_need_checks, replace=False))
        finite_needs = [finite_needs[i] for i in pick]
    for where, a, pi, con in finite_needs:
        exact = highs.need(U, a, pi)
        if exact is None:
            errors.append(f"{where}: finite need {con!r} but HiGHS finds the program infeasible")
        elif abs(con - exact) > NEED_TOL:
            errors.append(f"{where}: need {con!r} but HiGHS gives {exact!r}")
    return errors


def _check_radius(where: str, U, a: int, pi, rob: float) -> list[str]:
    if not 0.0 <= rob <= 1.0:
        return [f"{where}: rob {rob!r} outside [0, 1]"]
    scale = float(np.abs(U).max()) or 1.0
    errors = []
    if U.shape[0] > 1 and worst_case_margin(U, a, pi, rob) < -MARGIN_TOL * scale:
        errors.append(f"{where}: act is not optimal throughout the band at rob {rob!r}")
    if rob < 1.0 and worst_case_margin(U, a, pi, min(1.0, rob + RADIUS_PROBE)) >= 0.0:
        errors.append(f"{where}: act is still optimal throughout the band at rob + {RADIUS_PROBE}")
    return errors


def _check_certificate(where: str, U, acts, a: int, cert) -> list[str]:
    if not cert:
        return [f"{where}: INADMISSIBLE without a certificate"]
    others = [b for b in acts if b != acts[a]]
    if sorted(cert["weights"]) != sorted(others):
        return [f"{where}: certificate does not weigh exactly the competitors"]
    w = np.array([cert["weights"][b] for b in others])
    errors = []
    if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
        errors.append(f"{where}: certificate weights are not a probability vector")
    margins = w @ (np.delete(U, a, axis=0) - U[a])
    if np.any(margins <= 0.0):
        errors.append(f"{where}: certificate mixture does not beat the act in every state")
    reported = np.asarray(cert["margins"], dtype=float)
    scale = float(np.abs(U).max()) or 1.0
    if reported.shape != margins.shape or np.any(np.abs(reported - margins) > 1e-12 * scale):
        errors.append(f"{where}: certificate margins differ from the recomputed ones")
    elif np.any(reported <= 0.0):
        errors.append(f"{where}: a certificate margin is not positive")
    return errors


# ---------------------------------------------------------------------------
# path

def check_path(doc: dict, stability: dict, acts, U: np.ndarray, prior: str,
               lambda_max: float) -> list[str]:
    """Check a path report against the (separately checked) stability rows of
    the same prior and the per-act utility variances."""
    errors = []
    if doc.get("prior") != prior or doc.get("lambda_max") != lambda_max:
        return ["path report names another prior or lambda range"]
    rows = [r for r in stability["rows"] if r["prior"] == prior]
    if [r["act"] for r in rows] != list(acts) or [l["act"] for l in doc["lines"]] != list(acts):
        return ["path lines or stability rows do not list the acts in order"]

    robs = [r["rob"] for r in rows if r["is_bayes"]]
    rob_den = max(robs) if robs else 0.0
    cons = [r["con"] for r in rows if r["con"] != INADMISSIBLE]
    con_den = max(cons) if cons else 0.0
    var = U.var(axis=1)
    var_den = var.max()
    intercept, slope = {}, {}
    for a, (row, line) in enumerate(zip(rows, doc["lines"])):
        cost = var[a] / var_den if var_den > 0.0 else 0.0
        slope[row["act"]] = -cost
        if row["con"] == INADMISSIBLE:
            if not line["inadmissible"] or line["intercept"] != INADMISSIBLE:
                errors.append(f"line {row['act']}: inadmissible act not flagged")
            continue
        if row["is_bayes"]:
            expect = row["rob"] / rob_den if rob_den > 0.0 else 0.0
        else:
            expect = -(row["con"] / con_den) if con_den > 0.0 else 0.0
        intercept[row["act"]] = expect
        if line["inadmissible"] or not _close(line["intercept"], expect, 1e-12, 1.0):
            errors.append(f"line {row['act']}: intercept {line['intercept']!r} != {expect!r}")
        if not (_close(line["slope"], -cost, 1e-12, 1.0) and _close(line["cost"], cost, 1e-12, 1.0)):
            errors.append(f"line {row['act']}: slope or cost differs from the variance share")
    if not intercept:
        return errors + ["no admissible act"]

    names = list(intercept)
    a0 = np.array([intercept[a] for a in names])
    s0 = np.array([slope[a] for a in names])

    def winners(lam):
        return argmax_set(names, a0 + s0 * lam)

    segments = doc["segments"]
    if not segments or segments[0]["lo"] != 0.0 or segments[-1]["hi"] != lambda_max:
        errors.append("segments do not span [0, lambda_max]")
    for s, t in zip(segments, segments[1:]):
        if s["hi"] != t["lo"] or s["act"] == t["act"]:
            errors.append(f"segments [{s['lo']}, {s['hi']}] and [{t['lo']}, {t['hi']}] do not tile")
    if any(not s["lo"] < s["hi"] for s in segments):
        errors.append("a segment is empty")
    bps = doc["breakpoints"]
    if bps != [s["lo"] for s in segments[1:]] or any(x >= y for x, y in zip(bps, bps[1:])):
        errors.append("breakpoints are not the strictly increasing segment starts")
    for s in segments:
        lam = 0.5 * (s["lo"] + s["hi"])
        if s["act"] not in winners(lam):
            errors.append(f"segment [{s['lo']}, {s['hi']}] names {s['act']}, "
                          f"but {', '.join(winners(lam))} maximize the score at its midpoint")
    for g in doc["grid"]:
        if g["selected"] not in winners(g["lambda"]):
            errors.append(f"grid lambda {g['lambda']}: {g['selected']} is not a maximizer")
            break
    return errors


# ---------------------------------------------------------------------------
# baselines

def check_baselines(csv_text: str, stdout: str, acts, U: np.ndarray, prior: str, pi,
                    epsilon: float, eta: float, mu: float) -> list[str]:
    errors = []
    expect = {}
    lo = band_min(U, pi, epsilon)
    hi = band_max(U, pi, epsilon)
    rex = mu * (U @ pi) + (1.0 - mu) * U.min(axis=1)
    for a, act in enumerate(acts):
        expect[(act, "gamma_min")] = lo[a]
        expect[(act, "gamma_max")] = hi[a]
        expect[(act, "rex")] = rex[a]
    rows = list(csv.reader(io.StringIO(csv_text)))
    if rows[0] != ["prior", "act", "measure", "value"]:
        return ["baselines.csv header"]
    seen = {}
    for r in rows[1:]:
        if r[0] != prior:
            errors.append(f"baselines row for prior {r[0]!r}")
        seen[(r[1], r[2])] = float(r[3])
    if set(seen) != set(expect):
        return errors + ["baselines.csv does not hold gamma_min, gamma_max and rex for every act"]
    scale = float(np.abs(U).max())
    for key, value in expect.items():
        if not _close(seen[key], value, CSV_REL_TOL, 1e-7 * scale):
            errors.append(f"{key[0]} {key[1]}: printed {seen[key]!r}, recomputed {value!r}")

    mixed = eta * lo + (1.0 - eta) * hi
    wanted = {
        "worst-case optimal": argmax_set(acts, lo),
        "best-case optimal": argmax_set(acts, hi),
        "mixed": argmax_set(acts, mixed),
        "trust blend": argmax_set(acts, rex),
    }
    printed = {}
    for line in stdout.splitlines():
        for prefix in wanted:
            if line.startswith(prefix):
                printed[prefix] = tuple(line.split(": ", 1)[1].split(", "))
    for prefix, acts_expected in wanted.items():
        if printed.get(prefix) != acts_expected:
            errors.append(f"{prefix}: printed {printed.get(prefix)}, recomputed {acts_expected}")
    return errors


# ---------------------------------------------------------------------------
# scenarios

def check_scenarios(regimes_text: str, utilities_text: str, months, returns: np.ndarray,
                    assets, planted, weights_text: str, regimes) -> list[str]:
    """Planted labels recovered month by month, and utilities equal to the
    per-regime mean of each portfolio's return by a plain group-by."""
    errors = []
    rows = list(csv.reader(io.StringIO(regimes_text)))
    if rows[0] != ["month", "cluster", "label"] or [r[0] for r in rows[1:]] != list(months):
        return ["regimes.csv does not list the panel's months"]
    labels = [r[2] for r in rows[1:]]
    wrong = [m for m, got, want in zip(months, labels, planted) if got != want]
    if wrong:
        errors.append(f"{len(wrong)} months carry another label than their planted regime, "
                      f"first {wrong[0]}")
    clusters = {}
    for r in rows[1:]:
        clusters.setdefault(r[2], set()).add(r[1])
    if any(len(ids) != 1 for ids in clusters.values()):
        errors.append("a label spans several clusters")

    books, book_assets, W = read_table(weights_text, "portfolio")
    column = {a: book_assets.index(a) for a in assets}
    names, states, utilities = read_table(utilities_text, "act")
    if names != books or states != list(regimes):
        return errors + ["utilities.csv does not list the weight book by the regime order"]
    for p, book in enumerate(books):
        for s, state in enumerate(states):
            total, size, magnitude = 0.0, 0, 0.0
            for i, label in enumerate(labels):
                if label != state:
                    continue
                r = sum(W[p][column[a]] * returns[i][k] for k, a in enumerate(assets))
                total += r
                magnitude += abs(r)
                size += 1
            if size == 0:
                errors.append(f"regime {state} has no months")
                continue
            mean = total / size
            if not _close(utilities[p, s], mean, 1e-12, magnitude / size):
                errors.append(f"{book} under {state}: {utilities[p, s]!r} != group mean {mean!r}")
    return errors

