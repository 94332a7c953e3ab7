"""File formats: loading of the CSV inputs and atomic writing of reports.

Input problems raise :class:`InputError` (CLI exit code 2) with file and line
context; mismatches *between* otherwise valid files raise
:class:`ConsistencyError` (exit code 3).
"""

from __future__ import annotations

import csv
import json
import math
import os
from datetime import date

import numpy as np

from .core import DecisionProblem, Prior
from .scenarios import PortfolioBook, ReturnPanel

__all__ = [
    "ConsistencyError",
    "InputError",
    "NOT_BAYES",
    "INADMISSIBLE",
    "format_number",
    "load_costs",
    "load_daily",
    "load_monthly",
    "load_priors",
    "load_utilities",
    "load_weights",
    "render_json",
    "render_rows",
    "write_reports",
]

NOT_BAYES = "NOT_BAYES"
INADMISSIBLE = "INADMISSIBLE"



class InputError(ValueError):
    """A file or parameter the user supplied is malformed."""


class ConsistencyError(ValueError):
    """Two individually valid inputs do not fit together."""


def _read_rows(path) -> list[tuple[int, list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return _rows_from_stream(fh, str(path))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _rows_from_stream(stream, source: str) -> list[tuple[int, list[str]]]:
    rows = []
    reader = csv.reader(stream)
    try:
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            rows.append((lineno, [cell.strip() for cell in row]))
    except csv.Error as exc:
        raise InputError(f"{source}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise InputError(f"{source}: file is empty")
    return rows


def _label(source: str, lineno: int, cell: str, what: str) -> str:
    if not cell:
        raise InputError(f"{source}:{lineno}: empty {what}")
    if any(ch in cell for ch in ',"\n'):
        raise InputError(f"{source}:{lineno}: {what} {cell!r} contains reserved characters")
    return cell


def _number(source: str, lineno: int, cell: str, what: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise InputError(f"{source}:{lineno}: {what} {cell!r} is not a number") from None


def _expect_width(source: str, lineno: int, row: list[str], width: int) -> None:
    if len(row) != width:
        raise InputError(f"{source}:{lineno}: expected {width} fields, got {len(row)}")


def load_utilities(path) -> DecisionProblem:
    """`act,<state...>` rows of utilities."""
    rows = _read_rows(path)
    source = str(path)
    lineno, header = rows[0]
    if len(header) < 2 or header[0] != "act":
        raise InputError(f"{source}:{lineno}: header must be 'act,<state>,...'")
    states = [_label(source, lineno, s, "state name") for s in header[1:]]
    if len(set(states)) != len(states):
        raise InputError(f"{source}:{lineno}: duplicate state names")
    acts, matrix = [], []
    for lineno, row in rows[1:]:
        _expect_width(source, lineno, row, len(states) + 1)
        act = _label(source, lineno, row[0], "act name")
        if act in acts:
            raise InputError(f"{source}:{lineno}: duplicate act {act!r}")
        acts.append(act)
        matrix.append([_number(source, lineno, c, "utility") for c in row[1:]])
    if not acts:
        raise InputError(f"{source}: no act rows")
    try:
        return DecisionProblem(acts, states, np.array(matrix))
    except ValueError as exc:
        raise InputError(f"{source}: {exc}") from exc


def load_priors(path) -> tuple[tuple[str, ...], list[Prior]]:
    """`prior,<state...>` rows of probability masses; returns (states, priors)."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return parse_priors(fh, str(path))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def parse_priors(stream, source: str) -> tuple[tuple[str, ...], list[Prior]]:
    rows = _rows_from_stream(stream, source)
    lineno, header = rows[0]
    if len(header) < 2 or header[0] != "prior":
        raise InputError(f"{source}:{lineno}: header must be 'prior,<state>,...'")
    states = tuple(_label(source, lineno, s, "state name") for s in header[1:])
    if len(set(states)) != len(states):
        raise InputError(f"{source}:{lineno}: duplicate state names")
    priors = []
    seen = set()
    for lineno, row in rows[1:]:
        _expect_width(source, lineno, row, len(states) + 1)
        name = _label(source, lineno, row[0], "prior name")
        if name in seen:
            raise InputError(f"{source}:{lineno}: duplicate prior {name!r}")
        seen.add(name)
        mass = [_number(source, lineno, c, "probability") for c in row[1:]]
        try:
            priors.append(Prior(name, mass))
        except ValueError as exc:
            raise InputError(f"{source}:{lineno}: {exc}") from exc
    if not priors:
        raise InputError(f"{source}: no prior rows")
    return states, priors


def load_costs(path) -> dict[str, float]:
    """`act,cost` rows of nonnegative costs."""
    rows = _read_rows(path)
    source = str(path)
    lineno, header = rows[0]
    if header != ["act", "cost"]:
        raise InputError(f"{source}:{lineno}: header must be 'act,cost'")
    costs: dict[str, float] = {}
    for lineno, row in rows[1:]:
        _expect_width(source, lineno, row, 2)
        act = _label(source, lineno, row[0], "act name")
        if act in costs:
            raise InputError(f"{source}:{lineno}: duplicate act {act!r}")
        value = _number(source, lineno, row[1], "cost")
        if value < 0.0:
            raise InputError(f"{source}:{lineno}: cost must be nonnegative, got {value!r}")
        costs[act] = value
    if not costs:
        raise InputError(f"{source}: no cost rows")
    return costs


def load_weights(path) -> PortfolioBook:
    """`portfolio,<asset...>` rows of convex weights."""
    rows = _read_rows(path)
    source = str(path)
    lineno, header = rows[0]
    if len(header) < 2 or header[0] != "portfolio":
        raise InputError(f"{source}:{lineno}: header must be 'portfolio,<asset>,...'")
    assets = tuple(_label(source, lineno, a, "asset name") for a in header[1:])
    names, weights = [], []
    for lineno, row in rows[1:]:
        _expect_width(source, lineno, row, len(assets) + 1)
        names.append(_label(source, lineno, row[0], "portfolio name"))
        weights.append([_number(source, lineno, c, "weight") for c in row[1:]])
    if not names:
        raise InputError(f"{source}: no portfolio rows")
    try:
        return PortfolioBook(tuple(names), assets, np.array(weights))
    except ValueError as exc:
        raise InputError(f"{source}: {exc}") from exc


def load_monthly(path) -> ReturnPanel:
    """`date,<asset...>[,market_vol]` rows of monthly returns.

    A trailing ``market_vol`` column is split off as the panel's precomputed
    volatility series.
    """
    rows = _read_rows(path)
    source = str(path)
    lineno, header = rows[0]
    if len(header) < 2 or header[0] != "date":
        raise InputError(f"{source}:{lineno}: header must be 'date,<asset>,...'")
    columns = header[1:]
    has_vol = columns and columns[-1] == "market_vol"
    assets = tuple(
        _label(source, lineno, a, "asset name")
        for a in (columns[:-1] if has_vol else columns)
    )
    if not assets:
        raise InputError(f"{source}:{lineno}: no asset columns")
    months, values, vols = [], [], []
    incomplete = []
    for lineno, row in rows[1:]:
        _expect_width(source, lineno, row, len(columns) + 1)
        month = row[0]
        months.append(month)
        cells = row[1:1 + len(assets)]
        if any(not c for c in cells):
            incomplete.append(month)
            values.append([0.0] * len(assets))
        else:
            values.append([_number(source, lineno, c, "return") for c in cells])
        if has_vol:
            vols.append(_number(source, lineno, row[-1], "volatility"))
    if incomplete:
        raise InputError(
            f"{source}: months with missing asset returns: {', '.join(incomplete)}"
        )
    try:
        return ReturnPanel(
            tuple(months), assets, np.array(values),
            volatility=np.array(vols) if has_vol else None,
        )
    except ValueError as exc:
        raise InputError(f"{source}: {exc}") from exc


def _is_day(text: str) -> bool:
    """Is ``text`` a calendar date written YYYY-MM-DD?"""
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        return False
    try:
        date.fromisoformat(text)  # digits only, and a real day of a real month
    except ValueError:
        return False
    return True


def load_daily(path) -> tuple[str, dict[str, np.ndarray]]:
    """`date,<market>` rows of daily returns, grouped by month."""
    rows = _read_rows(path)
    source = str(path)
    lineno, header = rows[0]
    if len(header) != 2 or header[0] != "date":
        raise InputError(f"{source}:{lineno}: header must be 'date,<market>'")
    market = _label(source, lineno, header[1], "market name")
    grouped: dict[str, list[float]] = {}
    seen: dict[str, int] = {}
    for lineno, row in rows[1:]:
        _expect_width(source, lineno, row, 2)
        day = row[0]
        if not _is_day(day):
            raise InputError(
                f"{source}:{lineno}: malformed date {day!r} (expected a calendar date YYYY-MM-DD)"
            )
        if day in seen:
            # a repeated day would count twice in its month's volatility
            raise InputError(f"{source}:{lineno}: date {day} repeats line {seen[day]}")
        seen[day] = lineno
        value = _number(source, lineno, row[1], "return")
        if not math.isfinite(value):
            raise InputError(f"{source}:{lineno}: return {row[1]!r} is not finite")
        grouped.setdefault(day[:7], []).append(value)
    if not grouped:
        raise InputError(f"{source}: no daily rows")
    return market, {month: np.array(obs) for month, obs in grouped.items()}


def format_number(value: float) -> str:
    """Report formatting: 9 significant digits."""
    return f"{value:.9g}"


def _render_cell(value) -> str:
    if isinstance(value, str):
        return f'"{value}"' if value in (NOT_BAYES, INADMISSIBLE) else value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_number(float(value))


def write_reports(directory, texts: dict[str, str]) -> None:
    """Write a run's reports into ``directory`` as one set.

    ``texts`` maps each report's file name to its rendered text.  Every text
    is first staged in a temp file in the directory, created with mode 0666
    less the umask, as ``open`` would create the report itself; only then is
    each renamed over its report.  A failure while staging removes the temp
    files and leaves every report as it was.  A directory that cannot be
    created (say, a path naming an existing file) or a report that cannot be
    written is an :class:`InputError`.
    """
    directory = os.path.abspath(directory)
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {directory}: {exc}") from exc
    staged = []
    try:
        for name, text in texts.items():
            tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except BaseException as exc:
        for tmp in staged:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise InputError(f"cannot write {os.path.join(directory, name)}: {exc}") from exc
        raise
    for tmp, name in zip(staged, texts):
        os.replace(tmp, os.path.join(directory, name))


def render_rows(header: list[str], rows) -> str:
    """A CSV report; floats at 9 significant digits, sentinels quoted."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_render_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def render_data_rows(header: list[str], rows) -> str:
    """An interchange CSV; floats keep full round-trip precision."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(repr(float(c)) if isinstance(c, (float, np.floating)) else str(c) for c in row)
        )
    return "\n".join(lines) + "\n"


def render_json(document: dict) -> str:
    return json.dumps(document, indent=2) + "\n"
