"""File formats: loading of the CSV inputs and atomic writing of reports.

Input problems raise :class:`InputError` (CLI exit code 2) with file and line
context; mismatches *between* otherwise valid files raise
:class:`ConsistencyError` (exit code 3).
"""

from __future__ import annotations

import csv
import json
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
]

NOT_BAYES = "NOT_BAYES"
INADMISSIBLE = "INADMISSIBLE"



class InputError(ValueError):
    """A file or parameter the user supplied is malformed."""


class ConsistencyError(ValueError):
    """Two individually valid inputs do not fit together."""


def _read_rows(path):
    """Yield ``(line, cells)`` for each nonblank row of ``path``, one at a time."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield from _rows_from_stream(fh, str(path))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _rows_from_stream(stream, source: str):
    reader = csv.reader(stream)
    empty = True
    try:
        for lineno, row in enumerate(reader, start=1):
            cells = [cell.strip() for cell in row]
            if any(cells):
                empty = False
                yield lineno, cells
    except csv.Error as exc:
        raise InputError(f"{source}:{reader.line_num}: {exc}") from exc
    if empty:
        raise InputError(f"{source}: file is empty")


def _label(source: str, lineno: int, cell: str, what: str) -> str:
    if not cell:
        raise InputError(f"{source}:{lineno}: empty {what}")
    if "," in cell or '"' in cell or "\n" in cell:
        raise InputError(f"{source}:{lineno}: {what} {cell!r} contains reserved characters")
    return cell


def _number(source: str, lineno: int, cell: str, what: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise InputError(f"{source}:{lineno}: {what} {cell!r} is not a number") from None


def _read_table(rows, source: str, key: str, what: str, nonnegative: bool = False):
    """The `key,<what>,...` table of the ``(line, cells)`` iterator ``rows``:
    (columns, lines, values).

    Column and row labels are identifiers, each unique in the file; ``lines``
    maps each row label to its line, in file order.  Every other cell is a
    finite number (also nonnegative with ``nonnegative``), and ``values``
    holds them, one row per label.  Rows with empty cells are named together.
    """
    lineno, header = next(rows)
    if len(header) < 2 or header[0] != key:
        raise InputError(f"{source}:{lineno}: header must be '{key},<{what}>,...'")
    columns = tuple(_label(source, lineno, c, f"{what} name") for c in header[1:])
    if len(set(columns)) != len(columns):
        twice = next(c for i, c in enumerate(columns) if c in columns[:i])
        raise InputError(f"{source}:{lineno}: duplicate {what} names ({twice!r} twice); "
                         f"{what} names must be unique")
    width = len(header)
    lines: dict[str, int] = {}
    values, missing = [], []
    for lineno, row in rows:
        if len(row) != width:
            raise InputError(f"{source}:{lineno}: expected {width} fields, got {len(row)}")
        label = _label(source, lineno, row[0], key)
        if label in lines:
            raise InputError(f"{source}:{lineno}: {key} {label!r} repeats line {lines[label]}")
        lines[label] = lineno
        try:
            values.extend(map(float, row[1:]))
        except ValueError:
            if "" not in row:
                for column, cell in zip(columns, row[1:]):
                    _number(source, lineno, cell, column)
            missing.append(label)
    if missing:
        raise InputError(
            f"{source}:{lines[missing[0]]}: missing values for {', '.join(missing)}")
    if not lines:
        raise InputError(f"{source}: no {key} rows")
    table = np.array(values).reshape(len(lines), width - 1)
    bad = ~np.isfinite(table)
    if nonnegative:
        bad |= table < 0.0
    if bad.any():
        r, c = np.argwhere(bad)[0]
        rule = "finite and nonnegative" if nonnegative else "finite"
        raise InputError(f"{source}:{list(lines.values())[r]}: {columns[c]} must be {rule}, "
                         f"got {float(table[r, c])!r}")
    return columns, lines, table


def _build(path, lines: dict[str, int], cls, *args, **kwargs):
    """``cls(...)``; its errors name ``path``, and the line of a row at fault."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        row = getattr(exc, "row", None)
        line = "" if row is None else f":{list(lines.values())[row]}"
        raise InputError(f"{path}{line}: {exc}") from exc


def load_utilities(path) -> DecisionProblem:
    """`act,<state...>` rows of utilities."""
    states, lines, utilities = _read_table(_read_rows(path), str(path), "act", "state")
    return _build(path, lines, DecisionProblem, lines, states, utilities)


def load_priors(path) -> tuple[tuple[str, ...], list[Prior]]:
    """`prior,<state...>` rows of probability masses; returns (states, priors)."""
    return parse_priors(_read_rows(path), str(path))


def parse_priors(rows, source: str) -> tuple[tuple[str, ...], list[Prior]]:
    states, lines, masses = _read_table(rows, source, "prior", "state", nonnegative=True)
    priors = []
    for (name, lineno), mass in zip(lines.items(), masses):
        try:
            priors.append(Prior(name, mass))
        except ValueError as exc:
            raise InputError(f"{source}:{lineno}: {exc}") from exc
    return states, priors


def load_costs(path) -> dict[str, float]:
    """`act,cost` rows of finite nonnegative costs."""
    columns, lines, costs = _read_table(_read_rows(path), str(path), "act", "cost",
                                        nonnegative=True)
    if columns != ("cost",):
        raise InputError(f"{path}:{next(_read_rows(path))[0]}: header must be 'act,cost'")
    return dict(zip(lines, costs[:, 0].tolist()))


def load_weights(path) -> PortfolioBook:
    """`portfolio,<asset...>` rows of convex weights."""
    assets, lines, weights = _read_table(
        _read_rows(path), str(path), "portfolio", "asset", nonnegative=True)
    return _build(path, lines, PortfolioBook, tuple(lines), assets, weights)


def load_monthly(path) -> ReturnPanel:
    """`date,<asset...>[,market_vol]` rows of monthly returns.

    A trailing ``market_vol`` column is split off as the panel's precomputed
    volatility series.
    """
    columns, lines, values = _read_table(_read_rows(path), str(path), "date", "asset")
    has_vol = columns[-1] == "market_vol"
    assets = columns[:-1] if has_vol else columns
    if not assets:
        raise InputError(f"{path}:{next(_read_rows(path))[0]}: no asset columns")
    return _build(path, lines, ReturnPanel, tuple(lines), assets, values[:, :len(assets)],
                  volatility=values[:, -1] if has_vol else None)


def _is_day(text: str) -> bool:
    """Is ``text`` a calendar date written YYYY-MM-DD?"""
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        return False
    try:
        date.fromisoformat(text)  # digits only, and a real day of a real month
    except ValueError:
        return False
    return True


def daily_market(path) -> str:
    """The market column of a daily file, read off its header alone."""
    lineno, header = next(_read_rows(path))
    if len(header) != 2 or header[0] != "date":
        raise InputError(f"{path}:{lineno}: header must be 'date,<market>'")
    return _label(str(path), lineno, header[1], "market name")


def load_daily(path) -> tuple[str, dict[str, np.ndarray]]:
    """`date,<market>` rows of daily returns, grouped by month."""
    daily_market(path)
    columns, lines, values = _read_table(_read_rows(path), str(path), "date", "market")
    grouped: dict[str, list[float]] = {}
    for day, value in zip(lines, values[:, 0].tolist()):
        if not _is_day(day):
            raise InputError(f"{path}:{lines[day]}: malformed date {day!r} "
                             "(expected a calendar date YYYY-MM-DD)")
        grouped.setdefault(day[:7], []).append(value)
    return columns[0], {month: np.array(obs) for month, obs in grouped.items()}


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
    lines = [",".join(header)] + [",".join(_render_cell(cell) for cell in row) for row in rows]
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
