"""Typed, serializable experiment results.

Every experiment run — CLI, :class:`repro.api.Session`, or a future
service endpoint — produces one :class:`RunRecord`: the experiment's
name, the fully-resolved parameters, and its presentation as tables
(:class:`ResultTable`) and series (:class:`ResultSeries`).  The record is
a plain dataclass tree that round-trips losslessly through
``to_dict``/``from_dict`` (``RunRecord.from_dict(r.to_dict()) == r``),
which is what makes ``--format json`` output machine-consumable instead
of print-only.

Three renderers sit on top:

* :func:`render_text` — the fixed-width tables/series the CLI always
  printed (via :mod:`repro.experiments.report`);
* :func:`render_json` — the ``to_dict`` tree as a JSON document;
* :func:`render_csv` — one CSV section per table/series, titles as
  ``#``-prefixed comment rows.

Cell values are normalized to plain ``int``/``float``/``str`` at
construction (numpy scalars included), so every record is JSON-safe by
construction, not by luck.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.experiments.report import format_series, format_table


def _cell(value: Any) -> Any:
    """Normalize one table cell / parameter leaf to a JSON-safe scalar."""
    if isinstance(value, str) or value is None:
        return value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_cell(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _cell(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize result cell of type {type(value)!r}")


def jsonify_params(params: Mapping[str, Any]) -> dict[str, Any]:
    """Resolved parameters as the JSON-safe dict a :class:`RunRecord`
    stores (tuples become lists, numpy scalars become Python scalars)."""
    return {str(k): _cell(v) for k, v in params.items()}


@dataclass(frozen=True)
class ResultTable:
    """One titled table: what :func:`format_table` renders."""

    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]

    @classmethod
    def make(
        cls,
        title: str,
        headers: Sequence[str],
        rows: Sequence[Sequence[Any]],
    ) -> "ResultTable":
        """Build with normalized (JSON-safe, tuple-shaped) cells."""
        return cls(
            title=title,
            headers=tuple(str(h) for h in headers),
            rows=tuple(tuple(_cell(c) for c in row) for row in rows),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResultTable":
        return cls(
            title=data["title"],
            headers=tuple(data["headers"]),
            rows=tuple(tuple(row) for row in data["rows"]),
        )


@dataclass(frozen=True)
class ResultSeries:
    """One named (x, y) series: what :func:`format_series` renders."""

    name: str
    points: tuple[tuple[float, float], ...]
    fmt: str = "{:.3f}"

    @classmethod
    def make(
        cls,
        name: str,
        points: Sequence[Sequence[float]],
        fmt: str = "{:.3f}",
    ) -> "ResultSeries":
        return cls(
            name=name,
            points=tuple((float(x), float(y)) for x, y in points),
            fmt=fmt,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "points": [[x, y] for x, y in self.points],
            "fmt": self.fmt,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResultSeries":
        return cls(
            name=data["name"],
            points=tuple((x, y) for x, y in data["points"]),
            fmt=data.get("fmt", "{:.3f}"),
        )


@dataclass(frozen=True)
class RunRecord:
    """One experiment run's typed outcome.

    ``result`` holds the experiment's rich result object (e.g. a
    :class:`repro.experiments.sweeps.SweepResult`) for programmatic
    consumers; it is deliberately excluded from equality and from
    ``to_dict``, so serialization round-trips compare equal without it.
    """

    experiment: str
    params: dict[str, Any]
    tables: tuple[ResultTable, ...] = ()
    series: tuple[ResultSeries, ...] = ()
    result: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", jsonify_params(self.params))
        object.__setattr__(self, "tables", tuple(self.tables))
        object.__setattr__(self, "series", tuple(self.series))

    def to_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "params": dict(self.params),
            "tables": [t.to_dict() for t in self.tables],
            "series": [s.to_dict() for s in self.series],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        return cls(
            experiment=data["experiment"],
            params=dict(data["params"]),
            tables=tuple(
                ResultTable.from_dict(t) for t in data.get("tables", ())
            ),
            series=tuple(
                ResultSeries.from_dict(s) for s in data.get("series", ())
            ),
        )


# -- renderers ---------------------------------------------------------------

FORMATS = ("table", "json", "csv")


def render_text(record: RunRecord) -> str:
    """The classic CLI presentation: tables then series, in order."""
    blocks = [
        format_table(t.headers, t.rows, title=t.title) for t in record.tables
    ]
    blocks += [
        format_series(s.name, s.points, fmt=s.fmt) for s in record.series
    ]
    return "\n".join(blocks)


def render_json(record: RunRecord) -> str:
    return json.dumps(record.to_dict(), indent=2)


def render_csv(record: RunRecord) -> str:
    """CSV sections: ``# title`` comment row, header row, data rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for table in record.tables:
        writer.writerow([f"# {table.title}"])
        writer.writerow(table.headers)
        writer.writerows(table.rows)
        writer.writerow([])
    for series in record.series:
        writer.writerow([f"# {series.name}"])
        writer.writerow(["x", "y"])
        writer.writerows(series.points)
        writer.writerow([])
    return buffer.getvalue().rstrip("\n")


def render(record: RunRecord, fmt: str = "table") -> str:
    """Render *record* in one of :data:`FORMATS`."""
    if fmt == "table":
        return render_text(record)
    if fmt == "json":
        return render_json(record)
    if fmt == "csv":
        return render_csv(record)
    raise ValueError(f"unknown format {fmt!r} (choose from {FORMATS})")
