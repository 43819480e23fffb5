"""Plain-text reporting for the benchmark harness.

The paper presents its evaluation as figures (series of points) and one table
of privacy costs.  The harness in :mod:`repro.bench.harness` produces lists of
flat record dicts; this module renders them as aligned text tables and CSV so
every table/figure of the paper can be regenerated as numbers on stdout or on
disk.
"""

from __future__ import annotations

import io
import math
from typing import Iterable, Mapping, Sequence

from repro.obs.registry import quantile

__all__ = [
    "format_table",
    "format_records",
    "records_to_csv",
    "summarize_by",
    "report",
]

Record = Mapping[str, object]


def _format_value(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if math.isnan(value):
            return "nan"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.4g}"
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(rows: Sequence[Sequence[object]], headers: Sequence[str]) -> str:
    """Render rows as an aligned, pipe-separated text table."""
    rendered = [[_format_value(v) for v in row] for row in rows]
    headers = [str(h) for h in headers]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_records(records: Sequence[Record], columns: Sequence[str] | None = None) -> str:
    """Render record dicts as a text table (columns default to the first record's keys)."""
    if not records:
        return "(no records)"
    if columns is None:
        columns = list(records[0].keys())
    rows = [[record.get(column, "") for column in columns] for record in records]
    return format_table(rows, columns)


def records_to_csv(records: Sequence[Record], columns: Sequence[str] | None = None) -> str:
    """Render record dicts as CSV text (for piping into external plotting)."""
    if not records:
        return ""
    if columns is None:
        columns = list(records[0].keys())
    buffer = io.StringIO()
    buffer.write(",".join(columns) + "\n")
    for record in records:
        buffer.write(
            ",".join(_format_value(record.get(column, "")) for column in columns) + "\n"
        )
    return buffer.getvalue()


def summarize_by(
    records: Sequence[Record],
    group_keys: Sequence[str],
    value_key: str,
) -> list[dict[str, object]]:
    """Group records and report count / median / quartiles / mean of one value.

    The paper reports medians and quartile boxes over repeated runs; this is
    the text equivalent.
    """
    groups: dict[tuple[object, ...], list[float]] = {}
    for record in records:
        key = tuple(record.get(k) for k in group_keys)
        value = record.get(value_key)
        if value is None:
            continue
        groups.setdefault(key, []).append(float(value))  # type: ignore[arg-type]
    out: list[dict[str, object]] = []
    for key in sorted(groups, key=lambda k: tuple(str(part) for part in k)):
        values = sorted(groups[key])
        summary: dict[str, object] = dict(zip(group_keys, key))
        summary.update(
            {
                "count": len(values),
                "mean": sum(values) / len(values),
                "median": quantile(values, 0.5),
                "q25": quantile(values, 0.25),
                "q75": quantile(values, 0.75),
                "min": values[0],
                "max": values[-1],
            }
        )
        out.append(summary)
    return out


def dump_records(
    records: Iterable[Record], path: str, columns: Sequence[str] | None = None
) -> None:
    """Write records as CSV to ``path``."""
    records = list(records)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(records_to_csv(records, columns))


def report(title: str, records, group_keys, value_key) -> None:
    """Print a paper-shaped summary table for one experiment.

    Shared by every file in ``benchmarks/`` (it used to live in their
    ``conftest.py``, where importing it clashed with the repository root
    conftest during default collection).
    """
    summary = summarize_by(records, group_keys, value_key)
    print(f"\n=== {title} ===")
    print(
        format_records(
            summary, columns=list(group_keys) + ["count", "median", "q25", "q75"]
        )
    )

