"""Rendering and persistence of experiment results.

Experiments return lists of dict rows; these helpers render them as the
monospace tables/series the paper's figures and tables report, and write
them under ``benchmarks/results/`` so a benchmark run leaves the
reproduced artifacts on disk.
"""

from __future__ import annotations

import os
from typing import Mapping, Sequence

from repro.util.formatting import format_table

#: Default output directory for reproduced tables (relative to cwd).
RESULTS_DIR = os.path.join("benchmarks", "results")


def render_rows(
    rows: Sequence[Mapping[str, object]], *, title: "str | None" = None
) -> str:
    """Render dict rows (shared keys) as a monospace table."""
    if not rows:
        return title or "(no rows)"
    headers = list(rows[0].keys())
    body = [[row[h] for h in headers] for row in rows]
    return format_table(headers, body, title=title)


def render_series(
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[object]],
    *,
    title: "str | None" = None,
) -> str:
    """Render figure-style data: one x column plus one column per series."""
    headers = [x_label] + list(series.keys())
    body = [
        [x] + [series[s][i] for s in series] for i, x in enumerate(x_values)
    ]
    return format_table(headers, body, title=title)


def write_result(name: str, text: str, directory: "str | None" = None) -> str:
    """Persist a rendered experiment under ``benchmarks/results``.

    Returns the path written.  A directory that cannot be created or a
    file that cannot be written raises the ``OSError``, which names the
    path.
    """
    directory = directory or RESULTS_DIR
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.rstrip() + "\n")
    return path
