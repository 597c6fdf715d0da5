"""Plain-text rendering of the paper's tables and figure series.

The paper's figures are stacked bar charts over threshold sweeps; in a
terminal reproduction the equivalent artifact is a table with one row per
threshold and one column per phase, plus a total — which is what
:func:`render_phase_table` prints. :func:`render_table` handles the plain
tables (Table 1, Table 2).
"""

from __future__ import annotations

import json
import platform
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.bench.harness import SweepRecord
from repro.core.metrics import PHASES

__all__ = [
    "render_table",
    "render_phase_table",
    "render_series",
    "render_json",
    "speedup_table",
]

#: Version tag of the machine-readable sweep format (see EXPERIMENTS.md).
BENCH_JSON_SCHEMA = "repro-bench/v1"


def render_table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Fixed-width table with a header rule.

    >>> print(render_table(["a", "b"], [[1, 22]]))
    a  b
    -----
    1  22
    """
    materialized = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    table_width = sum(widths) + 2 * (len(widths) - 1)
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
    lines = [header, "-" * table_width]
    for row in materialized:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def render_phase_table(records: Sequence[SweepRecord], title: str = "") -> str:
    """One figure panel: threshold rows × phase columns, seconds.

    Mirrors a stacked bar chart of the paper: each row's phase cells are
    the stack segments, the last column the bar height.
    """
    headers = ["threshold", "impl"] + list(PHASES) + ["total_s", "pairs"]
    rows = []
    for r in records:
        rows.append(
            [f"{r.threshold:.2f}", r.implementation]
            + [f"{r.phase(p):.3f}" for p in PHASES]
            + [f"{r.total_seconds:.3f}", r.result_pairs]
        )
    table = render_table(headers, rows)
    return f"{title}\n{table}" if title else table


def render_series(
    records: Sequence[SweepRecord],
    value: str = "total_seconds",
) -> Dict[str, List[tuple]]:
    """Figure series: {implementation: [(threshold, value), ...]}.

    *value* may be any numeric SweepRecord attribute
    (``total_seconds``, ``candidate_pairs``, ``similarity_comparisons``...).
    """
    series: Dict[str, List[tuple]] = {}
    for r in records:
        series.setdefault(r.implementation, []).append(
            (r.threshold, getattr(r, value))
        )
    for points in series.values():
        points.sort()
    return series


def speedup_table(
    records: Sequence[SweepRecord],
    baseline: str,
    contender: str,
) -> Dict[float, float]:
    """``{threshold: baseline_seconds / contender_seconds}`` — how many
    times faster *contender* ran than *baseline* at each threshold."""
    base = {r.threshold: r.total_seconds for r in records if r.implementation == baseline}
    cont = {r.threshold: r.total_seconds for r in records if r.implementation == contender}
    return {
        t: base[t] / cont[t]
        for t in sorted(base)
        if t in cont and cont[t] > 0
    }


def render_json(
    records: Sequence[SweepRecord],
    label: str,
    meta: Optional[Dict[str, Any]] = None,
    speedups: Optional[Dict[str, Dict[float, float]]] = None,
) -> str:
    """The machine-readable sweep artifact (``repro-bench/v1``).

    One JSON document per sweep: environment header, one record per
    (implementation × threshold) cell with per-phase timings, and optional
    precomputed speedup series keyed ``"baseline/contender"``.
    """
    doc: Dict[str, Any] = {
        "schema": BENCH_JSON_SCHEMA,
        "label": label,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "meta": dict(meta or {}),
        "records": [r.to_dict() for r in records],
    }
    if speedups is not None:
        doc["speedups"] = {
            pair: {f"{t:.2f}": s for t, s in series.items()}
            for pair, series in speedups.items()
        }
    return json.dumps(doc, indent=2, sort_keys=False)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
