"""Plain-text table rendering for benches, examples, and EXPERIMENTS.md.

No plotting dependency is available offline, so every figure of the paper is
re-emitted as a table of the series it plots.  :func:`render_table` produces a
fixed-width text table from dictionaries; :func:`render_curves` lays out one
column per sweep curve; :func:`fleet_table`, :func:`fleet_class_table` and
:func:`autoscale_table` turn fleet :func:`~repro.analysis.experiments.sweep`
results into rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    from repro.serving.results import ClusterResult
    from repro.serving.sla import SLASpec


def render_table(rows: Sequence[Mapping[str, object]], title: str | None = None) -> str:
    """Render dictionaries as an aligned fixed-width text table.

    All rows must share the same keys; the key order of the first row defines
    the column order.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())
    for row in rows:
        if list(row.keys()) != columns:
            raise ValueError("all rows must have identical keys in identical order")
    widths = {
        column: max(len(str(column)), *(len(str(row[column])) for row in rows))
        for column in columns
    }
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    separator = "-+-".join("-" * widths[column] for column in columns)
    body = [
        " | ".join(str(row[column]).ljust(widths[column]) for column in columns)
        for row in rows
    ]
    lines = []
    if title:
        lines.append(title)
    lines.extend([header, separator, *body])
    return "\n".join(lines)


def render_curves(
    curves: Mapping[str, Sequence[object]],
    x_label: str,
    x_getter,
    y_getter,
    title: str | None = None,
) -> str:
    """Render sweep curves as one row per x value and one column per curve.

    Args:
        curves: mapping of curve label to sweep points.
        x_label: name of the x-axis column.
        x_getter: callable extracting the x value of a point.
        y_getter: callable extracting the y value of a point.
        title: optional heading.
    """
    x_values: list = []
    for points in curves.values():
        for point in points:
            x = x_getter(point)
            if x not in x_values:
                x_values.append(x)
    x_values.sort()
    rows = []
    for x in x_values:
        row: dict[str, object] = {x_label: x}
        for label, points in curves.items():
            match = next((p for p in points if x_getter(p) == x), None)
            row[label] = round(y_getter(match), 1) if match is not None else "-"
        rows.append(row)
    return render_table(rows, title=title)


def fleet_table(results: Mapping[str, ClusterResult], sla: SLASpec) -> list[dict[str, object]]:
    """Rows for :func:`render_table`, one per router."""
    rows: list[dict[str, object]] = []
    for name, result in results.items():
        row: dict[str, object] = {"router": name}
        row.update(result.fleet_summary(sla).as_row())
        rows.append(row)
    return rows


def fleet_class_table(
    results: Mapping[str, ClusterResult], sla: SLASpec
) -> list[dict[str, object]]:
    """Per-router, per-SLA-class rows (the fig12 breakdown).

    Each row carries one class slice of one router's run: goodput, goodput
    per (fleet-wide) replica-second, attainment under the class's own
    deadlines, and rejects attributed to the class.
    """
    rows: list[dict[str, object]] = []
    for name, result in results.items():
        for class_row in result.fleet_summary(sla).class_rows():
            row: dict[str, object] = {"router": name}
            row.update(class_row)
            rows.append(row)
    return rows


def autoscale_table(
    results: Mapping[str, ClusterResult], sla: SLASpec
) -> list[dict[str, object]]:
    """Rows for :func:`render_table`, one per autoscaling policy.

    The headline column is goodput per replica-second: raw goodput divides
    by wall-clock, which forgives a peak-provisioned static fleet for idling
    through every lull.
    """
    rows: list[dict[str, object]] = []
    for name, result in results.items():
        summary = result.fleet_summary(sla)
        rows.append(
            {
                "policy": name,
                "goodput_per_rs": round(summary.goodput_per_replica_second, 2),
                "goodput_tok_s": round(summary.goodput, 1),
                "replica_s": round(summary.replica_seconds, 1),
                "avg_fleet": round(summary.avg_fleet_size, 2),
                "peak_fleet": max(
                    (sample.provisioned for sample in result.fleet_timeline), default=0
                ),
                "launched": result.num_replicas,
                "sla_attainment": f"{summary.sla_attainment:.1%}",
                "p99_ttft_s": round(summary.p99_ttft, 3),
                "rejected": summary.rejected_requests,
            }
        )
    return rows
