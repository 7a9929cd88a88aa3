"""``python -m bench compare A.jsonl B.jsonl``: judge B's runs against A's.

Each file holds the reports ``python -m bench --out FILE`` appended, one JSON
object per line.  One row is printed per workload and end-to-end metric, with
both sides' medians and quartiles, the ratio B/A, the bound and a verdict:

* ``worse`` -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- either side's quartile spread, as a share of its median,
  is wider than the bound, and not every B run beats every A run;
* ``ok`` -- otherwise.

The exit status is 1 when any row is ``worse`` or B failed a larger share of
its calls than A.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from .metrics import END_TO_END, Metric

ROW = "{:16} {:16} {:>30} {:>30} {:>6} {:>5} {:>5}  {}"
HEADER = ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "bound", "runs", "verdict")


def load(path: Path) -> list[dict]:
    """The run reports of one side, one JSON object per non-blank line."""
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (exclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Quartile spread as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def verdict(metric: Metric, base: list[float], new: list[float]) -> str:
    """``worse``, ``unresolved`` or ``ok`` for B's runs ``new`` against A's ``base``."""
    if metric.worsening(statistics.median(base), statistics.median(new)) > metric.bound:
        return "worse"
    if max(spread(base), spread(new)) > metric.bound and not all(
        metric.beats(b, a) for a in base for b in new
    ):
        return "unresolved"
    return "ok"


def failed_fraction(reports: list[dict]) -> float:
    """Failed calls over attempted calls, summed over a side's runs."""
    attempted = sum(report["attempted"] for report in reports)
    return sum(report["failed"] for report in reports) / attempted if attempted else 0.0


def values(reports: list[dict], workload: str, metric: str) -> list[float]:
    """One metric of one workload across a side's runs (runs that lack it are skipped)."""
    found = []
    for report in reports:
        entry = report["workloads"].get(workload, {}).get("end_to_end", {}).get(metric)
        if entry is not None:
            found.append(entry["value"])
    return found


def compare(base: list[dict], new: list[dict]) -> tuple[list[dict], bool]:
    """Rows of the comparison and whether B regressed."""
    workloads = sorted({name for report in base for name in report["workloads"]})
    rows = []
    for workload in workloads:
        for metric in END_TO_END:
            a, b = values(base, workload, metric.name), values(new, workload, metric.name)
            if not a or not b:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "a": quartiles(a),
                    "b": quartiles(b),
                    "runs": (len(a), len(b)),
                    "ratio": statistics.median(b) / statistics.median(a),
                    "bound": metric.bound,
                    "verdict": verdict(metric, a, b),
                }
            )
    regressed = any(row["verdict"] == "worse" for row in rows)
    return rows, regressed or failed_fraction(new) > failed_fraction(base)


def main(argv: list[str]) -> int:
    """Print the comparison table; returns the exit status."""
    if len(argv) != 2:
        print("usage: python -m bench compare A.jsonl B.jsonl", file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    rows, regressed = compare(base, new)
    print(ROW.format(*HEADER))
    for row in rows:
        print(
            ROW.format(
                row["workload"],
                row["metric"],
                "{1:.4g} [{0:.4g}, {2:.4g}]".format(*row["a"]),
                "{1:.4g} [{0:.4g}, {2:.4g}]".format(*row["b"]),
                f"{row['ratio']:.3f}",
                f"{row['bound']:.2f}",
                "{}/{}".format(*row["runs"]),
                row["verdict"],
            )
        )
    print(f"failed calls: A {failed_fraction(base):.4f}, B {failed_fraction(new):.4f}")
    return 1 if regressed else 0
