"""Accuracy metrics, multi-seed aggregation, and table/embedding emission.

Numbers are reported to two decimals in human-facing tables, matching the
style "96.63 ± 0.17"; machine-readable records keep full precision. The
harmonic mean of two accuracies is always bounded by their arithmetic
mean, and reports enforce that bound at construction.
"""

import csv
import io
import warnings
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import AggregationError, DimensionError, EvaluationError, InvariantError

TABLE_FORMATS = ("csv", "markdown")

# Fixed column order for emitted tables: run coordinates, then metrics.
COORD_COLUMNS = (
    "strategy",
    "m",
    "alpha",
    "loss_mode",
    "lambda",
    "beta",
    "depth_range",
    "shots",
    "mode",
)
METRIC_COLUMNS = ("base", "novel", "h", "params", "seed_count")

__all__ = [
    "TABLE_FORMATS",
    "COORD_COLUMNS",
    "METRIC_COLUMNS",
    "accuracy",
    "harmonic_mean",
    "MetricSummary",
    "aggregate_seeds",
    "EvalReport",
    "emit_table",
    "parse_table",
    "export_embeddings",
]


def accuracy(predictions, labels) -> float:
    """Percentage of matching entries: 100 * correct / total."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise DimensionError(
            f"predictions {predictions.shape} and labels {labels.shape} differ in shape"
        )
    if predictions.size == 0:
        raise EvaluationError("cannot score an empty prediction set")
    return 100.0 * float(np.mean(predictions == labels))


def harmonic_mean(base: float, novel: float) -> float:
    """2*base*novel / (base+novel); defined as 0 when both are 0."""
    if base < 0 or novel < 0:
        raise EvaluationError(f"accuracies must be non-negative, got ({base}, {novel})")
    if base == 0 and novel == 0:
        warnings.warn("harmonic mean of (0, 0) defined as 0", RuntimeWarning)
        return 0.0
    return 2.0 * base * novel / (base + novel)


@dataclass(frozen=True)
class MetricSummary:
    """Mean and population standard deviation of one metric over seeds."""

    mean: float
    stddev: float
    count: int

    def __str__(self) -> str:
        return f"{self.mean:.2f} ± {self.stddev:.2f}"


def _check_same_coordinates(records) -> Dict[str, object]:
    first = records[0]["coordinates"]
    for record in records[1:]:
        coords = record["coordinates"]
        if coords != first:
            differing = sorted(
                k for k in set(first) | set(coords) if first.get(k) != coords.get(k)
            )
            raise AggregationError(
                f"records disagree on coordinates {differing}; cannot aggregate"
            )
    return dict(first)


def aggregate_seeds(records: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Per-metric mean and population stddev over same-coordinate records.

    Records are serialized run records, as `RunRecord.to_json_dict()` and
    `load_records` give them.

    Returns {"coordinates": ..., "seeds": ..., "metrics": {name: MetricSummary}}.
    Only metrics present in every record are aggregated.
    """
    if not records:
        raise AggregationError("no records to aggregate")
    coordinates = _check_same_coordinates(records)
    shared = set(records[0]["eval_metrics"])
    for record in records[1:]:
        shared &= set(record["eval_metrics"])
    metrics = {}
    for name in sorted(shared):
        values = np.array([r["eval_metrics"][name] for r in records], dtype=float)
        metrics[name] = MetricSummary(
            mean=float(values.mean()),
            stddev=float(values.std()),
            count=len(values),
        )
    seeds = tuple(r["seed"] for r in records)
    return {"coordinates": coordinates, "seeds": seeds, "metrics": metrics}


@dataclass(frozen=True)
class EvalReport:
    """Seed-averaged base / novel / harmonic-mean accuracies for one run cell."""

    coordinates: Dict[str, object]
    base_accuracy: float
    novel_accuracy: float
    harmonic_mean: float
    seeds: Tuple[int, ...] = ()
    trainable_param_count: int = 0

    def __post_init__(self):
        for name in ("base_accuracy", "novel_accuracy", "harmonic_mean"):
            value = getattr(self, name)
            if not 0.0 <= value <= 100.0:
                raise EvaluationError(f"{name} must lie in [0, 100], got {value}")
        bound = 0.5 * (self.base_accuracy + self.novel_accuracy)
        if self.harmonic_mean > bound + 1e-9:
            raise InvariantError(
                f"harmonic mean {self.harmonic_mean} exceeds arithmetic mean {bound}"
            )

    @property
    def seed_count(self) -> int:
        return len(self.seeds)

    @classmethod
    def from_records(cls, records: Sequence[Dict[str, object]]) -> "EvalReport":
        """Aggregate same-coordinate run records into one report."""
        summary = aggregate_seeds(records)
        metrics = summary["metrics"]
        for needed in ("base_accuracy", "novel_accuracy", "harmonic_mean"):
            if needed not in metrics:
                raise AggregationError(f"records lack the {needed!r} metric")
        params = {r["trainable_params"] for r in records}
        if len(params) > 1:
            raise AggregationError(f"records disagree on trainable_params: {sorted(params)}")
        return cls(
            coordinates=summary["coordinates"],
            base_accuracy=metrics["base_accuracy"].mean,
            novel_accuracy=metrics["novel_accuracy"].mean,
            harmonic_mean=metrics["harmonic_mean"].mean,
            seeds=tuple(int(s) for s in summary["seeds"]),
            trainable_param_count=int(params.pop()) if params else 0,
        )


def _report_row(report: EvalReport) -> List[str]:
    row = []
    for column in COORD_COLUMNS:
        value = report.coordinates.get(column)
        row.append("" if value is None else str(value))
    row.append(f"{report.base_accuracy:.2f}")
    row.append(f"{report.novel_accuracy:.2f}")
    row.append(f"{report.harmonic_mean:.2f}")
    row.append(str(report.trainable_param_count))
    row.append(str(report.seed_count))
    return row


def emit_table(reports: Sequence[EvalReport], format: str = "csv", path=None) -> str:
    """Render reports as a CSV (RFC-4180 quoting, CRLF) or markdown table."""
    if not reports:
        raise EvaluationError("no reports to tabulate")
    if format not in TABLE_FORMATS:
        raise EvaluationError(f"unknown table format {format!r}; expected one of {TABLE_FORMATS}")
    header = list(COORD_COLUMNS) + list(METRIC_COLUMNS)
    rows = [_report_row(r) for r in reports]
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buffer.getvalue()
    else:
        lines = [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
        ]
        for row in rows:
            lines.append("| " + " | ".join(cell if cell else " " for cell in row) + " |")
        text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


_INT_COLUMNS = {"m", "shots", "params", "seed_count"}
_FLOAT_COLUMNS = {"alpha", "lambda", "beta", "base", "novel", "h"}


def _parse_cell(column: str, text: str):
    text = text.strip()
    if text == "":
        return None
    if column in _INT_COLUMNS:
        return int(text)
    if column in _FLOAT_COLUMNS:
        return float(text)
    return text


def parse_table(text: str, format: str = "csv") -> List[Dict[str, object]]:
    """Invert emit_table back to one dict per row, numbers parsed."""
    if format not in TABLE_FORMATS:
        raise EvaluationError(f"unknown table format {format!r}; expected one of {TABLE_FORMATS}")
    if format == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            raise EvaluationError("empty table")
        header, data = rows[0], rows[1:]
    else:
        lines = [line for line in text.splitlines() if line.strip()]
        if len(lines) < 2:
            raise EvaluationError("markdown table needs a header and separator")
        cells = [
            [cell.strip() for cell in line.strip().strip("|").split("|")] for line in lines
        ]
        header, data = cells[0], cells[2:]
    out = []
    for row in data:
        if len(row) != len(header):
            raise EvaluationError(
                f"row has {len(row)} cells, header has {len(header)}: {row!r}"
            )
        out.append({col: _parse_cell(col, cell) for col, cell in zip(header, row)})
    return out


def export_embeddings(features: Dict[str, np.ndarray], labels, path) -> int:
    """Write one TSV row per (variant, sample): tag, label, feature values.

    `features` maps a variant tag to its (samples, dim) feature matrix, one
    row per entry of `labels`; all variants must share the dim. Variants
    are written in tag order. Returns the row count.
    """
    if not features:
        raise EvaluationError("no feature variants to export")
    labels = np.asarray(labels)
    shapes = {tag: np.shape(feats) for tag, feats in features.items()}
    for tag, shape in shapes.items():
        if len(shape) != 2 or shape[0] != len(labels):
            raise DimensionError(
                f"variant {tag!r} has features shaped {shape} for {len(labels)} labels"
            )
    dims = {shape[1] for shape in shapes.values()}
    if len(dims) > 1:
        raise DimensionError(f"variants disagree on feature dim: {shapes}")
    header = ["variant", "label"] + [f"f{i}" for i in range(dims.pop())]
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\t".join(header) + "\n")
        for tag in sorted(features):
            for row, label in zip(features[tag], labels):
                cells = [tag, str(int(label))] + [repr(float(v)) for v in row]
                fh.write("\t".join(cells) + "\n")
    return len(features) * len(labels)
