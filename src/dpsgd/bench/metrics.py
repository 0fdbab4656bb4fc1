"""Metrics persistence: versioned CSV series and JSON run summaries.

Floats are written with repr so a read-back series compares equal to the
original, NaN slots included; summaries echo the full run configuration
for replayability.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict
from typing import Any

from ..engine import MetricsSeries, RunConfig, RunResult
from ..errors import ConfigurationError

CSV_SCHEMA = "dpsgd-metrics-v1"
SUMMARY_SCHEMA = "dpsgd-summary-v1"


def write_rows_csv(path, header: tuple[str, ...], rows) -> None:
    """A versioned CSV series: the engine's metrics, LDA and RL series."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# {CSV_SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else x
                             for x in row])


def write_metrics_csv(path, metrics: MetricsSeries) -> None:
    write_rows_csv(path, MetricsSeries.COLUMNS, metrics.rows)


def read_metrics_csv(path) -> MetricsSeries:
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        if first != f"# {CSV_SCHEMA}":
            raise ConfigurationError(
                f"{path} is not a {CSV_SCHEMA} file (got {first!r})"
            )
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != MetricsSeries.COLUMNS:
            raise ConfigurationError(f"{path} has unexpected columns {header}")
        out = MetricsSeries()
        for raw in reader:
            if len(raw) != len(MetricsSeries.COLUMNS):
                raise ConfigurationError(
                    f"{path}: row has {len(raw)} fields, "
                    f"expected {len(MetricsSeries.COLUMNS)}"
                )
            vals = [
                int(v) if code == "q" else float(v)
                for code, v in zip(MetricsSeries.TYPECODES, raw)
            ]
            out.append(*vals)
        return out


def _jsonable(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def result_summary(cfg: RunConfig, result: RunResult) -> dict[str, Any]:
    """Flat, JSON-ready digest of one run."""
    return {
        "schema": SUMMARY_SCHEMA,
        "config": cfg.to_dict(),
        "mode": result.mode,
        "version": result.version,
        "wall_clock_s": result.wall_clock_s,
        "counters": asdict(result.counters),
        "applied_staleness_hist": {
            str(k): v for k, v in sorted(result.applied_staleness_hist.items())
        },
        "received_staleness_hist": {
            str(k): v
            for k, v in sorted(result.received_staleness_hist.items())
        },
        "final_model_norm": float(
            math.sqrt(sum(x * x for x in result.final.values))
        ),
        "mean_grad_norm_sq": _jsonable(
            result.metrics.mean_sampled_grad_norm_sq()
        ),
        "theory_warnings": list(result.theory_warnings),
    }


def write_summary_json(path, summary: dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_summary_json(path) -> dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def emit_run(out_dir, stem: str, cfg: RunConfig, result: RunResult,
             series=None, extra=None) -> dict[str, Any]:
    """Write series, a (header, rows) pair, to <stem>_series.csv, or the
    engine's metrics to <stem>_metrics.csv, and <stem>_summary.json, the
    run summary plus extra, under out_dir; returns the summary."""
    os.makedirs(out_dir, exist_ok=True)
    summary = {**result_summary(cfg, result), **(extra or {})}
    csv_name = f"{stem}_series.csv"
    if series is None:
        series = (MetricsSeries.COLUMNS, result.metrics.rows)
        summary["metrics_csv"] = csv_name = f"{stem}_metrics.csv"
    write_rows_csv(os.path.join(out_dir, csv_name), *series)
    write_summary_json(os.path.join(out_dir, f"{stem}_summary.json"), summary)
    return summary
