"""Metrics persistence: CSV/JSON round-trips and schema enforcement."""
import csv
import math

import numpy as np
import pytest

from dpsgd.bench import (
    CSV_SCHEMA,
    emit_run,
    read_metrics_csv,
    read_summary_json,
    result_summary,
    write_metrics_csv,
    write_rows_csv,
    write_summary_json,
)
from dpsgd.engine import MetricsSeries, ProblemSpec, RunConfig, run
from dpsgd.errors import ConfigurationError

NAN = float("nan")


def tiny_run(**overrides):
    base = dict(
        T=20,
        M=2,
        nW=2,
        p=1,
        B=2,
        eta=0.1,
        rho_schedule={"kind": "constant", "value": 0.4},
        seed=9,
        problem=ProblemSpec(name="quadratic", n=40, dim=6, batch_size=2),
        execution="simulated",
        grad_norm_every=5,
        compute_cost_s=0.001,
    )
    base.update(overrides)
    cfg = RunConfig(**base)
    return cfg, run(cfg)


def hand_series() -> MetricsSeries:
    s = MetricsSeries()
    s.append(1, 0.125, 1.0, 0, 0.0, NAN, NAN, 2, 4)
    # 0.1 + 0.2 and 1/3 exercise repr round-tripping of non-terminating
    # binary fractions
    s.append(2, 0.25, 0.1 + 0.2, 3, 1.5, 1.0 / 3.0, NAN, 4, 8)
    s.append(3, 1e-9, 7.25, 1, 1.0, NAN, 123.456, 6, 12)
    return s


def test_metrics_csv_round_trips_bitwise(tmp_path):
    path = tmp_path / "series.csv"
    orig = hand_series()
    write_metrics_csv(path, orig)
    back = read_metrics_csv(path)
    assert back.identical(orig)
    assert [row[0] for row in back.rows] == [1, 2, 3]
    assert all(isinstance(row[0], int) for row in back.rows)
    assert back.rows[1][2] == 0.1 + 0.2


def test_series_columns_are_typed():
    s = hand_series()
    assert [type(x) for x in s.rows[1]] == [
        int, float, float, int, float, float, float, int, int]
    assert s.column("messages").dtype == np.int64
    assert s.column("loss").dtype == np.float64
    assert len(s) == 3
    with pytest.raises(TypeError):
        s.append(4, 0.5, 1.0, 0.5, 0.0, NAN, NAN, 8, 16)


def test_metrics_csv_round_trips_engine_series(tmp_path):
    _, result = tiny_run()
    path = tmp_path / "run.csv"
    write_metrics_csv(path, result.metrics)
    assert read_metrics_csv(path).identical(result.metrics)


def test_metrics_csv_rejects_foreign_files(tmp_path):
    bad_schema = tmp_path / "a.csv"
    bad_schema.write_text("# some-other-format\nt\n1\n")
    with pytest.raises(ConfigurationError, match="not a dpsgd-metrics"):
        read_metrics_csv(bad_schema)

    bad_header = tmp_path / "b.csv"
    bad_header.write_text(f"# {CSV_SCHEMA}\nt,loss\n1,2\n")
    with pytest.raises(ConfigurationError, match="unexpected columns"):
        read_metrics_csv(bad_header)

    short_row = tmp_path / "c.csv"
    header = ",".join(MetricsSeries.COLUMNS)
    short_row.write_text(f"# {CSV_SCHEMA}\n{header}\n1,2.0,3.0\n")
    with pytest.raises(ConfigurationError, match="fields"):
        read_metrics_csv(short_row)


def test_summary_echoes_replayable_config():
    cfg, result = tiny_run()
    summary = result_summary(cfg, result)
    assert summary["config"] == cfg.to_dict()
    replayed = run(RunConfig.from_dict(summary["config"]))
    assert np.array_equal(replayed.final.values, result.final.values)


def test_summary_fields_match_result():
    cfg, result = tiny_run()
    summary = result_summary(cfg, result)
    assert summary["mode"] == "simulated"
    assert summary["version"] == cfg.T
    assert summary["counters"]["pushes_applied"] == cfg.T * cfg.M
    assert summary["final_model_norm"] == pytest.approx(
        float(np.linalg.norm(result.final.values))
    )
    assert sum(summary["applied_staleness_hist"].values()) == cfg.T * cfg.M


def test_summary_json_round_trip(tmp_path):
    cfg, result = tiny_run()
    summary = result_summary(cfg, result)
    path = tmp_path / "summary.json"
    write_summary_json(path, summary)
    assert read_summary_json(path) == summary


def test_summary_none_for_unsampled_grad_norms(tmp_path):
    cfg, result = tiny_run(grad_norm_every=0)
    summary = result_summary(cfg, result)
    assert summary["mean_grad_norm_sq"] is None
    path = tmp_path / "summary.json"
    write_summary_json(path, summary)
    assert read_summary_json(path)["mean_grad_norm_sq"] is None


def test_emit_run_summary_recomputable_from_csv(tmp_path):
    cfg, result = tiny_run()
    summary = emit_run(tmp_path, "demo", cfg, result)
    series = read_metrics_csv(tmp_path / summary["metrics_csv"])
    col = series.column("grad_norm_sq")
    recomputed = float(col[~np.isnan(col)].mean())
    assert summary["mean_grad_norm_sq"] == recomputed
    stored = read_summary_json(tmp_path / "demo_summary.json")
    assert stored["mean_grad_norm_sq"] == recomputed
    assert stored["config"] == cfg.to_dict()


def test_write_rows_csv_round_trips_reprs(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [(0.1, 3, 1.0 / 7.0), (2.5, 4, float(np.pi))]
    write_rows_csv(path, ("a", "b", "c"), rows)
    with open(path, newline="") as fh:
        assert fh.readline().strip() == f"# {CSV_SCHEMA}"
        reader = csv.reader(fh)
        assert next(reader) == ["a", "b", "c"]
        back = [(float(a), int(b), float(c)) for a, b, c in reader]
    assert back == rows
