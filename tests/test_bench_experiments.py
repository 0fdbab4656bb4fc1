"""Sweep orchestration, TSP arithmetic, and slope fits."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsgd.bench import (
    ExperimentSpec,
    convergence_slope,
    convergence_study,
    read_metrics_csv,
    read_summary_json,
    run_experiment,
    tsp,
)
from dpsgd.engine import DelayModel, ProblemSpec, RunConfig, rescale_rate
from dpsgd.errors import ConfigurationError

times = st.floats(min_value=1e-3, max_value=1e3,
                  allow_nan=False, allow_infinity=False)


def quad_cfg(**overrides) -> RunConfig:
    base = dict(
        T=20,
        M=2,
        nW=2,
        p=1,
        B=1,
        eta=0.1,
        rho_schedule={"kind": "constant", "value": 0.4},
        seed=0,
        problem=ProblemSpec(name="quadratic", n=32, dim=6, batch_size=1),
        execution="simulated",
        compute_cost_s=0.002,
    )
    base.update(overrides)
    return RunConfig(**base)


def test_tsp_values():
    assert tsp(3.5, 3.5) == 1.0
    assert tsp(100.0, 25.0) == 4.0


def test_tsp_rejects_nonpositive():
    for a, b in [(0.0, 1.0), (1.0, 0.0), (-2.0, 1.0), (1.0, -2.0)]:
        with pytest.raises(ConfigurationError, match="positive"):
            tsp(a, b)


@settings(max_examples=60, deadline=None)
@given(a=times, b=times, c=times)
def test_tsp_composes(a, b, c):
    assert tsp(a, b) * tsp(b, c) == pytest.approx(tsp(a, c), rel=1e-12)


def test_slope_exact_inverse_sqrt_law():
    x = np.array([1e3, 1e4, 1e5, 1e6])
    slope, r2 = convergence_slope(x, 3.7 / np.sqrt(x))
    assert slope == pytest.approx(-0.5, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_slope_constant_series_is_zero():
    # four identical values keep the log-mean exact, so ss_tot is 0 and
    # the fit is reported as perfect
    x = np.array([1e2, 1e3, 1e4, 1e5])
    slope, r2 = convergence_slope(x, np.full(4, 4.0))
    assert slope == pytest.approx(0.0, abs=1e-9)
    assert r2 == 1.0


def test_slope_validations():
    good_x = [1e2, 1e3, 1e4]
    with pytest.raises(ConfigurationError, match=">= 3 points"):
        convergence_slope([1e2, 1e4], [1.0, 2.0])
    with pytest.raises(ConfigurationError, match="positive"):
        convergence_slope(good_x, [1.0, -1.0, 2.0])
    with pytest.raises(ConfigurationError, match="span"):
        convergence_slope([1.0, 2.0, 99.0], [1.0, 1.0, 1.0])
    with pytest.raises(ConfigurationError, match="equal length"):
        convergence_slope(good_x, [1.0, 2.0])


def test_spec_round_trips_and_validates(tmp_path):
    spec = ExperimentSpec(
        base=quad_cfg(),
        nW_list=[1, 2],
        p_list=[1],
        B_list=[1, 4],
        reference_index=1,
        name="demo",
        out_dir="somewhere",
    )
    again = ExperimentSpec.from_dict(spec.to_dict())
    assert again.to_dict() == spec.to_dict()

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert ExperimentSpec.from_json_file(path).to_dict() == spec.to_dict()

    with pytest.raises(ConfigurationError, match="unknown experiment fields"):
        ExperimentSpec.from_dict({**spec.to_dict(), "bogus": 1})
    with pytest.raises(ConfigurationError, match="'base'"):
        ExperimentSpec.from_dict({"nW_list": [1]})
    with pytest.raises(ConfigurationError,
                       match="base section must be a JSON object"):
        ExperimentSpec.from_dict({"base": 5})
    with pytest.raises(ConfigurationError, match="nonempty"):
        ExperimentSpec(base=quad_cfg(), nW_list=[]).validate()
    with pytest.raises(ConfigurationError, match=">= 1"):
        ExperimentSpec(base=quad_cfg(), p_list=[0]).validate()
    with pytest.raises(ConfigurationError, match="reference_index"):
        ExperimentSpec(base=quad_cfg(), reference_index=4).validate()


def test_unswept_axes_inherit_base_shape():
    spec = ExperimentSpec(base=quad_cfg(nW=2, p=3, B=4), nW_list=[1, 2])
    assert spec.p_list == [3]
    assert spec.B_list == [4]
    shapes = [(c.nW, c.p, c.B) for c in spec.points()]
    assert shapes == [(1, 3, 4), (2, 3, 4)]
    # rate untouched: every point keeps the base work shape (p, B, M)
    for cfg in spec.points():
        assert cfg.rho_schedule["value"] == 0.4


def test_sweep_rescales_constant_rate_per_point():
    spec = ExperimentSpec(
        base=quad_cfg(rho_schedule={"kind": "constant", "value": 0.1}),
        nW_list=[1],
        p_list=[1, 2],
        B_list=[1, 4],
    )
    base_shape = (1, 1, 2)
    for cfg in spec.points():
        got = cfg.rho_schedule["value"]
        assert got == rescale_rate(0.1, base_shape, (cfg.p, cfg.B, cfg.M))
        manual = 0.1 * ((1 * 1 * 2) / (cfg.p * cfg.B * cfg.M)) ** 0.25
        assert got == pytest.approx(manual, rel=1e-15)
    values = [cfg.rho_schedule["value"] for cfg in spec.points()]
    assert values[0] == 0.1 and values[1] < values[0]
    # the base schedule itself is never mutated by expansion
    assert spec.base.rho_schedule["value"] == 0.1


def test_sweep_leaves_power_schedule_alone():
    spec = ExperimentSpec(
        base=quad_cfg(rho_schedule={"kind": "power", "tau0": 4.0, "kappa": 0.7}),
        B_list=[1, 8],
    )
    for cfg in spec.points():
        assert cfg.rho_schedule == {"kind": "power", "tau0": 4.0, "kappa": 0.7}


def test_single_point_sweep_is_its_own_reference(tmp_path):
    spec = ExperimentSpec(base=quad_cfg(), name="solo", out_dir=str(tmp_path))
    summary = run_experiment(spec)
    assert len(summary["runs"]) == 1
    record = summary["runs"][0]
    assert record["error"] is None
    assert record["tsp_vs_reference"] == 1.0
    assert record["throughput_ratio_vs_reference"] == 1.0
    assert summary["slope_fit"] is None
    assert (tmp_path / record["metrics_csv"]).exists()
    assert (tmp_path / "solo_summary.json").exists()


def test_b_sweep_messages_equal_gradients_scale(tmp_path):
    spec = ExperimentSpec(
        base=quad_cfg(T=40),
        B_list=[1, 10],
        name="bsweep",
        out_dir=str(tmp_path),
    )
    summary = run_experiment(spec)
    r1, r10 = summary["runs"]
    assert (r1["B"], r10["B"]) == (1, 10)
    assert r1["messages"] == r10["messages"]
    assert r10["effective_gradients"] == 10 * r1["effective_gradients"]


def test_sweep_records_failures_and_continues(tmp_path):
    # nW=1 violates the block-policy feasibility bound nW >= M, so that
    # point must fail while the nW=2 point still runs
    base = quad_cfg(
        delay=DelayModel(kind="uniform", low=0.001, high=0.003,
                         enforce="block", d_prime_bound=1),
    )
    spec = ExperimentSpec(base=base, nW_list=[1, 2], name="failrec",
                          out_dir=str(tmp_path))
    summary = run_experiment(spec)
    failed, ok = summary["runs"]
    assert "ConfigurationError" in failed["error"]
    assert "nW >= M" in failed["error"]
    assert "metrics_csv" not in failed
    assert ok["error"] is None
    assert (tmp_path / ok["metrics_csv"]).exists()
    assert failed["tsp_vs_reference"] is None
    stored = read_summary_json(tmp_path / "failrec_summary.json")
    assert stored["runs"][0]["error"] == failed["error"]


def test_sweep_summary_recomputable_from_run_files(tmp_path):
    spec = ExperimentSpec(base=quad_cfg(T=30, grad_norm_every=5),
                          B_list=[1, 4], name="re", out_dir=str(tmp_path))
    summary = run_experiment(spec)
    ref = summary["runs"][0]
    for record in summary["runs"]:
        stored = read_summary_json(tmp_path / record["summary_json"])
        assert stored["wall_clock_s"] == record["wall_clock_s"]
        assert record["tsp_vs_reference"] == tsp(
            ref["wall_clock_s"], record["wall_clock_s"]
        )
        series = read_metrics_csv(tmp_path / record["metrics_csv"])
        col = series.column("grad_norm_sq")
        assert record["mean_grad_norm_sq"] == float(
            col[~np.isnan(col)].mean()
        )


def test_convergence_study_requires_norm_sampling():
    with pytest.raises(ConfigurationError, match="grad_norm_every"):
        convergence_study(quad_cfg(grad_norm_every=0), [100, 1000, 10000])


def test_convergence_study_rejects_decaying_schedules():
    cfg = quad_cfg(rho_schedule={"kind": "power", "tau0": 1.0, "kappa": 0.6},
                   grad_norm_every=10)
    with pytest.raises(ConfigurationError, match="constant"):
        convergence_study(cfg, [100, 1000, 10000])


def test_convergence_study_scales_rate_and_fits(tmp_path):
    base = quad_cfg(T=100, M=1, nW=1, compute_cost_s=0.0, grad_norm_every=10,
                    rho_schedule={"kind": "constant", "value": 0.4})
    study = convergence_study(base, [10000, 100, 1000], out_dir=str(tmp_path))
    ts = [row["T"] for row in study["rows"]]
    assert ts == [100, 1000, 10000]
    for row in study["rows"]:
        expected = 0.4 * math.sqrt(base.T / row["T"])
        assert row["rho_schedule"]["value"] == pytest.approx(expected, rel=1e-15)
        assert row["work"] == row["T"] * base.M * base.Btilde
    # smaller rate and longer horizon must push the gradient floor down
    norms = [row["mean_grad_norm_sq"] for row in study["rows"]]
    assert norms[2] < norms[0]
    assert study["slope"] < 0
    assert 0 < study["r_squared"] <= 1
    assert (tmp_path / "convergence_summary.json").exists()
    assert (tmp_path / "convergence_T1000_metrics.csv").exists()
