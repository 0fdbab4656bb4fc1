import json

import pytest

from dpsgd.engine import DelayModel, ProblemSpec, RunConfig, TheoryParams
from dpsgd.engine.rates import theory_constant_rate
from dpsgd.errors import ConfigurationError


def full_config():
    return RunConfig(
        T=64,
        M=2,
        nW=4,
        p=2,
        B=3,
        eta=0.02,
        rho_schedule={"kind": "power", "tau0": 2.0, "kappa": 0.75},
        seed=7,
        delay=DelayModel(kind="uniform", low=0.0, high=2e-3,
                         d_prime_bound=5, enforce="drop"),
        problem=ProblemSpec(name="sigmoid", n=40, dim=6, data_seed=3),
        execution="simulated",
        compute_cost_s=1e-3,
        theory=TheoryParams(f0_minus_fstar=1.0, L=1.0, V=0.5),
        grad_norm_every=4,
    )


def test_round_trip_through_dict_and_json(tmp_path):
    cfg = full_config()
    cfg.validate()
    back = RunConfig.from_dict(cfg.to_dict())
    assert back == cfg
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert RunConfig.from_json_file(path) == cfg


def test_theory_section_is_optional_in_dict():
    cfg = RunConfig()
    d = cfg.to_dict()
    assert "theory" not in d
    assert RunConfig.from_dict(d) == cfg


def test_unknown_fields_rejected():
    with pytest.raises(ConfigurationError, match="unknown config fields"):
        RunConfig.from_dict({"T": 10, "workers": 3})
    with pytest.raises(ConfigurationError, match="unknown delay fields"):
        RunConfig.from_dict({"delay": {"kind": "none", "lag": 1}})
    with pytest.raises(ConfigurationError, match="unknown problem fields"):
        RunConfig.from_dict({"problem": {"name": "quadratic", "rows": 5}})


@pytest.mark.parametrize("raw, section", [
    ({"delay": 3}, "delay"),
    ({"problem": "quadratic"}, "problem"),
    ({"delay": None}, "delay"),
    ({"theory": [1.0]}, "theory"),
])
def test_non_object_section_rejected(raw, section):
    with pytest.raises(ConfigurationError,
                       match=f"{section} section must be a JSON object"):
        RunConfig.from_dict(raw)


def test_null_theory_section_is_no_theory():
    assert RunConfig.from_dict({"theory": None}) == RunConfig()


def test_malformed_json_file_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        RunConfig.from_json_file(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigurationError, match="JSON object"):
        RunConfig.from_json_file(arr)


def test_unreadable_json_file_is_a_configuration_error(tmp_path):
    from dpsgd.bench import ExperimentSpec

    missing = tmp_path / "missing.json"
    with pytest.raises(ConfigurationError, match="cannot read config"):
        RunConfig.from_json_file(missing)
    with pytest.raises(ConfigurationError, match="cannot read experiment"):
        ExperimentSpec.from_json_file(missing)


RUNTIMES = ("simulated", "threaded", "tcp")


@pytest.mark.parametrize("overrides,accepted_by", [
    (dict(), RUNTIMES),
    (dict(delay=DelayModel(kind="fixed", latency=1e-3, d_prime_bound=2,
                           enforce="block"), compute_cost_s=1e-3),
     ("simulated",)),
    (dict(delay=DelayModel(kind="seeded-jitter", high=1e-3, jitter=1e-3),
          compute_cost_s=1e-3), ("simulated",)),
    (dict(trace_overwrites=True), ("threaded",)),
    (dict(delay=DelayModel(kind="uniform", high=1e-3)), ("threaded", "tcp")),
    (dict(delay=DelayModel(kind="fixed", latency=1e-3)), ("threaded", "tcp")),
])
def test_check_runtime_rejects_what_a_runtime_cannot_honour(overrides,
                                                           accepted_by):
    cfg = RunConfig(**overrides)
    cfg.validate()
    for runtime in RUNTIMES:
        if runtime in accepted_by:
            cfg.check_runtime(runtime)
        else:
            with pytest.raises(ConfigurationError):
                cfg.check_runtime(runtime)


@pytest.mark.parametrize("field", ["T", "M", "nW", "p", "B"])
def test_counts_must_be_positive(field):
    cfg = RunConfig(**{field: 0})
    with pytest.raises(ConfigurationError, match=f"{field} must be >= 1"):
        cfg.validate()


def test_scalar_field_validation():
    with pytest.raises(ConfigurationError, match="eta"):
        RunConfig(eta=0.0).validate()
    with pytest.raises(ConfigurationError, match="execution"):
        RunConfig(execution="mpi").validate()
    with pytest.raises(ConfigurationError, match="compute_cost_mode"):
        RunConfig(compute_cost_mode="spin").validate()
    with pytest.raises(ConfigurationError, match="compute_cost_s"):
        RunConfig(compute_cost_s=-1.0).validate()
    with pytest.raises(ConfigurationError, match="grad_norm_every"):
        RunConfig(grad_norm_every=-1).validate()


def test_busy_compute_cost_mode_is_rejected():
    # a busy spin holds the interpreter lock, so local threads could not
    # overlap their compute cost; sleep is the only mode
    RunConfig(compute_cost_mode="sleep").validate()
    with pytest.raises(ConfigurationError, match="compute_cost_mode"):
        RunConfig(compute_cost_mode="busy").validate()


def test_delay_model_validation():
    with pytest.raises(ConfigurationError, match="delay kind"):
        DelayModel(kind="gamma").validate()
    with pytest.raises(ConfigurationError, match="enforce policy"):
        DelayModel(enforce="retry").validate()
    with pytest.raises(ConfigurationError, match="non-negative"):
        DelayModel(kind="fixed", latency=-1.0).validate()
    with pytest.raises(ConfigurationError, match="high >= low"):
        DelayModel(kind="uniform", low=2.0, high=1.0).validate()
    with pytest.raises(ConfigurationError, match="requires d_prime_bound"):
        DelayModel(enforce="drop").validate()
    with pytest.raises(ConfigurationError, match="d_prime_bound"):
        DelayModel(d_prime_bound=-1).validate()


def test_seeded_jitter_transit_needs_high_at_least_low():
    # seeded-jitter draws its transit from [low, high) as uniform does, so
    # high < low would give negative transits and a clock that runs back
    bad = DelayModel(kind="seeded-jitter", low=0.0, high=-0.5, jitter=1e-3)
    with pytest.raises(ConfigurationError,
                       match="seeded-jitter delay needs high >= low"):
        bad.validate()
    with pytest.raises(ConfigurationError, match="high >= low"):
        RunConfig(delay=bad, compute_cost_s=1e-3).validate()
    DelayModel(kind="seeded-jitter", low=1e-3, high=1e-3,
               jitter=1e-3).validate()


def test_block_policy_shape_constraints():
    blocked = DelayModel(kind="uniform", high=1e-3,
                         d_prime_bound=1, enforce="block")
    with pytest.raises(ConfigurationError, match="nW >= M"):
        RunConfig(M=3, nW=2, delay=blocked).validate()
    # with D' = 1 each batch drains M of at most 2M outstanding bases
    with pytest.raises(ConfigurationError, match=r"M \* \(d_prime_bound"):
        RunConfig(M=2, nW=5, delay=blocked).validate()
    RunConfig(M=2, nW=4, delay=blocked, compute_cost_s=1e-3).validate()


def test_theory_params_validation():
    with pytest.raises(ConfigurationError, match="f0_minus_fstar"):
        TheoryParams(f0_minus_fstar=0.0, L=1.0, V=1.0).validate()
    with pytest.raises(ConfigurationError, match="positive"):
        TheoryParams(f0_minus_fstar=1.0, L=-1.0, V=1.0).validate()
    with pytest.raises(ConfigurationError, match="mu"):
        TheoryParams(f0_minus_fstar=1.0, L=1.0, V=1.0, mu=1.0).validate()
    with pytest.raises(ConfigurationError, match="D and D_prime"):
        TheoryParams(f0_minus_fstar=1.0, L=1.0, V=1.0, D=-1).validate()


def test_rho_schedule_kinds():
    cfg = RunConfig(rho_schedule={"kind": "constant", "value": 0.25})
    assert cfg.resolve_rho()(17) == 0.25
    cfg = RunConfig(rho_schedule={"kind": "power", "tau0": 1.0, "kappa": 0.5})
    assert cfg.resolve_rho()(3) == 4.0 ** -0.5
    theory = TheoryParams(f0_minus_fstar=2.0, L=1.0, V=0.5, alpha=1.0, mu=0.5)
    cfg = RunConfig(
        T=100, M=2, p=2, B=4, theory=theory,
        rho_schedule={"kind": "theory-constant"},
    )
    want = theory_constant_rate(2.0, theory.noise_scale(), 1.0, 100, 2, 8)
    assert cfg.resolve_rho()(0) == want


def test_rho_schedule_validation():
    with pytest.raises(ConfigurationError, match="value > 0"):
        RunConfig(rho_schedule={"kind": "constant", "value": 0.0}).validate()
    with pytest.raises(ConfigurationError, match="kappa"):
        RunConfig(rho_schedule={"kind": "power", "kappa": 0.3}).validate()
    with pytest.raises(ConfigurationError, match="unknown rho schedule"):
        RunConfig(rho_schedule={"kind": "cosine"}).validate()
    with pytest.raises(ConfigurationError, match="requires theory"):
        RunConfig(rho_schedule={"kind": "theory-constant"}).validate()


def test_btilde_is_local_steps_times_threads():
    assert RunConfig(p=3, B=7).Btilde == 21


def test_theory_warnings_only_with_params():
    assert RunConfig().theory_warnings() == []
    cfg = RunConfig(
        eta=10.0,
        theory=TheoryParams(f0_minus_fstar=1.0, L=5.0, V=1.0, mu=0.5),
    )
    with pytest.warns(UserWarning):
        msgs = cfg.theory_warnings()
    assert msgs


@pytest.mark.parametrize("schedule, match", [
    ({"kind": "power", "tau": 9.0}, r"unknown power schedule fields: \['tau'\]"),
    ({"kind": "power", "kappa": True}, "power schedule kappa must be a JSON number"),
    ({"kind": "constant", "value": "0.1"},
     "constant schedule value must be a JSON number"),
    ({"kind": "constant", "value": 0.1, "kappa": 0.5},
     r"unknown constant schedule fields: \['kappa'\]"),
    ({"kind": "theory-constant", "value": 0.1},
     r"unknown theory-constant schedule fields: \['value'\]"),
    ({"kind": ["power"]}, "unknown rho schedule kind"),
])
def test_rho_schedule_takes_only_its_kinds_numbers(schedule, match):
    theory = TheoryParams(f0_minus_fstar=1.0, L=1.0, V=0.5)
    with pytest.raises(ConfigurationError, match=match):
        RunConfig(rho_schedule=schedule, theory=theory).validate()
    with pytest.raises(ConfigurationError, match=match):
        RunConfig.from_dict({"rho_schedule": schedule,
                             "theory": {"f0_minus_fstar": 1.0, "L": 1.0,
                                        "V": 0.5}})


def test_rho_schedule_keeps_an_integer_as_given():
    assert RunConfig(rho_schedule={"kind": "constant", "value": 1}
                     ).resolve_rho()(5) == 1
    rho = RunConfig(rho_schedule={"kind": "power", "tau0": 3, "kappa": 1}
                    ).resolve_rho()
    assert rho(1) == 4 ** -1


@pytest.mark.parametrize("raw, match", [
    ({"T": 10.5}, "config T must be a JSON integer, got 10.5"),
    ({"T": True}, "config T must be a JSON integer, got True"),
    ({"T": "5"}, "config T must be a JSON integer, got '5'"),
    ({"eta": "0.1"}, "config eta must be a JSON number"),
    ({"eta": False}, "config eta must be a JSON number"),
    ({"execution": 1}, "config execution must be a JSON string"),
    ({"trace_overwrites": 1}, "config trace_overwrites must be a JSON boolean"),
    ({"rho_schedule": "constant"}, "config rho_schedule must be a JSON object"),
    ({"problem": {"data_seed": 2.0}},
     "problem data_seed must be a JSON integer or null"),
    ({"problem": {"params": []}}, "problem params must be a JSON object"),
    ({"delay": {"d_prime_bound": "3"}},
     "delay d_prime_bound must be a JSON integer or null"),
    ({"theory": {"f0_minus_fstar": 1.0, "L": 1.0}}, "theory is missing field 'V'"),
    ({"theory": {"f0_minus_fstar": 1.0, "L": 1.0, "V": 1.0, "D": 0.5}},
     "theory D must be a JSON integer"),
])
def test_from_dict_checks_each_fields_json_type(raw, match):
    with pytest.raises(ConfigurationError, match=match):
        RunConfig.from_dict(raw)


def test_from_dict_keeps_numbers_as_given():
    cfg = RunConfig.from_dict({"eta": 1, "compute_cost_s": 0,
                               "problem": {"data_seed": None}})
    assert cfg.eta == 1 and type(cfg.eta) is int
    assert cfg.compute_cost_s == 0 and cfg.problem.data_seed is None


def test_section_reader_types():
    from dataclasses import dataclass

    from dpsgd.engine.config import build_section, read_section

    @dataclass
    class Cell:
        at: tuple[int, int]
        rows: list[int] | None = None

    cell = build_section(Cell, {"at": [1, 2], "rows": [3]}, "cell")
    assert cell == Cell((1, 2), [3]) and type(cell.at) is tuple
    for bad in ({"at": [1]}, {"at": [1, 2.0]}, {"at": [1, True]},
                {"at": 1}):
        with pytest.raises(ConfigurationError,
                           match="cell at must be a JSON list of integers"):
            build_section(Cell, bad, "cell")
    with pytest.raises(ConfigurationError, match="cell rows must be a JSON "
                                                 "list of integers or null"):
        build_section(Cell, {"at": [0, 0], "rows": [1.5]}, "cell")
    assert build_section(Cell, {"at": [0, 0], "rows": None}, "cell").rows is None
    with pytest.raises(ConfigurationError, match="cell is missing field 'at'"):
        build_section(Cell, {}, "cell")
    # arguments the caller supplies are neither required nor accepted
    assert read_section(Cell, {"rows": [1]}, "cell", supplied=("at",)) == {
        "rows": [1]}
    with pytest.raises(ConfigurationError, match=r"unknown cell fields: \['at'\]"):
        read_section(Cell, {"at": [0, 0]}, "cell", supplied=("at",))
