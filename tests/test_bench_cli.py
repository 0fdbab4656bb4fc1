"""CLI contract: subcommands, flags, file outputs, exit codes."""
import json
import os
from pathlib import Path

import pytest

from dpsgd.bench import ExperimentSpec, read_summary_json
from dpsgd.bench.cli import main
from dpsgd.engine import ProblemSpec, RunConfig
from dpsgd.hsa2c import ToyEnv, hsa2c_config, optimal_return, run_hsa2c
from dpsgd.svi_lda import dpsvi_config, synthetic_corpus

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def write_json(tmp_path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def quad_cfg(**overrides) -> RunConfig:
    base = dict(
        T=15,
        M=2,
        nW=2,
        p=1,
        B=2,
        eta=0.1,
        rho_schedule={"kind": "constant", "value": 0.4},
        seed=1,
        problem=ProblemSpec(name="quadratic", n=32, dim=6, batch_size=1),
        execution="simulated",
        grad_norm_every=5,
    )
    base.update(overrides)
    return RunConfig(**base)


def svi_cfg() -> RunConfig:
    return RunConfig(
        T=6,
        M=2,
        nW=2,
        p=1,
        B=2,
        eta=1.0,
        rho_schedule={"kind": "power", "tau0": 4.0, "kappa": 0.7},
        seed=5,
        problem=ProblemSpec(
            name="lda-svi",
            n=50,
            dim=3 * 30,
            batch_size=8,
            params={
                "K": 3,
                "corpus": {"kind": "synthetic", "n_docs": 60,
                           "vocab_size": 30, "k_topics": 3, "seed": 42},
                "heldout_docs": 10,
                "split_seed": 7,
            },
        ),
        execution="simulated",
        grad_norm_every=0,
    )


def test_validate_config_accepts_run_config(tmp_path, capsys):
    path = write_json(tmp_path, "cfg.json", quad_cfg().to_dict())
    assert main(["validate-config", "--config", path]) == 0
    assert "ok: run config" in capsys.readouterr().out


def test_validate_config_accepts_experiment(tmp_path, capsys):
    spec = ExperimentSpec(base=quad_cfg(), nW_list=[1, 2], name="x")
    path = write_json(tmp_path, "spec.json", spec.to_dict())
    assert main(["validate-config", "--config", path]) == 0
    assert "ok: experiment" in capsys.readouterr().out


def test_validate_config_error_paths(tmp_path):
    assert main(["validate-config", "--config",
                 str(tmp_path / "missing.json")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["validate-config", "--config", str(garbled)]) == 2
    unknown = write_json(tmp_path, "unknown.json",
                         {**quad_cfg().to_dict(), "bogus": 1})
    assert main(["validate-config", "--config", unknown]) == 2


@pytest.mark.parametrize("payload, section", [
    ({"delay": 3}, "delay"),
    ({"problem": "quadratic"}, "problem"),
])
def test_run_with_non_object_section_exits_2(tmp_path, capsys, payload,
                                             section):
    path = write_json(tmp_path, "cfg.json", payload)
    assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {section} section must be a JSON object" in err


def test_sweep_with_non_object_base_exits_2(tmp_path, capsys):
    path = write_json(tmp_path, "spec.json", {"base": 5})
    assert main(["sweep", "--config", path]) == 2
    assert "error: base section must be a JSON object" in capsys.readouterr().err


def test_missing_required_flag_exits_2():
    assert main(["run"]) == 2


def test_run_writes_outputs_deterministically(tmp_path):
    path = write_json(tmp_path, "cfg.json", quad_cfg().to_dict())
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["run", "--config", path, "--out-dir", out1]) == 0
    assert main(["run", "--config", path, "--out-dir", out2]) == 0
    name = "quadratic_seed1_metrics.csv"
    with open(os.path.join(out1, name), "rb") as fh:
        first = fh.read()
    with open(os.path.join(out2, name), "rb") as fh:
        assert fh.read() == first
    summary = read_summary_json(os.path.join(out1, "quadratic_seed1_summary.json"))
    assert summary["config"] == quad_cfg().to_dict()
    assert summary["mode"] == "simulated"


def test_run_seed_override(tmp_path):
    path = write_json(tmp_path, "cfg.json", quad_cfg().to_dict())
    out = str(tmp_path / "out")
    assert main(["run", "--config", path, "--seed", "123",
                 "--out-dir", out]) == 0
    summary = read_summary_json(os.path.join(out, "quadratic_seed123_summary.json"))
    assert summary["config"]["seed"] == 123


def test_run_inproc_transport_forces_threaded(tmp_path):
    path = write_json(tmp_path, "cfg.json", quad_cfg(T=8).to_dict())
    out = str(tmp_path / "out")
    assert main(["run", "--config", path, "--transport", "inproc",
                 "--out-dir", out]) == 0
    summary = read_summary_json(os.path.join(out, "quadratic_seed1_summary.json"))
    assert summary["mode"] == "threaded"
    assert summary["config"]["execution"] == "threaded"


def test_run_tcp_all_in_one(tmp_path):
    path = write_json(tmp_path, "cfg.json", quad_cfg(T=8).to_dict())
    out = str(tmp_path / "out")
    assert main(["run", "--config", path, "--transport", "tcp",
                 "--out-dir", out]) == 0
    summary = read_summary_json(os.path.join(out, "quadratic_seed1_summary.json"))
    assert summary["mode"] == "tcp"
    assert summary["counters"]["pushes_applied"] == 8 * 2
    # the config asked for a simulated run; real threads ran it
    assert summary["config"]["execution"] == "threaded"


def test_run_rejects_traces_over_tcp(tmp_path):
    path = write_json(tmp_path, "cfg.json", quad_cfg(T=4).to_dict())
    assert main(["run", "--config", path, "--transport", "tcp",
                 "--trace-overwrites"]) == 2


def test_worker_role_requires_worker_id(tmp_path):
    path = write_json(tmp_path, "cfg.json", quad_cfg(T=4).to_dict())
    assert main(["run", "--config", path, "--transport", "tcp",
                 "--master-addr", "127.0.0.1:59999"]) == 2


@pytest.mark.parametrize("flags", [
    ["--listen", "127.0.0.1:5999"],
    ["--transport", "inproc", "--listen", "127.0.0.1:5999"],
    ["--master-addr", "127.0.0.1:5999", "--worker-id", "0"],
    ["--worker-id", "0"],
    ["--transport", "tcp", "--worker-id", "0"],
    ["--transport", "tcp", "--listen", "127.0.0.1:5999",
     "--master-addr", "127.0.0.1:5999", "--worker-id", "0"],
])
def test_run_refuses_a_tcp_role_flag_it_would_ignore(tmp_path, flags):
    # each of these used to run a simulated, threaded or all-in-one tcp
    # run and exit 0, the flag unused
    path = write_json(tmp_path, "cfg.json", quad_cfg(T=4).to_dict())
    out = str(tmp_path / "out")
    assert main(["run", "--config", path, "--out-dir", out, *flags]) == 2
    assert not os.path.exists(out)


def test_bad_address_exits_2(tmp_path):
    path = write_json(tmp_path, "cfg.json", quad_cfg(T=4).to_dict())
    assert main(["run", "--config", path, "--transport", "tcp",
                 "--listen", "no-port-here"]) == 2


def test_unknown_problem_exits_2(tmp_path):
    cfg = quad_cfg().to_dict()
    cfg["problem"] = dict(cfg["problem"], name="nonesuch")
    path = write_json(tmp_path, "cfg.json", cfg)
    assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 2


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_numeric_fault_exits_3(tmp_path):
    cfg = quad_cfg(T=400, M=1, nW=1, eta=1e155,
                   rho_schedule={"kind": "constant", "value": 1.0},
                   grad_norm_every=0)
    path = write_json(tmp_path, "cfg.json", cfg.to_dict())
    assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 3


def test_sweep_cli(tmp_path):
    spec = ExperimentSpec(base=quad_cfg(compute_cost_s=0.002),
                          B_list=[1, 4], name="cli_sweep")
    path = write_json(tmp_path, "spec.json", spec.to_dict())
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", path, "--out-dir", out]) == 0
    summary = read_summary_json(os.path.join(out, "cli_sweep_summary.json"))
    assert len(summary["runs"]) == 2
    assert all(r["error"] is None for r in summary["runs"])


def test_svi_cli_synthetic_corpus(tmp_path):
    path = write_json(tmp_path, "svi.json", svi_cfg().to_dict())
    out = str(tmp_path / "out")
    assert main(["svi", "--config", path, "--out-dir", out]) == 0
    summary = read_summary_json(os.path.join(out, "lda_seed5_summary.json"))
    assert summary["heldout_perplexity"] > 1.0
    assert summary["effective_docs_seen"] == 6 * 2 * 2 * 8
    assert 0.0 <= summary["topic_recovery"] <= 1.0
    series = (tmp_path / "out" / "lda_seed5_series.csv").read_text()
    assert "heldout_perplexity" in series


def test_svi_cli_rejects_wrong_doc_count(tmp_path):
    cfg = svi_cfg().to_dict()
    cfg["problem"] = dict(cfg["problem"], n=60)
    path = write_json(tmp_path, "svi.json", cfg)
    assert main(["svi", "--config", path, "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("field, value",
                         [("n_docs", "many"), ("seed", 2.7), ("n_docs", True)])
def test_svi_cli_rejects_non_integer_corpus_field(tmp_path, capsys, field,
                                                   value):
    # a JSON string, float or bool is neither parsed, truncated nor
    # counted as 1: the CLI exits 2 and names the field
    cfg = svi_cfg().to_dict()
    corpus = cfg["problem"]["params"]["corpus"]
    cfg["problem"]["params"]["corpus"] = dict(corpus, **{field: value})
    path = write_json(tmp_path, "svi.json", cfg)
    assert main(["svi", "--config", path, "--out-dir", str(tmp_path)]) == 2
    assert f"corpus {field} must be a JSON integer" in capsys.readouterr().err


def test_svi_cli_rejects_wrong_problem(tmp_path):
    path = write_json(tmp_path, "cfg.json", quad_cfg().to_dict())
    assert main(["svi", "--config", path, "--out-dir", str(tmp_path)]) == 2


def test_rl_cli_gridworld(tmp_path):
    cfg = hsa2c_config(ToyEnv(side=3), T=12, seed=2)
    path = write_json(tmp_path, "rl.json", cfg.to_dict())
    out = str(tmp_path / "out")
    assert main(["rl", "--config", path, "--out-dir", out]) == 0
    summary = read_summary_json(os.path.join(out, "gridworld_seed2_summary.json"))
    assert summary["optimal_return"] == pytest.approx(0.97)
    # T batches x M pushes x p threads x B local steps x m episodes each
    assert summary["episodes"] == 12 * 2 * 2 * 2 * 2
    assert summary["env_steps"] > 0
    series = (tmp_path / "out" / "gridworld_seed2_series.csv").read_text()
    assert "mean_return_last_100" in series


def test_rl_cli_rejects_wrong_problem(tmp_path):
    path = write_json(tmp_path, "cfg.json", quad_cfg().to_dict())
    assert main(["rl", "--config", path, "--out-dir", str(tmp_path)]) == 2


def _edited(payload: dict, path: str, value) -> dict:
    """A deep copy of payload with the field at the dotted path set."""
    out = json.loads(json.dumps(payload))
    *parents, leaf = path.split(".")
    node = out
    for key in parents:
        node = node[key]
    node[leaf] = value
    return out


def _run_payload() -> dict:
    return quad_cfg().to_dict()


def _sweep_payload() -> dict:
    return ExperimentSpec(base=quad_cfg(), nW_list=[1, 2], name="x").to_dict()


def _svi_payload() -> dict:
    return svi_cfg().to_dict()


def _rl_payload() -> dict:
    return hsa2c_config(ToyEnv(side=3), T=4, seed=2).to_dict()


# (command, payload, dotted field path, JSON value, field named in the
# error): each is refused, before anything runs, by validate-config and
# by the command that would run it
BAD_FIELDS = [
    ("run", _run_payload, "T", 10.5, "T"),
    ("run", _run_payload, "T", "5", "T"),
    ("run", _run_payload, "eta", "0.1", "eta"),
    ("run", _run_payload, "seed", 1.5, "seed"),
    ("run", _run_payload, "problem.n", 10.5, "n"),
    ("run", _run_payload, "problem.batch_size", True, "batch_size"),
    ("run", _run_payload, "delay.d_prime_bound", 1.5, "d_prime_bound"),
    ("sweep", _sweep_payload, "nW_list", [1.5], "nW_list"),
    ("run", _run_payload, "problem.params", {"box_radiuss": 5.0},
     "box_radiuss"),
    ("svi", _svi_payload, "problem.params.K", "many", "K"),
    ("svi", _svi_payload, "problem.params.corpus.n_docs", "many", "n_docs"),
    ("svi", _svi_payload, "problem.params.corpus.seed", 2.7, "seed"),
    ("svi", _svi_payload, "problem.params.corpus.n_docs", True, "n_docs"),
    ("rl", _rl_payload, "problem.params.t_max_episode", 50.7,
     "t_max_episode"),
    ("rl", _rl_payload, "problem.params.t_max", 20.5, "t_max"),
    ("run", _run_payload, "rho_schedule", {"kind": "power", "tau": 9.0},
     "tau"),
    ("svi", _svi_payload, "problem.params.heldout_docs", -1, "heldout_docs"),
    # the shape a config declares is the shape its problem has: 50
    # training documents of 60, K * V = 3 * 30, a 3x3 board's 45 weights
    # and the gridworld's INDEX_POOL episode seeds
    ("svi", _svi_payload, "problem.n", 55, "problem.n"),
    ("svi", _svi_payload, "problem.dim", 7, "problem.dim"),
    ("svi", _svi_payload, "problem.params.K", 4, "problem.dim"),
    ("rl", _rl_payload, "problem.dim", 7, "problem.dim"),
    ("rl", _rl_payload, "problem.n", 100, "problem.n"),
    # lda-svi ranges, refused by name before the shape check
    ("svi", _svi_payload, "problem.params.K", 0, "K must be >= 1"),
    ("svi", _svi_payload, "problem.params.zeta", -1.0, "zeta must be"),
    ("svi", _svi_payload, "problem.params.alpha_doc", 0.0, "alpha_doc must be"),
    ("svi", _svi_payload, "problem.params.corpus.k_topics", 0,
     "k_topics must be >= 1"),
    ("svi", _svi_payload, "problem.params.heldout_docs", 60,
     "heldout_docs must be"),
]


@pytest.mark.parametrize("command, payload, path, value, named", BAD_FIELDS)
def test_validate_config_rejects_what_the_command_rejects(
        tmp_path, capsys, command, payload, path, value, named):
    cfg_path = write_json(tmp_path, "cfg.json",
                          _edited(payload(), path, value))
    out = str(tmp_path / "out")
    for argv in (["validate-config", "--config", cfg_path],
                 [command, "--config", cfg_path, "--out-dir", out]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert named in err and "Traceback" not in err
    assert not os.path.exists(out)


def test_validate_config_builds_no_corpus(tmp_path, monkeypatch, capsys):
    import dpsgd.bench.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("validate-config built a corpus")

    monkeypatch.setattr(cli, "synthetic_corpus", refuse)
    monkeypatch.setattr(cli, "load_uci_bow", refuse)
    path = write_json(tmp_path, "svi.json", _svi_payload())
    assert main(["validate-config", "--config", path]) == 0
    uci = _edited(_svi_payload(), "problem.params.corpus",
                  {"kind": "uci", "docword": "no/such/docword.txt",
                   "vocab": "no/such/vocab.txt"})
    path = write_json(tmp_path, "uci.json", uci)
    assert main(["validate-config", "--config", path]) == 0
    assert capsys.readouterr().out.count("ok: run config") == 2


@pytest.mark.parametrize("field, value", [("K", 0), ("zeta", -1.0)])
def test_validate_config_checks_lda_ranges_on_a_uci_corpus(tmp_path, capsys,
                                                           field, value):
    # no corpus is read, so a range error cannot wait for svi to read one
    uci = _edited(_svi_payload(), "problem.params.corpus",
                  {"kind": "uci", "docword": "no/such/docword.txt",
                   "vocab": "no/such/vocab.txt"})
    path = write_json(tmp_path, "uci.json",
                      _edited(uci, f"problem.params.{field}", value))
    assert main(["validate-config", "--config", path]) == 2
    assert f"{field} must be" in capsys.readouterr().err


@pytest.mark.parametrize("block, named", [
    ({"kind": "uci", "docword": "d.txt"}, "'vocab'"),
    ({"kind": "synthetic", "docword": "d.txt"}, "docword"),
    ({"kind": "zipf"}, "zipf"),
    ({"n_docs": 60}, "corpus kind"),
])
def test_validate_config_reads_corpus_block_by_kind(tmp_path, capsys, block,
                                                   named):
    cfg = _edited(_svi_payload(), "problem.params.corpus", block)
    path = write_json(tmp_path, "svi.json", cfg)
    assert main(["validate-config", "--config", path]) == 2
    assert named in capsys.readouterr().err


def test_rl_cli_runs_the_board_hsa2c_config_wrote(tmp_path):
    # every ToyEnv field travels in the params, so the CLI plays the same
    # board as the library call
    env = ToyEnv(side=3, step_reward=0.0, goal_reward=2.0)
    cfg = hsa2c_config(env, T=6, seed=4)
    path = write_json(tmp_path, "rl.json", cfg.to_dict())
    out = str(tmp_path / "out")
    assert main(["validate-config", "--config", path]) == 0
    assert main(["rl", "--config", path, "--out-dir", out]) == 0
    summary = read_summary_json(os.path.join(out, "gridworld_seed4_summary.json"))
    _, _, oracle = run_hsa2c(cfg, env)
    assert summary["optimal_return"] == optimal_return(env) == 2.0
    assert summary["env_steps"] == oracle.env_steps
    assert summary["final_mean_return"] == oracle.mean_return_last()


def _perfbench_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    return workloads


def test_driver_and_benchmark_configs_round_trip(tmp_path, monkeypatch,
                                                 capsys):
    # the typed reader refuses nothing the benchmark or the drivers make
    workloads = _perfbench_workloads(monkeypatch)
    runnable = [w.config(3) for w in workloads.WORKLOADS.values()
                if isinstance(w, workloads.EngineWorkload)]
    runnable.append(hsa2c_config(ToyEnv(side=4, start=(1, 0), goal=(0, 3)),
                                 t_max=7, seed=3))
    apps = workloads.Apps().setup(3)
    corpus, _ = synthetic_corpus(40, 20, 2, seed=1)
    library_only = [apps["lda_cfg"], apps["a2c_cfg"],
                    dpsvi_config(corpus, K=2, G=4, seed=3)]
    assert len(runnable) == 4
    for cfg in runnable + library_only:
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
    for i, cfg in enumerate(runnable + [apps["a2c_cfg"]]):
        path = write_json(tmp_path, f"cfg{i}.json", cfg.to_dict())
        assert main(["validate-config", "--config", path]) == 0
    assert capsys.readouterr().out.count("ok: run config") == 5
