"""Command-line front end.

Subcommands map onto the library: `run` executes one engine run from a
RunConfig JSON, `sweep` expands an ExperimentSpec, `svi` and `rl` drive
the topic-model and gridworld objectives, `validate-config` parses and
checks a config without running anything.

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, replace

from ..engine import (
    RunConfig,
    TcpMasterServer,
    build_oracle,
    initial_model,
    run,
    run_tcp,
    run_tcp_master,
    run_tcp_worker,
)
from ..engine.config import build_section, load_json_object, read_section
from ..errors import ConfigurationError, DpsgdError
from ..hsa2c import GridworldOracle, ToyEnv, optimal_return, run_hsa2c
from ..problems import oracle_class
from ..svi_lda import (
    LdaModel,
    heldout_split,
    load_uci_bow,
    perplexity,
    run_dpsvi,
    synthetic_corpus,
    topic_recovery_score,
)
from .experiments import ExperimentSpec, run_experiment
from .metrics import emit_run, result_summary, write_rows_csv, write_summary_json

LDA_SERIES_HEADER = ("wall_clock_s", "effective_docs_seen", "heldout_perplexity")
RL_SERIES_HEADER = ("wall_clock_s", "env_steps", "mean_return_last_100")


@dataclass
class SyntheticCorpus:
    """An lda-svi corpus block of kind "synthetic": planted topics."""

    kind: str
    n_docs: int = 500
    vocab_size: int = 100
    k_topics: int = 5
    seed: int = 42


@dataclass
class UciCorpus:
    """An lda-svi corpus block of kind "uci": bag-of-words files."""

    kind: str
    docword: str
    vocab: str


CORPUS_KINDS = {"synthetic": SyntheticCorpus, "uci": UciCorpus}


@dataclass
class LdaParams:
    """The problem params of an lda-svi config; source is the corpus
    block, read by its kind."""

    K: int
    corpus: dict
    heldout_docs: int = 0
    split_seed: int = 7
    zeta: float = 0.1
    alpha_doc: float = 0.1
    source: SyntheticCorpus | UciCorpus = field(init=False)

    def __post_init__(self):
        kind = self.corpus.get("kind")
        if not isinstance(kind, str) or kind not in CORPUS_KINDS:
            raise ConfigurationError(f"unknown corpus kind {kind!r}")
        self.source = build_section(CORPUS_KINDS[kind], self.corpus, "corpus")


def _problem_params(problem):
    """The params of problem as run, svi and rl read them, each field
    checked by the config reader; builds no data. lda-svi gives an
    LdaParams, gridworld-a2c a GridworldOracle (the ToyEnv fields plus
    t_max) and a built-in problem its oracle's constructor arguments."""
    params, label = problem.params, "problem.params"
    if problem.name == "lda-svi":
        return build_section(LdaParams, params, label)
    if problem.name == "gridworld-a2c":
        oracle_args = read_section(
            GridworldOracle, {k: v for k, v in params.items() if k == "t_max"},
            label, supplied=("env", "seed"))
        env = build_section(
            ToyEnv, {k: v for k, v in params.items() if k != "t_max"}, label)
        return GridworldOracle(env, 0, **oracle_args)
    return read_section(oracle_class(problem.name), params, label,
                        supplied=("n", "dim", "seed"))


def _load_run_config(args, problem: str | None = None):
    """The run config of args.config with --seed applied, and its problem
    params; ConfigurationError unless its problem is named problem."""
    cfg = RunConfig.from_dict(load_json_object(args.config))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
        cfg.validate()
    if problem is not None and cfg.problem.name != problem:
        raise ConfigurationError(f"{args.command} expects problem.name "
                                 f"{problem!r}, got {cfg.problem.name!r}")
    return cfg, _problem_params(cfg.problem)


def _emit_series(out_dir, stem: str, cfg, result, series, extra: dict,
                 done: str) -> None:
    """Write <stem>_series.csv, the (header, rows) of series, and
    <stem>_summary.json, the run summary plus extra, under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    series_path = os.path.join(out_dir, f"{stem}_series.csv")
    write_rows_csv(series_path, *series)
    summary_path = os.path.join(out_dir, f"{stem}_summary.json")
    write_summary_json(summary_path, {**result_summary(cfg, result), **extra})
    print(done)
    print(f"wrote {series_path}")
    print(f"wrote {summary_path}")


def _parse_address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(f"address must be HOST:PORT, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ConfigurationError(f"port in {text!r} is not an integer")


def _emit_and_report(out_dir, stem: str, cfg: RunConfig, result) -> None:
    summary = emit_run(out_dir, stem, cfg, result)
    print(
        f"run complete: mode={summary['mode']} T={cfg.T} "
        f"wall_clock_s={result.wall_clock_s:.6g} "
        f"final_model_norm={summary['final_model_norm']:.10g}"
    )
    print(f"wrote {os.path.join(out_dir, summary['metrics_csv'])}")
    print(f"wrote {os.path.join(out_dir, stem + '_summary.json')}")


def _cmd_run(args) -> int:
    cfg, _ = _load_run_config(args)
    if args.trace_overwrites:
        cfg = replace(cfg, trace_overwrites=True, execution="threaded")
    if args.transport == "inproc":
        cfg = replace(cfg, execution="threaded")
    stem = f"{cfg.problem.name}_seed{cfg.seed}"

    if args.transport == "tcp":
        oracle = build_oracle(cfg.problem, cfg.seed)
        init = initial_model(oracle)
        if args.master_addr:
            if args.worker_id is None:
                raise ConfigurationError("--master-addr requires --worker-id")
            passes = run_tcp_worker(
                cfg, oracle, _parse_address(args.master_addr), args.worker_id,
            )
            print(f"worker {args.worker_id} completed {passes} passes")
            return 0
        if args.listen:
            host, port = _parse_address(args.listen)
            server = TcpMasterServer(cfg, init, host=host, port=port)
            server.start()
            print(f"master listening on {server.address[0]}:"
                  f"{server.address[1]}", flush=True)
            result = run_tcp_master(cfg, oracle, init, server=server)
        else:
            result = run_tcp(cfg, oracle, init)
    else:
        result = run(cfg)
    _emit_and_report(args.out_dir, stem, cfg, result)
    return 0


def _cmd_sweep(args) -> int:
    spec = ExperimentSpec.from_dict(load_json_object(args.config))
    _problem_params(spec.base.problem)
    out_dir = args.out_dir if args.out_dir is not None else spec.out_dir
    summary = run_experiment(spec, out_dir=out_dir)
    failures = [r for r in summary["runs"] if r["error"] is not None]
    print(
        f"sweep {spec.name}: {len(summary['runs'])} runs, "
        f"{len(failures)} failed"
    )
    print(f"wrote {os.path.join(out_dir, spec.name + '_summary.json')}")
    return 3 if failures else 0


def _cmd_svi(args) -> int:
    cfg, params = _load_run_config(args, "lda-svi")
    source = params.source
    if source.kind == "synthetic":
        corpus, true_topics = synthetic_corpus(
            source.n_docs, source.vocab_size, source.k_topics, source.seed)
    else:
        corpus, true_topics = load_uci_bow(source.docword, source.vocab), None
    train, heldout = corpus, corpus
    if params.heldout_docs > 0:
        train, heldout = heldout_split(corpus, params.heldout_docs,
                                       params.split_seed)
    if cfg.problem.n != train.n_docs:
        raise ConfigurationError(
            f"problem.n is {cfg.problem.n} but the training corpus has "
            f"{train.n_docs} documents after the heldout split"
        )
    model0 = LdaModel.create(
        params.K,
        train.vocab_size,
        train.n_docs,
        zeta=params.zeta,
        alpha_doc=params.alpha_doc,
        seed=cfg.seed,
    )
    model, result = run_dpsvi(cfg, model0, train)
    perp = perplexity(model, heldout)
    docs_seen = result.counters.gradient_evals_applied * cfg.problem.batch_size
    extra = {"heldout_perplexity": perp, "effective_docs_seen": docs_seen,
             "heldout_docs": heldout.n_docs if params.heldout_docs > 0 else 0}
    if true_topics is not None:
        extra["topic_recovery"] = topic_recovery_score(model.mean_beta(),
                                                       true_topics)
    _emit_series(args.out_dir, f"lda_seed{cfg.seed}", cfg, result,
                 (LDA_SERIES_HEADER, [(result.wall_clock_s, docs_seen, perp)]),
                 extra, f"svi complete: perplexity={perp:.6g} "
                        f"effective_docs_seen={docs_seen}")
    return 0


def _cmd_rl(args) -> int:
    cfg, params = _load_run_config(args, "gridworld-a2c")
    env = params.env
    _, result, oracle = run_hsa2c(cfg, env)
    extra = {"optimal_return": optimal_return(env),
             "final_mean_return": oracle.mean_return_last(),
             "env_steps": oracle.env_steps,
             "episodes": len(oracle.episode_returns)}
    _emit_series(args.out_dir, f"gridworld_seed{cfg.seed}", cfg, result,
                 (RL_SERIES_HEADER, oracle.history), extra,
                 f"rl complete: mean_return_last_100="
                 f"{extra['final_mean_return']:.6g} "
                 f"optimal={extra['optimal_return']:.6g} "
                 f"env_steps={oracle.env_steps}")
    return 0


def _cmd_validate(args) -> int:
    raw = load_json_object(args.config)
    if "base" in raw:
        spec = ExperimentSpec.from_dict(raw)
        _problem_params(spec.base.problem)
        n_runs = len(spec.nW_list) * len(spec.p_list) * len(spec.B_list)
        print(f"ok: experiment {spec.name!r} with {n_runs} runs")
    else:
        cfg = RunConfig.from_dict(raw)
        _problem_params(cfg.problem)
        print(
            f"ok: run config problem={cfg.problem.name!r} T={cfg.T} "
            f"shape=(nW={cfg.nW}, p={cfg.p}, B={cfg.B}, M={cfg.M})"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpsgd",
        description="Distributed and parallel asynchronous SGD harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out-dir", default="bench_out",
                       help="directory for CSV/JSON outputs")

    p_run = sub.add_parser("run", help="execute one engine run")
    add_common(p_run)
    p_run.add_argument("--transport", choices=("inproc", "tcp"), default=None,
                       help="inproc forces threaded execution; tcp uses "
                            "the wire protocol")
    p_run.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="tcp master role: serve on this address")
    p_run.add_argument("--master-addr", default=None, metavar="HOST:PORT",
                       help="tcp worker role: connect to this master")
    p_run.add_argument("--worker-id", type=int, default=None,
                       help="worker index for the tcp worker role")
    p_run.add_argument("--trace-overwrites", action="store_true",
                       help="record overwrite traces (threaded runs only)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run an experiment sweep")
    p_sweep.add_argument("--config", required=True, help="ExperimentSpec JSON")
    p_sweep.add_argument("--out-dir", default=None,
                         help="override the experiment's output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_svi = sub.add_parser("svi", help="topic-model run over a corpus")
    add_common(p_svi)
    p_svi.set_defaults(func=_cmd_svi)

    p_rl = sub.add_parser("rl", help="gridworld actor-critic run")
    add_common(p_rl)
    p_rl.set_defaults(func=_cmd_rl)

    p_val = sub.add_parser("validate-config",
                           help="parse and validate a config, run nothing")
    p_val.add_argument("--config", required=True, help="JSON config path")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help; keep its code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DpsgdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
