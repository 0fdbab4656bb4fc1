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
from ..problems import check_no_params
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
from .metrics import emit_run

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
        if self.heldout_docs < 0:
            raise ConfigurationError(f"problem.params heldout_docs must be "
                                     f">= 0, got {self.heldout_docs}")
        kind = self.corpus.get("kind")
        if not isinstance(kind, str) or kind not in CORPUS_KINDS:
            raise ConfigurationError(f"unknown corpus kind {kind!r}")
        self.source = build_section(CORPUS_KINDS[kind], self.corpus, "corpus")


def _problem_params(problem):
    """The params of problem as run, svi and rl read them, checked by the
    config reader, and its n and dim where they fix them; builds no data.
    lda-svi gives an LdaParams, gridworld-a2c a GridworldOracle (ToyEnv
    fields plus t_max) and a built-in problem, which takes none, None."""
    params, label = problem.params, "problem.params"
    if problem.name == "lda-svi":
        lda = build_section(LdaParams, params, label)
        source = lda.source
        if source.kind == "synthetic":  # svi checks a UCI corpus as it runs
            problem.check_shape(source.n_docs - lda.heldout_docs,
                                lda.K * source.vocab_size)
        return lda
    if problem.name == "gridworld-a2c":
        oracle_args = read_section(
            GridworldOracle, {k: v for k, v in params.items() if k == "t_max"},
            label, supplied=("env", "seed"))
        env = build_section(
            ToyEnv, {k: v for k, v in params.items() if k != "t_max"}, label)
        oracle = GridworldOracle(env, 0, **oracle_args)
        problem.check_shape(oracle.n, oracle.dim)
        return oracle
    check_no_params(problem.name, params)


def _load_run_config(args, problem: str | None = None):
    """The run config of args.config with --seed applied, and its problem
    params; ConfigurationError unless its problem is named problem."""
    cfg = RunConfig.from_dict(load_json_object(args.config))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if problem is not None and cfg.problem.name != problem:
        raise ConfigurationError(f"{args.command} expects problem.name "
                                 f"{problem!r}, got {cfg.problem.name!r}")
    return cfg, _problem_params(cfg.problem)


def _emit(args, stem: str, cfg, result, done: str, series=None,
          extra=None) -> None:
    """emit_run, then print done filled from the summary, and the paths."""
    summary = emit_run(args.out_dir, stem, cfg, result, series, extra)
    print(done.format(**summary))
    for name in (summary.get("metrics_csv", f"{stem}_series.csv"),
                 f"{stem}_summary.json"):
        print(f"wrote {os.path.join(args.out_dir, name)}")


def _parse_address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(f"address must be HOST:PORT, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ConfigurationError(f"port in {text!r} is not an integer")


def _cmd_run(args) -> int:
    if args.transport != "tcp" and (
            args.listen, args.master_addr, args.worker_id) != (None,) * 3:
        raise ConfigurationError(
            "--listen, --master-addr and --worker-id need --transport tcp")
    if (args.master_addr is None) != (args.worker_id is None):
        raise ConfigurationError("--master-addr and --worker-id go together")
    cfg, _ = _load_run_config(args)
    if args.trace_overwrites:
        cfg = replace(cfg, trace_overwrites=True, execution="threaded")
    if args.transport is not None:  # real threads run it, over tcp or not
        cfg = replace(cfg, execution="threaded")
    stem = f"{cfg.problem.name}_seed{cfg.seed}"

    if args.transport == "tcp":
        oracle = build_oracle(cfg.problem, cfg.seed)
        init = initial_model(oracle)
        if args.master_addr is not None:
            passes = run_tcp_worker(
                cfg, oracle, _parse_address(args.master_addr), args.worker_id,
            )
            print(f"worker {args.worker_id} completed {passes} passes")
            return 0
        if args.listen is not None:
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
    _emit(args, stem, cfg, result,
          "run complete: mode={mode} T={config[T]} wall_clock_s="
          "{wall_clock_s:.6g} final_model_norm={final_model_norm:.10g}")
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
             "heldout_docs": params.heldout_docs}
    if true_topics is not None:
        extra["topic_recovery"] = topic_recovery_score(model.mean_beta(),
                                                       true_topics)
    _emit(args, f"lda_seed{cfg.seed}", cfg, result,
          "svi complete: perplexity={heldout_perplexity:.6g} "
          "effective_docs_seen={effective_docs_seen}",
          (LDA_SERIES_HEADER, [(result.wall_clock_s, docs_seen, perp)]), extra)
    return 0


def _cmd_rl(args) -> int:
    cfg, params = _load_run_config(args, "gridworld-a2c")
    _, result, oracle = run_hsa2c(cfg, params.env)
    extra = {"optimal_return": optimal_return(params.env),
             "final_mean_return": oracle.mean_return_last(),
             "env_steps": oracle.env_steps,
             "episodes": len(oracle.episode_returns)}
    _emit(args, f"gridworld_seed{cfg.seed}", cfg, result,
          "rl complete: mean_return_last_100={final_mean_return:.6g} "
          "optimal={optimal_return:.6g} env_steps={env_steps}",
          (RL_SERIES_HEADER, oracle.history), extra)
    return 0


def _cmd_validate(args) -> int:
    raw = load_json_object(args.config)
    if "base" in raw:
        spec = ExperimentSpec.from_dict(raw)
        _problem_params(spec.base.problem)
        print(f"ok: experiment {spec.name!r} with {len(spec.points())} runs")
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
                       help="either runs real threads (execution "
                            "threaded); tcp also uses the wire protocol")
    role = p_run.add_mutually_exclusive_group()
    role.add_argument("--listen", default=None, metavar="HOST:PORT",
                      help="tcp master role: serve on this address")
    role.add_argument("--master-addr", default=None, metavar="HOST:PORT",
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
