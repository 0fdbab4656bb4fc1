"""Serial SVI, the engine-facing oracle, and run assembly for LDA.

The engine treats the flattened lambda matrix as the model vector and
this module's natural gradient as the stochastic gradient. With local
step size 1 a local update lands exactly on the minibatch target
lambda_hat, so the master's v <- v + rho * (u - v) is precisely the SVI
mixing step; every other engine configuration generalises it.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..engine import ProblemSpec, RunConfig, RunResult, run_with_oracle
from ..engine.rng import pass_indices
from ..errors import ConfigurationError
from ..problems import _check_index
from .corpus import Corpus
from .inference import estep_docs, natural_gradient, perplexity
from .model import LdaModel

# async mixes can momentarily push entries of lambda to or below zero;
# the E-step clamps its local copy to keep digamma in its domain
LAMBDA_FLOOR = 1e-10


class LdaSviOracle:
    """Adapter exposing LDA natural gradients through the oracle surface.

    Component i is document i, so the engine's index draws implement
    uniform document sampling and batch_size G gives minibatch SVI.
    """

    name = "lda-svi"

    def __init__(self, template: LdaModel, corpus: Corpus):
        template.validate()
        if corpus.n_docs != template.n_docs:
            raise ConfigurationError(
                f"model says n_docs={template.n_docs} but corpus has "
                f"{corpus.n_docs}"
            )
        if corpus.vocab_size != template.V_vocab:
            raise ConfigurationError(
                f"model says V={template.V_vocab} but corpus has "
                f"{corpus.vocab_size}"
            )
        self.template = template
        self.corpus = corpus
        self.n = corpus.n_docs
        self.dim = template.K * template.V_vocab
        self.floor_hits = 0

    def model_at(self, x) -> LdaModel:
        lam = np.asarray(x, dtype=float).reshape(
            self.template.K, self.template.V_vocab
        )
        if (lam < LAMBDA_FLOOR).any():
            self.floor_hits += 1
            lam = np.maximum(lam, LAMBDA_FLOOR)
        return self.template.with_lambda(lam)

    def grad_at(self, i, x) -> np.ndarray:
        idx = _check_index(i, self.n)
        model = self.model_at(x)
        batch = [self.corpus.docs[j] for j in idx]
        states = estep_docs(model, batch)
        return natural_gradient(model, batch, states).ravel()

    def full_grad(self, x) -> np.ndarray:
        return self.grad_at(np.arange(self.n), x)


def serial_svi(
    model0: LdaModel,
    corpus: Corpus,
    T: int,
    G: int,
    rho,
    seed: int,
    heldout: Corpus | None = None,
    eval_every: int = 0,
) -> tuple[LdaModel, list[tuple[float, int, float]]]:
    """Plain single-stream SVI reference.

    Draws minibatches from the same substream the engine's worker 0 /
    thread 0 uses and applies updates in the same floating-point order,
    so the degenerate engine configuration reproduces it exactly.
    History rows are (wall_clock_s, effective_docs_seen, perplexity).
    """
    model0.validate()
    lam = model0.lam.copy()
    history: list[tuple[float, int, float]] = []
    start = time.monotonic()
    for t in range(T):
        idx = pass_indices(seed, 0, 0, t, corpus.n_docs, G)
        model = model0.with_lambda(lam)
        batch = [corpus.docs[j] for j in idx]
        states = estep_docs(model, batch)
        g = natural_gradient(model, batch, states)
        u = lam.copy()
        u -= 1.0 * g
        lam = lam + rho(t) * (u - lam)
        if eval_every and heldout is not None and (t + 1) % eval_every == 0:
            history.append(
                (
                    time.monotonic() - start,
                    (t + 1) * G,
                    perplexity(model0.with_lambda(lam), heldout),
                )
            )
    return model0.with_lambda(lam), history


def dpsvi_config(corpus: Corpus, K: int = 50, G: int = 64, **overrides) -> RunConfig:
    """Engine config for an LDA run; callers pass the oracle separately.

    Defaults: K=50 topics, minibatch G=64 documents, M=16 aggregated
    updates, constant rate 0.1, local step size 1 (the SVI replacement
    step). All overridable through keyword arguments.
    """
    base = dict(
        T=100,
        M=16,
        nW=1,
        p=1,
        B=1,
        eta=1.0,
        rho_schedule={"kind": "constant", "value": 0.1},
        seed=0,
        problem=ProblemSpec(
            name="lda-svi",
            n=corpus.n_docs,
            dim=K * corpus.vocab_size,
            batch_size=G,
            params={"K": K},
        ),
        execution="simulated",
        grad_norm_every=0,
    )
    base.update(overrides)
    cfg = RunConfig(**base)
    cfg.validate()
    return cfg


def run_dpsvi(
    cfg: RunConfig, model0: LdaModel, corpus: Corpus
) -> tuple[LdaModel, RunResult]:
    """Run the engine over the flattened lambda and unpack the result."""
    oracle = LdaSviOracle(model0, corpus)
    cfg.problem.check_shape(oracle.n, oracle.dim)
    result = run_with_oracle(cfg, oracle, init=model0.lam.ravel())
    return model0.with_lambda(result.final.values), result


def topic_recovery_score(learned_beta, true_topics) -> float:
    """Mean cosine similarity after greedy one-to-one topic matching."""
    a = np.asarray(learned_beta, dtype=float)
    b = np.asarray(true_topics, dtype=float)
    if a.shape != b.shape:
        raise ConfigurationError(
            f"learned shape {a.shape} != true shape {b.shape}"
        )
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    sims = a @ b.T
    remaining_rows = list(range(a.shape[0]))
    remaining_cols = list(range(a.shape[0]))
    chosen = []
    while remaining_rows:
        sub = sims[np.ix_(remaining_rows, remaining_cols)]
        r, c = np.unravel_index(np.argmax(sub), sub.shape)
        chosen.append(float(sub[r, c]))
        remaining_rows.pop(r)
        remaining_cols.pop(c)
    return float(np.mean(chosen))
