"""Serial/engine equivalence and run assembly for the LDA stack."""
import numpy as np
import pytest

from dpsgd.engine import run_with_oracle
from dpsgd.errors import ConfigurationError
from dpsgd.svi_lda import (
    LdaModel,
    LdaSviOracle,
    dirichlet_expectation,
    dpsvi_config,
    heldout_split,
    local_estep,
    natural_gradient,
    run_dpsvi,
    serial_svi,
    synthetic_corpus,
    topic_recovery_score,
)
from dpsgd.svi_lda.runners import LAMBDA_FLOOR


def small_setup(seed_corpus=21, seed_model=5, n_docs=100, V=30, K=4):
    corpus, topics = synthetic_corpus(n_docs, V, K, seed=seed_corpus)
    model0 = LdaModel.create(K, V, n_docs, zeta=0.1, alpha_doc=0.1,
                             seed=seed_model)
    return corpus, topics, model0


# --- degenerate engine == serial SVI ---


def test_engine_degenerate_matches_serial_bitwise():
    # nW = p = B = M = 1 must reproduce plain SVI exactly: same index
    # stream, same floating-point order, so zero drift is achievable.
    corpus, _, model0 = small_setup()
    T, G = 30, 5
    cfg = dpsvi_config(
        corpus, K=4, G=G, T=T, M=1, nW=1, p=1, B=1, seed=5,
        rho_schedule={"kind": "power", "tau0": 2.0, "kappa": 0.7},
    )
    engine_model, result = run_dpsvi(cfg, model0, corpus)
    serial_model, _ = serial_svi(
        corpus=corpus, model0=model0, T=T, G=G,
        rho=cfg.resolve_rho(), seed=5,
    )
    assert np.array_equal(engine_model.lam, serial_model.lam)
    assert result.counters.pushes_applied == T
    assert result.counters.gradient_evals_applied == T


def test_engine_degenerate_matches_serial_constant_rate():
    corpus, _, model0 = small_setup(seed_corpus=3, seed_model=9)
    cfg = dpsvi_config(corpus, K=4, G=4, T=15, M=1, seed=9,
                       rho_schedule={"kind": "constant", "value": 0.1})
    engine_model, _ = run_dpsvi(cfg, model0, corpus)
    serial_model, _ = serial_svi(model0, corpus, 15, 4,
                                 cfg.resolve_rho(), seed=9)
    assert np.array_equal(engine_model.lam, serial_model.lam)


# --- positivity under async mixing ---


def test_async_run_keeps_lambda_positive_without_clamping():
    corpus, _, model0 = small_setup()
    cfg = dpsvi_config(
        corpus, K=4, G=4, T=10, M=2, nW=2, p=2, B=2, seed=7,
        rho_schedule={"kind": "power", "tau0": 4.0, "kappa": 0.7},
    )
    oracle = LdaSviOracle(model0, corpus)
    result = run_with_oracle(cfg, oracle, init=model0.lam.ravel())
    assert oracle.floor_hits == 0
    final = model0.with_lambda(result.final.values)
    assert final.lam.min() > 0
    assert result.counters.pushes_applied == cfg.T * cfg.M


def test_oracle_clamps_nonpositive_model_entries():
    corpus, _, model0 = small_setup(n_docs=20, V=10, K=2)
    oracle = LdaSviOracle(model0, corpus)
    x = model0.lam.ravel().copy()
    x[3] = -0.5
    model = oracle.model_at(x)
    assert oracle.floor_hits == 1
    assert model.lam.min() == LAMBDA_FLOOR
    model.validate()
    # clean vectors pass through without being counted
    oracle.model_at(model0.lam.ravel())
    assert oracle.floor_hits == 1


# --- oracle surface ---


def test_oracle_rejects_model_corpus_mismatch():
    corpus, _, model0 = small_setup(n_docs=20, V=10, K=2)
    wrong_docs = LdaModel.create(2, 10, 19, seed=0)
    with pytest.raises(ConfigurationError, match="n_docs"):
        LdaSviOracle(wrong_docs, corpus)
    wrong_vocab = LdaModel.create(2, 11, 20, seed=0)
    with pytest.raises(ConfigurationError, match="V="):
        LdaSviOracle(wrong_vocab, corpus)


@pytest.mark.parametrize("field, value", [("n", 99), ("dim", 4 * 31)])
def test_run_dpsvi_refuses_a_config_of_another_shape(field, value):
    # a config's n and dim are the corpus's documents and K * V
    corpus, _, model0 = small_setup()
    cfg = dpsvi_config(corpus, K=4, G=4, T=2)
    setattr(cfg.problem, field, value)
    with pytest.raises(ConfigurationError, match=f"problem.{field} is"):
        run_dpsvi(cfg, model0, corpus)


def test_oracle_gradient_matches_direct_inference():
    corpus, _, model0 = small_setup(n_docs=20, V=10, K=2)
    oracle = LdaSviOracle(model0, corpus)
    g = oracle.grad_at(4, model0.lam.ravel())
    elb = dirichlet_expectation(model0.lam)
    doc = corpus.docs[4]
    state = local_estep(model0, doc, expected_log_beta=elb)
    expected = natural_gradient(model0, [doc], [state]).ravel()
    assert np.array_equal(g, expected)
    assert g.shape == (oracle.dim,)


@pytest.mark.parametrize("index", [-1, 20, [0, 20], [3, -2], []])
def test_oracle_rejects_out_of_range_indices(index):
    corpus, _, model0 = small_setup(n_docs=20, V=10, K=2)
    oracle = LdaSviOracle(model0, corpus)
    with pytest.raises(ConfigurationError, match="index"):
        oracle.grad_at(index, model0.lam.ravel())


@pytest.mark.parametrize("index", [1.9, [0.5, 2.2], True, "3"])
def test_oracle_rejects_non_integer_indices(index):
    corpus, _, model0 = small_setup(n_docs=20, V=10, K=2)
    oracle = LdaSviOracle(model0, corpus)
    with pytest.raises(ConfigurationError, match="integer"):
        oracle.grad_at(index, model0.lam.ravel())


def test_full_grad_is_whole_corpus_natural_gradient():
    corpus, _, model0 = small_setup(n_docs=12, V=10, K=2)
    oracle = LdaSviOracle(model0, corpus)
    x = model0.lam.ravel()
    assert np.array_equal(oracle.full_grad(x),
                          oracle.grad_at(np.arange(12), x))


# --- config assembly ---


def test_dpsvi_config_defaults():
    corpus, _, _ = small_setup(n_docs=20, V=10, K=2)
    cfg = dpsvi_config(corpus)
    assert (cfg.T, cfg.M, cfg.nW, cfg.p, cfg.B) == (100, 16, 1, 1, 1)
    assert cfg.eta == 1.0
    assert cfg.rho_schedule == {"kind": "constant", "value": 0.1}
    assert cfg.execution == "simulated"
    assert cfg.problem.name == "lda-svi"
    assert cfg.problem.n == 20
    assert cfg.problem.dim == 50 * 10
    assert cfg.problem.batch_size == 64
    assert cfg.problem.params["K"] == 50


def test_dpsvi_config_overrides_and_validation():
    corpus, _, _ = small_setup(n_docs=20, V=10, K=2)
    cfg = dpsvi_config(corpus, K=2, G=3, T=7, seed=99)
    assert cfg.T == 7
    assert cfg.seed == 99
    assert cfg.problem.dim == 20
    assert cfg.problem.batch_size == 3
    with pytest.raises(ConfigurationError):
        dpsvi_config(corpus, K=2, M=0)


# --- serial history ---


def test_serial_history_tracks_docs_and_perplexity():
    corpus, _, model0 = small_setup(n_docs=40, V=12, K=2)
    train, held = heldout_split(corpus, 10, seed=1)
    model0 = LdaModel.create(2, 12, train.n_docs, seed=5)
    _, history = serial_svi(model0, train, T=10, G=3,
                            rho=lambda t: 0.2, seed=5,
                            heldout=held, eval_every=5)
    assert len(history) == 2
    assert [docs for _, docs, _ in history] == [15, 30]
    assert all(p > 0 for _, _, p in history)
    assert history[0][0] <= history[1][0]


# --- topic recovery score ---


def test_recovery_score_is_one_for_permuted_topics():
    rng = np.random.default_rng(0)
    topics = rng.random((4, 9)) + 0.1
    topics /= topics.sum(axis=1, keepdims=True)
    assert topic_recovery_score(topics, topics) == pytest.approx(1.0)
    perm = topics[[2, 0, 3, 1]]
    assert topic_recovery_score(perm, topics) == pytest.approx(1.0)


def test_recovery_score_detects_disjoint_supports():
    learned = np.hstack([np.eye(4), np.zeros((4, 4))])
    true = np.hstack([np.zeros((4, 4)), np.eye(4)])
    assert topic_recovery_score(learned, true) == pytest.approx(0.0)
    with pytest.raises(ConfigurationError, match="shape"):
        topic_recovery_score(np.eye(3), np.eye(4))


def test_serial_svi_recovers_planted_topics():
    corpus, topics, model0 = small_setup(seed_corpus=42, seed_model=11,
                                         n_docs=200, V=40, K=4)
    model, _ = serial_svi(model0, corpus, T=150, G=16,
                          rho=lambda t: (4.0 + t) ** -0.55, seed=11)
    assert topic_recovery_score(model.mean_beta(), topics) >= 0.9
