import numpy as np
import pytest
from scipy.special import psi

from _oracles import digamma_series, dirichlet_expectation_series
from dpsgd.errors import ConfigurationError, NumericFaultError
from dpsgd.svi_lda import (
    DocState,
    Document,
    LdaModel,
    dirichlet_expectation,
    doc_elbo,
    estep_docs,
    init_lambda,
    local_estep,
    natural_gradient,
    perplexity,
    synthetic_corpus,
)
from dpsgd.svi_lda.corpus import Corpus


def make_model(K=3, V=8, n_docs=50, seed=0, zeta=0.1, alpha_doc=0.2):
    return LdaModel.create(K, V, n_docs, zeta=zeta, alpha_doc=alpha_doc, seed=seed)


def doc_of(ids, counts):
    return Document(np.asarray(ids, dtype=np.int64), np.asarray(counts, dtype=np.int64))


# frozen reference digamma values (30-digit evaluation, rounded to double)
PSI_03 = -3.502524222200132988964495
PSI_30 = 0.9227843350984671393934879


def test_digamma_backend_matches_frozen_values():
    assert abs(psi(0.3) - PSI_03) < 1e-14
    assert abs(psi(3.0) - PSI_30) < 1e-14


def test_dirichlet_expectation_telescoping_identity():
    # psi(2) - psi(1) = 1 exactly by the recurrence, so (1,1) -> (-1,-1)
    out = dirichlet_expectation(np.array([1.0, 1.0]))
    assert np.max(np.abs(out - (-1.0))) < 1e-12


def test_dirichlet_expectation_symmetry():
    out = dirichlet_expectation(np.full(5, 0.7))
    assert np.all(out == out[0])


def test_dirichlet_expectation_matches_series_oracle():
    out = dirichlet_expectation(np.array([0.3, 2.7]))
    ref = dirichlet_expectation_series([0.3, 2.7])
    assert np.max(np.abs(out - ref)) < 1e-10


def test_dirichlet_expectation_accuracy_grid():
    xs = np.linspace(0.01, 100.0, 1000)
    ours = psi(xs)
    ref = np.array([digamma_series(float(x)) for x in xs])
    assert np.max(np.abs(ours - ref)) <= 1e-10


def test_dirichlet_expectation_rows_independent():
    mat = np.array([[0.5, 1.5, 2.0], [3.0, 0.2, 0.8]])
    out = dirichlet_expectation(mat)
    for r in range(2):
        np.testing.assert_array_equal(out[r], dirichlet_expectation(mat[r]))


def test_dirichlet_expectation_domain_errors():
    with pytest.raises(NumericFaultError, match=r"entry \(1,\)"):
        dirichlet_expectation(np.array([1.0, 0.0]))
    with pytest.raises(NumericFaultError, match=r"entry \(0, 1\)"):
        dirichlet_expectation(np.array([[1.0, -2.0], [1.0, 1.0]]))
    with pytest.raises(ConfigurationError):
        dirichlet_expectation(np.zeros((0,)))


def test_estep_single_topic_degenerates():
    model = make_model(K=1, V=6, alpha_doc=0.3)
    doc = doc_of([0, 3, 5], [2, 1, 4])
    state = local_estep(model, doc)
    assert np.allclose(state.phi, 1.0)
    assert state.gamma.shape == (1,)
    assert abs(state.gamma[0] - (0.3 + 7)) < 1e-12
    state.validate()


def test_estep_symmetric_lambda_gives_uniform_phi():
    lam = np.tile(np.linspace(1.0, 2.0, 8), (4, 1))  # identical rows
    model = LdaModel(K=4, V_vocab=8, lam=lam, zeta=0.1, alpha_doc=0.5, n_docs=10)
    doc = doc_of([1, 4], [3, 2])
    state = local_estep(model, doc)
    assert np.max(np.abs(state.phi - 0.25)) < 1e-12
    assert np.max(np.abs(state.gamma - state.gamma[0])) < 1e-12


def test_estep_matches_long_run_fixed_point():
    # independent oracle: explicit phi/gamma coordinate ascent iterated
    # far past convergence
    lam = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    alpha = 0.5
    model = LdaModel(K=2, V_vocab=3, lam=lam, zeta=0.1, alpha_doc=alpha, n_docs=7)
    doc = doc_of([1], [1])

    elogbeta = psi(lam) - psi(lam.sum(axis=1))[:, None]
    gamma = np.full(2, alpha + 1.0 / 2)
    for _ in range(10000):
        elogtheta = psi(gamma) - psi(gamma.sum())
        log_phi = elogtheta + elogbeta[:, 1]
        phi = np.exp(log_phi - log_phi.max())
        phi /= phi.sum()
        gamma = alpha + phi  # single word with count 1

    state = local_estep(model, doc, tol=0.0, max_iters=100)
    assert np.max(np.abs(state.gamma - gamma)) < 1e-8
    assert np.max(np.abs(state.phi[0] - phi)) < 1e-8
    state.validate()


def test_estep_internal_consistency():
    # returned state satisfies gamma = alpha + counts @ phi
    model = make_model(K=4, V=12, alpha_doc=0.3, seed=5)
    doc = doc_of([0, 2, 7, 11], [4, 1, 2, 6])
    state = local_estep(model, doc)
    recon = model.alpha_doc + doc.counts.astype(float) @ state.phi
    assert np.max(np.abs(recon - state.gamma)) < 1e-9
    state.validate()


def test_estep_rejects_empty_doc():
    model = make_model()
    with pytest.raises(ConfigurationError, match="nonempty"):
        local_estep(model, doc_of([], []))


def assert_same_state(got, want):
    assert np.array_equal(got.gamma, want.gamma)
    assert np.array_equal(got.phi, want.phi)
    assert got.sweeps == want.sweeps


@pytest.mark.parametrize("K", [3, 10])
def test_estep_docs_is_bitwise_batch_invariant(K):
    corpus, _ = synthetic_corpus(n_docs=14, vocab_size=40, k_topics=4, seed=7)
    model = make_model(K=K, V=40, n_docs=14, seed=11)
    # a lone-word document and a two-word one next to the synthetic ones
    docs = corpus.docs + [doc_of([7], [3]), doc_of([2, 9], [1, 1])]
    tol = 1e-6
    uncapped = [local_estep(model, d, tol, 500).sweeps for d in docs]
    cap = sorted(uncapped)[len(docs) // 2]
    # the cap must leave documents stopping at different sweeps and some
    # cut off by max_iters, so the batch shrinks while it runs
    assert len({n for n in uncapped if n < cap}) >= 2
    assert any(n > cap for n in uncapped)
    alone = [local_estep(model, d, tol, cap) for d in docs]
    assert [a.sweeps for a in alone] == [min(n, cap) for n in uncapped]
    order = np.random.default_rng(3).permutation(len(docs))
    for batch in (list(range(len(docs))), list(order), order[::2].tolist(),
                  [len(docs) - 2] * 3 + [0]):
        states = estep_docs(model, [docs[j] for j in batch], tol, cap)
        for j, state in zip(batch, states):
            assert_same_state(state, alone[j])


def test_estep_docs_validation():
    model = make_model()
    with pytest.raises(ConfigurationError, match="at least one"):
        estep_docs(model, [])
    with pytest.raises(ConfigurationError, match="nonempty"):
        estep_docs(model, [doc_of([1], [2]), doc_of([], [])])
    with pytest.raises(ConfigurationError, match="max_iters"):
        estep_docs(model, [doc_of([1], [2])], max_iters=0)


def test_elbo_never_decreases_across_sweeps():
    corpus, _ = synthetic_corpus(n_docs=100, vocab_size=25, k_topics=4, seed=9)
    model = make_model(K=4, V=25, n_docs=100, seed=3)
    elb = dirichlet_expectation(model.lam)
    for doc in corpus.docs:
        prev = -np.inf
        for sweeps in range(1, 7):
            state = local_estep(model, doc, tol=0.0, max_iters=sweeps,
                                expected_log_beta=elb)
            val = doc_elbo(model, doc, state, expected_log_beta=elb)
            assert val >= prev - 1e-8
            prev = val


def test_natural_gradient_zero_at_fixed_point():
    model = make_model(K=3, V=10, n_docs=20, seed=2)
    docs = [doc_of([0, 4], [2, 3]), doc_of([1, 9], [1, 5])]
    states = [local_estep(model, d) for d in docs]
    sstats = np.zeros((3, 10))
    for d, s in zip(docs, states):
        sstats[:, d.word_ids] += (s.phi * d.counts[:, None]).T
    lam_hat = model.zeta + (model.n_docs / len(docs)) * sstats
    moved = model.with_lambda(lam_hat)
    again = natural_gradient(moved, docs, states)
    assert np.max(np.abs(again)) == 0.0


def test_natural_gradient_manual_expansion_single_doc():
    model = make_model(K=2, V=3, n_docs=7, zeta=0.25, seed=1)
    doc = doc_of([2], [4])
    state = local_estep(model, doc)
    g = natural_gradient(model, [doc], [state])
    expected_hat = np.full((2, 3), 0.25)
    expected_hat[:, 2] += 7.0 * 4.0 * state.phi[0]
    assert np.max(np.abs((model.lam - g) - expected_hat)) < 1e-12


def test_natural_gradient_shape_errors():
    model = make_model(K=2, V=4)
    doc = doc_of([1], [2])
    state = local_estep(model, doc)
    with pytest.raises(ConfigurationError, match="nonempty batch"):
        natural_gradient(model, [], [])
    with pytest.raises(ConfigurationError, match="docs but"):
        natural_gradient(model, [doc], [state, state])
    bad = DocState(gamma=state.gamma, phi=np.ones((3, 2)) / 2)
    with pytest.raises(ConfigurationError, match="phi shape"):
        natural_gradient(model, [doc], [bad])


def test_full_corpus_step_reproduces_batch_update():
    # G = n with rate 1: lambda lands on zeta + summed sufficient stats
    corpus, _ = synthetic_corpus(n_docs=15, vocab_size=12, k_topics=3, seed=6)
    model = make_model(K=3, V=12, n_docs=15, seed=8)
    elb = dirichlet_expectation(model.lam)
    states = [
        local_estep(model, d, expected_log_beta=elb) for d in corpus.docs
    ]
    g = natural_gradient(model, corpus.docs, states)
    landed = model.lam - 1.0 * g
    sstats = np.zeros((3, 12))
    for d, s in zip(corpus.docs, states):
        for u, w in enumerate(d.word_ids):
            sstats[:, w] += d.counts[u] * s.phi[u]
    assert np.max(np.abs(landed - (model.zeta + sstats))) < 1e-9


def test_perplexity_uniform_model_equals_vocab_size():
    for seed in (0, 1, 2):
        corpus, _ = synthetic_corpus(
            n_docs=20, vocab_size=31, k_topics=4, seed=seed
        )
        model = LdaModel(
            K=4, V_vocab=31, lam=np.full((4, 31), 2.0), zeta=0.1,
            alpha_doc=0.1, n_docs=20,
        )
        assert abs(perplexity(model, corpus) - 31.0) <= 1e-9


def test_perplexity_single_topic_closed_form():
    eps = 0.01
    lam = np.array([[1.0 - eps, eps]]) * 1e6  # sharp single topic
    model = LdaModel(K=1, V_vocab=2, lam=lam, zeta=0.1, alpha_doc=0.1, n_docs=3)
    corpus = Corpus(docs=[doc_of([0], [25])], vocab=["a", "b"])
    assert abs(perplexity(model, corpus) - 1.0 / (1.0 - eps)) < 1e-12


def test_perplexity_invariant_to_duplication():
    corpus, _ = synthetic_corpus(n_docs=10, vocab_size=15, k_topics=3, seed=4)
    model = make_model(K=3, V=15, n_docs=10, seed=12)
    doubled = Corpus(docs=corpus.docs + corpus.docs, vocab=corpus.vocab)
    a = perplexity(model, corpus)
    b = perplexity(model, doubled)
    assert abs(a - b) < 1e-12


def test_perplexity_skips_empty_documents_and_matches_per_doc_estep():
    corpus, _ = synthetic_corpus(n_docs=15, vocab_size=20, k_topics=3, seed=2)
    model = make_model(K=3, V=20, n_docs=15, seed=4)
    beta_bar = model.mean_beta()
    total_ll, total_tokens = 0.0, 0
    for doc in corpus.docs:
        state = local_estep(model, doc)
        theta_bar = state.gamma / state.gamma.sum()
        word_probs = theta_bar @ beta_bar[:, doc.word_ids]
        total_ll += float(doc.counts @ np.log(word_probs))
        total_tokens += doc.length
    held = Corpus(docs=[doc_of([], [])] + corpus.docs, vocab=corpus.vocab)
    assert perplexity(model, held) == float(np.exp(-total_ll / total_tokens))
    with pytest.raises(ConfigurationError, match="no tokens"):
        perplexity(model, Corpus(docs=[doc_of([], [])], vocab=corpus.vocab))


def test_perplexity_rejects_empty_corpus():
    model = make_model()
    with pytest.raises(ConfigurationError, match="nonempty"):
        perplexity(model, Corpus(docs=[], vocab=[]))


def test_model_validation_and_init():
    lam = init_lambda(4, 9, seed=123)
    assert lam.shape == (4, 9)
    assert (lam > 0).all()
    assert np.array_equal(lam, init_lambda(4, 9, seed=123))
    assert not np.array_equal(lam, init_lambda(4, 9, seed=124))
    with pytest.raises(ConfigurationError, match="positive"):
        LdaModel(K=2, V_vocab=3, lam=np.zeros((2, 3)), zeta=0.1,
                 alpha_doc=0.1, n_docs=5).validate()
    with pytest.raises(ConfigurationError, match="shape"):
        LdaModel(K=2, V_vocab=3, lam=np.ones((3, 2)), zeta=0.1,
                 alpha_doc=0.1, n_docs=5).validate()
    with pytest.raises(ConfigurationError, match="zeta"):
        LdaModel(K=2, V_vocab=3, lam=np.ones((2, 3)), zeta=0.0,
                 alpha_doc=0.1, n_docs=5).validate()


def test_doc_state_validation():
    good = DocState(gamma=np.array([1.0, 2.0]), phi=np.array([[0.5, 0.5]]))
    good.validate()
    with pytest.raises(ConfigurationError, match="sum to 1"):
        DocState(gamma=np.array([1.0, 2.0]),
                 phi=np.array([[0.6, 0.5]])).validate()
    with pytest.raises(ConfigurationError, match="positive"):
        DocState(gamma=np.array([0.0, 2.0]),
                 phi=np.array([[0.5, 0.5]])).validate()
