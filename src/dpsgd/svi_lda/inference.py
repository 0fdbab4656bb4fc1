"""The variational core: E-step, natural gradient, perplexity.

Everything here is deterministic given its inputs; stochasticity lives
in the runner that picks document minibatches. The E-step runs a whole
minibatch at once (estep_docs); a document's result does not depend on
which batch it is in, so one-document calls (local_estep) agree with it
bit for bit.
"""
from __future__ import annotations

import numpy as np
from scipy.special import gammaln, psi, xlogy

from ..errors import ConfigurationError, NumericFaultError
from .corpus import Corpus, Document
from .model import DocState, LdaModel

E_STEP_TOL = 1e-4
E_STEP_MAX_ITERS = 100
_PHI_NORM_GUARD = 1e-100


def dirichlet_expectation(param) -> np.ndarray:
    """E[log x] for x ~ Dirichlet(param); rows are treated independently.

    For a vector returns psi(param) - psi(sum); for a matrix applies the
    same row by row.
    """
    arr = np.asarray(param, dtype=float)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise ConfigurationError(
            f"dirichlet_expectation expects a nonempty vector or matrix, "
            f"got shape {arr.shape}"
        )
    if not (arr > 0).all():
        bad = tuple(int(i) for i in np.argwhere(~(arr > 0))[0])
        raise NumericFaultError(
            f"dirichlet_expectation requires positive entries; "
            f"entry {bad} is {arr[bad]}"
        )
    if arr.ndim == 1:
        return psi(arr) - psi(arr.sum())
    return psi(arr) - psi(arr.sum(axis=1))[:, None]


def _topic_sums(a: np.ndarray) -> np.ndarray:
    """Column sums of a C-ordered K x n array, added topic after topic.

    np.add.reduce over axis 0 adds whole rows in order when n >= 2 but
    sums a lone column pairwise; accumulate keeps that case in order, so
    a column's sum never depends on how many columns sit beside it.
    """
    if a.shape[1] == 1:
        return np.add.accumulate(a, axis=0)[-1]
    return np.add.reduce(a, axis=0)


def _exp_elogtheta(gamma: np.ndarray) -> np.ndarray:
    """exp(E[log theta]) for each column of a K x n gamma."""
    return np.exp(psi(gamma) - psi(_topic_sums(gamma)))


def estep_docs(
    model: LdaModel,
    docs: list[Document],
    tol: float = E_STEP_TOL,
    max_iters: int = E_STEP_MAX_ITERS,
    expected_log_beta: np.ndarray | None = None,
) -> list[DocState]:
    """Coordinate ascent on (gamma, phi) for every document of a batch.

    Each document runs until the mean absolute change of its gamma drops
    below tol, or for max_iters sweeps, and records its own sweep count.
    A converged document keeps the exp(E[log theta]) that produced its
    gamma, so gamma == alpha_doc + sum_u counts_u * phi_u holds at
    return; one stopped by max_iters gets phi from its final gamma.

    The batch is swept together on topic-major arrays (K rows, one
    column per document or per distinct word), gathered once per call
    and compacted only when documents stop. Every operation is
    elementwise, a sum over topics in topic order, or a sum over one
    document's own words, so a document's state is bitwise the same
    whatever batch it is swept in. Pass expected_log_beta to amortise
    the global digamma across calls on the same model.
    """
    if not docs:
        raise ConfigurationError("E-step needs at least one document")
    if any(doc.n_distinct == 0 for doc in docs):
        raise ConfigurationError("E-step needs nonempty documents")
    if max_iters < 1:
        raise ConfigurationError("max_iters must be >= 1")
    elb = (
        dirichlet_expectation(model.lam)
        if expected_log_beta is None
        else expected_log_beta
    )
    n_words = np.array([doc.n_distinct for doc in docs])
    exp_elb = np.exp(elb[:, np.concatenate([doc.word_ids for doc in docs])])
    lengths = np.array([doc.length for doc in docs], dtype=float)
    g = np.repeat((model.alpha_doc + lengths / model.K)[None, :], model.K,
                  axis=0)
    exp_elogtheta = _exp_elogtheta(g)

    # working set: the documents still sweeping, their gamma g and their
    # words; results go to gamma, theta_out and sweeps as documents stop
    gamma, theta_out = np.empty_like(g), np.empty_like(g)
    sweeps = np.full(len(docs), max_iters)
    active, n_active = np.arange(len(docs)), n_words
    ew = exp_elb
    counts = np.concatenate([doc.counts for doc in docs]).astype(float)
    starts = n_words.cumsum() - n_words
    for sweep in range(1, max_iters + 1):
        # implicit phi: phi_uk proportional to exp(Elogtheta_k) * exp(Elogbeta_ku)
        phinorm = _topic_sums(exp_elogtheta.repeat(n_active, axis=1) * ew)
        phinorm += _PHI_NORM_GUARD
        g_new = model.alpha_doc + exp_elogtheta * np.add.reduceat(
            ew * (counts / phinorm), starts, axis=1
        )
        done = _topic_sums(np.abs(g_new - g)) / model.K < tol
        g = g_new
        n_done = np.count_nonzero(done)
        if n_done:
            stopped = active[done]
            gamma[:, stopped] = g[:, done]
            theta_out[:, stopped] = exp_elogtheta[:, done]
            sweeps[stopped] = sweep
            if n_done == active.shape[0]:
                break
            keep = ~done
            keep_words = keep.repeat(n_active)
            ew, counts = ew.compress(keep_words, axis=1), counts[keep_words]
            active, g = active[keep], g.compress(keep, axis=1)
            n_active = n_words[active]
            starts = n_active.cumsum() - n_active
        exp_elogtheta = _exp_elogtheta(g)
    else:
        gamma[:, active] = g
        theta_out[:, active] = exp_elogtheta

    # explicit phi rows from each document's final exp_elogtheta
    phi = exp_elb * np.repeat(theta_out, n_words, axis=1)
    phi /= _topic_sums(phi)
    gamma, phi = np.ascontiguousarray(gamma.T), np.ascontiguousarray(phi.T)
    return [
        DocState(gamma=gamma[j], phi=phi_j, sweeps=int(sweeps[j]))
        for j, phi_j in enumerate(np.split(phi, np.cumsum(n_words)[:-1]))
    ]


def local_estep(
    model: LdaModel,
    doc: Document,
    tol: float = E_STEP_TOL,
    max_iters: int = E_STEP_MAX_ITERS,
    expected_log_beta: np.ndarray | None = None,
) -> DocState:
    """Coordinate ascent on (gamma, phi) for one document.

    The one-document case of estep_docs, so its result is bitwise what
    the document gets inside any batch.
    """
    return estep_docs(model, [doc], tol, max_iters, expected_log_beta)[0]


def doc_elbo(
    model: LdaModel,
    doc: Document,
    state: DocState,
    expected_log_beta: np.ndarray | None = None,
) -> float:
    """Per-document ELBO at fixed lambda (global beta terms omitted).

    Coordinate ascent in local_estep must not decrease this value.
    """
    elb = (
        dirichlet_expectation(model.lam)
        if expected_log_beta is None
        else expected_log_beta
    )
    elb_doc = elb[:, doc.word_ids]  # K x U
    counts = doc.counts.astype(float)
    elogtheta = dirichlet_expectation(state.gamma)
    phi = state.phi  # U x K
    word_terms = phi * (elogtheta[None, :] + elb_doc.T) - xlogy(phi, phi)
    total = float(counts @ word_terms.sum(axis=1))
    a = model.alpha_doc
    total += float(
        gammaln(model.K * a) - model.K * gammaln(a)
        + (a - 1.0) * elogtheta.sum()
    )
    total -= float(
        gammaln(state.gamma.sum()) - gammaln(state.gamma).sum()
        + ((state.gamma - 1.0) * elogtheta).sum()
    )
    return total


def natural_gradient(
    model: LdaModel, batch: list[Document], states: list[DocState]
) -> np.ndarray:
    """lambda minus the minibatch target lambda_hat (a descent direction).

    lambda_hat = zeta + (n_docs / G) * summed expected sufficient
    statistics; stepping lambda <- lambda - rate * result with rate 1
    lands exactly on lambda_hat.
    """
    if not batch:
        raise ConfigurationError("natural_gradient needs a nonempty batch")
    if len(batch) != len(states):
        raise ConfigurationError(
            f"batch has {len(batch)} docs but {len(states)} states"
        )
    sstats = np.zeros((model.K, model.V_vocab))
    for doc, state in zip(batch, states):
        if state.phi.shape != (doc.n_distinct, model.K):
            raise ConfigurationError(
                f"phi shape {state.phi.shape} does not match doc with "
                f"{doc.n_distinct} distinct words and K={model.K}"
            )
        sstats[:, doc.word_ids] += (state.phi * doc.counts[:, None]).T
    lam_hat = model.zeta + (model.n_docs / len(batch)) * sstats
    return model.lam - lam_hat


def perplexity(model: LdaModel, held_out: Corpus) -> float:
    """Geometric mean of inverse per-word predictive probability.

    The held-out documents get a fresh E-step (E_STEP_TOL,
    E_STEP_MAX_ITERS), all in one estep_docs call; a word's probability
    is the posterior-mean mixture sum_k thetabar_k betabar_kw. A model
    with every topic uniform over the vocabulary scores exactly V_vocab.
    """
    if held_out.n_docs == 0:
        raise ConfigurationError("perplexity needs a nonempty held-out corpus")
    docs = [doc for doc in held_out.docs if doc.n_distinct]
    if not docs:
        raise ConfigurationError("held-out corpus has no tokens")
    beta_bar = model.mean_beta()
    states = estep_docs(model, docs)
    total_ll = 0.0
    total_tokens = 0
    for doc, state in zip(docs, states):
        theta_bar = state.gamma / state.gamma.sum()
        word_probs = theta_bar @ beta_bar[:, doc.word_ids]
        total_ll += float(doc.counts @ np.log(word_probs))
        total_tokens += doc.length
    return float(np.exp(-total_ll / total_tokens))
