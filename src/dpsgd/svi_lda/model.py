"""Variational state for LDA: the global topic matrix and per-doc posteriors."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..engine.rng import ROLE_INIT, substream
from ..errors import ConfigurationError

# seeded Gamma(100, 0.01) draws: mean 1, mild spread, always positive
_INIT_GAMMA_SHAPE = 100.0
_INIT_GAMMA_SCALE = 0.01


def init_lambda(K: int, V_vocab: int, seed: int) -> np.ndarray:
    rng = substream(seed, ROLE_INIT)
    return rng.gamma(_INIT_GAMMA_SHAPE, _INIT_GAMMA_SCALE, size=(K, V_vocab))


def check_hyperparameters(K: int, zeta: float, alpha_doc: float) -> None:
    """ConfigurationError naming the first of K, zeta and alpha_doc out of
    range: at least one topic and positive Dirichlet concentrations. It
    needs no data, so a config is checked before its corpus is built."""
    if K < 1:
        raise ConfigurationError(f"K must be >= 1, got {K}")
    for name, value in (("zeta", zeta), ("alpha_doc", alpha_doc)):
        if not value > 0:
            raise ConfigurationError(f"{name} must be positive, got {value}")


@dataclass
class LdaModel:
    """Global variational parameters for one run.

    lam is the K x V_vocab topic-word matrix (every entry positive);
    zeta and alpha_doc are the symmetric Dirichlet hyperparameters on
    topics and document-topic proportions; n_docs is the corpus size the
    stochastic natural gradient scales by.
    """

    K: int
    V_vocab: int
    lam: np.ndarray
    zeta: float
    alpha_doc: float
    n_docs: int

    def validate(self) -> None:
        check_hyperparameters(self.K, self.zeta, self.alpha_doc)
        if self.V_vocab < 1 or self.n_docs < 1:
            raise ConfigurationError("V_vocab and n_docs must be >= 1")
        if self.lam.shape != (self.K, self.V_vocab):
            raise ConfigurationError(
                f"lambda shape {self.lam.shape} != (K={self.K}, V={self.V_vocab})"
            )
        if not (self.lam > 0).all():
            raise ConfigurationError("lambda entries must be positive")

    @staticmethod
    def create(K: int, V_vocab: int, n_docs: int, *, zeta: float = 0.1,
               alpha_doc: float = 0.1, seed: int = 0) -> "LdaModel":
        model = LdaModel(
            K=K,
            V_vocab=V_vocab,
            lam=init_lambda(K, V_vocab, seed),
            zeta=zeta,
            alpha_doc=alpha_doc,
            n_docs=n_docs,
        )
        model.validate()
        return model

    def with_lambda(self, lam) -> "LdaModel":
        """Same hyperparameters around a different global matrix."""
        arr = np.asarray(lam, dtype=np.float64).reshape(self.K, self.V_vocab)
        return LdaModel(self.K, self.V_vocab, arr.copy(), self.zeta,
                        self.alpha_doc, self.n_docs)

    def mean_beta(self) -> np.ndarray:
        """Posterior-mean topic-word distributions (rows sum to 1)."""
        return self.lam / self.lam.sum(axis=1, keepdims=True)


@dataclass
class DocState:
    """Per-document variational posterior from a local E-step.

    phi holds one simplex row per distinct word in the document (token
    multiplicity is carried by the count weights instead).
    """

    gamma: np.ndarray
    phi: np.ndarray
    sweeps: int = 0

    def validate(self) -> None:
        if not (self.gamma > 0).all():
            raise ConfigurationError("gamma entries must be positive")
        if self.phi.ndim != 2 or self.phi.shape[1] != self.gamma.shape[0]:
            raise ConfigurationError(
                f"phi shape {self.phi.shape} does not match K={self.gamma.shape[0]}"
            )
        sums = self.phi.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1e-9:
            raise ConfigurationError("phi rows must sum to 1 within 1e-9")
