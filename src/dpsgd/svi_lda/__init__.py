"""Stochastic variational inference for LDA on top of the async engine.

The global variational parameter lambda plays the role of the model
vector: workers run document E-steps and push natural-gradient updates,
the master mixes them with the usual rate schedule. Serial SVI falls out
as the degenerate one-worker configuration.
"""
from .corpus import (
    Corpus,
    Document,
    heldout_split,
    load_uci_bow,
    synthetic_corpus,
    write_uci_bow,
)
from .inference import (
    dirichlet_expectation,
    doc_elbo,
    estep_docs,
    local_estep,
    natural_gradient,
    perplexity,
)
from .model import DocState, LdaModel, init_lambda
from .runners import (
    LdaSviOracle,
    dpsvi_config,
    run_dpsvi,
    serial_svi,
    topic_recovery_score,
)

__all__ = [
    "Corpus",
    "DocState",
    "Document",
    "LdaModel",
    "LdaSviOracle",
    "dirichlet_expectation",
    "doc_elbo",
    "dpsvi_config",
    "estep_docs",
    "heldout_split",
    "init_lambda",
    "load_uci_bow",
    "local_estep",
    "natural_gradient",
    "perplexity",
    "run_dpsvi",
    "serial_svi",
    "synthetic_corpus",
    "topic_recovery_score",
    "write_uci_bow",
]
