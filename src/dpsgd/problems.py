"""Built-in stochastic objectives with per-component gradient oracles.

Every oracle exposes the same surface: n components f_i, grad_at for a
single index or an index batch (batch gradients are averaged), full_grad
as the exact mean over all components, and loss_at. Data is synthesised
from a seeded generator so a problem is reproducible from its spec alone.

An oracle may also offer grad_stack(idx[K, size], X[K, dim]) -> G[K, dim],
K independent batch gradients in one call: row k must be bitwise equal to
grad_at(idx[k], X[k]). The simulated engine uses it, when present, to step
every pass that starts from one model version together. The quadratic and
sigmoid oracles have it; the LDA and gridworld oracles, like user
oracles, need not.

Declared smoothness and gradient-norm bounds (L, V_bound) hold on the
declared feasible box and are deliberately conservative.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

BOX_RADIUS = 10.0  # half-width of both built-in problems' feasible box
LABEL_NOISE = 0.1  # share of sigmoid labels flipped against the planted rule
# max |d/dz sigmoid(z)| and max |d^2/dz^2 sigmoid(z)|
_SIGMOID_D1_MAX = 0.25
_SIGMOID_D2_MAX = 1.0 / (6.0 * np.sqrt(3.0))


def _check_index(i, n: int) -> np.ndarray:
    idx = np.atleast_1d(np.asarray(i))
    if idx.size == 0:
        raise ConfigurationError("empty component index batch")
    if idx.dtype.kind not in "iu":
        raise ConfigurationError(
            f"component index must be an integer, got dtype {idx.dtype}"
        )
    if idx.min() < 0 or idx.max() >= n:
        raise ConfigurationError(f"component index out of range [0, {n})")
    return idx.astype(np.int64, copy=False)


def _check_block(idx, X, n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The (K, size) index block and (K, dim) points of a grad_stack call."""
    idx = _check_index(idx, n)
    X = np.asarray(X, dtype=float)
    if idx.ndim != 2 or X.shape != (idx.shape[0], dim):
        raise ConfigurationError(
            f"grad_stack needs idx[K, size] and X[K, {dim}], got index shape "
            f"{idx.shape} and point shape {X.shape}"
        )
    return idx, X


def _row_mean(rows: np.ndarray) -> np.ndarray:
    # rows.mean(axis=0) without its Python wrapper: the same sum, then the
    # same division by the row count, so bitwise equal
    return np.add.reduce(rows, axis=0) / rows.shape[0]


class QuadraticOracle:
    """Mean of squared distances to n random anchor points.

    f_i(x) = 0.5 * ||x - c_i||^2, so grad f_i = x - c_i and the full
    gradient is x - mean(c). Convex; the unique minimiser is the anchor
    mean, which makes it the ground truth for engine equivalence tests.
    """

    name = "quadratic"

    def __init__(self, n: int, dim: int, seed: int):
        if n < 1 or dim < 1:
            raise ConfigurationError("quadratic oracle needs n >= 1, dim >= 1")
        rng = np.random.default_rng(seed)
        self.n = n
        self.dim = dim
        self.centers = rng.normal(size=(n, dim))
        self.box = (-BOX_RADIUS, BOX_RADIUS)
        self.L = 1.0
        center_norms = np.linalg.norm(self.centers, axis=1)
        self.V_bound = float(BOX_RADIUS * np.sqrt(dim) + center_norms.max())

    def grad_at(self, i, x) -> np.ndarray:
        idx = _check_index(i, self.n)
        return np.asarray(x, dtype=float) - _row_mean(self.centers[idx])

    def grad_stack(self, idx, X) -> np.ndarray:
        idx, X = _check_block(idx, X, self.n, self.dim)
        # row k: the same row sum and division as _row_mean
        return X - np.add.reduce(self.centers[idx], axis=1) / idx.shape[1]

    def full_grad(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float) - self.centers.mean(axis=0)

    def loss_at(self, x) -> float:
        d = np.asarray(x, dtype=float)[None, :] - self.centers
        return float(0.5 * (d * d).sum(axis=1).mean())

    def minimiser(self) -> np.ndarray:
        return self.centers.mean(axis=0)


class SigmoidOracle:
    """Bounded non-convex loss: f_i(x) = 1 / (1 + exp(y_i <a_i, x>)).

    Labels follow a planted linear rule with flip noise, so minimising
    drives y_i <a_i, x> up for the consistent majority while the flipped
    examples keep the objective non-convex with vanishing tails.
    """

    name = "sigmoid"

    def __init__(self, n: int, dim: int, seed: int):
        if n < 1 or dim < 1:
            raise ConfigurationError("sigmoid oracle needs n >= 1, dim >= 1")
        rng = np.random.default_rng(seed)
        self.n = n
        self.dim = dim
        self.features = rng.normal(size=(n, dim)) / np.sqrt(dim)
        planted = rng.normal(size=dim)
        labels = np.sign(self.features @ planted)
        labels[labels == 0] = 1.0
        flips = rng.random(n) < LABEL_NOISE
        labels[flips] *= -1.0
        self.labels = labels
        self.box = (-BOX_RADIUS, BOX_RADIUS)
        row_sq = (self.features * self.features).sum(axis=1)
        self.L = float(_SIGMOID_D2_MAX * row_sq.mean())
        self.V_bound = float(_SIGMOID_D1_MAX * np.sqrt(row_sq).max())

    @staticmethod
    def _coeff(labels, margins) -> np.ndarray:
        z = labels * margins
        s = 1.0 / (1.0 + np.exp(-z))
        # d/dx sigmoid(y a.x) ... f_i = sigmoid(-y a.x), so the slope is
        # -y * s * (1 - s) with s = sigmoid(y a.x)
        return -labels * s * (1.0 - s)

    @classmethod
    def _grad(cls, rows, labels, x) -> np.ndarray:
        coeff = cls._coeff(labels, rows @ np.asarray(x, dtype=float))
        return _row_mean(coeff[:, None] * rows)

    def grad_at(self, i, x) -> np.ndarray:
        idx = _check_index(i, self.n)
        return self._grad(self.features[idx], self.labels[idx], x)

    def grad_stack(self, idx, X) -> np.ndarray:
        idx, X = _check_block(idx, X, self.n, self.dim)
        rows = self.features[idx]
        # a matrix-vector product per k, as rows @ x in grad_at (einsum
        # sums in another order and is not bitwise equal)
        margins = np.matmul(rows, X[:, :, None])[:, :, 0]
        coeff = self._coeff(self.labels[idx], margins)
        return np.add.reduce(coeff[:, :, None] * rows, axis=1) / idx.shape[1]

    def full_grad(self, x) -> np.ndarray:
        return self._grad(self.features, self.labels, x)

    def loss_at(self, x) -> float:
        z = self.labels * (self.features @ np.asarray(x, dtype=float))
        return float((1.0 / (1.0 + np.exp(z))).mean())


_REGISTRY = {
    "quadratic": QuadraticOracle,
    "sigmoid": SigmoidOracle,
}


def oracle_names() -> list[str]:
    return sorted(_REGISTRY)


def oracle_class(name: str):
    """The registered oracle class called name."""
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown problem {name!r}; available: {oracle_names()}"
        )
    return _REGISTRY[name]


def check_no_params(name: str, params) -> None:
    """ConfigurationError unless name is a built-in problem and params,
    its problem.params, is empty: it takes only n, dim and a data seed."""
    oracle_class(name)
    if params:
        raise ConfigurationError(f"problem {name!r} takes no params, got "
                                 f"problem.params fields {sorted(params)}")


def make_oracle(name: str, **params):
    """Build a registered oracle; params mirror the constructor arguments."""
    try:
        return oracle_class(name)(**params)
    except TypeError as exc:
        raise ConfigurationError(f"bad parameters for problem {name!r}: {exc}")
