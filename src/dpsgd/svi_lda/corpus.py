"""Bag-of-words corpora: UCI-format IO, synthetic generation, splits.

The on-disk format is the UCI bag-of-words layout: three header lines
(document count D, vocabulary size W, nonzero count NNZ) followed by
exactly NNZ lines of ``docID wordID count`` with 1-based IDs.

``synthetic_corpus`` fixes its draw order: after the topic weights, each
document takes one ``dirichlet``, one ``integers`` and one
``random(2 * n_tokens)`` call, the doubles picking topics first and then
words topic by topic. The tests pin that order against the
``Generator.choice`` loop it replaced, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError, CorpusFormatError

# synthetic_corpus: Dirichlet concentration of each document's topic
# mix, and the probability mass a topic spreads over the whole vocabulary
TOPIC_CONCENTRATION = 0.3
BACKGROUND_MASS = 0.05
# Generator.choice's tolerance on the sum of its p
_P_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


@dataclass(frozen=True)
class Document:
    """Distinct word ids and their counts for one document."""

    word_ids: np.ndarray
    counts: np.ndarray

    @property
    def length(self) -> int:
        """Total tokens, counting multiplicity."""
        return int(self.counts.sum())

    @property
    def n_distinct(self) -> int:
        return int(self.word_ids.shape[0])


@dataclass
class Corpus:
    docs: list[Document]
    vocab: list[str]

    @property
    def n_docs(self) -> int:
        return len(self.docs)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    @property
    def total_tokens(self) -> int:
        return sum(doc.length for doc in self.docs)


def _parse_int(token: str, path, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise CorpusFormatError(
            f"{path}:{line_no}: {what} is not an integer: {token!r}"
        )


def load_uci_bow(docword_path, vocab_path) -> Corpus:
    """Parse UCI bag-of-words files into a Corpus (IDs become 0-based)."""
    with open(vocab_path) as fh:
        vocab = [line.strip() for line in fh if line.strip()]
    with open(docword_path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 3:
        raise CorpusFormatError(f"{docword_path}: missing header lines")
    n_docs = _parse_int(lines[0].strip(), docword_path, 1, "document count")
    n_words = _parse_int(lines[1].strip(), docword_path, 2, "vocabulary size")
    nnz = _parse_int(lines[2].strip(), docword_path, 3, "nonzero count")
    if n_docs < 1 or n_words < 1 or nnz < 0:
        raise CorpusFormatError(f"{docword_path}: nonpositive header values")
    if n_words != len(vocab):
        raise CorpusFormatError(
            f"{vocab_path}: {len(vocab)} terms but header says {n_words}"
        )
    body = [(i + 4, line) for i, line in enumerate(lines[3:]) if line.strip()]
    if len(body) != nnz:
        raise CorpusFormatError(
            f"{docword_path}: header says {nnz} triples, found {len(body)}"
        )
    per_doc: list[dict[int, int]] = [dict() for _ in range(n_docs)]
    for line_no, line in body:
        parts = line.split()
        if len(parts) != 3:
            raise CorpusFormatError(
                f"{docword_path}:{line_no}: expected 'docID wordID count', "
                f"got {line!r}"
            )
        doc_id = _parse_int(parts[0], docword_path, line_no, "docID")
        word_id = _parse_int(parts[1], docword_path, line_no, "wordID")
        count = _parse_int(parts[2], docword_path, line_no, "count")
        if not 1 <= doc_id <= n_docs:
            raise CorpusFormatError(
                f"{docword_path}:{line_no}: docID {doc_id} outside [1, {n_docs}]"
            )
        if not 1 <= word_id <= n_words:
            raise CorpusFormatError(
                f"{docword_path}:{line_no}: wordID {word_id} outside [1, {n_words}]"
            )
        if count < 1:
            raise CorpusFormatError(
                f"{docword_path}:{line_no}: count must be >= 1, got {count}"
            )
        slot = per_doc[doc_id - 1]
        key = word_id - 1
        slot[key] = slot.get(key, 0) + count
    docs = []
    for mapping in per_doc:
        ids = np.array(sorted(mapping), dtype=np.int64)
        cnt = np.array([mapping[i] for i in ids], dtype=np.int64)
        docs.append(Document(ids, cnt))
    return Corpus(docs=docs, vocab=vocab)


def write_uci_bow(corpus: Corpus, docword_path, vocab_path) -> None:
    """Inverse of load_uci_bow (1-based IDs, sorted by doc then word)."""
    triples = []
    for d, doc in enumerate(corpus.docs):
        for w, c in zip(doc.word_ids, doc.counts):
            triples.append((d + 1, int(w) + 1, int(c)))
    with open(docword_path, "w") as fh:
        fh.write(f"{corpus.n_docs}\n{corpus.vocab_size}\n{len(triples)}\n")
        for t in triples:
            fh.write(f"{t[0]} {t[1]} {t[2]}\n")
    with open(vocab_path, "w") as fh:
        for term in corpus.vocab:
            fh.write(term + "\n")


def _check_doc_length(doc_length) -> tuple[int, int]:
    try:
        lo, hi = doc_length
    except (TypeError, ValueError):
        lo = hi = None
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
               for v in (lo, hi)) or not 0 <= lo <= hi:
        raise ConfigurationError(
            f"doc_length must be two ints 0 <= lo <= hi, got {doc_length!r}"
        )
    return int(lo), int(hi)


def synthetic_corpus(
    n_docs: int,
    vocab_size: int,
    k_topics: int,
    seed: int,
    doc_length: tuple[int, int] = (40, 80),
) -> tuple[Corpus, np.ndarray]:
    """Documents drawn from k planted topics with block support.

    Topic k concentrates (1 - BACKGROUND_MASS) of its probability on its
    own contiguous vocabulary block, which keeps the topics far apart and
    makes recovery measurable. Returns (corpus, true topic rows).

    Every draw comes from ``np.random.default_rng(seed)``: first one
    ``random`` per topic block for the topic weights, then per document
    one ``dirichlet`` (its topic mix theta), one ``integers`` (its length
    n) and one ``random(2 * n)``. The first n doubles pick the tokens'
    topics from theta's CDF; the rest pick the words, topic by topic in k
    order, each from its topic's CDF. A CDF lookup is
    ``cdf.searchsorted(u, side="right")`` with ``cdf = p.cumsum();
    cdf /= cdf[-1]``, which is what ``Generator.choice(..., p=p)`` does
    with the same doubles. ValueError if theta is not a probability
    vector, as ``choice`` raised.
    """
    if k_topics < 1 or vocab_size < k_topics or n_docs < 1:
        raise ConfigurationError(
            "need k_topics >= 1 and vocab_size >= k_topics and n_docs >= 1"
        )
    lo_len, hi_len = _check_doc_length(doc_length)
    rng = np.random.default_rng(seed)
    topics = np.full((k_topics, vocab_size), BACKGROUND_MASS / vocab_size)
    block = vocab_size // k_topics
    for k in range(k_topics):
        lo = k * block
        hi = vocab_size if k == k_topics - 1 else (k + 1) * block
        weights = rng.random(hi - lo) + 0.5
        weights /= weights.sum()
        topics[k, lo:hi] += (1.0 - BACKGROUND_MASS) * weights
    topics /= topics.sum(axis=1, keepdims=True)
    word_cdfs = topics.cumsum(axis=1)
    word_cdfs /= word_cdfs[:, -1:]

    alpha = np.full(k_topics, TOPIC_CONCENTRATION)
    docs = []
    for _ in range(n_docs):
        theta = rng.dirichlet(alpha)
        n_tokens = int(rng.integers(lo_len, hi_len + 1))
        topic_cdf = theta.cumsum()
        total = topic_cdf[-1]
        # the checks Generator.choice makes on p; a NaN fails the first
        if not abs(total - 1.0) <= _P_ATOL or theta.min() < 0:
            raise ValueError(f"topic mix is not a probability vector: {theta}")
        topic_cdf /= total
        u = rng.random(2 * n_tokens)
        z = topic_cdf.searchsorted(u[:n_tokens], side="right")
        words = np.empty(n_tokens, dtype=np.int64)
        start = 0
        for k, m in enumerate(np.bincount(z, minlength=k_topics).tolist()):
            if m:
                stop = start + m
                words[start:stop] = word_cdfs[k].searchsorted(
                    u[n_tokens + start:n_tokens + stop], side="right")
                start = stop
        counts = np.bincount(words, minlength=vocab_size)
        ids = counts.nonzero()[0]
        docs.append(Document(ids, counts[ids]))
    vocab = [f"w{i}" for i in range(vocab_size)]
    return Corpus(docs=docs, vocab=vocab), topics


def heldout_split(corpus: Corpus, n_heldout: int, seed: int) -> tuple[Corpus, Corpus]:
    """Random (train, heldout) split with n_heldout documents held out."""
    if not 0 < n_heldout < corpus.n_docs:
        raise ConfigurationError(
            f"n_heldout must be in (0, {corpus.n_docs}), got {n_heldout}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(corpus.n_docs)
    held = set(order[:n_heldout].tolist())
    train_docs = [corpus.docs[i] for i in range(corpus.n_docs) if i not in held]
    held_docs = [corpus.docs[i] for i in sorted(held)]
    return (
        Corpus(docs=train_docs, vocab=corpus.vocab),
        Corpus(docs=held_docs, vocab=corpus.vocab),
    )
