import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import synthetic_corpus_reference
from dpsgd.errors import ConfigurationError, CorpusFormatError
from dpsgd.svi_lda import (
    Corpus,
    Document,
    heldout_split,
    load_uci_bow,
    synthetic_corpus,
    write_uci_bow,
)


def write_files(tmp_path, docword: str, vocab: str):
    dw = tmp_path / "docword.txt"
    vf = tmp_path / "vocab.txt"
    dw.write_text(docword)
    vf.write_text(vocab)
    return dw, vf


def test_minimal_file_one_doc_one_word(tmp_path):
    # smallest legal corpus: one doc containing word 0 twice
    dw, vf = write_files(tmp_path, "1\n1\n1\n1 1 2\n", "apple\n")
    corpus = load_uci_bow(dw, vf)
    assert corpus.n_docs == 1
    assert corpus.vocab == ["apple"]
    assert corpus.docs[0].length == 2
    assert corpus.docs[0].word_ids.tolist() == [0]
    assert corpus.docs[0].counts.tolist() == [2]


def test_round_trip_is_identity(tmp_path):
    corpus, _ = synthetic_corpus(n_docs=12, vocab_size=20, k_topics=3, seed=4)
    dw, vf = tmp_path / "d.txt", tmp_path / "v.txt"
    write_uci_bow(corpus, dw, vf)
    back = load_uci_bow(dw, vf)
    assert back.vocab == corpus.vocab
    assert back.n_docs == corpus.n_docs
    for a, b in zip(back.docs, corpus.docs):
        assert np.array_equal(a.word_ids, b.word_ids)
        assert np.array_equal(a.counts, b.counts)
    # writing the loaded corpus again reproduces the bytes
    dw2, vf2 = tmp_path / "d2.txt", tmp_path / "v2.txt"
    write_uci_bow(back, dw2, vf2)
    assert dw2.read_text() == dw.read_text()
    assert vf2.read_text() == vf.read_text()


def test_nnz_header_mismatch(tmp_path):
    dw, vf = write_files(tmp_path, "1\n1\n2\n1 1 2\n", "a\n")
    with pytest.raises(CorpusFormatError, match="header says 2 triples"):
        load_uci_bow(dw, vf)


def test_malformed_triple_names_line(tmp_path):
    dw, vf = write_files(tmp_path, "1\n2\n2\n1 1 2\n1 2\n", "a\nb\n")
    with pytest.raises(CorpusFormatError, match=r":5:"):
        load_uci_bow(dw, vf)


def test_non_integer_field_names_line(tmp_path):
    dw, vf = write_files(tmp_path, "1\n1\n1\n1 one 2\n", "a\n")
    with pytest.raises(CorpusFormatError, match=r":4: wordID"):
        load_uci_bow(dw, vf)


def test_out_of_range_ids(tmp_path):
    dw, vf = write_files(tmp_path, "1\n2\n1\n2 1 1\n", "a\nb\n")
    with pytest.raises(CorpusFormatError, match=r"docID 2 outside"):
        load_uci_bow(dw, vf)
    dw, vf = write_files(tmp_path, "1\n2\n1\n1 3 1\n", "a\nb\n")
    with pytest.raises(CorpusFormatError, match=r"wordID 3 outside"):
        load_uci_bow(dw, vf)
    dw, vf = write_files(tmp_path, "1\n2\n1\n1 1 0\n", "a\nb\n")
    with pytest.raises(CorpusFormatError, match="count must be >= 1"):
        load_uci_bow(dw, vf)


def test_vocab_size_must_match_header(tmp_path):
    dw, vf = write_files(tmp_path, "1\n3\n1\n1 1 1\n", "a\nb\n")
    with pytest.raises(CorpusFormatError, match="2 terms but header says 3"):
        load_uci_bow(dw, vf)


def test_duplicate_triples_aggregate(tmp_path):
    dw, vf = write_files(tmp_path, "1\n2\n3\n1 1 1\n1 2 1\n1 1 4\n", "a\nb\n")
    corpus = load_uci_bow(dw, vf)
    assert corpus.docs[0].word_ids.tolist() == [0, 1]
    assert corpus.docs[0].counts.tolist() == [5, 1]


def test_synthetic_corpus_shapes():
    corpus, topics = synthetic_corpus(
        n_docs=40, vocab_size=30, k_topics=5, seed=11, doc_length=(20, 30)
    )
    assert corpus.n_docs == 40
    assert corpus.vocab_size == 30
    assert topics.shape == (5, 30)
    np.testing.assert_allclose(topics.sum(axis=1), 1.0, atol=1e-12)
    assert (topics > 0).all()
    for doc in corpus.docs:
        assert 20 <= doc.length <= 30
        assert (doc.counts >= 1).all()
        assert (doc.word_ids >= 0).all() and (doc.word_ids < 30).all()
        assert np.all(np.diff(doc.word_ids) > 0)
    # same seed regenerates identical data
    again, topics2 = synthetic_corpus(
        n_docs=40, vocab_size=30, k_topics=5, seed=11, doc_length=(20, 30)
    )
    assert np.array_equal(topics, topics2)
    assert all(
        np.array_equal(a.word_ids, b.word_ids) and np.array_equal(a.counts, b.counts)
        for a, b in zip(corpus.docs, again.docs)
    )


def test_heldout_split_partitions():
    corpus, _ = synthetic_corpus(n_docs=30, vocab_size=20, k_topics=3, seed=7)
    train, held = heldout_split(corpus, 10, seed=3)
    assert train.n_docs == 20 and held.n_docs == 10
    assert train.vocab == corpus.vocab and held.vocab == corpus.vocab
    total = train.total_tokens + held.total_tokens
    assert total == corpus.total_tokens
    with pytest.raises(ConfigurationError):
        heldout_split(corpus, 0, seed=3)
    with pytest.raises(ConfigurationError):
        heldout_split(corpus, 30, seed=3)


@st.composite
def corpus_shapes(draw):
    vocab_size = draw(st.integers(1, 40))
    k_topics = draw(st.one_of(st.just(1), st.just(vocab_size),
                              st.integers(1, vocab_size)))
    return draw(st.integers(1, 20)), vocab_size, k_topics


APPS_SHAPE = (2000, 500, 10)  # perfbench/workloads.py's LDA corpus


@settings(max_examples=150, deadline=None)
@given(shape=corpus_shapes(), seed=st.integers(0, 2**32 + 5),
       doc_length=st.sampled_from([(0, 0), (1, 1), (40, 80)]))
@example(shape=(20, 7, 7), seed=2**32 + 5, doc_length=(40, 80))
@example(shape=APPS_SHAPE, seed=1, doc_length=(40, 80))
@example(shape=APPS_SHAPE, seed=2, doc_length=(40, 80))
@example(shape=APPS_SHAPE, seed=3, doc_length=(40, 80))
def test_synthetic_corpus_matches_choice_reference(shape, seed, doc_length):
    got, got_topics = synthetic_corpus(*shape, seed=seed, doc_length=doc_length)
    want, want_topics = synthetic_corpus_reference(*shape, seed=seed,
                                                   doc_length=doc_length)
    assert got_topics.dtype == want_topics.dtype
    assert np.array_equal(got_topics, want_topics)
    assert got.vocab == want.vocab
    assert len(got.docs) == len(want.docs) == shape[0]
    for a, b in zip(got.docs, want.docs):
        assert a.word_ids.dtype == b.word_ids.dtype == np.int64
        assert a.counts.dtype == b.counts.dtype == np.int64
        assert np.array_equal(a.word_ids, b.word_ids)
        assert np.array_equal(a.counts, b.counts)


class RecordingGenerator:
    """A Generator whose method calls are recorded by name, in order.

    dirichlet, if given, replaces the Generator's dirichlet.
    """

    def __init__(self, rng, dirichlet=None):
        self.rng = rng
        self.calls = []
        self.dirichlet_override = dirichlet

    def __getattr__(self, name):
        fn = getattr(self.rng, name)
        if name == "dirichlet" and self.dirichlet_override is not None:
            fn = self.dirichlet_override

        def recorded(*args, **kwargs):
            self.calls.append(name)
            return fn(*args, **kwargs)
        return recorded


def test_synthetic_corpus_draw_budget(monkeypatch):
    # counts only, never time
    n_docs, vocab_size, k_topics = 30, 40, 4
    made = []
    default_rng = np.random.default_rng

    def recording_rng(seed):
        made.append(RecordingGenerator(default_rng(seed)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    synthetic_corpus(n_docs, vocab_size, k_topics, seed=5)
    [rng] = made
    # one random per topic block for the weights, then three calls a doc
    assert rng.calls == (["random"] * k_topics
                         + ["dirichlet", "integers", "random"] * n_docs)
    assert "choice" not in rng.calls


@pytest.mark.parametrize("doc_length", [(0, 0), (40, 80)])
@pytest.mark.parametrize("theta", [
    np.full(3, np.nan), np.full(3, 0.2), np.array([1.5, -0.5, 0.0]),
])
def test_synthetic_corpus_rejects_a_topic_mix_off_the_simplex(
        monkeypatch, doc_length, theta):
    # all-zero gammas make dirichlet return NaN; choice refused such a p
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: RecordingGenerator(
        default_rng(seed), dirichlet=lambda alpha: theta.copy()))
    for build in (synthetic_corpus, synthetic_corpus_reference):
        with pytest.raises(ValueError):
            build(5, 12, 3, seed=1, doc_length=doc_length)


@pytest.mark.parametrize("doc_length", [
    (80, 40), (-5, 3), (-1, -1), (40.0, 80), (40, 80.5), (True, 3), (40,),
    (1, 2, 3), "ab", None, 40,
])
def test_synthetic_corpus_rejects_bad_doc_length_before_drawing(
        monkeypatch, doc_length):
    def no_draws(seed):
        raise AssertionError("drew before checking doc_length")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ConfigurationError, match="doc_length"):
        synthetic_corpus(5, 12, 3, seed=1, doc_length=doc_length)


def test_synthetic_corpus_accepts_numpy_int_doc_length():
    a, _ = synthetic_corpus(4, 12, 3, seed=1,
                            doc_length=(np.int64(5), np.int32(9)))
    b, _ = synthetic_corpus(4, 12, 3, seed=1, doc_length=(5, 9))
    for x, y in zip(a.docs, b.docs):
        assert np.array_equal(x.counts, y.counts)
