import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagsiege.errors import DegenerateInputError
from tagsiege.graph import TextAttributedGraph
from tagsiege.metrics import bound_audit
from tagsiege.nnops import CSRRows
from tagsiege.text_features import (
    Vocabulary,
    build_vocabulary,
    featurize,
    token_edit_distance,
    tokenize,
)


def test_tokenize_lowercases_and_splits_on_nonalnum():
    assert tokenize("Graph-based NLP, v2!") == ["graph", "based", "nlp", "v2"]
    assert tokenize("   ") == []


def test_token_edit_distance_is_set_based():
    assert token_edit_distance("a b c", "c b a") == 0       # reorder is free
    assert token_edit_distance("a a a b", "a b") == 0       # duplicates are free
    assert token_edit_distance("a b", "a c") == 2           # drop b, add c
    assert token_edit_distance("a b", "a b c d") == 2


words = st.text(alphabet="abcdefg", min_size=1, max_size=4)
texts = st.lists(words, min_size=0, max_size=8).map(" ".join)


@given(texts, texts)
def test_token_edit_distance_symmetric(a, b):
    assert token_edit_distance(a, b) == token_edit_distance(b, a)


@given(texts, texts, texts)
@settings(max_examples=50)
def test_token_edit_distance_triangle(a, b, c):
    assert token_edit_distance(a, c) <= token_edit_distance(a, b) + token_edit_distance(b, c)


def test_vocabulary_ranked_by_df_then_term():
    vocab = Vocabulary.from_texts(["b c", "b c", "b a", "z"], max_size=3)
    # df: b=3, c=2, a=1, z=1 -> keep b, c, then a (lexicographic tie-break over z)
    assert list(vocab.index) == ["b", "c", "a"]
    assert vocab.index["b"] == 0
    assert vocab.document_frequency == {"b": 3, "c": 2, "a": 1}


def test_vocabulary_rejects_empty():
    with pytest.raises(DegenerateInputError):
        Vocabulary.from_texts([])
    with pytest.raises(DegenerateInputError):
        Vocabulary.from_texts(["!!!", "..."])


def test_idf_formula():
    vocab = Vocabulary.from_texts(["a", "a b", "b", "b"])
    # N=4, df(a)=2 -> log(5/3)+1 ; df(b)=3 -> log(5/4)+1
    assert vocab.idf("a") == pytest.approx(math.log(5 / 3) + 1)
    assert vocab.idf("b") == pytest.approx(math.log(5 / 4) + 1)


def test_featurize_counts_times_idf_and_drops_unknown():
    vocab = Vocabulary.from_texts(["a a b", "b"])
    X = featurize(["a a b zzz", "c"], vocab)
    assert isinstance(X, CSRRows) and X.indices.tolist() == sorted(X.indices.tolist())
    assert X.shape == (2, 2)
    assert X.toarray()[0, vocab.index["a"]] == pytest.approx(2 * vocab.idf("a"))
    assert X.toarray()[0, vocab.index["b"]] == pytest.approx(1 * vocab.idf("b"))
    assert X.indptr[2] - X.indptr[1] == 0  # all tokens unknown -> empty row
    assert X.nnz == 2  # "a a" is one summed entry


def dense_featurize_reference(texts, vocab):
    """The dense featurizer the CSR one replaced: count * idf, one cell at a time."""
    idf = vocab.idf_vector()
    out = np.zeros((len(texts), len(vocab)))
    for row, text in enumerate(texts):
        for term in tokenize(text):
            col = vocab.index.get(term)
            if col is not None:
                out[row, col] += 1.0
    out *= idf
    return out


# "a".."f" build the vocabulary; "x"/"y" never do, so they are out of vocabulary
corpus_words = st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6).map(" ".join)
query_words = st.lists(st.sampled_from("abcdefxy"), min_size=0, max_size=10).map(" ".join)


@given(
    st.lists(corpus_words, min_size=1, max_size=6),
    st.lists(query_words, min_size=0, max_size=8),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=200)
def test_featurize_csr_equals_dense_reference(corpus, texts, max_size):
    texts = texts + ["a a a b", "x y", ""]  # repeats, all-OOV and empty rows
    vocab = Vocabulary.from_texts(corpus, max_size=max_size)
    X = featurize(texts, vocab)
    assert isinstance(X, CSRRows)
    np.testing.assert_array_equal(X.toarray(), dense_featurize_reference(texts, vocab))


def test_plan_and_baselines_import_without_scipy():
    # `plan` imports text_features; only featurize itself needs scipy.sparse
    code = (
        "import sys, tagsiege.baselines, tagsiege.plan; "
        "sys.exit('scipy.sparse' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_estimate_lipschitz_matches_hand_computation():
    # the featurizer's per-token Lipschitz estimate is reported by bound_audit
    corpus = ["alpha beta", "beta gamma", "gamma alpha"]
    vocab = Vocabulary.from_texts(corpus)
    perturbed = ["alpha beta gamma", "beta gamma", "gamma alpha"]
    g = TextAttributedGraph.build(
        texts=corpus, labels=[0, 0, 1], splits=["train"] * 3,
        edges=[(0, 1), (1, 2), (0, 2)],
    )
    g2 = g.with_changes(texts=perturbed)
    audit = bound_audit(g, g2, featurize(corpus, vocab), featurize(perturbed, vocab))
    # one token added: drift == idf(gamma), distance == 1
    expected = vocab.idf("gamma")
    assert audit["lipschitz_est"] == pytest.approx(expected)
