"""Dense and CSR features give the same models and predictions.

`featurize` returns CSR, and `nnops.training_operand` keeps each fixed
training operand as CSR only when it is sparse enough. These tests pin the
boundary of that rule and check that the form of the input (and of each
operand) changes nothing beyond float summation order.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import tagsiege.nnops as nnops
from tagsiege.encoder import EncoderConfig, encode, forward, normalize_adjacency, train_encoder
from tagsiege.graph import TextAttributedGraph
from tagsiege.nnops import (
    SPARSE_OPERAND_MAX_DENSITY, CSRRows, csr_rows, pair_cosines, scipy_rows, training_operand,
    unit_rows,
)
from tagsiege.seeding import substream
from tagsiege.text_features import Vocabulary, featurize
from tagsiege.victims import VICTIM_KINDS, VictimConfig, predict, train_victim, victim_logits

from cosine_reference import cosine, unit_row

TOL = 1e-9


def paired_graph(n=80):
    """Nodes joined in disjoint pairs; each text is a class token plus a
    token of its own, so every training operand stays under 10% nonzero."""
    labels = [(i // 2) % 2 for i in range(n)]
    return TextAttributedGraph.build(
        texts=[f"class{labels[i]} own{i}" for i in range(n)],
        labels=labels,
        splits=["train" if i % 4 != 3 else "val" for i in range(n)],
        edges=[(i, i + 1) for i in range(0, n, 2)],
    )


def blocks_graph(n=24):
    """Two dense blocks with shared block tokens: every operand is above 10%."""
    half = n // 2
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n)
        if (i < half) == (j < half) and (i + j) % 3 == 0
    ] + [(0, half)]
    labels = [0 if i < half else 1 for i in range(n)]
    return TextAttributedGraph.build(
        texts=[("red crimson" if i < half else "blue azure") + f" item{i}" for i in range(n)],
        labels=labels,
        splits=["train" if i % 3 != 1 else "val" for i in range(n)],
        edges=edges,
    )


FIXTURES = {"sparse": (paired_graph, "csr"), "dense": (blocks_graph, "dense")}


def features_of(graph):
    return featurize(graph.texts, Vocabulary.from_texts(graph.texts))


@pytest.mark.parametrize("input_kind", ["csr", "ndarray"])
def test_training_operand_boundary_is_inclusive(input_kind):
    wrap = sp.csr_matrix if input_kind == "csr" else np.asarray
    at = np.zeros((10, 10))
    at.flat[::10] = 1.0  # exactly 10 of 100 entries
    assert np.count_nonzero(at) / at.size == SPARSE_OPERAND_MAX_DENSITY
    kept = training_operand(wrap(at))
    assert sp.isspmatrix_csr(kept)
    np.testing.assert_array_equal(kept.toarray(), at)

    above = at.copy()
    above[0, 1] = 2.0  # 11 of 100
    made = training_operand(wrap(above))
    assert isinstance(made, np.ndarray)
    np.testing.assert_array_equal(made, above)


def test_training_operand_ignores_explicit_zeros_and_empty_shapes():
    # 3 of 16 entries stored, but only 1 of them nonzero
    with_zeros = sp.csr_matrix((np.array([1.0, 0.0, 0.0]), ([0, 1, 2], [0, 1, 2])), shape=(4, 4))
    assert sp.isspmatrix_csr(training_operand(with_zeros))
    assert sp.isspmatrix_csr(training_operand(np.zeros((0, 4))))


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_fixtures_sit_on_their_side_of_the_rule(fixture):
    build, form = FIXTURES[fixture]
    g = build()
    X = features_of(g)
    encoder = train_encoder(g, X, EncoderConfig(hidden=8, epochs=2, seed=1))
    assert encoder.operand_forms == {"u": form}
    for kind in VICTIM_KINDS:
        model = train_victim(kind, g, X, VictimConfig(hidden=8, epochs=2, seed=1))
        assert set(model.operand_forms.values()) == {form}, (kind, model.operand_forms)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_encoder_csr_matches_dense_input(fixture):
    g = FIXTURES[fixture][0]()
    X = features_of(g)
    cfg = EncoderConfig(hidden=8, epochs=60, seed=3)
    from_csr = train_encoder(g, X, cfg)
    from_dense = train_encoder(g, X.toarray(), cfg)
    np.testing.assert_allclose(from_csr.loss_history, from_dense.loss_history, rtol=0, atol=TOL)
    a_hat = normalize_adjacency(g)
    logits_csr, z_csr = forward(from_csr.weights, a_hat, X)
    logits_dense, z_dense = forward(from_dense.weights, a_hat, X.toarray())
    np.testing.assert_allclose(logits_csr, logits_dense, rtol=0, atol=TOL)
    np.testing.assert_allclose(z_csr, z_dense, rtol=0, atol=TOL)
    np.testing.assert_allclose(encode(from_csr, g, X), z_dense, rtol=0, atol=TOL)
    np.testing.assert_array_equal(logits_csr.argmax(axis=1), logits_dense.argmax(axis=1))


@pytest.mark.parametrize("kind", VICTIM_KINDS)
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_victim_csr_matches_dense_input(fixture, kind):
    g = FIXTURES[fixture][0]()
    X = features_of(g)
    cfg = VictimConfig(hidden=8, epochs=60, seed=5)
    from_csr = train_victim(kind, g, X, cfg)
    from_dense = train_victim(kind, g, X.toarray(), cfg)
    for name in from_csr.weights:
        np.testing.assert_allclose(
            from_csr.weights[name], from_dense.weights[name], rtol=0, atol=TOL
        )
    np.testing.assert_allclose(
        victim_logits(from_csr, g, X), victim_logits(from_dense, g, X.toarray()),
        rtol=0, atol=TOL,
    )
    np.testing.assert_array_equal(predict(from_csr, g, X), predict(from_dense, g, X.toarray()))
    assert from_csr.val_accuracy == from_dense.val_accuracy


@pytest.mark.parametrize("kind", VICTIM_KINDS)
def test_forced_operand_forms_train_the_same_victim(monkeypatch, kind):
    # the same features trained once with every operand CSR, once all dense
    g = blocks_graph()
    X = features_of(g)
    cfg = VictimConfig(hidden=8, epochs=60, seed=7)
    models = {}
    for limit, form in ((1.0, "csr"), (0.0, "dense")):
        monkeypatch.setattr(nnops, "SPARSE_OPERAND_MAX_DENSITY", limit)
        models[form] = train_victim(kind, g, X, cfg)
        assert set(models[form].operand_forms.values()) == {form}
    np.testing.assert_allclose(
        victim_logits(models["csr"], g, X), victim_logits(models["dense"], g, X),
        rtol=0, atol=TOL,
    )
    np.testing.assert_array_equal(predict(models["csr"], g, X), predict(models["dense"], g, X))


def test_pair_cosines_equal_the_scalar_reference_in_both_forms():
    """Dense and CSR rows give the same bits, and both equal the documented
    arithmetic written out one float at a time."""
    rng = substream(5, "pair-cosines")
    X = rng.normal(size=(30, 12)) * (rng.random((30, 12)) < 0.3)
    X[[4, 17]] = 0.0
    a, b = rng.integers(0, 30, size=80), rng.integers(0, 30, size=80)
    expected = [cosine(X[i], X[j]) for i, j in zip(a, b)]
    dense, csr = unit_rows(X), unit_rows(csr_rows(X))
    assert isinstance(dense, np.ndarray) and isinstance(csr, CSRRows)
    assert dense.tolist() == [unit_row(row) for row in X]
    assert csr.toarray().tolist() == dense.tolist()
    assert pair_cosines(dense, a, b).tolist() == expected
    assert pair_cosines(csr, a, b).tolist() == expected


entry = st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
matrices = st.integers(1, 6).flatmap(lambda width: st.lists(
    st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=8))


@given(matrices, st.data())
@settings(max_examples=300)
def test_numpy_csr_cosines_equal_dense_and_scipy_bits(rows, data):
    width = len(rows[0])
    # an empty row, and two rows that share no column when there are two columns
    X = np.array(rows + [[0.0] * width, [1.5] + [0.0] * (width - 1), [0.0] * (width - 1) + [2.0]])
    n = X.shape[0]
    ids = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=12))
    pairs += [(0, 0), (n - 2, n - 1), (n - 3, 0)]
    pairs += pairs[:2]  # repeated pairs
    a, b = (np.array(side) for side in zip(*pairs))

    dense = unit_rows(X)
    csr = unit_rows(csr_rows(X))
    assert isinstance(csr, CSRRows) and not csr.data.flags.writeable
    np.testing.assert_array_equal(csr.toarray(), dense)
    got = pair_cosines(csr, a, b)
    unit = scipy_rows(csr)  # the scipy sum this numpy code replaced
    reference = unit[a].multiply(unit[b]) @ np.ones(width)
    assert got.tobytes() == pair_cosines(dense, a, b).tobytes() == reference.tobytes()
    assert pair_cosines(unit_rows(csr_rows(X)), a[:0], b[:0]).shape == (0,)
