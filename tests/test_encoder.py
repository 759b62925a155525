import numpy as np
import pytest

from tagsiege.encoder import (
    EncoderConfig,
    encode,
    forward,
    normalize_adjacency,
    train_encoder,
)
from tagsiege.errors import ConfigurationError, ShapeError, TrainingError
from tagsiege.graph import TextAttributedGraph
from tagsiege.nnops import glorot
from tagsiege.seeding import substream

from gradient_reference import gradient_check


def gcn_weights(input_dim, hidden, class_count, seed):
    """Untrained GCN weights as `train_encoder` initialises them."""
    rng = substream(seed, "encoder-init")
    return {"w1": glorot(rng, input_dim, hidden), "w2": glorot(rng, hidden, class_count)}


def ring_graph(n=10, classes=2):
    return TextAttributedGraph.build(
        texts=[f"node{i} tok{i % classes}" for i in range(n)],
        labels=[i % classes for i in range(n)],
        splits=["train" if i % 3 != 2 else "val" for i in range(n)],
        edges=[(i, (i + 1) % n) for i in range(n)],
    )


def random_features(graph, dim=7, seed=11):
    rng = substream(seed, "test-features")
    return rng.normal(size=(graph.node_count, dim))


def dense_normalized(graph):
    """Independent reference: dense D^{-1/2}(A+I)D^{-1/2}."""
    n = graph.node_count
    a = np.eye(n)
    for u, v in graph.edges:
        a[u, v] = a[v, u] = 1.0
    d = a.sum(axis=1)
    scale = np.diag(1.0 / np.sqrt(d))
    return scale @ a @ scale


def test_normalized_adjacency_matches_dense_oracle():
    g = ring_graph()
    sparse = normalize_adjacency(g).toarray()
    assert np.max(np.abs(sparse - dense_normalized(g))) <= 1e-12


def test_normalized_adjacency_handles_isolated_nodes():
    g = TextAttributedGraph.build(
        texts=["a", "b", "c"], labels=[0, 0, 1],
        splits=["train"] * 3, edges=[(0, 1)],
    )
    m = normalize_adjacency(g).toarray()
    assert m[2, 2] == pytest.approx(1.0)  # self-loop only
    assert np.max(np.abs(m - dense_normalized(g))) <= 1e-12


def test_forward_matches_naive_reimplementation():
    g = ring_graph()
    X = random_features(g)
    params = gcn_weights(X.shape[1], hidden=5, class_count=g.class_count, seed=3)
    a_hat = normalize_adjacency(g)
    logits, z = forward(params, a_hat, X)

    p = dense_normalized(g)
    h = np.maximum(p @ X @ params["w1"], 0.0)
    expected_logits = p @ h @ params["w2"]
    assert np.max(np.abs(logits - expected_logits)) <= 1e-10
    assert np.max(np.abs(z - h)) <= 1e-10


def test_forward_rejects_wrong_feature_dim():
    g = ring_graph()
    params = gcn_weights(7, hidden=4, class_count=2, seed=0)
    with pytest.raises(ShapeError):
        forward(params, normalize_adjacency(g), np.zeros((g.node_count, 9)))


def test_gradient_check_on_small_graph():
    g = ring_graph(n=10)
    X = random_features(g, dim=6, seed=5)
    params = gcn_weights(6, hidden=4, class_count=g.class_count, seed=7)
    a_hat = normalize_adjacency(g)
    labels = np.array(g.labels)
    train_rows = np.array(g.split_nodes("train"))
    err = gradient_check(params, a_hat, X, labels, train_rows, weight_decay=5e-4)
    assert err <= 1e-4


def test_training_reduces_loss_and_is_deterministic():
    g = ring_graph(n=12)
    X = random_features(g, dim=8)
    cfg = EncoderConfig(hidden=8, epochs=60, seed=1)
    run1 = train_encoder(g, X, cfg)
    run2 = train_encoder(g, X, cfg)
    assert run1.loss_history[-1] < run1.loss_history[0]
    np.testing.assert_array_equal(run1.weights["w1"], run2.weights["w1"])
    np.testing.assert_array_equal(run1.weights["w2"], run2.weights["w2"])


def test_embeddings_are_penultimate_layer():
    g = ring_graph()
    X = random_features(g)
    cfg = EncoderConfig(hidden=6, epochs=5, seed=2)
    trained = train_encoder(g, X, cfg)
    z = encode(trained, g, X)
    _, z_direct = forward(trained.weights, normalize_adjacency(g), X)
    np.testing.assert_array_equal(z, z_direct)
    assert z.shape == (g.node_count, 6)
    assert np.all(z >= 0)  # post-relu


def test_train_encoder_and_encode_build_the_propagation_once_per_graph(monkeypatch):
    import tagsiege.graph as graph_module

    builds = []
    real = graph_module.normalize_adjacency
    monkeypatch.setattr(
        graph_module, "normalize_adjacency", lambda graph: builds.append(graph) or real(graph)
    )
    g = ring_graph()
    X = random_features(g)
    trained = train_encoder(g, X, EncoderConfig(hidden=6, epochs=3, seed=2))
    encode(trained, g, X)
    assert builds == [g]
    other = g.with_changes(edges=sorted(g.edges)[1:])
    encode(trained, other, X)
    assert builds == [g, other]


def test_config_validation():
    with pytest.raises(ConfigurationError):
        EncoderConfig(hidden=0)


def test_training_rejects_features_without_one_row_per_node():
    g = ring_graph(n=6)
    with pytest.raises(ShapeError):
        train_encoder(g, np.ones((7, 3)), EncoderConfig(hidden=2, epochs=1))


def test_training_requires_train_nodes():
    g = TextAttributedGraph.build(
        texts=["a", "b"], labels=[0, 1], splits=["test", "test"], edges=[(0, 1)],
    )
    with pytest.raises(TrainingError):
        train_encoder(g, np.ones((2, 3)), EncoderConfig(hidden=2, epochs=1))

