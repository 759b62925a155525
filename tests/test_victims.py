import numpy as np
import pytest

from tagsiege.encoder import (
    EncoderConfig, TrainedModel, encode, forward, normalize_adjacency, train_encoder,
)
from tagsiege.errors import ConfigurationError, DegenerateInputError, ShapeError, TrainingError
from tagsiege.graph import TextAttributedGraph
from tagsiege.seeding import substream
from tagsiege.victims import (
    SAGE_WEIGHTS,
    VICTIM_KINDS,
    VictimConfig,
    accuracy,
    mean_aggregation,
    predict,
    sage_loss_and_grads,
    sage_logits,
    sgc_logits,
    sgc_loss_and_grads,
    train_victim,
    train_victims,
    victim_logits,
)


def clustered_graph(n=24, seed=3):
    """Two dense blocks joined by one bridge; block tokens are disjoint."""
    rng = substream(seed, "victim-graph")
    half = n // 2
    edges = []
    for block in (range(half), range(half, n)):
        block = list(block)
        for i in block:
            for j in block:
                if i < j and rng.random() < 0.5:
                    edges.append((i, j))
    edges.append((0, half))
    texts = [
        ("red crimson scarlet" if i < half else "blue azure navy") + f" item{i}"
        for i in range(n)
    ]
    splits = ["train" if i % 3 != 1 else ("val" if i % 6 == 1 else "test")
              for i in range(n)]
    return TextAttributedGraph.build(
        texts=texts,
        labels=[0 if i < half else 1 for i in range(n)],
        splits=splits,
        edges=edges,
    )


def block_features(graph, seed=8):
    rng = substream(seed, "victim-feats")
    base = np.array([[2.0, 0.0, 0.1], [0.0, 2.0, 0.1]])
    return np.vstack([
        base[graph.labels[i]] + 0.1 * rng.normal(size=3)
        for i in range(graph.node_count)
    ])


@pytest.mark.parametrize("kind", ["gcn", "sgc", "sage_mean"])
def test_training_fits_separable_data(kind):
    g = clustered_graph()
    X = block_features(g)
    cfg = VictimConfig(hidden=8, epochs=80, seed=1)
    model = train_victim(kind, g, X, cfg)
    test_nodes = list(g.split_nodes("test"))
    assert accuracy(model, g, X, test_nodes) == 1.0
    assert model.val_accuracy == 1.0


@pytest.mark.parametrize("kind", ["gcn", "sgc", "sage_mean"])
def test_same_seed_same_parameters(kind):
    g = clustered_graph()
    X = block_features(g)
    cfg = VictimConfig(hidden=6, epochs=30, seed=9)
    m1 = train_victim(kind, g, X, cfg)
    m2 = train_victim(kind, g, X, cfg)
    for name in m1.weights:
        np.testing.assert_array_equal(m1.weights[name], m2.weights[name])


def test_surrogate_and_victims_return_one_record_with_their_loss_curve():
    g = clustered_graph()
    X = block_features(g)
    surrogate = train_encoder(g, X, EncoderConfig(hidden=6, epochs=12, seed=1))
    assert (type(surrogate), surrogate.kind, surrogate.val_accuracy) == (TrainedModel, "gcn", None)
    assert len(surrogate.loss_history) == 12
    for kind in VICTIM_KINDS:
        model = train_victim(kind, g, X, VictimConfig(hidden=6, epochs=12, seed=1))
        assert (type(model), model.kind) == (TrainedModel, kind)
        assert len(model.loss_history) == 12 and np.all(np.isfinite(model.loss_history))
        assert model.loss_history[-1] < model.loss_history[0], kind
        assert model.val_accuracy is not None


def test_trained_model_rejects_non_finite_weights():
    with pytest.raises(TrainingError, match="weight w contains non-finite values"):
        TrainedModel("sgc", {"w": np.array([[0.0, np.nan]])}, VictimConfig())


def test_one_class_data_is_trivially_learned():
    n = 9
    g = TextAttributedGraph.build(
        texts=[f"only class {i}" for i in range(n)],
        labels=[0] * n,
        splits=["train" if i < 6 else "test" for i in range(n)],
        edges=[(i, i + 1) for i in range(n - 1)],
        class_count=1,
    )
    X = np.ones((n, 2))
    model = train_victim("gcn", g, X, VictimConfig(hidden=3, epochs=5))
    assert accuracy(model, g, X, list(g.split_nodes("test"))) == 1.0


def test_every_model_sizes_its_output_by_the_declared_class_count():
    # labels use classes 0 and 1 of the five the graph declares
    g = clustered_graph(n=12)
    g = TextAttributedGraph.build(g.texts, g.labels, g.splits, g.edges, class_count=5)
    X = block_features(g)
    encoder = train_encoder(g, X, EncoderConfig(hidden=4, epochs=3, seed=1))
    logits, z = forward(encoder.weights, normalize_adjacency(g), X)
    assert logits.shape == (g.node_count, 5)
    assert encode(encoder, g, X).shape == z.shape == (g.node_count, 4)
    for kind in VICTIM_KINDS:
        model = train_victim(kind, g, X, VictimConfig(hidden=4, epochs=3, seed=1))
        assert victim_logits(model, g, X).shape == (g.node_count, 5), kind


def test_sgc_equals_linear_gcn():
    g = clustered_graph(n=10)
    X = block_features(g)
    rng = substream(4, "sgc-linear")
    w1 = rng.normal(size=(3, 5))
    w2 = rng.normal(size=(5, 2))
    a_hat = normalize_adjacency(g)
    linear_gcn = a_hat @ ((a_hat @ (X @ w1)) @ w2)
    sgc = sgc_logits(a_hat, X, w1 @ w2, steps=2)
    assert np.max(np.abs(linear_gcn - sgc)) <= 1e-8


def test_mean_aggregation_rows():
    g = TextAttributedGraph.build(
        texts=["a", "b", "c"], labels=[0, 0, 1], splits=["train"] * 3,
        edges=[(0, 1), (0, 2)],
    )
    m = mean_aggregation(g).toarray()
    np.testing.assert_allclose(m[0], [0.0, 0.5, 0.5])
    np.testing.assert_allclose(m[1], [1.0, 0.0, 0.0])
    # isolated node -> zero row
    g2 = TextAttributedGraph.build(
        texts=["a", "b", "c"], labels=[0, 0, 1], splits=["train"] * 3,
        edges=[(0, 1)],
    )
    assert np.all(mean_aggregation(g2).toarray()[2] == 0.0)


def sampled_numeric_grad_check(kind, n_coords=12):
    """Central-difference check of the training gradients on sampled coordinates."""
    wd = 5e-4
    g = clustered_graph(n=10)
    X = block_features(g)
    labels = np.array(g.labels)
    rows = np.array(g.split_nodes("train"))
    rng = substream(13, f"numgrad-{kind}")

    if kind == "sage_mean":
        m = mean_aggregation(g)
        x_nbr = m @ X
        weights = {
            "ws1": rng.normal(size=(3, 4)) * 0.3,
            "wn1": rng.normal(size=(3, 4)) * 0.3,
            "ws2": rng.normal(size=(4, 2)) * 0.3,
            "wn2": rng.normal(size=(4, 2)) * 0.3,
        }
        steps = sage_loss_and_grads(weights, m, X, x_nbr, labels, rows, wd)

        def loss_and_grads():
            loss, grads = next(steps)
            return loss, dict(zip(SAGE_WEIGHTS, grads))
    else:
        a_hat = normalize_adjacency(g)
        weights = {"w": rng.normal(size=(3, 2)) * 0.3}
        propagated = a_hat @ (a_hat @ X)
        steps = sgc_loss_and_grads(weights["w"], propagated, labels, rows, wd)

        def loss_and_grads():
            loss, (dw,) = next(steps)
            return loss, {"w": dw}

    # copied: the generator overwrites its gradient buffers on every next()
    analytic = {name: grad.copy() for name, grad in loss_and_grads()[1].items()}
    worst = 0.0
    h_step = 1e-5
    for name, w in weights.items():
        coords = [(int(a), int(b)) for a, b in
                  zip(rng.integers(0, w.shape[0], n_coords),
                      rng.integers(0, w.shape[1], n_coords))]
        for a, b in coords:
            orig = w[a, b]
            w[a, b] = orig + h_step
            up = loss_and_grads()[0]
            w[a, b] = orig - h_step
            down = loss_and_grads()[0]
            w[a, b] = orig
            numeric = (up - down) / (2 * h_step)
            denom = max(abs(analytic[name][a, b]), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic[name][a, b] - numeric) / denom)
    return worst


@pytest.mark.parametrize("kind", ["sgc", "sage_mean"])
def test_victim_gradients_match_finite_differences(kind):
    assert sampled_numeric_grad_check(kind) <= 1e-4


def test_predict_tie_breaks_to_class_zero():
    g = clustered_graph(n=6)
    model = TrainedModel(
        kind="sgc",
        weights={"w": np.zeros((3, 2))},
        config=VictimConfig(hidden=2, epochs=1),
    )
    preds = predict(model, g, np.ones((6, 3)))
    assert np.all(preds == 0)


def test_predictions_respond_to_graph_argument():
    g = clustered_graph()
    X = block_features(g)
    model = train_victim("gcn", g, X, VictimConfig(hidden=8, epochs=80, seed=2))
    # rewire node 2 fully into the other block and zero out its own color
    half = g.node_count // 2
    edges = {e for e in g.edges if 2 not in e}
    edges |= {(2, j) for j in range(half, half + 6)}
    X2 = X.copy()
    X2[2] = np.array([0.0, 2.0, 0.1])
    g2 = g.with_changes(edges=edges)
    clean_pred = predict(model, g, X)[2]
    pert_pred = predict(model, g2, X2)[2]
    assert clean_pred == 0
    assert pert_pred == 1


def test_accuracy_validation_and_extremes():
    g = clustered_graph(n=16)
    X = block_features(g)
    model = train_victim("sgc", g, X, VictimConfig(hidden=4, epochs=150, seed=5))
    with pytest.raises(DegenerateInputError):
        accuracy(model, g, X, [])
    all_nodes = list(range(g.node_count))
    assert accuracy(model, g, X, all_nodes) == 1.0
    flipped = TextAttributedGraph.build(
        texts=g.texts, labels=[1 - l for l in g.labels], splits=g.splits,
        edges=g.edges,
    )
    assert accuracy(model, flipped, X, all_nodes) == 0.0


def test_shape_and_kind_validation():
    g = clustered_graph(n=6)
    with pytest.raises(ConfigurationError):
        train_victim("gat", g, np.ones((6, 3)))
    for kinds in (["gcn", "gat"], []):
        with pytest.raises(ConfigurationError):
            train_victims(kinds, g, np.ones((6, 3)))
    with pytest.raises(ShapeError):
        train_victim("gcn", g, np.ones((5, 3)))
    model = train_victim("gcn", g, block_features(g), VictimConfig(hidden=3, epochs=2))
    with pytest.raises(ShapeError):
        victim_logits(model, g, np.ones((6, 9)))


def test_permutation_equivariance():
    g = clustered_graph(n=12)
    X = block_features(g)
    model = train_victim("sage_mean", g, X, VictimConfig(hidden=5, epochs=20, seed=6))
    rng = substream(21, "perm")
    perm = rng.permutation(g.node_count)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(g.node_count)
    g_perm = TextAttributedGraph.build(
        texts=[g.texts[int(inv[i])] for i in range(g.node_count)],
        labels=[g.labels[int(inv[i])] for i in range(g.node_count)],
        splits=[g.splits[int(inv[i])] for i in range(g.node_count)],
        edges=[(int(perm[u]), int(perm[v])) for u, v in g.edges],
    )
    X_perm = X[inv]
    logits = victim_logits(model, g, X)
    logits_perm = victim_logits(model, g_perm, X_perm)
    np.testing.assert_allclose(logits_perm, logits[inv], atol=1e-10)


@pytest.mark.parametrize("kind", ["gcn", "sgc", "sage_mean"])
def test_propagation_built_once_per_graph_and_read_only(monkeypatch, kind):
    import tagsiege.graph as graph_module

    g = clustered_graph(n=22, seed=9)
    X = block_features(g)
    model = train_victim(kind, g, X, VictimConfig(epochs=5, seed=2))
    builder, prop = (
        ("mean_aggregation", "mean_propagation") if kind == "sage_mean"
        else ("normalize_adjacency", "gcn_propagation")
    )
    fresh = getattr(graph_module, builder)(g)
    expected = {
        "gcn": lambda: forward(model.weights, fresh, X)[0],
        "sgc": lambda: sgc_logits(fresh, X, model.weights["w"], model.config.sgc_steps),
        "sage_mean": lambda: sage_logits(fresh, X, model.weights),
    }[kind]()

    builds = []
    real = getattr(graph_module, builder)
    monkeypatch.setattr(graph_module, builder, lambda graph: builds.append(graph) or real(graph))
    for nodes in ([0, 1, 2], [5, 17], list(range(22))):
        accuracy(model, g, X, nodes)
    assert np.array_equal(victim_logits(model, g, X), expected)
    assert builds == []  # training already built it for this graph

    other = g.with_changes(edges=sorted(g.edges)[1:])
    predict(model, other, X)
    predict(model, other, X)
    assert builds == [other]

    cached = getattr(g, prop)
    for array in (cached.data, cached.indices, cached.indptr):
        with pytest.raises(ValueError):
            array[0] = 5
