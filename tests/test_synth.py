import math

import numpy as np
import pytest

from tagsiege.errors import ConfigurationError
from tagsiege.graph import load_graph, save_graph
from tagsiege.metrics import homophily_edge
from tagsiege.seeding import substream
from tagsiege.synth import SynthConfig, generate, summarize
from tagsiege.text_features import Vocabulary, featurize, tokenize


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SynthConfig(p_in=0.01, p_out=0.05)
    with pytest.raises(ConfigurationError):
        SynthConfig(p_in=1.5)
    with pytest.raises(ConfigurationError, match="at most 1"):
        SynthConfig(train_frac=0.9)
    with pytest.raises(ConfigurationError, match="non-negative"):
        SynthConfig(val_frac=-0.1)
    with pytest.raises(ConfigurationError):
        SynthConfig(node_count=3, class_count=5)


def test_balanced_labels_and_valid_graph():
    g = generate(SynthConfig(node_count=102, class_count=4, seed=3))
    counts = [g.labels.count(c) for c in range(4)]
    assert max(counts) - min(counts) <= 1
    assert g.class_count == 4
    # splits stratified per class
    for c in range(4):
        members = [i for i in range(g.node_count) if g.labels[i] == c]
        train = [i for i in members if g.splits[i] == "train"]
        assert len(train) == round(0.6 * len(members))


def test_test_split_takes_what_train_and_val_leave():
    g = generate(SynthConfig(node_count=100, class_count=2, train_frac=0.5, seed=3))
    for c in range(2):
        splits = [s for s, label in zip(g.splits, g.labels) if label == c]
        assert [splits.count(s) for s in ("train", "val", "test")] == [25, 10, 15]


def test_seed_determinism_bytes(tmp_path):
    cfg = SynthConfig(node_count=80, seed=11)
    g1 = generate(cfg)
    g2 = generate(cfg)
    assert g1 == g2
    save_graph(g1, tmp_path / "a")
    save_graph(g2, tmp_path / "b")
    for name in ("nodes.jsonl", "edges.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert generate(SynthConfig(node_count=80, seed=12)) != g1


def test_single_class_graph_is_all_intra():
    g = generate(SynthConfig(node_count=60, class_count=1, p_in=0.1, p_out=0.0,
                             noise_rate=0.0, class_vocab_size=4,
                             shared_vocab_size=0, seed=5))
    assert summarize(g)["inter_class_edges"] == 0
    # one class, one tiny vocabulary: endpoint texts overlap heavily
    vocab = Vocabulary.from_texts(g.texts)
    X = featurize(g.texts, vocab)
    assert homophily_edge(g, X) > 0.5


def test_edge_counts_within_three_sigma_of_binomial():
    cfg = SynthConfig()  # 300 nodes, C=4, p_in=0.05, p_out=0.005
    g = generate(cfg)
    labels = g.labels
    n = cfg.node_count
    intra_pairs = sum(
        1 for u in range(n) for v in range(u + 1, n) if labels[u] == labels[v]
    )
    inter_pairs = n * (n - 1) // 2 - intra_pairs
    intra = sum(1 for u, v in g.edges if labels[u] == labels[v])
    inter = g.edge_count - intra
    for count, pairs, p in ((intra, intra_pairs, cfg.p_in), (inter, inter_pairs, cfg.p_out)):
        mean = pairs * p
        sigma = math.sqrt(pairs * p * (1 - p))
        assert abs(count - mean) <= 3 * sigma


def test_texts_use_class_vocabulary():
    cfg = SynthConfig(node_count=40, class_count=2, noise_rate=0.0, seed=2)
    g = generate(cfg)
    for i, text in enumerate(g.texts):
        own_prefix = f"c{g.labels[i]}w"
        other_prefix = f"c{1 - g.labels[i]}w"
        toks = tokenize(text)
        assert any(t.startswith(own_prefix) for t in toks)
        assert not any(t.startswith(other_prefix) for t in toks)


def test_summarize_shape():
    g = generate(SynthConfig(node_count=50, seed=7))
    s = summarize(g)
    assert s["node_count"] == 50
    assert s["intra_class_edges"] + s["inter_class_edges"] == s["edge_count"]
    assert 0.0 <= s["isolated_fraction"] <= 1.0
    assert sum(s["split_sizes"].values()) == 50


def test_default_graph_roundtrips_bit_identically(tmp_path):
    g = generate(SynthConfig())
    save_graph(g, tmp_path / "d1")
    loaded = load_graph(tmp_path / "d1")
    assert loaded == g
    save_graph(loaded, tmp_path / "d2")
    for name in ("nodes.jsonl", "edges.csv"):
        assert (tmp_path / "d1" / name).read_bytes() == (
            tmp_path / "d2" / name
        ).read_bytes()


def scalar_edges(config):
    """Reference: one scalar draw per pair u < v, in row-major pair order."""
    labels = [i % config.class_count for i in range(config.node_count)]
    rng = substream(config.seed, "synth-edges")
    edges = set()
    for u in range(config.node_count):
        for v in range(u + 1, config.node_count):
            p = config.p_in if labels[u] == labels[v] else config.p_out
            if rng.random() < p:
                edges.add((u, v))
    return edges


@pytest.mark.parametrize("config", [
    *(SynthConfig(node_count=120, seed=s) for s in (0, 1, 7, 23)),
    SynthConfig(node_count=97, class_count=5, p_in=0.3, p_out=0.1, seed=4),
    SynthConfig(node_count=2, class_count=1, p_in=0.6, p_out=0.0, seed=2),
    SynthConfig(node_count=2, class_count=2, p_in=1.0, p_out=0.5, seed=3),
    SynthConfig(node_count=40, class_count=1, p_in=0.2, p_out=0.0, seed=5),
    SynthConfig(node_count=30, class_count=3, p_in=1.0, p_out=0.0, seed=6),
])
def test_edges_equal_scalar_pair_loop(config):
    assert set(generate(config).edges) == scalar_edges(config)
