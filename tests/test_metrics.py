from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagsiege.backends import OracleBackend
from tagsiege.attack import attack
from tagsiege.errors import DegenerateInputError, ShapeError
from tagsiege.graph import TextAttributedGraph
from tagsiege.metrics import (
    aggregate,
    bound_audit,
    homophily_edge,
    homophily_node,
    synergy_row,
    synergy_test,
)
from tagsiege.nnops import csr_rows
from tagsiege.plan import PerturbationPlan, PlanEntry, apply_plan
from tagsiege.seeding import substream
from tagsiege.text_features import Vocabulary, featurize
from tagsiege.victims import VictimConfig, accuracy, train_victim

from cosine_reference import cosine


def triangle():
    return TextAttributedGraph.build(
        texts=["a", "a", "b"], labels=[0, 0, 1], splits=["train"] * 3,
        edges=[(0, 1), (1, 2), (0, 2)],
    )


ONE_HOTS = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_homophily_identical_features_is_one():
    g = triangle()
    X = np.tile([2.0, 1.0], (3, 1))
    assert homophily_edge(g, X) == pytest.approx(1.0)
    assert homophily_node(g, X) == pytest.approx(1.0)


def test_homophily_triangle_one_hot_arithmetic():
    g = triangle()
    assert homophily_edge(g, ONE_HOTS) == pytest.approx(1 / 3)
    # node-centric: nodes 0 and 1 average (1+0)/2, node 2 averages 0
    assert homophily_node(g, ONE_HOTS) == pytest.approx((0.5 + 0.5 + 0.0) / 3)


def test_homophily_matches_bruteforce_double_loop():
    rng = substream(6, "homophily-brute")
    n = 30
    edges = set()
    while len(edges) < 60:
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v:
            edges.add((u, v))
    g = TextAttributedGraph.build(
        texts=[f"t{i}" for i in range(n)], labels=[0] * n,
        splits=["train"] * n, edges=sorted(edges),
    )
    X = rng.normal(size=(n, 5))

    def cos(u, v):
        return float(X[u] @ X[v] / (np.linalg.norm(X[u]) * np.linalg.norm(X[v])))

    edge_vals = [cos(u, v) for u, v in sorted(edges)]
    assert homophily_edge(g, X) == pytest.approx(np.mean(edge_vals), abs=1e-12)
    node_vals = []
    for i in range(n):
        nbrs = [v for (u, v) in edges if u == i] + [u for (u, v) in edges if v == i]
        if nbrs:
            node_vals.append(np.mean([cos(i, j) for j in nbrs]))
    assert homophily_node(g, X) == pytest.approx(np.mean(node_vals), abs=1e-12)


def test_homophily_scale_invariance():
    g = triangle()
    rng = substream(2, "homophily-scale")
    X = rng.normal(size=(3, 4))
    scales = np.array([[0.5], [3.0], [7.0]])
    assert homophily_edge(g, X * scales) == pytest.approx(homophily_edge(g, X))
    assert homophily_node(g, X * scales) == pytest.approx(homophily_node(g, X))


def test_homophily_requires_edges_and_shape():
    g = TextAttributedGraph.build(
        texts=["a", "b"], labels=[0, 1], splits=["train"] * 2, edges=[],
    )
    with pytest.raises(DegenerateInputError):
        homophily_edge(g, np.ones((2, 2)))
    with pytest.raises(ShapeError):
        homophily_edge(triangle(), np.ones((5, 2)))


def test_bound_audit_identical_inputs_all_zero():
    g = triangle()
    audit = bound_audit(g, g, ONE_HOTS, ONE_HOTS)
    assert audit["delta_H_edge"] == 0.0
    assert audit["delta_H_node"] == 0.0
    assert audit["edge_ratio"] == 0.0
    assert audit["tau_max"] == 0.0
    assert audit["lipschitz_est"] == 0.0
    assert audit["empirical_ratio"] == 0.0


def single_flip_bound_case(seed):
    """One random edge flip on a random graph; |ΔH_edge| must obey 2/|E|."""
    rng = substream(seed, "single-flip")
    n = 40
    edges = set()
    while len(edges) < 120:
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v:
            edges.add((u, v))
    g = TextAttributedGraph.build(
        texts=[f"t{i}" for i in range(n)], labels=[0] * n,
        splits=["train"] * n, edges=sorted(edges),
    )
    X = rng.normal(size=(n, 6))
    removed = sorted(edges)[int(rng.integers(0, len(edges)))]
    g2 = g.with_changes(edges=edges - {removed})
    h1 = homophily_edge(g, X)
    h2 = homophily_edge(g2, X)
    return abs(h2 - h1), 2 / g.edge_count


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_single_edge_flip_homophily_sensitivity(seed):
    delta, bound = single_flip_bound_case(seed)
    assert delta <= bound


def test_bound_audit_reports_drift_components():
    g = triangle()
    vocab = Vocabulary.from_texts(g.texts)
    g2 = g.with_changes(texts=["a b", "a", "b"])
    X1 = featurize(g.texts, vocab)
    X2 = featurize(g2.texts, vocab)
    audit = bound_audit(g, g2, X1, X2)
    # one node changed, one token added
    assert audit["tau_max"] > 0.0
    assert audit["tau_max"] == pytest.approx(audit["tau_mean"])
    assert audit["lipschitz_est"] == pytest.approx(audit["tau_max"])  # 1 edit
    assert audit["edge_ratio"] == 0.0
    assert audit["text_edits"] == 1.0


def test_bound_audit_rejects_features_of_different_widths():
    # equal features but for one all-zero column more: a drift keyed by each
    # matrix's own width would put one row's entries under another row
    g = triangle()
    g2 = g.with_changes(texts=["a", "b", "a"])
    clean = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 0.0, 5.0]])
    wider = np.hstack([clean, np.zeros((3, 1))])
    for form in (np.asarray, csr_rows):
        with pytest.raises(ShapeError, match="feature shapes"):
            bound_audit(g, g2, form(clean), form(wider))


def test_aggregate_worked_example():
    out = aggregate([0.8, 0.6, 0.4])
    assert out["average"] == pytest.approx(0.6)
    assert out["three_max"] == pytest.approx(0.6)
    assert out["weighted"] == pytest.approx((4 / 7) * 0.8 + (2 / 7) * 0.6 + (1 / 7) * 0.4)


def test_aggregate_all_equal_rows():
    out = aggregate([0.7, 0.7, 0.7, 0.7])
    assert out["average"] == pytest.approx(0.7)
    assert out["three_max"] == pytest.approx(0.7)
    assert out["weighted"] == pytest.approx(0.7)


def test_aggregate_three_max_needs_three_rows():
    out = aggregate([0.9, 0.2])
    assert out["three_max"] is None
    assert out["three_max_available"] is False


def test_aggregate_three_max_matches_sort_oracle():
    rng = substream(9, "aggregate")
    rows = rng.uniform(0, 1, size=5).tolist()
    out = aggregate(rows)
    assert out["three_max"] == pytest.approx(np.mean(sorted(rows)[-3:]))
    assert out["three_max"] >= out["average"]


@given(st.lists(st.floats(0, 1), min_size=1, max_size=6))
@settings(max_examples=60)
def test_aggregate_weighted_is_convex(rows):
    out = aggregate(rows)
    assert min(rows) - 1e-9 <= out["weighted"] <= max(rows) + 1e-9
    if len(rows) >= 3:
        assert out["three_max"] >= out["average"] - 1e-12


def test_aggregate_rejects_bad_input():
    with pytest.raises(DegenerateInputError):
        aggregate([])
    with pytest.raises(DegenerateInputError):
        aggregate([1.2])


def synergy_fixture():
    """Two-block graph, victims, and a joint plan from the oracle attack."""
    rng = substream(31, "synergy")
    n = 40
    half = n // 2
    edges = []
    for block in (range(half), range(half, n)):
        block = list(block)
        for idx, i in enumerate(block):
            for j in block[idx + 1:]:
                if rng.random() < 0.35:
                    edges.append((i, j))
    edges.append((0, half))
    class_words = [["alpha", "beta", "gamma"], ["omega", "psi", "chi"]]
    texts = []
    labels = []
    for i in range(n):
        label = 0 if i < half else 1
        toks = [class_words[label][int(x)] for x in rng.integers(0, 3, size=4)]
        texts.append(" ".join(toks + [f"id{i}"]))
        labels.append(label)
    splits = ["train" if i % 4 != 3 else "test" for i in range(n)]
    g = TextAttributedGraph.build(texts=texts, labels=labels, splits=splits, edges=edges)
    vocab = Vocabulary.from_texts(g.texts)

    def feats(texts_seq):
        return featurize(texts_seq, vocab)

    X = feats(g.texts)
    victims = {
        kind: train_victim(kind, g, X, VictimConfig(hidden=16, epochs=120, seed=4))
        for kind in ("gcn", "sgc", "sage_mean")
    }
    Z = np.vstack([
        [1.0, 0.0] if g.labels[i] == 0 else [0.0, 1.0] for i in range(n)
    ]) + 0.01 * substream(1, "synergy-emb").normal(size=(n, 2))
    targets = [1, 5, 9, 21, 25, 29]
    plan = attack(g, targets, Z, OracleBackend(g, Z, vocab), 8, seed=3)
    return g, plan, victims, feats, targets


def measured_synergy(g, joint, victims, feats, targets):
    """synergy_test on `joint`, given the clean and joint accuracies it takes."""
    x_clean, x_joint = feats(g.texts), feats(joint.texts)

    def accuracies(graph, x):
        return {kind: accuracy(model, graph, x, targets) for kind, model in victims.items()}

    return synergy_test(
        g, joint, x_clean, x_joint, victims, targets,
        accuracies(g, x_clean), accuracies(joint, x_joint),
    )


def test_synergy_empty_plan_is_all_zero():
    g, _, victims, feats, targets = synergy_fixture()
    # an empty plan leaves the joint graph equal to the clean one
    rows = measured_synergy(g, g, victims, feats, targets)
    for row in rows.values():
        assert row["drop_struct"] == row["drop_text"] == row["drop_joint"] == 0.0
        assert row["synergy_hard"]
        assert not row["synergy_soft"]


def test_synergy_structure_only_plan_has_zero_text_drop():
    g, plan, victims, feats, targets = synergy_fixture()
    stripped = PerturbationPlan(entries={
        t: replace(e, keyword=None, new_text=None) for t, e in plan.entries.items()
    })
    joint = apply_plan(g, stripped).graph
    rows = measured_synergy(g, joint, victims, feats, targets)
    for row in rows.values():
        assert row["drop_text"] == 0.0
        assert row["drop_struct"] == pytest.approx(row["drop_joint"])


def test_synergy_joint_dominates_each_modality():
    g, plan, victims, feats, targets = synergy_fixture()
    rows = measured_synergy(g, apply_plan(g, plan).graph, victims, feats, targets)
    assert set(rows) == set(victims)
    for row in rows.values():
        assert row["synergy_hard"]


def test_synergy_row_flags():
    hard_only = synergy_row(drop_struct=0.3, drop_text=0.2, drop_joint=0.4)
    assert hard_only["synergy_hard"] and not hard_only["synergy_soft"]
    both = synergy_row(drop_struct=0.1, drop_text=0.1, drop_joint=0.5)
    assert both["synergy_hard"] and both["synergy_soft"]
    neither = synergy_row(drop_struct=0.3, drop_text=0.0, drop_joint=0.2)
    assert not neither["synergy_hard"]
    assert both == {
        "drop_struct": 0.1, "drop_text": 0.1, "drop_joint": 0.5,
        "synergy_hard": True, "synergy_soft": True,
    }
    assert both["synergy_soft"] is True


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_homophily_equals_per_edge_cosine_reference(seed):
    rng = substream(seed, "homophily-reference")
    n = 40
    edges = {tuple(sorted(rng.choice(n, size=2, replace=False).tolist())) for _ in range(90)}
    g = TextAttributedGraph.build(
        texts=[f"t{i}" for i in range(n)], labels=[0] * n,
        splits=["train"] * n, edges=edges,
    )
    X = rng.normal(size=(n, 7))
    X[[3, 11, 12]] = 0.0  # zero feature rows score 0.0 against everything
    edge_ref = float(np.mean([cosine(X[u], X[v]) for u, v in g.sorted_edges()]))
    node_means = []
    for i in range(n):
        if g.neighbors(i):
            total = 0.0  # left to right over the sorted neighbors
            for j in g.neighbors(i):
                total += cosine(X[i], X[j])
            node_means.append(total / len(g.neighbors(i)))
    node_ref = float(np.mean(node_means))
    for features in (X, csr_rows(X)):
        assert homophily_edge(g, features) == edge_ref
        assert homophily_node(g, features) == node_ref
