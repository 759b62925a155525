"""Acceptance gate: seven criteria covering correctness oracles, synthetic
attack efficacy, synergy, stealth, query efficiency, determinism, and the
anchor-consistency ablation.

Each criterion prints one pass/fail line (visible with ``pytest -s``). The
heavyweight synthetic experiment runs once and is shared across criteria.
"""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from tagsiege.attack import attack
from tagsiege.backends import OracleBackend
from tagsiege.baselines import flip_attack, rnd_attack
from tagsiege.cli import main
from tagsiege.encoder import (
    EncoderConfig,
    encode,
    forward,
    normalize_adjacency,
    train_encoder,
)
from tagsiege.graph import TextAttributedGraph
from tagsiege.metrics import bound_audit, homophily_edge, synergy_test
from tagsiege.plan import Budgets, apply_plan, edit_counts
from tagsiege.retrieval import retrieve_influencers
from tagsiege.seeding import substream
from tagsiege.synth import SynthConfig, generate
from tagsiege.text_features import Vocabulary, build_vocabulary, featurize
from tagsiege.victims import (
    VICTIM_KINDS,
    VictimConfig,
    accuracy,
    sgc_logits,
    train_victim,
)

from gradient_reference import gradient_check
from test_encoder import gcn_weights

SEED = 1
NUM_TARGETS = 30
TEXT_BUDGET = 12  # the CLI's default --text-budget


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def random_graph(n: int, seed: int, p: float = 0.15) -> TextAttributedGraph:
    rng = substream(seed, "acceptance-graph")
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    if not edges:
        edges = [(0, 1)]
    return TextAttributedGraph.build(
        texts=[f"node {i} text" for i in range(n)],
        labels=[i % 3 for i in range(n)],
        splits=["train"] * n,
        edges=edges,
        class_count=3,
    )


# ---------------------------------------------------------------------------
# criterion 1: correctness oracles (< 1 min)


def test_criterion_1_correctness_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(11)

    # normalized adjacency vs a dense re-derivation
    g = random_graph(50, seed=3)
    a = np.zeros((50, 50))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    a += np.eye(50)
    d = np.diag(1.0 / np.sqrt(a.sum(axis=1)))
    dense = d @ a @ d
    adjacency_err = np.max(np.abs(normalize_adjacency(g).toarray() - dense))

    # encoder forward vs an index-by-index re-implementation
    X = rng.normal(size=(50, 7))
    params = gcn_weights(7, hidden=5, class_count=3, seed=4)
    logits, hidden = forward(params, normalize_adjacency(g), X)
    naive_h = np.maximum(dense @ (X @ params["w1"]), 0.0)
    naive_logits = dense @ (naive_h @ params["w2"])
    forward_err = max(
        np.max(np.abs(logits - naive_logits)), np.max(np.abs(hidden - naive_h))
    )

    # analytic gradients vs central differences on 10-node instances
    grad_errs = []
    for seed in (0, 1):
        small = random_graph(10, seed=seed, p=0.3)
        Xs = substream(seed, "acceptance-feat").normal(size=(10, 4))
        ps = gcn_weights(4, hidden=3, class_count=3, seed=seed)
        grad_errs.append(
            gradient_check(
                ps,
                normalize_adjacency(small),
                Xs,
                np.array(small.labels),
                np.arange(10),
                weight_decay=5e-4,
            )
        )

    # retrieval vs exhaustive sort on 50 random embeddings
    Z = rng.normal(size=(50, 8))
    retrieval_ok = True
    for target in range(50):
        norms = np.linalg.norm(Z, axis=1) * np.linalg.norm(Z[target])
        dissim = 1.0 - (Z @ Z[target]) / norms
        expected = sorted(
            (i for i in range(50) if i != target), key=lambda i: (-dissim[i], i)
        )[:5]
        got = list(retrieve_influencers(Z, target, k=5).candidates)
        retrieval_ok = retrieval_ok and got == expected

    # oracle edit choices vs brute-force argmax/argmin
    vocab = Vocabulary.from_texts(g.texts)
    oracle = OracleBackend(g, Z, vocab)
    oracle_ok = True
    for target in (0, 17, 42):
        sets = retrieve_influencers(Z, target, k=5)
        neighbors = list(g.neighbors(target))
        pool = [c for c in sets.candidates if c != target and not g.has_edge(target, c)]
        if not neighbors or not pool:
            continue
        prompt = SimpleNamespace(
            target=target, neighbor_ids=tuple(neighbors), candidate_ids=tuple(pool)
        )
        decision = oracle.topology_decision(prompt)

        def sim(a, b):
            return float(
                Z[a] @ Z[b] / (np.linalg.norm(Z[a]) * np.linalg.norm(Z[b]))
            )

        best_delete = max(neighbors, key=lambda v: (sim(target, v), -v))
        best_add = min(pool, key=lambda v: (sim(target, v), v))
        oracle_ok = (
            oracle_ok
            and decision.delete_choice == best_delete
            and decision.add_choice == best_add
        )

    # SGC is exactly a linear two-layer GCN
    w1 = rng.normal(size=(7, 5))
    w2 = rng.normal(size=(5, 3))
    a_hat = normalize_adjacency(g)
    sgc_err = np.max(
        np.abs(
            a_hat @ ((a_hat @ (X @ w1)) @ w2)
            - sgc_logits(a_hat, X, w1 @ w2, steps=2)
        )
    )

    elapsed = time.perf_counter() - started
    ok = (
        adjacency_err <= 1e-12
        and forward_err <= 1e-10
        and max(grad_errs) <= 1e-4
        and retrieval_ok
        and oracle_ok
        and sgc_err <= 1e-8
        and elapsed < 60
    )
    report(
        "1 correctness-oracles",
        ok,
        f"adjacency {adjacency_err:.1e}, forward {forward_err:.1e}, "
        f"grad {max(grad_errs):.1e}, retrieval {'ok' if retrieval_ok else 'BAD'}, "
        f"oracle-edits {'ok' if oracle_ok else 'BAD'}, sgc {sgc_err:.1e}, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# the shared synthetic experiment (criteria 2, 3, 5, 7)


@pytest.fixture(scope="module")
def experiment():
    started = time.perf_counter()
    graph = generate(SynthConfig())
    vocab = build_vocabulary(graph)
    features = featurize(graph.texts, vocab)
    victims = {
        kind: train_victim(kind, graph, features, VictimConfig(seed=SEED))
        for kind in VICTIM_KINDS
    }
    encoder = train_encoder(graph, features, EncoderConfig(seed=SEED))
    embeddings = encode(encoder, graph, features)

    pool = sorted(graph.split_nodes("test"))
    rng = substream(SEED, "targets")
    targets = sorted(rng.choice(pool, size=NUM_TARGETS, replace=False).tolist())
    budgets = Budgets.for_targets(NUM_TARGETS)

    backend = OracleBackend(graph, embeddings, vocab)
    plan = attack(graph, targets, embeddings, backend, TEXT_BUDGET, seed=SEED)
    perturbed = apply_plan(graph, plan).graph

    def featurize_fn(texts):
        return featurize(texts, vocab)

    perturbed_features = featurize_fn(perturbed.texts)
    clean_accuracy = {
        kind: accuracy(model, graph, features, targets) for kind, model in victims.items()
    }
    perturbed_accuracy = {
        kind: accuracy(model, perturbed, perturbed_features, targets)
        for kind, model in victims.items()
    }
    drops = {kind: clean_accuracy[kind] - perturbed_accuracy[kind] for kind in victims}

    return SimpleNamespace(
        graph=graph,
        vocab=vocab,
        features=features,
        victims=victims,
        embeddings=embeddings,
        targets=targets,
        budgets=budgets,
        backend=backend,
        plan=plan,
        perturbed=perturbed,
        perturbed_features=perturbed_features,
        featurize_fn=featurize_fn,
        clean_accuracy=clean_accuracy,
        perturbed_accuracy=perturbed_accuracy,
        drops=drops,
        elapsed=time.perf_counter() - started,
    )


def test_criterion_2_synthetic_efficacy(experiment):
    e = experiment
    test_nodes = list(e.graph.split_nodes("test"))
    clean_gcn = accuracy(e.victims["gcn"], e.graph, e.features, test_nodes)

    rnd_plan = rnd_attack(e.graph, e.targets, e.budgets, seed=SEED)
    flip_plan = flip_attack(e.graph, e.targets, e.budgets)
    rnd_graph = apply_plan(e.graph, rnd_plan).graph
    flip_graph = apply_plan(e.graph, flip_plan).graph

    strictly_best = True
    big_drops = 0
    lines = []
    for kind, model in e.victims.items():
        clean_acc = accuracy(model, e.graph, e.features, e.targets)
        rnd_drop = clean_acc - accuracy(model, rnd_graph, e.features, e.targets)
        flip_drop = clean_acc - accuracy(model, flip_graph, e.features, e.targets)
        ours = e.drops[kind]
        strictly_best = strictly_best and ours > rnd_drop and ours > flip_drop
        big_drops += ours >= 0.25
        lines.append(f"{kind} ours {ours:.3f} rnd {rnd_drop:.3f} flip {flip_drop:.3f}")

    ok = (
        clean_gcn >= 0.85
        and big_drops >= 2
        and strictly_best
        and e.elapsed < 300
    )
    report(
        "2 synthetic-efficacy",
        ok,
        f"clean gcn {clean_gcn:.3f}; " + "; ".join(lines) + f"; {e.elapsed:.1f}s",
    )


def test_criterion_3_synergy(experiment):
    e = experiment
    rows = synergy_test(
        e.graph, e.perturbed, e.features, e.perturbed_features, e.victims, e.targets,
        e.clean_accuracy, e.perturbed_accuracy,
    )
    hard_all = all(row["synergy_hard"] for row in rows.values())
    soft_count = sum(row["synergy_soft"] for row in rows.values())
    detail = "; ".join(
        f"{kind} struct {row['drop_struct']:.3f} text {row['drop_text']:.3f} "
        f"joint {row['drop_joint']:.3f}"
        for kind, row in sorted(rows.items())
    )
    ok = hard_all and soft_count >= 2
    report(
        "3 synergy",
        ok,
        f"hard on all: {hard_all}; soft on {soft_count}/3; {detail}",
    )


# ---------------------------------------------------------------------------
# criterion 4: stealth with at most 5% of nodes targeted


def test_criterion_4_stealth(experiment):
    e = experiment
    node_count = e.graph.node_count
    stealth_n = node_count // 20  # 5% of nodes
    pool = sorted(e.graph.split_nodes("test"))
    rng = substream(SEED, "stealth-targets")
    targets = sorted(rng.choice(pool, size=stealth_n, replace=False).tolist())
    backend = OracleBackend(e.graph, e.embeddings, e.vocab)
    plan = attack(e.graph, targets, e.embeddings, backend, TEXT_BUDGET, seed=SEED)
    perturbed = apply_plan(e.graph, plan).graph

    audit = bound_audit(
        e.graph,
        perturbed,
        e.features,
        e.featurize_fn(perturbed.texts),
    )
    delta_ok = abs(audit["delta_H_edge"]) <= 0.02

    # bookkeeping: the audit count equals the distinct planned edits and
    # stays within the budget ceiling of 2 edits per targeted node
    edits = set()
    for entry in plan.entries.values():
        if entry.delete_neighbor is not None:
            edits.add(frozenset((entry.target, entry.delete_neighbor)))
        edits.add(frozenset((entry.target, entry.add_influencer)))
    edge_edits, _, edge_ratio = edit_counts(e.graph, perturbed)
    clean_edges = e.graph.edge_count
    bookkeeping_ok = (
        edge_edits == len(edits)
        and edge_edits <= 2 * stealth_n
        and edge_ratio == pytest.approx(edge_edits / clean_edges)
        and edge_ratio <= 0.05 * node_count * 2 / clean_edges
    )

    # single-edge-flip sensitivity: |delta H_edge| <= 2/|E| for any one flip
    h_clean = homophily_edge(e.graph, e.features)
    flip_rng = substream(SEED, "single-flips")
    flips_ok = True
    edges = e.graph.sorted_edges()
    for _ in range(5):
        u, v = edges[int(flip_rng.integers(len(edges)))]
        removed = e.graph.with_changes(edges=e.graph.edges - {(u, v)})
        flips_ok = flips_ok and abs(
            homophily_edge(removed, e.features) - h_clean
        ) <= 2 / clean_edges
        a, b = sorted(flip_rng.integers(0, node_count, size=2).tolist())
        if a != b and not e.graph.has_edge(a, b):
            added = e.graph.with_changes(edges=e.graph.edges | {(a, b)})
            flips_ok = flips_ok and abs(
                homophily_edge(added, e.features) - h_clean
            ) <= 2 / clean_edges

    ok = delta_ok and bookkeeping_ok and flips_ok
    report(
        "4 stealth",
        ok,
        f"|dH_edge| {abs(audit['delta_H_edge']):.5f} <= 0.02 with "
        f"{stealth_n}/{node_count} targeted; edge_edits {edge_edits} "
        f"(ratio {edge_ratio:.5f}); single-flip bound "
        f"{'holds' if flips_ok else 'VIOLATED'}",
    )


def test_criterion_5_query_efficiency(experiment):
    e = experiment
    expected = 2 * len(e.plan.entries)
    ok = e.backend.query_count == expected == 2 * NUM_TARGETS
    report(
        "5 query-efficiency",
        ok,
        f"query_count {e.backend.query_count} for {len(e.plan.entries)} "
        f"completed targets",
    )


# ---------------------------------------------------------------------------
# criterion 6: manifest replay determinism through the CLI


def test_criterion_6_determinism(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--seed", "0"]) == 0

    run = tmp_path / "attack"
    code = main(
        [
            "attack",
            "--data", str(data),
            "--out", str(run),
            "--num-targets", "10",
            "--seed", str(SEED),
        ]
    )
    assert code == 0

    evaluation = tmp_path / "eval"
    code = main(
        [
            "evaluate",
            "--clean", str(data),
            "--perturbed", str(run / "perturbed"),
            "--plan", str(run / "plan.jsonl"),
            "--out", str(evaluation),
            "--seed", str(SEED),
        ]
    )
    assert code == 0

    replays = {
        "synth": (data, tmp_path / "data2", ["nodes.jsonl", "edges.csv"]),
        "attack": (
            run,
            tmp_path / "attack2",
            ["plan.jsonl", "perturbed/nodes.jsonl", "perturbed/edges.csv"],
        ),
        "evaluate": (
            evaluation,
            tmp_path / "eval2",
            ["report.json", "summary.csv"],
        ),
    }
    identical = {}
    for name, (original, copy, files) in replays.items():
        assert main(["replay", str(original / "manifest.json"), "--out", str(copy)]) == 0
        identical[name] = all(
            (original / f).read_bytes() == (copy / f).read_bytes() for f in files
        )

    manifest = json.loads((run / "manifest.json").read_text())
    queries_ok = manifest["query_count"] == 2 * manifest["completed"] == 20

    ok = all(identical.values()) and queries_ok
    report(
        "6 determinism",
        ok,
        "byte-identical replays: "
        + ", ".join(f"{k}={v}" for k, v in sorted(identical.items()))
        + f"; manifest queries {manifest['query_count']}",
    )


# ---------------------------------------------------------------------------
# criterion 7: anchor-consistency ablation


def test_criterion_7_anchor_mismatch(experiment):
    e = experiment
    backend = OracleBackend(e.graph, e.embeddings, e.vocab)
    mismatched_plan = attack(
        e.graph,
        e.targets,
        e.embeddings,
        backend,
        TEXT_BUDGET,
        seed=SEED,
        anchor_mismatch=True,
    )
    mismatched = apply_plan(e.graph, mismatched_plan).graph
    mismatched_x = e.featurize_fn(mismatched.texts)

    reduced = 0
    lines = []
    for kind, model in e.victims.items():
        clean_acc = accuracy(model, e.graph, e.features, e.targets)
        drop = clean_acc - accuracy(model, mismatched, mismatched_x, e.targets)
        reduced += drop < e.drops[kind]
        lines.append(f"{kind} aligned {e.drops[kind]:.3f} mismatched {drop:.3f}")

    ok = reduced >= 2
    report(
        "7 anchor-mismatch",
        ok,
        f"drop reduced on {reduced}/3 victims; " + "; ".join(lines),
    )
