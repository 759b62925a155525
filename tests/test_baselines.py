import pytest

from tagsiege.baselines import flip_attack, rnd_attack
from tagsiege.errors import ConfigurationError
from tagsiege.graph import TextAttributedGraph
from tagsiege.plan import Budgets, PerturbationPlan, PlanEntry, apply_plan, edit_counts
from tagsiege.seeding import substream


def wheel_graph(n=20, seed=17):
    """Hub node 0 plus a rim; degrees vary widely."""
    rng = substream(seed, "baseline-graph")
    edges = [(0, i) for i in range(1, n)]
    edges += [(i, i + 1) for i in range(1, n - 1)]
    # sprinkle extra chords so degree ranks are not all tied
    for _ in range(6):
        u, v = sorted(rng.integers(1, n, size=2).tolist())
        if u != v:
            edges.append((u, v))
    return TextAttributedGraph.build(
        texts=[f"node {i} words" for i in range(n)],
        labels=[i % 2 for i in range(n)],
        splits=["train"] * n,
        edges=edges,
    )


def test_rnd_zero_budget_is_empty():
    g = wheel_graph()
    plan = rnd_attack(g, [1, 2, 3], Budgets(per_node_edge_budget=0,
                                            global_edge_budget=0), seed=1)
    assert len(plan) == 0


def test_rnd_deterministic_and_valid():
    g = wheel_graph()
    targets = [1, 5, 9, 13]
    budgets = Budgets.for_targets(len(targets))
    p1 = rnd_attack(g, targets, budgets, seed=7)
    p2 = rnd_attack(g, targets, budgets, seed=7)
    assert p1.entries == p2.entries
    applied = apply_plan(g, p1)
    edge_edits, text_edits, _ = edit_counts(g, applied.graph)
    assert edge_edits == 2 * len(p1)
    assert text_edits == 0  # structure-only


def test_rnd_different_seeds_differ():
    g = wheel_graph()
    targets = list(range(1, 11))
    budgets = Budgets.for_targets(len(targets))
    p1 = rnd_attack(g, targets, budgets, seed=1)
    p2 = rnd_attack(g, targets, budgets, seed=2)
    assert any(
        p1.entries[t].add_influencer != p2.entries[t].add_influencer
        for t in p1.entries
    )


def test_rnd_respects_choices():
    g = wheel_graph()
    budgets = Budgets.for_targets(5)
    plan = rnd_attack(g, [2, 4, 6, 8, 10], budgets, seed=5)
    for t, e in plan.entries.items():
        assert e.delete_neighbor in g.neighbors(t)
        assert not g.has_edge(t, e.add_influencer)
        assert e.new_text is None and e.keyword is None


def test_rnd_insertion_only_when_budget_one():
    g = wheel_graph()
    budgets = Budgets(per_node_edge_budget=1, global_edge_budget=10)
    plan = rnd_attack(g, [3, 4], budgets, seed=2)
    for e in plan.entries.values():
        assert e.delete_neighbor is None


def test_rnd_global_budget_stops_late_targets():
    g = wheel_graph()
    budgets = Budgets(per_node_edge_budget=2, global_edge_budget=4)
    plan = rnd_attack(g, [1, 2, 3, 4, 5], budgets, seed=3)
    assert len(plan) == 2  # 2 edits each


def test_flip_deletes_lowest_degree_neighbor_inserts_highest_degree():
    g = wheel_graph()
    degree = [g.degree(v) for v in range(g.node_count)]
    budgets = Budgets.for_targets(3)
    plan = flip_attack(g, [5, 9, 14], budgets)
    for t, e in plan.entries.items():
        nbrs = g.neighbors(t)
        assert e.delete_neighbor == min(nbrs, key=lambda v: (degree[v], v))
        non_nbrs = [v for v in range(g.node_count)
                    if v != t and not g.has_edge(t, v)]
        assert e.add_influencer == min(non_nbrs, key=lambda v: (-degree[v], v))


def test_flip_star_leaf_forced_choice():
    g = TextAttributedGraph.build(
        texts=["hub", "leaf one", "leaf two", "leaf three"],
        labels=[0, 1, 1, 1],
        splits=["train"] * 4,
        edges=[(0, 1), (0, 2), (0, 3)],
    )
    plan = flip_attack(g, [1], Budgets.for_targets(1))
    entry = plan.entries[1]
    assert entry.delete_neighbor == 0   # the hub is the only neighbor
    assert entry.add_influencer == 2    # leaves tie on degree; lowest id wins


def test_flip_tie_breaks_by_lowest_id():
    # nodes 1 and 2 both have max degree among non-neighbors of 4
    g = TextAttributedGraph.build(
        texts=["a", "b", "c", "d", "e"],
        labels=[0, 0, 1, 1, 0],
        splits=["train"] * 5,
        edges=[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
    )
    plan = flip_attack(g, [4], Budgets.for_targets(1))
    # non-neighbors of 4: 0, 1, 2 (degrees 2, 2, 2) -> id 0
    assert plan.entries[4].add_influencer == 0


def test_flip_is_deterministic_and_applies():
    g = wheel_graph()
    targets = [2, 7, 11]
    budgets = Budgets.for_targets(len(targets))
    p1 = flip_attack(g, targets, budgets)
    p2 = flip_attack(g, targets, budgets)
    assert p1.entries == p2.entries
    applied = apply_plan(g, p1)
    edge_edits, text_edits, _ = edit_counts(g, applied.graph)
    assert edge_edits == 2 * len(targets)
    assert text_edits == 0


def reference_rnd(graph, targets, budgets, seed):
    """Reference RND: non-neighbours found by a has_edge scan over all nodes."""
    plan = PerturbationPlan()
    spent = 0
    for target in sorted(set(targets)):
        local = budgets.per_node_edge_budget
        rng = substream(seed, f"rnd-{target}")
        neighbors = graph.neighbors(target)
        delete = None
        if local >= 2 and neighbors:
            delete = int(neighbors[rng.integers(0, len(neighbors))])
        non_neighbors = [
            v for v in range(graph.node_count)
            if v != target and not graph.has_edge(target, v)
        ]
        if local < 1 or not non_neighbors:
            continue
        insert = int(non_neighbors[rng.integers(0, len(non_neighbors))])
        cost = 2 if delete is not None else 1
        if spent + cost > budgets.global_edge_budget:
            break
        spent += cost
        plan.add(PlanEntry(target=target, delete_neighbor=delete,
                           add_influencer=insert, rationale="rnd baseline"))
    return plan


def reference_flip(graph, targets, budgets):
    """Reference FLIP: min over a has_edge scan keyed by (-degree, id)."""
    plan = PerturbationPlan()
    spent = 0
    degree = [graph.degree(v) for v in range(graph.node_count)]
    for target in sorted(set(targets)):
        local = budgets.per_node_edge_budget
        neighbors = graph.neighbors(target)
        delete = None
        if local >= 2 and neighbors:
            delete = min(neighbors, key=lambda v: (degree[v], v))
        non_neighbors = [
            v for v in range(graph.node_count)
            if v != target and not graph.has_edge(target, v)
        ]
        if local < 1 or not non_neighbors:
            continue
        insert = min(non_neighbors, key=lambda v: (-degree[v], v))
        cost = 2 if delete is not None else 1
        if spent + cost > budgets.global_edge_budget:
            break
        spent += cost
        plan.add(PlanEntry(target=target, delete_neighbor=delete,
                           add_influencer=insert, rationale="flip baseline"))
    return plan


def random_graph(n, pairs, seed):
    """Random graph whose node 0 is adjacent to every other node and whose
    last node is isolated."""
    rng = substream(seed, "baseline-oracle-graph")
    edges = [(0, v) for v in range(1, n - 1)]
    for _ in range(pairs):
        u, v = sorted(rng.integers(1, n - 1, size=2).tolist())
        if u != v:
            edges.append((u, v))
    return TextAttributedGraph.build(
        texts=[f"node {i}" for i in range(n)], labels=[i % 3 for i in range(n)],
        splits=["train"] * n, edges=edges,
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("per_node", [0, 1, 2])
def test_baselines_equal_reference_scans(seed, per_node):
    g = random_graph(25, 40, seed)
    # 0 has no non-neighbours (apart from the isolated last node), 24 is isolated
    targets = [0, 24, *range(1, 24, 3)]
    budgets = Budgets(per_node_edge_budget=per_node, global_edge_budget=12)
    assert rnd_attack(g, targets, budgets, seed=seed).entries == \
        reference_rnd(g, targets, budgets, seed).entries
    assert flip_attack(g, targets, budgets).entries == \
        reference_flip(g, targets, budgets).entries


@pytest.mark.parametrize("target", [-1, 20])
def test_baselines_reject_a_target_that_is_not_a_node(target):
    g = wheel_graph()
    budgets = Budgets.for_targets(2)
    with pytest.raises(ConfigurationError, match=f"target {target} is not a node"):
        rnd_attack(g, [1, target], budgets, seed=1)
    with pytest.raises(ConfigurationError, match=f"target {target} is not a node"):
        flip_attack(g, [1, target], budgets)


def test_baselines_skip_target_adjacent_to_every_node():
    g = TextAttributedGraph.build(
        texts=["hub", "a", "b", "c"], labels=[0, 1, 1, 1], splits=["train"] * 4,
        edges=[(0, 1), (0, 2), (0, 3)],
    )
    budgets = Budgets.for_targets(1)
    assert len(rnd_attack(g, [0], budgets, seed=1)) == 0
    assert len(flip_attack(g, [0], budgets)) == 0
