"""Structure-only baseline attackers: RND and FLIP.

Both spend the same Budgets type as the main pipeline and leave every text
untouched, so evaluation rows compare like for like.
"""

from __future__ import annotations

import numpy as np

from .graph import TextAttributedGraph
from .plan import Budgets, PerturbationPlan, PlanEntry, ordered_targets
from .seeding import substream


def _non_neighbors(graph: TextAttributedGraph, target: int) -> np.ndarray:
    """Ascending ids of every node other than the target not adjacent to it."""
    mask = np.ones(graph.node_count, dtype=bool)
    mask[target] = False
    mask[np.array(graph.neighbors(target), dtype=np.intp)] = False
    return np.flatnonzero(mask)


def rnd_attack(
    graph: TextAttributedGraph,
    targets: list[int],
    budgets: Budgets,
    seed: int = 0,
) -> PerturbationPlan:
    """Random deletion among neighbors plus random insertion to a non-neighbor.

    Per-node budget 1 buys the insertion only; 0 buys nothing. Deterministic
    given the seed (one substream per target).
    """
    plan = PerturbationPlan()
    spent = 0
    for target in ordered_targets(graph, targets):
        local = budgets.per_node_edge_budget
        rng = substream(seed, f"rnd-{target}")
        neighbors = graph.neighbors(target)
        delete = None
        if local >= 2 and neighbors:
            delete = int(neighbors[rng.integers(0, len(neighbors))])
        non_neighbors = _non_neighbors(graph, target)
        if local < 1 or not non_neighbors.size:
            continue
        insert = int(non_neighbors[rng.integers(0, non_neighbors.size)])
        cost = (2 if delete is not None else 1)
        if spent + cost > budgets.global_edge_budget:
            break
        spent += cost
        plan.add(PlanEntry(
            target=target,
            delete_neighbor=delete,
            add_influencer=insert,
            rationale="rnd baseline",
        ))
    return plan


def flip_attack(
    graph: TextAttributedGraph,
    targets: list[int],
    budgets: Budgets,
) -> PerturbationPlan:
    """Cut the lowest-degree neighbor, wire up the highest-degree non-neighbor.

    All ties break toward the lower node id; degrees are read off the clean
    graph. Fully deterministic, no randomness involved.
    """
    plan = PerturbationPlan()
    spent = 0
    degree = np.array([graph.degree(v) for v in range(graph.node_count)])
    for target in ordered_targets(graph, targets):
        local = budgets.per_node_edge_budget
        neighbors = graph.neighbors(target)
        delete = None
        if local >= 2 and neighbors:
            delete = min(neighbors, key=lambda v: (degree[v], v))
        non_neighbors = _non_neighbors(graph, target)
        if local < 1 or not non_neighbors.size:
            continue
        # argmax returns the first maximum, i.e. the lowest id among ties
        insert = int(non_neighbors[np.argmax(degree[non_neighbors])])
        cost = (2 if delete is not None else 1)
        if spent + cost > budgets.global_edge_budget:
            break
        spent += cost
        plan.add(PlanEntry(
            target=target,
            delete_neighbor=delete,
            add_influencer=insert,
            rationale="flip baseline",
        ))
    return plan
