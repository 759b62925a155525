"""Structure-only baseline attackers: RND and FLIP.

Both spend the edge `Budgets`, as many edge edits per target as the main
attack, and leave every text untouched, so evaluation rows compare like for
like.
"""

from __future__ import annotations

from typing import Callable

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


def _edge_baseline(
    graph: TextAttributedGraph,
    targets: list[int],
    budgets: Budgets,
    rationale: str,
    pick: Callable[[int, tuple[int, ...], np.ndarray], tuple[int | None, int]],
) -> PerturbationPlan:
    """One insertion per target in ascending order, plus one deletion where the
    per-node budget is 2 or more; budget 0 buys nothing. `pick(target,
    deletable, non_neighbors)` returns the deleted neighbor (None when nothing
    is deletable) and the inserted non-neighbor. The first target the global
    budget cannot pay for ends the plan."""
    plan = PerturbationPlan()
    spent = 0
    local = budgets.per_node_edge_budget
    for target in ordered_targets(graph, targets):
        non_neighbors = _non_neighbors(graph, target)
        if local < 1 or not non_neighbors.size:
            continue
        delete, insert = pick(target, graph.neighbors(target) if local >= 2 else (), non_neighbors)
        spent += 1 if delete is None else 2
        if spent > budgets.global_edge_budget:
            break
        plan.add(PlanEntry(target, delete, insert, rationale=rationale))
    return plan


def rnd_attack(
    graph: TextAttributedGraph,
    targets: list[int],
    budgets: Budgets,
    seed: int = 0,
) -> PerturbationPlan:
    """Random deletion among neighbors plus random insertion to a non-neighbor.

    Deterministic given the seed: each target draws its deletion, then its
    insertion, from its own substream.
    """
    def pick(target, deletable, non_neighbors):
        rng = substream(seed, f"rnd-{target}")
        delete = int(deletable[rng.integers(0, len(deletable))]) if deletable else None
        return delete, int(non_neighbors[rng.integers(0, non_neighbors.size)])

    return _edge_baseline(graph, targets, budgets, "rnd baseline", pick)


def flip_attack(
    graph: TextAttributedGraph,
    targets: list[int],
    budgets: Budgets,
) -> PerturbationPlan:
    """Cut the lowest-degree neighbor, wire up the highest-degree non-neighbor.

    All ties break toward the lower node id; degrees are read off the clean
    graph. Fully deterministic, no randomness involved.
    """
    degree = np.diff(graph.adjacency.indptr)

    def pick(target, deletable, non_neighbors):
        delete = min(deletable, key=lambda v: (degree[v], v), default=None)
        # argmax returns the first maximum, i.e. the lowest id among ties
        return delete, int(non_neighbors[np.argmax(degree[non_neighbors])])

    return _edge_baseline(graph, targets, budgets, "flip baseline", pick)
