"""Attack metrics: homophily, the stealth bound audit, aggregates, synergy.

Homophily is measured as feature-cosine similarity (edge-level and
node-centric), with the package's one cosine, `nnops.pair_cosines` over
`nnops.unit_rows`: a zero feature row (say, an all-OOV text) has cosine 0.0
with every row. Features may be dense or CSR and are never made dense. The
bound audit never asserts the homophily inequality — its constants are
existential — it reports every component plus the observed ratio so stealth
regressions show up in review. The synergy table only measures: it takes
the clean graph, the joint graph a plan makes of it, their features and the
victims' accuracies on both, and predicts the two single-modality halves.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .encoder import TrainedModel
from .errors import DegenerateInputError, ShapeError
from .graph import TextAttributedGraph
from .nnops import CSRRows, csr_rows, merge_entries, pair_cosines, unit_rows
from .plan import edit_counts
from .text_features import token_edit_distance
from .victims import accuracy


def _edge_cosines(
    graph: TextAttributedGraph, features: np.ndarray | CSRRows
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each edge's endpoints (u < v, sorted by (u, v), read off
    `graph.adjacency`) and the cosine of their features; the features (dense
    or CSR) need one row per node."""
    if features.shape[0] != graph.node_count:
        raise ShapeError(
            f"feature rows {features.shape[0]} != node count {graph.node_count}"
        )
    if not graph.edges:
        raise DegenerateInputError("homophily of an edgeless graph is undefined")
    ends, neighbors = graph.adjacency.row_ids(), graph.adjacency.indices
    upper = ends < neighbors
    u, v = ends[upper], neighbors[upper]
    return u, v, pair_cosines(unit_rows(features), u, v)


def _node_mean(node_count: int, u: np.ndarray, v: np.ndarray, cosines: np.ndarray) -> float:
    # larger endpoint first: a node meets its smaller neighbors, then its larger
    ends = np.concatenate([v, u])
    sums = np.bincount(ends, weights=np.concatenate([cosines, cosines]), minlength=node_count)
    degree = np.bincount(ends, minlength=node_count)
    linked = degree > 0
    return float(np.mean(sums[linked] / degree[linked]))


def homophily_edge(graph: TextAttributedGraph, features: np.ndarray | CSRRows) -> float:
    """Mean cosine similarity across edge endpoints."""
    return float(np.mean(_edge_cosines(graph, features)[2]))


def homophily_node(graph: TextAttributedGraph, features: np.ndarray | CSRRows) -> float:
    """Mean over non-isolated nodes of their mean neighbor cosine similarity.

    Each node's cosines are summed over its neighbors in ascending id order,
    left to right, then divided by its degree.
    """
    return _node_mean(graph.node_count, *_edge_cosines(graph, features))


def _drifts(clean, perturbed, rows: list[int]) -> np.ndarray:
    """L2 norm of perturbed[i] - clean[i] for each i in `rows` (both of one
    shape), each square summed in column order from 0.0 (as scipy sums a CSR
    difference)."""
    keys_c, values_c = csr_rows(clean).entries(rows)
    keys, diff = merge_entries(csr_rows(perturbed).entries(rows), (keys_c, -values_c))
    # a shared column's perturbed value absorbs the clean one: p + (-c) is p - c
    second = np.flatnonzero(keys[1:] == keys[:-1]) + 1
    diff[second - 1] += diff[second]
    keep = np.ones(keys.size, dtype=bool)
    keep[second] = False
    keys, diff = keys[keep], diff[keep]
    width = clean.shape[1]
    return np.sqrt(np.bincount(keys // width, weights=diff * diff, minlength=len(rows)))


def bound_audit(
    clean: TextAttributedGraph,
    perturbed: TextAttributedGraph,
    features_clean: np.ndarray | CSRRows,
    features_pert: np.ndarray | CSRRows,
) -> dict[str, float]:
    """Every component of the homophily-stability bound, plus the observed ratio.

    Keys: homophily before/after (edge and node), their deltas, the edge edit
    ratio Δ_E, text drift τ (max and mean over changed nodes), the empirical
    per-token Lipschitz estimate of the featurizer, and
    |ΔH_edge| / (Δ_E + L̂·τ_max) as `empirical_ratio` (0 when the denominator
    vanishes). Nothing is asserted here — the constants are unknown.
    Features, of one shape, may be dense or CSR and are never made dense;
    each graph's edge cosines are taken once and serve both homophilies.
    """
    if features_clean.shape != features_pert.shape:
        raise ShapeError(f"feature shapes {features_clean.shape} != {features_pert.shape}")
    edges_clean = _edge_cosines(clean, features_clean)
    edges_pert = _edge_cosines(perturbed, features_pert)
    h_edge_clean = float(np.mean(edges_clean[2]))
    h_edge_pert = float(np.mean(edges_pert[2]))
    h_node_clean = _node_mean(clean.node_count, *edges_clean)
    h_node_pert = _node_mean(perturbed.node_count, *edges_pert)
    counts = edit_counts(clean, perturbed)

    changed = [i for i, (old, new) in enumerate(zip(clean.texts, perturbed.texts)) if old != new]
    drifts = _drifts(features_clean, features_pert, changed)
    lipschitz = 0.0
    for i, drift in zip(changed, drifts.tolist()):
        edits = token_edit_distance(clean.texts[i], perturbed.texts[i])
        if edits > 0:
            lipschitz = max(lipschitz, drift / edits)

    tau_max = float(drifts.max()) if changed else 0.0
    tau_mean = float(drifts.mean()) if changed else 0.0
    delta_h_edge = h_edge_pert - h_edge_clean
    denominator = counts.edge_ratio + lipschitz * tau_max
    ratio = abs(delta_h_edge) / denominator if denominator > 0 else 0.0
    return {
        "homophily_edge_clean": h_edge_clean,
        "homophily_edge_perturbed": h_edge_pert,
        "homophily_node_clean": h_node_clean,
        "homophily_node_perturbed": h_node_pert,
        "delta_H_edge": delta_h_edge,
        "delta_H_node": h_node_pert - h_node_clean,
        "edge_edits": float(counts.edge_edits),
        "text_edits": float(counts.text_edits),
        "edge_ratio": counts.edge_ratio,
        "tau_max": tau_max,
        "tau_mean": tau_mean,
        "lipschitz_est": lipschitz,
        "empirical_ratio": ratio,
    }


def aggregate(accuracies: Sequence[float]) -> dict:
    """Average, 3-MAX and robustness-weighted summaries of per-victim accuracy.

    three_max is None (flagged) below three victims. Weighted sorts
    descending and applies normalized geometric weights 2^{-i}.
    """
    values = [float(a) for a in accuracies]
    if not values:
        raise DegenerateInputError("aggregate of zero victim rows")
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise DegenerateInputError(f"accuracy {v} outside [0, 1]")
    ordered = sorted(values, reverse=True)
    weights = np.array([2.0 ** -i for i in range(len(ordered))])
    weights /= weights.sum()
    out = {
        "average": float(np.mean(values)),
        "weighted": float(np.dot(weights, ordered)),
        "three_max": None,
        "three_max_available": len(values) >= 3,
    }
    if out["three_max_available"]:
        out["three_max"] = float(np.mean(ordered[:3]))
    return out


def synergy_row(drop_struct: float, drop_text: float, drop_joint: float) -> dict:
    """One victim's synergy row of the report: `synergy_hard` when the joint
    drop is at least the better single modality's, `synergy_soft` when it
    strictly beats the sum of the two."""
    return {
        "drop_struct": drop_struct,
        "drop_text": drop_text,
        "drop_joint": drop_joint,
        "synergy_hard": drop_joint >= max(drop_struct, drop_text),
        "synergy_soft": drop_joint > drop_struct + drop_text,
    }


def synergy_test(
    clean: TextAttributedGraph,
    joint: TextAttributedGraph,
    features_clean: np.ndarray,
    features_joint: np.ndarray,
    victims: dict[str, TrainedModel],
    targets: list[int],
    clean_accuracy: dict[str, float],
    joint_accuracy: dict[str, float],
) -> dict[str, dict]:
    """Each victim's `synergy_row`: its accuracy drops under structure-only,
    text-only and joint perturbation.

    `joint` is the graph a plan makes of `clean`; each single-modality graph
    takes one half of it. Victims stay frozen, and `clean_accuracy` and
    `joint_accuracy` are each victim's accuracies on `targets` that the caller
    has already measured, so only the two halves are predicted here.
    """
    halves = (
        (clean.with_changes(edges=joint.edges), features_clean),
        (clean.with_changes(texts=joint.texts), features_joint),
    )
    out = {}
    for name, model in victims.items():
        base = clean_accuracy[name]
        drop_struct, drop_text = (
            base - accuracy(model, graph, feats, targets) for graph, feats in halves
        )
        out[name] = synergy_row(drop_struct, drop_text, base - joint_accuracy[name])
    return out
