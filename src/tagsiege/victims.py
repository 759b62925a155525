"""Victim GNNs: GCN, SGC and mean-aggregation SAGE.

These stand in for the deployed models under attack. They are trained once on
the clean graph, frozen, and then queried on whatever graph the evaluation
hands them (clean or perturbed) — propagation always comes from that graph,
built once per graph and reused across predictions. The `gcn` victim shares
the surrogate's GCN code (`encoder.forward`, `encoder._loss_and_grads`) and
all train with `nnops.fit`, but victims share no weights, embeddings, plan or
backend with the attacker.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from .encoder import (
    EncoderParams,
    _loss_and_grads,
    adjacency_matrix,
    forward,
    normalize_adjacency,
)
from .errors import ConfigurationError, DegenerateInputError, ShapeError, TrainingError
from .graph import TextAttributedGraph
from .nnops import cross_entropy_with_grad, fit, glorot, operand_form, relu, training_operand
from .seeding import substream

VICTIM_KINDS = ("gcn", "sgc", "sage_mean")


@dataclass
class VictimConfig:
    hidden: int = 64
    learning_rate: float = 0.01
    epochs: int = 200
    weight_decay: float = 5e-4
    sgc_steps: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 1 or self.epochs < 1 or self.sgc_steps < 1:
            raise ConfigurationError("hidden, epochs and sgc_steps must be >= 1")
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise ConfigurationError("learning_rate > 0 and weight_decay >= 0 required")


@dataclass
class VictimModel:
    kind: str
    weights: dict[str, np.ndarray]
    config: VictimConfig
    val_accuracy: float | None = None
    operand_forms: dict[str, str] = field(default_factory=dict)  # "csr" or "dense"

    def __post_init__(self):
        if self.kind not in VICTIM_KINDS:
            raise ConfigurationError(f"unknown victim kind {self.kind!r}")
        for name, w in self.weights.items():
            if not np.all(np.isfinite(w)):
                raise TrainingError(f"weight {name} contains non-finite values")


def mean_aggregation(graph: TextAttributedGraph) -> sp.csr_matrix:
    """Row-normalized adjacency D^{-1} A; isolated nodes get an all-zero row."""
    a = adjacency_matrix(graph)
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    return (sp.diags(inv) @ a).tocsr()


_PROPAGATION: "weakref.WeakKeyDictionary[TextAttributedGraph, sp.csr_matrix]" = (
    weakref.WeakKeyDictionary()
)
_MEAN_AGGREGATION: "weakref.WeakKeyDictionary[TextAttributedGraph, sp.csr_matrix]" = (
    weakref.WeakKeyDictionary()
)


def _propagation(kind: str, graph: TextAttributedGraph) -> sp.csr_matrix:
    """The kind's propagation matrix for `graph`, built once per graph.

    `normalize_adjacency` for gcn and sgc, `mean_aggregation` for sage_mean.
    An entry lives as long as its graph does. Its value and index arrays are
    read-only, so an in-place write raises instead of changing what later
    calls are handed.
    """
    cache, build = (
        (_MEAN_AGGREGATION, mean_aggregation) if kind == "sage_mean"
        else (_PROPAGATION, normalize_adjacency)
    )
    matrix = cache.get(graph)
    if matrix is None:
        matrix = build(graph)
        for array in (matrix.data, matrix.indices, matrix.indptr):
            array.flags.writeable = False
        cache[graph] = matrix
    return matrix


def sgc_logits(
    a_hat: sp.csr_matrix, features: np.ndarray | sp.csr_matrix, w: np.ndarray, steps: int
) -> np.ndarray:
    """a_hat^K @ features @ w, propagating the (n, C) product `features @ w`
    rather than the (n, |V|) features."""
    logits = features @ w
    for _ in range(steps):
        logits = a_hat @ logits
    return logits


def sage_logits(
    m: sp.csr_matrix,
    features: np.ndarray | sp.csr_matrix,
    weights: dict[str, np.ndarray],
) -> np.ndarray:
    """Mean-SAGE: each layer mixes the node's own signal with its mean neighbor."""
    h_pre = features @ weights["ws1"] + (m @ features) @ weights["wn1"]
    h = relu(h_pre)
    return h @ weights["ws2"] + (m @ h) @ weights["wn2"]


def victim_logits(
    model: VictimModel, graph: TextAttributedGraph, features: np.ndarray | sp.csr_matrix
) -> np.ndarray:
    """Forward pass with propagation taken from the *given* graph."""
    first = next(iter(model.weights.values()))
    if features.shape[1] != first.shape[0]:
        raise ShapeError(
            f"feature dim {features.shape[1]} != weight fan-in {first.shape[0]}"
        )
    propagation = _propagation(model.kind, graph)
    if model.kind == "gcn":
        params = EncoderParams(model.weights["w1"], model.weights["w2"])
        return forward(params, propagation, features)[0]
    if model.kind == "sgc":
        return sgc_logits(propagation, features, model.weights["w"], model.config.sgc_steps)
    return sage_logits(propagation, features, model.weights)


def sgc_loss_and_grads(
    w: np.ndarray, propagated: np.ndarray, labels: np.ndarray, rows: np.ndarray,
    weight_decay: float,
) -> Iterator[tuple[float, list[np.ndarray]]]:
    """Yield the SGC loss with L2 term and [dW] at the current `w`, once per
    `next`; `propagated` is a_hat^K @ features."""
    while True:
        loss, dlogits = cross_entropy_with_grad(propagated @ w, labels, rows)
        loss += 0.5 * weight_decay * float(np.sum(w ** 2))
        yield loss, [propagated.T @ dlogits + weight_decay * w]


SAGE_WEIGHTS = ("ws1", "wn1", "ws2", "wn2")


def sage_loss_and_grads(
    weights: dict[str, np.ndarray], m: sp.csr_matrix, features: np.ndarray,
    x_nbr: np.ndarray, labels: np.ndarray, rows: np.ndarray, weight_decay: float,
) -> Iterator[tuple[float, list[np.ndarray]]]:
    """Yield the mean-SAGE loss with L2 term and gradients in SAGE_WEIGHTS
    order at the current `weights`, once per `next`; `x_nbr` is the fixed
    neighbour mean m @ features."""
    while True:
        h_pre = features @ weights["ws1"] + x_nbr @ weights["wn1"]
        h = relu(h_pre)
        h_nbr = m @ h
        logits = h @ weights["ws2"] + h_nbr @ weights["wn2"]
        loss, dlogits = cross_entropy_with_grad(logits, labels, rows)
        loss += 0.5 * weight_decay * sum(float(np.sum(weights[k] ** 2)) for k in SAGE_WEIGHTS)
        dws2 = h.T @ dlogits + weight_decay * weights["ws2"]
        dwn2 = h_nbr.T @ dlogits + weight_decay * weights["wn2"]
        dh = dlogits @ weights["ws2"].T + m.T @ (dlogits @ weights["wn2"].T)
        dh_pre = dh * (h_pre > 0)
        dws1 = features.T @ dh_pre + weight_decay * weights["ws1"]
        dwn1 = x_nbr.T @ dh_pre + weight_decay * weights["wn1"]
        yield loss, [dws1, dwn1, dws2, dwn2]


def _train_weights(kind, graph, X, labels, rows, cfg) -> tuple[dict, dict[str, str]]:
    """Initialise from the kind's seed substream, then fit on the train rows.

    Returns the weights and the form (`nnops.training_operand`) each fixed
    operand took."""
    classes = int(labels.max()) + 1
    wd = cfg.weight_decay
    if kind == "gcn":
        rng = substream(cfg.seed, "victim-gcn")
        params = EncoderParams(
            glorot(rng, X.shape[1], cfg.hidden), glorot(rng, cfg.hidden, classes)
        )
        weights = {"w1": params.w1, "w2": params.w2}
        a_hat = _propagation(kind, graph)
        operands = {"u": training_operand(a_hat @ X)}
        steps = _loss_and_grads(params, a_hat, operands["u"], labels, rows, wd)
    elif kind == "sgc":
        rng = substream(cfg.seed, "victim-sgc")
        propagated = X
        a_hat = _propagation(kind, graph)
        for _ in range(cfg.sgc_steps):
            propagated = a_hat @ propagated
        weights = {"w": glorot(rng, X.shape[1], classes)}
        operands = {"propagated": training_operand(propagated)}
        steps = sgc_loss_and_grads(weights["w"], operands["propagated"], labels, rows, wd)
    else:
        rng = substream(cfg.seed, "victim-sage")
        weights = {
            "ws1": glorot(rng, X.shape[1], cfg.hidden),
            "wn1": glorot(rng, X.shape[1], cfg.hidden),
            "ws2": glorot(rng, cfg.hidden, classes),
            "wn2": glorot(rng, cfg.hidden, classes),
        }
        m = _propagation(kind, graph)
        operands = {"x": training_operand(X), "x_nbr": training_operand(m @ X)}
        steps = sage_loss_and_grads(weights, m, *operands.values(), labels, rows, wd)
    fit(list(weights.values()), steps, cfg.epochs, cfg.learning_rate, f"{kind} loss")
    return weights, {name: operand_form(op) for name, op in operands.items()}


def train_victim(
    kind: str,
    graph: TextAttributedGraph,
    features: np.ndarray | sp.csr_matrix,
    config: VictimConfig | None = None,
) -> VictimModel:
    """Fit one victim on the clean graph's train split; deterministic by seed."""
    if kind not in VICTIM_KINDS:
        raise ConfigurationError(f"unknown victim kind {kind!r}")
    config = config or VictimConfig()
    if features.shape[0] != graph.node_count:
        raise ShapeError(
            f"feature rows {features.shape[0]} != node count {graph.node_count}"
        )
    rows = np.array(graph.split_nodes("train"), dtype=int)
    if rows.size == 0:
        raise TrainingError("graph has no train nodes")
    labels = np.array(graph.labels, dtype=int)

    weights, forms = _train_weights(kind, graph, features, labels, rows, config)
    model = VictimModel(kind=kind, weights=weights, config=config, operand_forms=forms)
    val = graph.split_nodes("val")
    if val:
        model.val_accuracy = accuracy(model, graph, features, list(val))
    return model


def predict(
    model: VictimModel, graph: TextAttributedGraph, features: np.ndarray | sp.csr_matrix
) -> np.ndarray:
    """Per-node argmax labels; ties resolve to the lowest class id."""
    logits = victim_logits(model, graph, features)
    return np.argmax(logits, axis=1)


def accuracy(
    model: VictimModel,
    graph: TextAttributedGraph,
    features: np.ndarray | sp.csr_matrix,
    node_set: list[int],
) -> float:
    if not node_set:
        raise DegenerateInputError("accuracy over an empty node set")
    preds = predict(model, graph, features)
    labels = np.array(graph.labels)
    nodes = np.array(sorted(node_set), dtype=int)
    return float(np.mean(preds[nodes] == labels[nodes]))

