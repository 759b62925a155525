"""Victim GNNs: GCN, SGC and mean-aggregation SAGE.

These stand in for the deployed models under attack. They are trained once on
the clean graph, frozen, and then queried on whatever graph the evaluation
hands them (clean or perturbed) — propagation always comes from that graph:
its `gcn_propagation` or `mean_propagation` (`mean_aggregation`, re-exported
from `graph`). The `gcn` victim is the surrogate's GCN (`encoder.train_gcn`
and `encoder.forward`) on its own "victim-gcn" seed substream, and
`VictimConfig` is `EncoderConfig` plus `sgc_steps`. All kinds size their
output by `graph.class_count`, train with `nnops.fit` and come back as the
surrogate's record, `encoder.TrainedModel`, with their loss curve; but
victims share no weights, embeddings, plan or backend with the attacker.

Each training allocates its buffers once and shares nothing mutable with
another, so several victims may train at once on separate threads, as
`train_victims` does for `evaluate`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .config import VICTIM_KINDS, VictimConfig
from .encoder import TrainedModel, forward, train_gcn, train_split
from .errors import ConfigurationError, DegenerateInputError, ShapeError, TrainingError
from .graph import TextAttributedGraph, mean_aggregation
from .nnops import (
    CSRRows, add_decay, cross_entropy_with_grad, fit, glorot, l2_penalty, operand_form, product,
    product_buffer, relu, scipy_rows, training_operand,
)
from .seeding import substream

if TYPE_CHECKING:
    import scipy.sparse as sp

# submission order: the longest training first, so the others fill the
# remaining workers around it
_LONGEST_FIRST = ("sage_mean", "gcn", "sgc")


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
    return h @ weights["ws2"] + m @ (h @ weights["wn2"])


def victim_logits(
    model: TrainedModel,
    graph: TextAttributedGraph,
    features: np.ndarray | CSRRows,
) -> np.ndarray:
    """Forward pass with propagation taken from the *given* graph."""
    features = scipy_rows(features)
    first = next(iter(model.weights.values()))
    if features.shape[1] != first.shape[0]:
        raise ShapeError(
            f"feature dim {features.shape[1]} != weight fan-in {first.shape[0]}"
        )
    if model.kind == "gcn":
        return forward(model.weights, graph.gcn_propagation, features)[0]
    if model.kind == "sgc":
        steps = model.config.sgc_steps
        return sgc_logits(graph.gcn_propagation, features, model.weights["w"], steps)
    return sage_logits(graph.mean_propagation, features, model.weights)


def sgc_loss_and_grads(
    w: np.ndarray, propagated: np.ndarray | sp.csr_matrix, labels: np.ndarray,
    rows: np.ndarray, weight_decay: float,
) -> Iterator[tuple[float, list[np.ndarray]]]:
    """Yield the SGC loss with L2 term and [dW] at the current `w`, once per
    `next`, into buffers allocated once; `propagated` is a_hat^K @ features."""
    logits_out = product_buffer(propagated, w.shape[1])
    grad_out = product_buffer(propagated.T, w.shape[1])
    scratch = np.empty(w.shape)
    while True:
        logits = product(propagated, w, logits_out)
        loss, dlogits = cross_entropy_with_grad(logits, labels, rows)
        loss += 0.5 * weight_decay * l2_penalty([w], [scratch])
        yield loss, [add_decay(product(propagated.T, dlogits, grad_out), w, weight_decay, scratch)]


SAGE_WEIGHTS = ("ws1", "wn1", "ws2", "wn2")


def sage_loss_and_grads(
    weights: dict[str, np.ndarray], m: sp.csr_matrix, features: np.ndarray | sp.csr_matrix,
    x_nbr: np.ndarray | sp.csr_matrix, labels: np.ndarray, rows: np.ndarray,
    weight_decay: float,
) -> Iterator[tuple[float, list[np.ndarray]]]:
    """Yield the mean-SAGE loss with L2 term and gradients in SAGE_WEIGHTS
    order at the current `weights`, once per `next`; `x_nbr` is the fixed
    neighbour mean m @ features. As in `sage_logits`, the second layer
    aggregates m @ (h @ wn2), so with g = m^T @ dlogits, dwn2 = h^T @ g. The
    dense arrays live in buffers allocated once here: `h`'s also holds dh (its
    relu mask is kept apart), `spare` x_nbr @ wn1, then g @ wn2^T."""
    ws1, wn1, ws2, wn2 = (weights[k] for k in SAGE_WEIGHTS)
    n, hidden, classes = features.shape[0], ws1.shape[1], ws2.shape[1]
    h_out, spare = product_buffer(features, hidden), np.empty((n, hidden))
    active = np.empty((n, hidden), dtype=bool)
    logits, spare_logits = np.empty((n, classes)), np.empty((n, classes))
    dws1_out, dwn1_out = product_buffer(features.T, hidden), product_buffer(x_nbr.T, hidden)
    dws2, dwn2 = np.empty(ws2.shape), np.empty(wn2.shape)
    scratch = [np.empty(w.shape) for w in (ws1, wn1, ws2, wn2)]
    while True:
        h = product(features, ws1, h_out)
        h += product(x_nbr, wn1, spare)
        np.greater(h, 0, out=active)  # the relu mask, taken before the relu
        relu(h, out=h)
        np.matmul(h, ws2, out=logits)
        logits += m @ np.matmul(h, wn2, out=spare_logits)
        loss, dlogits = cross_entropy_with_grad(logits, labels, rows)
        loss += 0.5 * weight_decay * l2_penalty([ws1, wn1, ws2, wn2], scratch)
        g = m.T @ dlogits
        add_decay(np.matmul(h.T, dlogits, out=dws2), ws2, weight_decay, scratch[2])
        add_decay(np.matmul(h.T, g, out=dwn2), wn2, weight_decay, scratch[3])
        dh = np.matmul(dlogits, ws2.T, out=h)
        dh += np.matmul(g, wn2.T, out=spare)
        dh *= active
        dws1 = add_decay(product(features.T, dh, dws1_out), ws1, weight_decay, scratch[0])
        dwn1 = add_decay(product(x_nbr.T, dh, dwn1_out), wn1, weight_decay, scratch[1])
        yield loss, [dws1, dwn1, dws2, dwn2]


def _train_weights(kind, graph, X, cfg) -> TrainedModel:
    """Initialise from the kind's seed substream, then fit on the train rows.

    The model records its loss curve and the form (`nnops.training_operand`)
    each fixed operand took."""
    if kind == "gcn":
        return train_gcn(graph, graph.gcn_propagation, X, cfg, "victim-gcn", "gcn loss")
    labels, rows = train_split(graph, X)
    X = scipy_rows(X)
    classes, wd = graph.class_count, cfg.weight_decay
    if kind == "sgc":
        rng = substream(cfg.seed, "victim-sgc")
        propagated = X
        for _ in range(cfg.sgc_steps):
            propagated = graph.gcn_propagation @ propagated
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
        m = graph.mean_propagation
        operands = {"x": training_operand(X), "x_nbr": training_operand(m @ X)}
        steps = sage_loss_and_grads(weights, m, *operands.values(), labels, rows, wd)
    history = fit(list(weights.values()), steps, cfg.epochs, cfg.learning_rate, f"{kind} loss")
    forms = {name: operand_form(op) for name, op in operands.items()}
    return TrainedModel(kind, weights, cfg, history, forms)


def train_victim(
    kind: str,
    graph: TextAttributedGraph,
    features: np.ndarray | CSRRows,
    config: VictimConfig | None = None,
) -> TrainedModel:
    """Fit one victim on the clean graph's train split; deterministic by seed.
    Its epoch buffers are freed before the val split is predicted."""
    if kind not in VICTIM_KINDS:
        raise ConfigurationError(f"unknown victim kind {kind!r}")
    model = _train_weights(kind, graph, features, config or VictimConfig())
    val = graph.split_nodes("val")
    if val:
        model.val_accuracy = accuracy(model, graph, features, list(val))
    return model


def train_victims(
    kinds: list[str],
    graph: TextAttributedGraph,
    features: np.ndarray | CSRRows,
    config: VictimConfig | None = None,
) -> tuple[dict[str, TrainedModel], dict[str, float], float, int]:
    """Train each of `kinds` as `train_victim` does, concurrently on up to one
    thread per available core, longest training first; returns the models and
    the training seconds by kind, the pool's wall seconds and the worker count.

    Each training is deterministic and shares nothing mutable with the others,
    so the models do not depend on the worker count. A failed training's
    TrainingError names its kind."""
    if not kinds or not set(kinds) <= set(VICTIM_KINDS):
        raise ConfigurationError(f"victim kinds must be among {VICTIM_KINDS}, got {kinds!r}")
    kinds = sorted(set(kinds), key=_LONGEST_FIRST.index)

    def timed(kind: str):
        started = time.perf_counter()
        model = train_victim(kind, graph, features, config)
        return model, time.perf_counter() - started

    workers = min(len(kinds), len(os.sched_getaffinity(0)))
    started = time.perf_counter()
    with ThreadPoolExecutor(workers) as pool:
        futures = {kind: pool.submit(timed, kind) for kind in kinds}
    wall_s = time.perf_counter() - started
    models, seconds = {}, {}
    for kind in sorted(futures):
        try:
            models[kind], seconds[kind] = futures[kind].result()
        except TrainingError as exc:
            raise TrainingError(f"victim {kind}: {exc}") from exc
    return models, seconds, wall_s, workers


def predict(
    model: TrainedModel,
    graph: TextAttributedGraph,
    features: np.ndarray | CSRRows,
) -> np.ndarray:
    """Per-node argmax labels; ties resolve to the lowest class id."""
    logits = victim_logits(model, graph, features)
    return np.argmax(logits, axis=1)


def accuracy(
    model: TrainedModel,
    graph: TextAttributedGraph,
    features: np.ndarray | CSRRows,
    node_set: list[int],
) -> float:
    if not node_set:
        raise DegenerateInputError("accuracy over an empty node set")
    preds = predict(model, graph, features)
    labels = np.array(graph.labels)
    nodes = np.array(sorted(node_set), dtype=int)
    return float(np.mean(preds[nodes] == labels[nodes]))

