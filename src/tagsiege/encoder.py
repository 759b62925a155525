"""Surrogate graph encoder: a two-layer GCN trained with manual backprop.

The attacker owns this model outright (it never touches the victim), so it is
kept small and auditable: symmetric-normalized propagation, relu and
full-batch Adam on hand-written gradients. Node embeddings are the
penultimate (post-relu) hidden activations. Features are a dense array or
`text_features.featurize`'s CSRRows, which `nnops.scipy_rows` wraps where
the products start.

The `gcn` victim is this same model: `train_gcn` initialises and fits both,
each from its own seed substream ("encoder-init" here, "victim-gcn" there),
and both come back as one `TrainedModel` (the record of every trained model,
victims included) whose `{"w1", "w2"}` weights `forward` runs over the
graph's `gcn_propagation` (`normalize_adjacency`, re-exported from `graph`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .config import EncoderConfig
from .errors import ShapeError, TrainingError
from .graph import TextAttributedGraph, normalize_adjacency
from .nnops import (
    CSRRows, add_decay, cross_entropy_with_grad, fit, glorot, l2_penalty, operand_form, product,
    product_buffer, relu, scipy_rows, training_operand,
)
from .seeding import substream

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass
class TrainedModel:
    """The surrogate or a victim, trained; TrainingError unless every weight is finite."""

    kind: str  # "gcn" (the surrogate too), "sgc" or "sage_mean"
    weights: dict[str, np.ndarray]  # gcn: w1 (input_dim, hidden), w2 (hidden, class_count)
    config: EncoderConfig
    loss_history: list[float] = field(default_factory=list)
    operand_forms: dict[str, str] = field(default_factory=dict)  # "csr" or "dense"
    val_accuracy: float | None = None

    def __post_init__(self):
        for name, w in self.weights.items():
            if not np.all(np.isfinite(w)):
                raise TrainingError(f"weight {name} contains non-finite values")


def forward(
    weights: dict[str, np.ndarray],
    a_hat: sp.csr_matrix,
    features: np.ndarray | CSRRows,
) -> tuple[np.ndarray, np.ndarray]:
    """Return (logits, embeddings); embeddings are the post-relu hidden layer."""
    w1, w2 = weights["w1"], weights["w2"]
    if features.shape[1] != w1.shape[0]:
        raise ShapeError(f"feature dim {features.shape[1]} != weight fan-in {w1.shape[0]}")
    h = relu(a_hat @ (scipy_rows(features) @ w1))
    logits = a_hat @ (h @ w2)
    return logits, h


def _loss_and_grads(
    weights: dict[str, np.ndarray],
    a_hat: sp.csr_matrix,
    u: np.ndarray | sp.csr_matrix,
    labels: np.ndarray,
    train_rows: np.ndarray,
    weight_decay: float,
) -> Iterator[tuple[float, list[np.ndarray]]]:
    """Yield the loss and [dW1, dW2] at the current `weights`, once per `next`;
    `u` is the fixed first propagation a_hat @ features, dense or CSR. As in
    `forward`, logits = a_hat @ (h @ W2); with g = a_hat @ dlogits (a_hat is
    symmetric), dW2 = h^T @ g and dh = g @ W2^T, so every propagation is
    (n, classes). Dense activations and gradients live in buffers allocated
    once here (`dh` in `h`'s); each `next` overwrites the last one's gradients."""
    w1, w2 = weights["w1"], weights["w2"]
    n, hidden = u.shape[0], w1.shape[1]
    h_out, dw1_out = product_buffer(u, hidden), product_buffer(u.T, hidden)
    active = np.empty((n, hidden), dtype=bool)
    hw2, dw2 = np.empty((n, w2.shape[1])), np.empty(w2.shape)
    scratch = [np.empty(w1.shape), np.empty(w2.shape)]
    while True:
        h = product(u, w1, h_out)
        np.greater(h, 0, out=active)  # the relu mask, taken before the relu
        relu(h, out=h)
        logits = a_hat @ np.matmul(h, w2, out=hw2)

        loss, dlogits = cross_entropy_with_grad(logits, labels, train_rows)
        loss += 0.5 * weight_decay * l2_penalty([w1, w2], scratch)

        g = a_hat @ dlogits
        add_decay(np.matmul(h.T, g, out=dw2), w2, weight_decay, scratch[1])
        dh = np.matmul(g, w2.T, out=h)  # h is dead once dw2 is formed
        dh *= active
        dw1 = add_decay(product(u.T, dh, dw1_out), w1, weight_decay, scratch[0])
        yield loss, [dw1, dw2]


def train_split(
    graph: TextAttributedGraph, features: np.ndarray | CSRRows
) -> tuple[np.ndarray, np.ndarray]:
    """(labels, train rows) of `graph` as int arrays. ShapeError unless
    `features` has one row per node, TrainingError if there are no train nodes."""
    if features.shape[0] != graph.node_count:
        raise ShapeError(f"feature rows {features.shape[0]} != node count {graph.node_count}")
    rows = np.array(graph.split_nodes("train"), dtype=int)
    if rows.size == 0:
        raise TrainingError("graph has no train nodes")
    return np.array(graph.labels, dtype=int), rows


def train_gcn(
    graph: TextAttributedGraph,
    a_hat: sp.csr_matrix,
    features: np.ndarray | CSRRows,
    config: EncoderConfig,
    stream: str,
    what: str,
) -> TrainedModel:
    """Initialise a GCN from the `stream` substream of the config seed and fit
    it on `graph`'s train split with propagation `a_hat`; its output width is
    `graph.class_count`. A non-finite loss raises TrainingError naming `what`.

    `u` = a_hat @ features is kept in the form `nnops.training_operand`
    picks for it, recorded in `operand_forms`."""
    labels, rows = train_split(graph, features)
    u = training_operand(a_hat @ scipy_rows(features))
    rng = substream(config.seed, stream)
    weights = {
        "w1": glorot(rng, features.shape[1], config.hidden),
        "w2": glorot(rng, config.hidden, graph.class_count),
    }
    history = fit(
        list(weights.values()),
        _loss_and_grads(weights, a_hat, u, labels, rows, config.weight_decay),
        config.epochs,
        config.learning_rate,
        what,
    )
    return TrainedModel("gcn", weights, config, history, {"u": operand_form(u)})


def train_encoder(
    graph: TextAttributedGraph,
    features: np.ndarray | CSRRows,
    config: EncoderConfig | None = None,
) -> TrainedModel:
    """The surrogate: `train_gcn` on the "encoder-init" substream;
    deterministic given the config seed."""
    config = config or EncoderConfig()
    return train_gcn(
        graph, graph.gcn_propagation, features, config, "encoder-init", "training loss"
    )


def encode(
    trained: TrainedModel,
    graph: TextAttributedGraph,
    features: np.ndarray | CSRRows,
) -> np.ndarray:
    _, z = forward(trained.weights, graph.gcn_propagation, features)
    return z
