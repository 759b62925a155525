"""Surrogate graph encoder: a two-layer GCN trained with manual backprop.

The attacker owns this model outright (it never touches the victim), so it is
kept small and auditable: symmetric-normalized propagation, relu, full-batch
Adam, and a finite-difference gradient check over every weight coordinate.
Node embeddings are the penultimate (post-relu) hidden activations. The `gcn`
victim is this same model, trained and run through `_loss_and_grads` and
`forward` with its own seed and weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, ShapeError, TrainingError
from .graph import TextAttributedGraph
from .nnops import (
    add_decay, as_dense, cross_entropy_with_grad, fit, glorot, l2_penalty, operand_form,
    product, product_buffer, relu, training_operand,
)
from .records import dumps
from .seeding import substream


def adjacency_matrix(graph: TextAttributedGraph) -> sp.csr_matrix:
    """Symmetric 0/1 adjacency A as CSR with sorted indices, no self loops."""
    n = graph.node_count
    edges = np.array(list(graph.edges), dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    return sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))


def normalize_adjacency(graph: TextAttributedGraph) -> sp.csr_matrix:
    """Symmetric renormalized adjacency D^{-1/2} (A + I) D^{-1/2} as CSR."""
    a_tilde = adjacency_matrix(graph) + sp.identity(graph.node_count, format="csr")
    deg = np.asarray(a_tilde.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)  # deg >= 1 thanks to the self loop
    d_half = sp.diags(inv_sqrt)
    return (d_half @ a_tilde @ d_half).tocsr()


@dataclass
class EncoderConfig:
    hidden: int = 64
    learning_rate: float = 0.01
    epochs: int = 200
    weight_decay: float = 5e-4
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 1:
            raise ConfigurationError("hidden width must be >= 1")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning rate must be positive")
        if self.weight_decay < 0:
            raise ConfigurationError("weight decay must be >= 0")


@dataclass
class EncoderParams:
    w1: np.ndarray  # (input_dim, hidden)
    w2: np.ndarray  # (hidden, class_count)

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.w1.copy(), self.w2.copy())


@dataclass
class TrainedEncoder:
    params: EncoderParams
    config: EncoderConfig
    loss_history: list[float] = field(default_factory=list)
    operand_forms: dict[str, str] = field(default_factory=dict)  # "csr" or "dense"


def forward(
    params: EncoderParams, a_hat: sp.csr_matrix, features: np.ndarray | sp.csr_matrix
) -> tuple[np.ndarray, np.ndarray]:
    """Return (logits, embeddings); embeddings are the post-relu hidden layer."""
    if features.shape[1] != params.w1.shape[0]:
        raise ShapeError(
            f"feature dim {features.shape[1]} != weight fan-in {params.w1.shape[0]}"
        )
    h_pre = a_hat @ (features @ params.w1)
    h = relu(h_pre)
    logits = a_hat @ (h @ params.w2)
    return logits, h


def _loss_and_grads(
    params: EncoderParams,
    a_hat: sp.csr_matrix,
    u: np.ndarray | sp.csr_matrix,
    labels: np.ndarray,
    train_rows: np.ndarray,
    weight_decay: float,
) -> Iterator[tuple[float, list[np.ndarray]]]:
    """Yield the loss and [dW1, dW2] at the current `params`, once per `next`;
    `u` is the fixed first propagation a_hat @ features, dense or CSR.

    The dense activations and gradients live in buffers allocated once here,
    so each `next` overwrites the gradients the previous one yielded."""
    w1, w2 = params.w1, params.w2
    n, hidden = u.shape[0], w1.shape[1]
    h_out, dw1_out = product_buffer(u, hidden), product_buffer(u.T, hidden)
    active = np.empty((n, hidden), dtype=bool)
    logits, dw2 = np.empty((n, w2.shape[1])), np.empty(w2.shape)
    scratch = [np.empty(w1.shape), np.empty(w2.shape)]
    while True:
        h = product(u, w1, h_out)
        np.greater(h, 0, out=active)  # the relu mask, taken before the relu
        relu(h, out=h)
        q = a_hat @ h
        np.matmul(q, w2, out=logits)

        loss, dlogits = cross_entropy_with_grad(logits, labels, train_rows)
        loss += 0.5 * weight_decay * l2_penalty([w1, w2], scratch)

        add_decay(np.matmul(q.T, dlogits, out=dw2), w2, weight_decay, scratch[1])
        dq = np.matmul(dlogits, w2.T, out=q)  # q is dead once dw2 is formed
        dh = a_hat @ dq                # a_hat is symmetric, so A^T == A
        dh *= active
        dw1 = add_decay(product(u.T, dh, dw1_out), w1, weight_decay, scratch[0])
        yield loss, [dw1, dw2]


def init_params(
    input_dim: int, hidden: int, class_count: int, seed: int
) -> EncoderParams:
    rng = substream(seed, "encoder-init")
    return EncoderParams(
        w1=glorot(rng, input_dim, hidden),
        w2=glorot(rng, hidden, class_count),
    )


def train_encoder(
    graph: TextAttributedGraph,
    features: np.ndarray | sp.csr_matrix,
    config: EncoderConfig | None = None,
) -> TrainedEncoder:
    """Fit on the train split; deterministic given the config seed.

    `u` = a_hat @ features is kept in the form `nnops.training_operand`
    picks for it, recorded in `operand_forms`."""
    config = config or EncoderConfig()
    train_rows = np.array(graph.split_nodes("train"), dtype=int)
    if train_rows.size == 0:
        raise TrainingError("graph has no train nodes")
    labels = np.array(graph.labels, dtype=int)
    a_hat = normalize_adjacency(graph)
    u = training_operand(a_hat @ features)
    params = init_params(features.shape[1], config.hidden, graph.class_count, config.seed)
    history = fit(
        [params.w1, params.w2],
        _loss_and_grads(params, a_hat, u, labels, train_rows, config.weight_decay),
        config.epochs,
        config.learning_rate,
        "training loss",
    )
    forms = {"u": operand_form(u)}
    return TrainedEncoder(params, config, loss_history=history, operand_forms=forms)


def encode(
    trained: TrainedEncoder, graph: TextAttributedGraph, features: np.ndarray | sp.csr_matrix
) -> np.ndarray:
    _, z = forward(trained.params, normalize_adjacency(graph), features)
    return z


def gradient_check(
    params: EncoderParams,
    a_hat: sp.csr_matrix,
    features: np.ndarray | sp.csr_matrix,
    labels: np.ndarray,
    train_rows: np.ndarray,
    weight_decay: float = 0.0,
    step: float = 1e-5,
    kink_tol: float = 1e-3,
) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Coordinates of W1 whose perturbation could flip a relu unit (some
    pre-activation within kink_tol of zero on a row the coordinate feeds)
    are skipped: the numeric difference is one-sided there and disagreement
    is expected rather than a bug.
    """
    u = as_dense(a_hat @ features)
    h_pre = u @ params.w1

    def loss_at(p: EncoderParams) -> float:
        return next(_loss_and_grads(p, a_hat, u, labels, train_rows, weight_decay))[0]

    _, (dw1, dw2) = next(_loss_and_grads(params, a_hat, u, labels, train_rows, weight_decay))
    worst = 0.0
    for which, analytic in (("w1", dw1), ("w2", dw2)):
        w = getattr(params, which)
        for a in range(w.shape[0]):
            for b in range(w.shape[1]):
                if which == "w1":
                    feeding = np.abs(u[:, a]) > 0
                    if np.any(np.abs(h_pre[feeding, b]) < kink_tol):
                        continue
                orig = w[a, b]
                w[a, b] = orig + step
                up = loss_at(params)
                w[a, b] = orig - step
                down = loss_at(params)
                w[a, b] = orig
                numeric = (up - down) / (2 * step)
                denom = max(abs(analytic[a, b]), abs(numeric), 1e-8)
                worst = max(worst, abs(analytic[a, b] - numeric) / denom)
    return worst


def save_checkpoint(trained: TrainedEncoder, path: str | Path) -> None:
    payload = {
        "kind": "gcn-encoder",
        "hidden": trained.config.hidden,
        "input_dim": trained.params.w1.shape[0],
        "class_count": trained.params.w2.shape[1],
        "seed": trained.config.seed,
        "w1": trained.params.w1.tolist(),
        "w2": trained.params.w2.tolist(),
    }
    Path(path).write_text(dumps(payload))

