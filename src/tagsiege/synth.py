"""Synthetic text-attributed graph generator.

A stochastic block model over balanced classes; each node's text mixes tokens
from a class-private vocabulary with shared and noise tokens, so labels are
recoverable from text and structure together — the property the attacks
exploit — without being trivially separable from either alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .graph import TextAttributedGraph
from .seeding import substream


@dataclass(frozen=True)
class SynthConfig:
    node_count: int = 300
    class_count: int = 4
    p_in: float = 0.05
    p_out: float = 0.005
    tokens_per_text: int = 6
    class_vocab_size: int = 8
    shared_vocab_size: int = 12
    noise_rate: float = 0.05
    seed: int = 0
    split_fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)

    def __post_init__(self):
        if self.node_count < 2 or self.class_count < 1:
            raise ConfigurationError("need at least 2 nodes and 1 class")
        if self.node_count < self.class_count:
            raise ConfigurationError("fewer nodes than classes")
        for name in ("p_in", "p_out", "noise_rate"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name}={p} outside [0, 1]")
        if self.p_in <= self.p_out:
            raise ConfigurationError(
                f"p_in ({self.p_in}) must exceed p_out ({self.p_out})"
            )
        if self.tokens_per_text < 1:
            raise ConfigurationError("tokens_per_text must be >= 1")
        if self.class_vocab_size < 1:
            raise ConfigurationError("class_vocab_size must be >= 1")
        if len(self.split_fractions) != 3 or any(f < 0 for f in self.split_fractions):
            raise ConfigurationError("split_fractions must be three non-negative values")
        if abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise ConfigurationError("split_fractions must sum to 1")


def class_vocabulary(config: SynthConfig, label: int) -> list[str]:
    """Tokens private to one class; classes never share these."""
    return [f"c{label}w{j}" for j in range(config.class_vocab_size)]


def shared_vocabulary(config: SynthConfig) -> list[str]:
    return [f"shared{j}" for j in range(config.shared_vocab_size)]


def generate(config: SynthConfig) -> TextAttributedGraph:
    """Build the graph; deterministic given config.seed."""
    n = config.node_count
    labels = [i % config.class_count for i in range(n)]  # balanced ±1

    # One uniform per pair u < v, drawn a row of the upper triangle at a time:
    # the stream order is the row-major pair order, so the edge set equals
    # that of one scalar draw per pair, and no n×n array is ever built.
    edge_rng = substream(config.seed, "synth-edges")
    label_array = np.array(labels)
    edges = []
    for u in range(n - 1):
        p_row = np.where(label_array[u + 1:] == labels[u], config.p_in, config.p_out)
        hits = np.flatnonzero(edge_rng.random(n - u - 1) < p_row) + (u + 1)
        edges.extend((u, v) for v in hits.tolist())

    text_rng = substream(config.seed, "synth-texts")
    shared = shared_vocabulary(config)
    texts = []
    for i in range(n):
        own = class_vocabulary(config, labels[i])
        toks = []
        for _ in range(config.tokens_per_text):
            roll = text_rng.random()
            if roll < config.noise_rate:
                toks.append(f"noise{text_rng.integers(0, 10 * n)}")
            elif roll < config.noise_rate + 0.25 and shared:
                toks.append(shared[int(text_rng.integers(0, len(shared)))])
            else:
                toks.append(own[int(text_rng.integers(0, len(own)))])
        texts.append(" ".join(toks))

    split_rng = substream(config.seed, "synth-splits")
    splits = [""] * n
    f_train, f_val, _ = config.split_fractions
    for c in range(config.class_count):
        members = [i for i in range(n) if labels[i] == c]
        members = [members[j] for j in split_rng.permutation(len(members))]
        n_train = round(f_train * len(members))
        n_val = round(f_val * len(members))
        for idx, node in enumerate(members):
            if idx < n_train:
                splits[node] = "train"
            elif idx < n_train + n_val:
                splits[node] = "val"
            else:
                splits[node] = "test"

    return TextAttributedGraph.build(
        texts=texts,
        labels=labels,
        splits=splits,
        edges=edges,
        class_count=config.class_count,
    )


def summarize(graph: TextAttributedGraph) -> dict:
    """Quick structural profile, including the isolated-node fraction."""
    degrees = [graph.degree(i) for i in range(graph.node_count)]
    intra = sum(1 for u, v in graph.edges if graph.labels[u] == graph.labels[v])
    return {
        "node_count": graph.node_count,
        "edge_count": graph.edge_count,
        "class_count": graph.class_count,
        "mean_degree": float(np.mean(degrees)),
        "isolated_fraction": float(np.mean([d == 0 for d in degrees])),
        "intra_class_edges": intra,
        "inter_class_edges": graph.edge_count - intra,
        "split_sizes": {
            s: len(graph.split_nodes(s)) for s in ("train", "val", "test")
        },
    }
