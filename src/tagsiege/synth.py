"""Synthetic text-attributed graph generator.

A stochastic block model over balanced classes; each node's text mixes tokens
from a class-private vocabulary with shared and noise tokens, so labels are
recoverable from text and structure together — the property the attacks
exploit — without being trivially separable from either alone.
"""

from __future__ import annotations

import numpy as np

from .config import SynthConfig
from .graph import TextAttributedGraph
from .seeding import substream


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
    for c in range(config.class_count):
        members = [i for i in range(n) if labels[i] == c]
        members = [members[j] for j in split_rng.permutation(len(members))]
        n_train = round(config.train_frac * len(members))
        n_val = round(config.val_frac * len(members))
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
    degrees = np.diff(graph.adjacency.indptr)
    intra = sum(1 for u, v in graph.edges if graph.labels[u] == graph.labels[v])
    return {
        "node_count": graph.node_count,
        "edge_count": graph.edge_count,
        "class_count": graph.class_count,
        "mean_degree": float(np.mean(degrees)),
        "isolated_fraction": float(np.mean(degrees == 0)),
        "intra_class_edges": intra,
        "inter_class_edges": graph.edge_count - intra,
        "split_sizes": {
            s: len(graph.split_nodes(s)) for s in ("train", "val", "test")
        },
    }
