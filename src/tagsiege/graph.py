"""Text-attributed graph data model, validation and disk formats.

Graphs are undirected, simple (no self-loops, no multi-edges) and immutable
after construction; every node carries a text, a class label and a split tag.

What a graph derives from its edges, `adjacency` (`nnops.CSRRows`, the type
of the TF-IDF features too), `gcn_propagation` and `mean_propagation` (scipy
CSR over `nnops.scipy_rows(adjacency)`), it builds on first read, read-only,
and keeps. Any thread may read them: Python 3.11 builds each once under a
lock, 3.12+ may build an equal value twice.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable

from .errors import GraphValidationError, ParseError
from .records import integer, read_jsonl, typed, write_jsonl

Edge = tuple[int, int]

SPLITS = ("train", "val", "test")


def canonical_edge(u: int, v: int) -> Edge:
    """Unordered pair stored as (min, max); self-loops are rejected."""
    if u == v:
        raise GraphValidationError(f"self-loop at node {u}")
    return (u, v) if u < v else (v, u)


def canonicalize_edges(pairs: Iterable[tuple[int, int]]) -> frozenset[Edge]:
    """Deduplicate and canonicalize an edge list."""
    return frozenset(canonical_edge(u, v) for u, v in pairs)


@dataclass(frozen=True)
class TextAttributedGraph:
    node_count: int
    edges: frozenset[Edge]
    texts: tuple[str, ...]
    labels: tuple[int, ...]
    splits: tuple[str, ...]
    class_count: int

    def __post_init__(self):
        n = self.node_count
        if n <= 0:
            raise GraphValidationError("graph needs at least one node")
        for name, seq in (("texts", self.texts), ("labels", self.labels), ("splits", self.splits)):
            if len(seq) != n:
                raise GraphValidationError(f"{name} has {len(seq)} entries for {n} nodes")
        if self.class_count < 1:
            raise GraphValidationError("class_count must be >= 1")
        for i, text in enumerate(self.texts):
            if not text:
                raise GraphValidationError(f"node {i} has empty text")
        for i, label in enumerate(self.labels):
            if not 0 <= label < self.class_count:
                raise GraphValidationError(
                    f"node {i} label {label} outside [0, {self.class_count})"
                )
        for i, split in enumerate(self.splits):
            if split not in SPLITS:
                raise GraphValidationError(f"node {i} split {split!r} not in {SPLITS}")
        for u, v in self.edges:
            if u == v:
                raise GraphValidationError(f"self-loop at node {u}")
            if not (u < v):
                raise GraphValidationError(f"edge ({u}, {v}) not in canonical (min, max) order")
            if v >= n or u < 0:
                raise GraphValidationError(f"edge ({u}, {v}) references a missing node")

    @classmethod
    def build(
        cls,
        texts: Iterable[str],
        labels: Iterable[int],
        splits: Iterable[str],
        edges: Iterable[tuple[int, int]],
        class_count: int | None = None,
    ) -> "TextAttributedGraph":
        """Construct from raw sequences; edges are canonicalized and deduplicated."""
        texts = tuple(texts)
        labels = tuple(int(x) for x in labels)
        splits = tuple(splits)
        if class_count is None:
            class_count = max(labels, default=-1) + 1
        return cls(
            node_count=len(texts),
            edges=canonicalize_edges(edges),
            texts=texts,
            labels=labels,
            splits=splits,
            class_count=class_count,
        )

    @cached_property
    def adjacency(self):
        """The symmetric 0/1 adjacency A as read-only (n, n) `nnops.CSRRows`:
        node i's neighbours, ascending, are indices[indptr[i]:indptr[i + 1]]
        (both int64), each with value 1.0."""
        import numpy as np

        from .nnops import CSRRows

        ends = np.array(list(self.edges), dtype=np.int64).reshape(-1, 2)
        rows = np.concatenate([ends[:, 0], ends[:, 1]])
        cols = np.concatenate([ends[:, 1], ends[:, 0]])
        indptr = np.zeros(self.node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.node_count), out=indptr[1:])
        indices = cols[np.lexsort((cols, rows))]
        return CSRRows(indptr, indices, np.ones(indices.size), (self.node_count,) * 2)

    @cached_property
    def gcn_propagation(self):
        """`normalize_adjacency` of this graph, the GCN's and SGC's â."""
        return _read_only(normalize_adjacency(self))

    @cached_property
    def mean_propagation(self):
        """`mean_aggregation` of this graph, mean-SAGE's neighbour mean."""
        return _read_only(mean_aggregation(self))

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Ascending neighbour ids (empty for an isolated node); IndexError
        for an id that is not a node."""
        if not 0 <= node < self.node_count:
            raise IndexError(f"node {node} not in [0, {self.node_count})")
        indptr, indices = self.adjacency.indptr, self.adjacency.indices
        return tuple(indices[indptr[node]:indptr[node + 1]].tolist())

    def degree(self, node: int) -> int:
        return len(self.neighbors(node))

    def has_edge(self, u: int, v: int) -> bool:
        """False for u == v: a simple graph has no self-loops."""
        return u != v and canonical_edge(u, v) in self.edges

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def split_nodes(self, split: str) -> tuple[int, ...]:
        if split not in SPLITS:
            raise GraphValidationError(f"unknown split {split!r}")
        return tuple(i for i, s in enumerate(self.splits) if s == split)

    def with_changes(self, *, edges=None, texts=None) -> "TextAttributedGraph":
        """Fresh graph sharing everything except the given fields."""
        kwargs = {}
        if edges is not None:
            kwargs["edges"] = frozenset(edges)
        if texts is not None:
            kwargs["texts"] = tuple(texts)
        return replace(self, **kwargs)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def _read_only(matrix):
    """`matrix` with its CSR arrays read-only, so an in-place write raises."""
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.flags.writeable = False
    return matrix


def normalize_adjacency(graph: TextAttributedGraph):
    """Symmetric renormalized adjacency D^{-1/2} (A + I) D^{-1/2} as CSR."""
    import numpy as np
    import scipy.sparse as sp

    from .nnops import scipy_rows

    a_tilde = scipy_rows(graph.adjacency) + sp.identity(graph.node_count, format="csr")
    deg = np.asarray(a_tilde.sum(axis=1)).ravel()
    d_half = sp.diags(1.0 / np.sqrt(deg))  # deg >= 1 thanks to the self loop
    return (d_half @ a_tilde @ d_half).tocsr()


def mean_aggregation(graph: TextAttributedGraph):
    """Row-normalized adjacency D^{-1} A as CSR; isolated nodes get an all-zero row."""
    import numpy as np
    import scipy.sparse as sp

    from .nnops import scipy_rows

    a = scipy_rows(graph.adjacency)
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    return (sp.diags(inv) @ a).tocsr()


NODE_FILE = "nodes.jsonl"
EDGE_FILE_CSV = "edges.csv"
EDGE_FILE_JSONL = "edges.jsonl"


def _node_record(rec: dict) -> tuple[int, tuple[str, int, str]]:
    """(id, (text, label, split)) of one nodes.jsonl object."""
    return integer(rec["id"]), (
        typed(rec["text"], str), integer(rec["label"]), typed(rec["split"], str)
    )


def _edge_record(rec: dict) -> tuple[int, int]:
    """(src, dst) of one edges.jsonl object."""
    return integer(rec["src"]), integer(rec["dst"])


def _is_int(field: str) -> bool:
    try:
        int(field)
    except ValueError:
        return False
    return True


def _read_edge_file(path: Path) -> list[tuple[int, int]]:
    if path.suffix == ".jsonl":
        return [pair for _, pair in read_jsonl(path, _edge_record)]
    pairs: list[tuple[int, int]] = []
    with path.open(newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if lineno == 1 and not _is_int(row[0]):
                continue  # header row
            if len(row) < 2:
                raise ParseError("edge row needs two columns", str(path), lineno)
            try:
                pairs.append((int(row[0]), int(row[1])))
            except ValueError as exc:
                raise ParseError(f"non-integer edge endpoint: {exc}", str(path), lineno) from exc
    return pairs


def dataset_files(path: str | Path) -> tuple[Path, Path]:
    """(node file, edge file) that `load_graph` reads from a dataset directory:
    nodes.jsonl, and edges.csv where present, else edges.jsonl."""
    root = Path(path)
    node_path = root / NODE_FILE
    if not node_path.exists():
        raise ParseError(f"missing {NODE_FILE} under {root}", str(root), 0)
    for edge_path in (root / EDGE_FILE_CSV, root / EDGE_FILE_JSONL):
        if edge_path.exists():
            return node_path, edge_path
    raise ParseError(f"missing {EDGE_FILE_CSV} or {EDGE_FILE_JSONL} under {root}", str(root), 0)


def load_graph(path: str | Path) -> TextAttributedGraph:
    """Load a dataset directory holding nodes.jsonl plus edges.csv or edges.jsonl."""
    node_path, edge_path = dataset_files(path)
    nodes: dict[int, tuple[str, int, str]] = {}
    for lineno, (node_id, node) in read_jsonl(node_path, _node_record):
        if node_id in nodes:
            raise ParseError(f"duplicate node id {node_id}", str(node_path), lineno)
        nodes[node_id] = node
    if not nodes:
        raise ParseError("node file is empty", str(node_path), 0)
    n = len(nodes)
    if sorted(nodes) != list(range(n)):
        raise GraphValidationError("node ids are not dense in [0, node_count)")
    # the constructor rejects edges to missing nodes
    texts, labels, splits = zip(*(nodes[i] for i in range(n)))
    return TextAttributedGraph.build(
        texts=texts, labels=labels, splits=splits, edges=_read_edge_file(edge_path)
    )


def save_graph(graph: TextAttributedGraph, path: str | Path) -> list[Path]:
    """Write the dataset directory (nodes.jsonl + edges.csv) with deterministic
    bytes; returns the two paths written."""
    node_path = write_jsonl(Path(path) / NODE_FILE, (
        {"id": i, "text": graph.texts[i], "label": graph.labels[i], "split": graph.splits[i]}
        for i in range(graph.node_count)
    ))
    edge_path = node_path.with_name(EDGE_FILE_CSV)
    with edge_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst"])
        for u, v in graph.sorted_edges():
            writer.writerow([u, v])
    return [node_path, edge_path]
