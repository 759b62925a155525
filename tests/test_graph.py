import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagsiege.errors import GraphValidationError, ParseError
from tagsiege.graph import (
    TextAttributedGraph,
    canonical_edge,
    canonicalize_edges,
    dataset_files,
    load_graph,
    save_graph,
)


def tiny_graph():
    return TextAttributedGraph.build(
        texts=["alpha beta", "beta gamma", "gamma delta", "delta alpha"],
        labels=[0, 0, 1, 1],
        splits=["train", "train", "val", "test"],
        edges=[(0, 1), (1, 2), (2, 3), (3, 0)],
    )


def test_canonical_edge_orders_endpoints():
    assert canonical_edge(3, 1) == (1, 3)
    assert canonical_edge(1, 3) == (1, 3)
    with pytest.raises(GraphValidationError):
        canonical_edge(2, 2)


def test_canonicalize_deduplicates_both_orientations():
    assert canonicalize_edges([(0, 1), (1, 0), (0, 1)]) == frozenset({(0, 1)})


def test_build_infers_class_count():
    g = tiny_graph()
    assert g.class_count == 2
    assert g.node_count == 4
    assert g.edge_count == 4


def test_adjacency_and_degree():
    g = tiny_graph()
    assert g.neighbors(1) == (0, 2)
    assert g.degree(0) == 2  # edges (0,1) and (0,3)
    assert g.has_edge(3, 2)
    assert not g.has_edge(0, 2)


def test_isolated_node_has_empty_neighbors():
    g = TextAttributedGraph.build(
        texts=["a", "b", "c"],
        labels=[0, 0, 0],
        splits=["train", "train", "train"],
        edges=[(0, 1)],
    )
    assert g.neighbors(2) == ()
    assert g.degree(2) == 0


@st.composite
def graphs(draw):
    """Up to 12 nodes with any edge set, the empty one included, so isolated
    nodes and edgeless graphs come up."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    return TextAttributedGraph.build(
        texts=["t"] * n, labels=[0] * n, splits=["train"] * n, edges=edges
    )


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_neighbors_and_degree_match_the_edge_set(g):
    for node in range(g.node_count):
        expected = sorted({u + v - node for u, v in g.edges if node in (u, v)})
        assert g.neighbors(node) == tuple(expected)
        assert all(type(v) is int for v in g.neighbors(node))
        assert g.degree(node) == len(expected)
    for missing in (-1, g.node_count):
        with pytest.raises(IndexError):
            g.neighbors(missing)
    adjacency = g.adjacency
    assert adjacency.shape == (g.node_count, g.node_count)
    assert adjacency.indptr.tolist()[-1] == adjacency.indices.size == 2 * g.edge_count
    assert adjacency.data.tolist() == [1.0] * adjacency.nnz
    for array in (adjacency.indptr, adjacency.indices, adjacency.data):
        with pytest.raises(ValueError):
            array[...] = 0


def test_edgeless_graph_has_empty_adjacency():
    g = TextAttributedGraph.build(texts=["a", "b"], labels=[0, 1], splits=["train"] * 2, edges=[])
    adjacency = g.adjacency
    assert adjacency.indptr.tolist() == [0, 0, 0] and adjacency.indices.size == 0
    assert adjacency.data.size == 0 and not adjacency.data.flags.writeable
    assert g.neighbors(1) == () and g.degree(0) == 0
    assert np.array_equal(g.gcn_propagation.toarray(), np.eye(2))
    assert not g.mean_propagation.toarray().any()


def reference_propagations(g):
    """(gcn, mean) propagation of `g` built from `g.edges` through COO."""
    n = g.node_count
    ends = np.array(sorted(g.edges), dtype=np.int64).reshape(-1, 2)
    rows, cols = np.concatenate([ends[:, 0], ends[:, 1]]), np.concatenate([ends[:, 1], ends[:, 0]])
    a = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    a_tilde = a + sp.identity(n, format="csr")
    d_half = sp.diags(1.0 / np.sqrt(np.asarray(a_tilde.sum(axis=1)).ravel()))
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    return (d_half @ a_tilde @ d_half).tocsr(), (sp.diags(inv) @ a).tocsr()


@settings(max_examples=60, deadline=None)
@given(graphs())
@example(TextAttributedGraph.build(  # node 3 is isolated
    texts=["t"] * 4, labels=[0] * 4, splits=["train"] * 4, edges=[(0, 1), (1, 2), (0, 2)]))
@example(TextAttributedGraph.build(  # no edges
    texts=["t"] * 3, labels=[0] * 3, splits=["train"] * 3, edges=[]))
def test_propagations_keep_the_bits_of_a_coo_built_reference(g):
    for got, expected in zip((g.gcn_propagation, g.mean_propagation), reference_propagations(g)):
        for name in ("data", "indices", "indptr"):
            got_array, expected_array = getattr(got, name), getattr(expected, name)
            assert got_array.dtype == expected_array.dtype
            assert got_array.shape == expected_array.shape
            assert (got_array == expected_array).all()


def test_split_nodes():
    g = tiny_graph()
    assert g.split_nodes("train") == (0, 1)
    assert g.split_nodes("test") == (3,)
    with pytest.raises(GraphValidationError):
        g.split_nodes("dev")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(labels=[0, 0, 1, 5], class_count=2),  # label out of range
        dict(splits=["train"] * 3 + ["x"]),  # unknown split
        dict(texts=["a", "b", "c", ""]),     # empty text
        dict(edges=[(0, 9)]),                # dangling endpoint
    ],
)
def test_validation_rejects_bad_input(kwargs):
    base = dict(
        texts=["a", "b", "c", "d"],
        labels=[0, 0, 1, 1],
        splits=["train", "train", "val", "test"],
        edges=[(0, 1)],
        class_count=None,
    )
    base.update(kwargs)
    with pytest.raises(GraphValidationError):
        TextAttributedGraph.build(**base)


def test_with_changes_is_nondestructive():
    g = tiny_graph()
    g2 = g.with_changes(edges=canonicalize_edges([(0, 2)]))
    assert g.edge_count == 4
    assert g2.edge_count == 1
    assert g2.texts == g.texts


def test_roundtrip_is_byte_identical(tmp_path):
    g = tiny_graph()
    save_graph(g, tmp_path / "d1")
    loaded = load_graph(tmp_path / "d1")
    assert loaded == g
    save_graph(loaded, tmp_path / "d2")
    for name in ("nodes.jsonl", "edges.csv"):
        assert (tmp_path / "d1" / name).read_bytes() == (tmp_path / "d2" / name).read_bytes()


def test_load_accepts_jsonl_edges(tmp_path):
    g = tiny_graph()
    save_graph(g, tmp_path)
    (tmp_path / "edges.csv").unlink()
    with (tmp_path / "edges.jsonl").open("w") as fh:
        for u, v in g.sorted_edges():
            fh.write(json.dumps({"src": u, "dst": v}) + "\n")
    assert load_graph(tmp_path) == g


@pytest.mark.parametrize("first", ["+0,1", "0,1", " 0 ,1", "-0,1", "src,dst\n0,1"])
def test_a_first_csv_row_is_a_header_only_when_its_first_field_is_not_an_int(tmp_path, first):
    save_graph(tiny_graph(), tmp_path)
    (tmp_path / "edges.csv").write_text(first + "\n1,2\n")
    assert load_graph(tmp_path).sorted_edges() == [(0, 1), (1, 2)]


def test_load_reports_line_numbers(tmp_path):
    save_graph(tiny_graph(), tmp_path)
    node_path = tmp_path / "nodes.jsonl"
    lines = node_path.read_text().splitlines()
    lines[2] = "{not json"
    node_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_graph(tmp_path)
    assert "nodes.jsonl:3" in str(err.value)


def test_load_rejects_duplicate_ids(tmp_path):
    save_graph(tiny_graph(), tmp_path)
    node_path = tmp_path / "nodes.jsonl"
    first = node_path.read_text().splitlines()[0]
    with node_path.open("a") as fh:
        fh.write(first + "\n")
    with pytest.raises(ParseError) as err:
        load_graph(tmp_path)
    assert "duplicate" in str(err.value)


def test_load_rejects_sparse_ids(tmp_path):
    Path(tmp_path / "nodes.jsonl").write_text(
        json.dumps({"id": 0, "text": "a", "label": 0, "split": "train"}) + "\n"
        + json.dumps({"id": 5, "text": "b", "label": 0, "split": "train"}) + "\n"
    )
    Path(tmp_path / "edges.csv").write_text("src,dst\n")
    with pytest.raises(GraphValidationError):
        load_graph(tmp_path)


def test_load_missing_files(tmp_path):
    with pytest.raises(ParseError):
        load_graph(tmp_path)


def test_dataset_files_names_the_edge_file_load_graph_reads(tmp_path):
    g = tiny_graph()
    save_graph(g, tmp_path)
    # a stray edges.jsonl beside edges.csv is not read
    (tmp_path / "edges.jsonl").write_text("{not json\n")
    assert dataset_files(tmp_path) == (tmp_path / "nodes.jsonl", tmp_path / "edges.csv")
    assert load_graph(tmp_path) == g
    (tmp_path / "edges.csv").unlink()
    assert dataset_files(tmp_path) == (tmp_path / "nodes.jsonl", tmp_path / "edges.jsonl")
    with pytest.raises(ParseError):
        load_graph(tmp_path)
    (tmp_path / "edges.jsonl").unlink()
    with pytest.raises(ParseError, match="missing edges.csv or edges.jsonl"):
        dataset_files(tmp_path)
