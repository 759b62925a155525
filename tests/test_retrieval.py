import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagsiege.errors import DegenerateVectorWarning, ShapeError
from tagsiege.nnops import pair_cosines, unit_rows
from tagsiege.retrieval import (
    InfluencerSet,
    retrieve_all,
    retrieve_influencers,
)
from tagsiege.seeding import substream

from cosine_reference import cosine


def brute_force_topk(embeddings, target, k):
    """Oracle: exhaustive sort by (-dissimilarity, id), skipping the target."""
    scored = []
    for i in range(len(embeddings)):
        if i == target:
            continue
        scored.append((-(1.0 - cosine(embeddings[target], embeddings[i])), i))
    scored.sort()
    return tuple(i for _, i in scored[:k])


def test_cosine_dissimilarity_known_values():
    # same, orthogonal, opposite and 45-degree rows, scored as retrieval does
    unit = unit_rows(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 1.0]]))
    assert 1.0 - pair_cosines(unit, [0, 0, 0, 0], [0, 1, 2, 3]) == pytest.approx(
        [0.0, 1.0, 2.0, 1 - 1 / np.sqrt(2)]
    )


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=5),
       st.floats(0.1, 7.0))
@settings(max_examples=60)
def test_cosine_scale_invariant(vec, scale):
    v = np.array(vec)
    if np.linalg.norm(v) == 0:
        return
    w = np.ones_like(v)
    a, b = [0, 2], [1, 1]  # v against w, scale * v against w
    assert pair_cosines(unit_rows(np.stack([v, w, scale * v])), a, b) == pytest.approx(
        pair_cosines(unit_rows(np.stack([v, w, v])), a, b), abs=1e-9
    )


def test_retrieval_matches_bruteforce_on_random_embeddings():
    rng = substream(42, "retrieval-test")
    Z = rng.normal(size=(50, 8))
    for target in (0, 17, 49):
        got = retrieve_influencers(Z, target, k=5)
        assert got.candidates == brute_force_topk(Z, target, 5)
        assert got.target == target


def test_retrieval_ties_break_by_lower_id():
    # nodes 1, 2, 3 all identical, all equally dissimilar to node 0
    Z = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    got = retrieve_influencers(Z, 0, k=2)
    assert got.candidates == (1, 2)


def test_retrieval_truncates_at_population():
    Z = np.eye(3)
    got = retrieve_influencers(Z, 0, k=10)
    assert len(got.candidates) == 2


def test_retrieval_excludes_target_and_validates():
    Z = np.eye(4)
    got = retrieve_influencers(Z, 2, k=4)
    assert 2 not in got.candidates
    with pytest.raises(ShapeError):
        retrieve_influencers(Z, 9, k=2)
    with pytest.raises(ShapeError):
        retrieve_influencers(Z, 0, k=0)


@st.composite
def tied_embeddings(draw):
    """Small integer rows, many of them duplicates, so scores tie often.

    Entries in [-3, 3] make inexact unit rows (a row scaled by 1/3), so
    duplicate rows tie exactly only if every score is summed in one fixed
    order, and the brute force (the scalar reference) agrees with retrieval
    only if retrieval computes exactly the documented arithmetic. Rows go up
    to 8 wide, where a blocked matrix-vector kernel sums duplicate rows in
    different orders.
    """
    dim = draw(st.integers(1, 8))
    base = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any),
        min_size=1, max_size=4,
    ))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=2, max_size=12))
    return np.array([base[i] for i in picks], dtype=float)


@given(tied_embeddings(), st.integers(1, 14))
@example(np.tile([1.0, 0.0, 2.0, 3.0, 1.0, 0.0, 0.0, 0.0], (3, 1)), 1)
@settings(max_examples=200, deadline=None)
def test_retrieve_all_matches_bruteforce_with_ties(Z, k):
    n = len(Z)
    sets = retrieve_all(Z, list(range(n)), k=k)
    for target in range(n):
        assert sets[target].candidates == brute_force_topk(Z, target, k)
        assert retrieve_influencers(Z, target, k) == sets[target]


def test_retrieve_all_zero_rows_score_one_and_warn():
    # row 2 is zero: dissimilarity 1.0, between node 1 (cos 0) and node 3 (cos -1)
    Z = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
    with pytest.warns(DegenerateVectorWarning):
        sets = retrieve_all(Z, [0, 2], k=4)
    assert sets[0].candidates == (3, 1, 2, 4)
    # every row scores 1.0 against a zero target, so ids come out in order
    assert sets[2].candidates == (0, 1, 3, 4)
    with pytest.warns(DegenerateVectorWarning):
        assert retrieve_influencers(Z, 0, k=4) == sets[0]
