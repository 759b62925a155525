"""Influencer retrieval: most-dissimilar nodes in embedding space.

For each target we keep the K nodes whose embeddings have the largest cosine
dissimilarity 1 - cos to the target's — the candidates most likely to drag
the target across a decision boundary when wired in. The cosine is the
package's one definition, `nnops.pair_cosines` over `nnops.unit_rows`: a pair
involving a zero row has cosine 0.0, so dissimilarity 1.0 (orthogonal).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_K
from .errors import DegenerateVectorWarning, ShapeError
from .nnops import pair_cosines, unit_rows

# targets scored together: at most this many (target, node) cosines at once
SCORE_BLOCK = 1 << 16


@dataclass(frozen=True)
class InfluencerSet:
    target: int
    candidates: tuple[int, ...]  # most dissimilar first


def _top_k(dissim: np.ndarray, target: int, k: int) -> InfluencerSet:
    """The k ids most dissimilar to `target`, from its row of dissimilarities.

    Ties break by lower id: argpartition finds the k-th best score, then every
    non-target id scoring at least that well is sorted by (-score, id), so
    the result equals a full sort of all n ids. The target never appears.
    """
    n = dissim.size
    k = min(k, n - 1)
    if k == 0:
        return InfluencerSet(target=target, candidates=())
    ids = np.delete(np.arange(n), target)
    neg = -dissim[ids]
    kth = neg[np.argpartition(neg, k - 1)[k - 1]]
    pool = ids[~(neg > kth)]  # a NaN k-th score keeps every id; lexsort puts NaN last
    # lexsort: last key is primary -> sort by -dissim, then id ascending
    order = np.lexsort((pool, -dissim[pool]))
    return InfluencerSet(target=target, candidates=tuple(pool[order[:k]].tolist()))


def retrieve_influencers(
    embeddings: np.ndarray, target: int, k: int = DEFAULT_K
) -> InfluencerSet:
    """Top-k most-dissimilar nodes to the target, ties broken by lower id."""
    return retrieve_all(embeddings, [target], k)[target]


def retrieve_all(
    embeddings: np.ndarray, targets: list[int], k: int = DEFAULT_K
) -> dict[int, InfluencerSet]:
    """`retrieve_influencers` for every target, normalising the rows once.

    The unit rows are computed once per call, and blocks of targets are
    scored against all n rows at once, each block then cut to its top k
    (`_top_k`). Zero rows warn once per call and score 1.0 against every
    other row.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    targets, n = list(targets), embeddings.shape[0]
    for target in targets:
        if not 0 <= target < n:
            raise ShapeError(f"target {target} outside embedding rows [0, {n})")
    if k < 1:
        raise ShapeError("k must be >= 1")
    zero = int(np.count_nonzero(~embeddings.any(axis=1)))
    if zero:
        warnings.warn(
            f"{zero} zero embedding rows; treating them as orthogonal",
            DegenerateVectorWarning,
            stacklevel=2,
        )
    unit = unit_rows(embeddings)
    block = max(1, SCORE_BLOCK // max(n, 1))
    out: dict[int, InfluencerSet] = {}
    for start in range(0, len(targets), block):
        chunk = targets[start : start + block]
        dissim = 1.0 - pair_cosines(unit, np.array(chunk)[:, None], np.arange(n))
        out.update((t, _top_k(row, t, k)) for t, row in zip(chunk, dissim))
    return out

