"""Influencer retrieval: most-dissimilar nodes in embedding space.

For each target we keep the K nodes whose embeddings have the largest cosine
dissimilarity to the target's — the candidates most likely to drag the target
across a decision boundary when wired in.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateVectorWarning, ParseError, ShapeError

DEFAULT_K = 5


def cosine_dissimilarity(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cos(a, b), in [0, 2]. Zero-norm inputs fall back to 1.0 (orthogonal)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ShapeError(f"vector shapes differ: {a.shape} vs {b.shape}")
    # scale by the largest component first so squaring cannot under/overflow
    sa = np.max(np.abs(a), initial=0.0)
    sb = np.max(np.abs(b), initial=0.0)
    if sa == 0.0 or sb == 0.0:
        warnings.warn(
            "cosine against a zero vector; treating as orthogonal",
            DegenerateVectorWarning,
            stacklevel=2,
        )
        return 1.0
    a = a / sa
    b = b / sb
    return float(1.0 - np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def _scaled_rows(embeddings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows divided by their largest |component|, and the norms of those rows.

    Zero rows stay zero with norm 0.0 and raise one DegenerateVectorWarning.
    """
    scales = np.max(np.abs(embeddings), axis=1, initial=0.0)
    zero = scales == 0.0
    if zero.any():
        warnings.warn(
            f"{int(zero.sum())} zero embedding rows; treating them as orthogonal",
            DegenerateVectorWarning,
            stacklevel=3,
        )
        scales = np.where(zero, 1.0, scales)
    scaled = embeddings / scales[:, None]
    return scaled, np.linalg.norm(scaled, axis=1)


@dataclass(frozen=True)
class InfluencerSet:
    target: int
    candidates: tuple[int, ...]  # most dissimilar first


def _top_k(scaled: np.ndarray, norms: np.ndarray, target: int, k: int) -> InfluencerSet:
    """The k rows most dissimilar to `target`, from `_scaled_rows` output.

    Dissimilarity is 1 - cos, computed as one matrix-vector product over the
    pre-scaled rows; a pair involving a zero row scores 1.0 (orthogonal).
    Ties break by lower id: argpartition finds the k-th best score, then every
    non-target id scoring at least that well is sorted by (-score, id), so
    the result equals a full sort of all n ids. The target never appears.
    """
    n = scaled.shape[0]
    if not 0 <= target < n:
        raise ShapeError(f"target {target} outside embedding rows [0, {n})")
    if k < 1:
        raise ShapeError("k must be >= 1")
    k = min(k, n - 1)
    if k == 0:
        return InfluencerSet(target=target, candidates=())
    with np.errstate(divide="ignore", invalid="ignore"):
        dissim = 1.0 - (scaled @ scaled[target]) / (norms * norms[target])
    dissim[norms == 0.0] = 1.0
    if norms[target] == 0.0:
        dissim[:] = 1.0
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
    embeddings = np.asarray(embeddings, dtype=float)
    return _top_k(*_scaled_rows(embeddings), target, k)


def retrieve_all(
    embeddings: np.ndarray, targets: list[int], k: int = DEFAULT_K
) -> dict[int, InfluencerSet]:
    """`retrieve_influencers` for every target, normalising the rows once.

    The scaled rows and their norms are computed once per call rather than
    once per target; each target then costs one matrix-vector product and a
    partial sort (`_top_k`), with the same results and tie rule. Zero rows
    warn once per call and score 1.0 against every other row.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    scaled, norms = _scaled_rows(embeddings)
    return {t: _top_k(scaled, norms, t, k) for t in targets}


def save_influencers(sets: dict[int, InfluencerSet], path: str | Path) -> None:
    with Path(path).open("w") as fh:
        for target in sorted(sets):
            rec = {"target": target, "candidates": list(sets[target].candidates)}
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


def load_influencers(path: str | Path) -> dict[int, InfluencerSet]:
    p = Path(path)
    out: dict[int, InfluencerSet] = {}
    with p.open() as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw)
                target = int(rec["target"])
                candidates = tuple(int(c) for c in rec["candidates"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad influencer record: {exc}", str(p), lineno) from exc
            if target in out:
                raise ParseError(f"duplicate target {target}", str(p), lineno)
            out[target] = InfluencerSet(target=target, candidates=candidates)
    return out
