"""Tokenization and TF-IDF features.

The featurizer is deliberately simple and fully pinned down so that feature
vectors are reproducible across runs and machines: lowercase alphanumeric
tokens, a document-frequency-capped vocabulary frozen on the clean corpus,
and smoothed-idf-weighted raw term counts with no length normalization.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import MAX_VOCAB
from .errors import DegenerateInputError
from .graph import TextAttributedGraph
from .nnops import CSRRows

_TOKEN_RE = re.compile(r"[0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercased maximal alphanumeric runs, in order of appearance."""
    return _TOKEN_RE.findall(text.lower())


def token_edit_distance(old: str, new: str) -> int:
    """Size of the symmetric difference between the two token *sets*.

    Duplicates and word order are free; only adding or removing distinct
    tokens costs budget.
    """
    return len(set(tokenize(old)).symmetric_difference(tokenize(new)))


@dataclass(frozen=True)
class Vocabulary:
    """Term -> column index, plus the document frequencies behind the idf."""

    index: dict[str, int]
    document_frequency: dict[str, int]
    document_count: int

    @classmethod
    def from_texts(cls, texts: Iterable[str], max_size: int = MAX_VOCAB) -> "Vocabulary":
        texts = list(texts)
        if not texts:
            raise DegenerateInputError("cannot build a vocabulary from an empty corpus")
        if max_size < 1:
            raise DegenerateInputError("vocabulary max_size must be >= 1")
        df: dict[str, int] = {}
        for text in texts:
            for term in set(tokenize(text)):
                df[term] = df.get(term, 0) + 1
        if not df:
            raise DegenerateInputError("corpus contains no alphanumeric tokens")
        # Most frequent first; ties broken lexicographically so the cut is stable.
        ranked = sorted(df, key=lambda t: (-df[t], t))[:max_size]
        index = {term: i for i, term in enumerate(ranked)}
        return cls(
            index=index,
            document_frequency={t: df[t] for t in ranked},
            document_count=len(texts),
        )

    def __len__(self) -> int:
        return len(self.index)

    def idf(self, term: str) -> float:
        df = self.document_frequency[term]
        return math.log((1 + self.document_count) / (1 + df)) + 1.0

    def idf_vector(self) -> np.ndarray:
        out = np.empty(len(self.index))
        for term, i in self.index.items():
            out[i] = self.idf(term)
        return out


def build_vocabulary(graph: TextAttributedGraph, max_size: int = MAX_VOCAB) -> Vocabulary:
    return Vocabulary.from_texts(graph.texts, max_size=max_size)


def featurize(texts: Sequence[str], vocab: Vocabulary) -> CSRRows:
    """(n, |V|) TF-IDF matrix as read-only CSR rows: raw term count times
    smoothed idf.

    Terms outside the vocabulary are dropped; texts with no known terms get an
    empty row. Column indices are sorted within each row and duplicate terms
    are summed into one entry, so each value equals count * idf exactly. The
    index arrays are int32, scipy's own choice, whenever they fit, so
    `nnops.scipy_rows` wraps them without a copy.
    """
    indptr, indices, counts = [0], [], []
    for text in texts:
        row: dict[int, int] = {}
        for term in tokenize(text):
            col = vocab.index.get(term)
            if col is not None:
                row[col] = row.get(col, 0) + 1
        cols = sorted(row)
        indices += cols
        counts += [row[col] for col in cols]
        indptr.append(len(indices))
    shape = (len(indptr) - 1, len(vocab))
    index_type = np.int32 if max(len(indices), *shape) < 2**31 else np.int64
    indices = np.array(indices, dtype=index_type)
    data = np.array(counts, dtype=float)
    data *= vocab.idf_vector()[indices]
    return CSRRows(np.array(indptr, dtype=index_type), indices, data, shape)
