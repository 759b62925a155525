"""Small shared numerics: init, activations, the loss, the training loop,
`CSRRows` (the one numpy CSR type: a graph's adjacency and its TF-IDF
features) with `scipy_rows`, its one way into scipy, the dense-or-CSR choice
for fixed training operands, and the package's one cosine.

`fit` is the one full-batch Adam loop that trains the surrogate encoder and
every victim. Its losses write their dense activations and gradients into
buffers they allocate once per training run (`product` into `out=`), and its
Adam step does the same, so an epoch allocates only (n, classes) arrays (the
loss and scipy's sparse @ dense propagations) plus scipy's first-layer products
with a CSR operand. Everything here is plain numpy on float64, bit-stable per
platform; scipy is imported only where a CSR training operand is built
(`training_operand`, `scipy_rows`), so the cosine and the audit never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .errors import TrainingError

if TYPE_CHECKING:
    import scipy.sparse as sp

# A fixed training operand (a_hat @ X, X, m @ X, a_hat^K @ X) stays CSR when at
# most this share of its entries is nonzero. Measured crossover of `u @ W1`
# (u = a_hat @ X, h=64, one OpenBLAS thread, 2-vCPU VM), mean of 200 calls:
#   n=1000, |V|=344: u 5.2% nonzero, CSR 0.63 ms, dense 1.18 ms
#   n=500,  |V|=195: u 9.4% nonzero, CSR 0.35 ms, dense 0.41 ms
#   n=300,  |V|=133: u 14% nonzero,  CSR 0.19 ms, dense 0.14 ms
#   n=2000, |V|=64:  u 26% nonzero,  CSR 0.94 ms, dense 0.46 ms
SPARSE_OPERAND_MAX_DENSITY = 0.10


@dataclass(frozen=True)
class CSRRows:
    """A (rows, columns) float matrix, a graph's adjacency or its features, as
    read-only CSR arrays: row i's columns, ascending and each stored once, are
    indices[indptr[i]:indptr[i + 1]], and its values the same slice of data."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]
    ndim = 2

    def __post_init__(self):
        for array in (self.indptr, self.indices, self.data):
            array.flags.writeable = False

    @property
    def nnz(self) -> int:
        return self.data.size

    def row_ids(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(key, value) of every stored entry of the rows `rows` (ids, in any
        order, repeats allowed), where key = i * columns + column for an entry
        of rows[i]: ascending, since each row's columns ascend."""
        rows = np.asarray(rows, dtype=np.intp)
        starts, counts = self.indptr[rows], np.diff(self.indptr)[rows]
        ends = np.cumsum(counts)
        at = np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - (ends - counts), counts)
        keys = np.repeat(np.arange(rows.size) * self.shape[1], counts) + self.indices[at]
        return keys, self.data[at]

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.row_ids(), self.indices] = self.data
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # numpy and scipy callers (np.asarray(X), scipy_matrix @ X) see a
        # dense copy
        return self.toarray() if dtype is None else self.toarray().astype(dtype)


def csr_rows(x: np.ndarray | CSRRows) -> CSRRows:
    """`x` as CSRRows: itself, or a dense array's nonzero entries."""
    if isinstance(x, CSRRows):
        return x
    x = np.asarray(x, dtype=float)
    rows, cols = np.nonzero(x)  # row-major, so columns ascend within a row
    indptr = np.zeros(x.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=x.shape[0]), out=indptr[1:])
    return CSRRows(indptr, cols, x[rows, cols], x.shape)


def scipy_rows(x: np.ndarray | CSRRows) -> np.ndarray | sp.csr_matrix:
    """`x` as an operand of scipy products: CSRRows become a scipy CSR matrix
    over the same arrays; an ndarray comes back as it is. The propagations
    wrap `graph.adjacency` here, and training and prediction their features
    where their products start."""
    if not isinstance(x, CSRRows):
        return x
    import scipy.sparse as sp

    return sp.csr_matrix((x.data, x.indices, x.indptr), shape=x.shape)


def as_dense(x: np.ndarray | sp.spmatrix) -> np.ndarray:
    """`x` as a float ndarray, whether it came in dense or sparse."""
    return x.toarray() if hasattr(x, "toarray") else np.asarray(x, dtype=float)


def training_operand(x: np.ndarray | sp.spmatrix) -> sp.csr_matrix | np.ndarray:
    """`x` as CSR if at most SPARSE_OPERAND_MAX_DENSITY of its entries are
    nonzero, else as a dense ndarray. Products with either form agree up to
    float summation order."""
    import scipy.sparse as sp

    nnz = x.count_nonzero() if sp.issparse(x) else np.count_nonzero(x)
    size = x.shape[0] * x.shape[1]
    if size and nnz / size > SPARSE_OPERAND_MAX_DENSITY:
        return as_dense(x)
    return sp.csr_matrix(x)


def operand_form(x: np.ndarray | sp.spmatrix) -> str:
    return "dense" if isinstance(x, np.ndarray) else "csr"


def unit_rows(x: np.ndarray | CSRRows) -> np.ndarray | CSRRows:
    """Each row divided by its largest |entry|, then by its L2 norm.

    The first division keeps the squares from under- or overflowing; the norm
    is summed like `pair_cosines`. Zero rows stay zero, so they score cosine
    0.0 against every row. Dense input gives a new ndarray, CSRRows new CSRRows.
    """
    def nonzero(divisor: np.ndarray) -> np.ndarray:
        return np.where(divisor == 0.0, 1.0, divisor)

    if not isinstance(x, CSRRows):
        x = np.array(x, dtype=float)
        rows = np.arange(x.shape[0])
        x /= nonzero(np.max(np.abs(x), axis=1, initial=0.0))[:, None]
        x /= nonzero(np.sqrt(pair_cosines(x, rows, rows)))[:, None]
        return x
    counts, magnitudes = np.diff(x.indptr), np.abs(x.data)
    scale = np.zeros(x.shape[0])
    stored = counts > 0
    if magnitudes.size:
        scale[stored] = np.maximum.reduceat(magnitudes, x.indptr[:-1][stored])
    values = x.data / np.repeat(nonzero(scale), counts)
    # each row's squares in column order from 0.0, as `pair_cosines` sums them
    squares = np.bincount(x.row_ids(), weights=values * values, minlength=x.shape[0])
    values /= np.repeat(nonzero(np.sqrt(squares)), counts)
    return CSRRows(x.indptr, x.indices, values, x.shape)


def merge_entries(
    first: tuple[np.ndarray, np.ndarray], second: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Two ascending (key, value) runs of `CSRRows.entries` as one ascending
    run; on a key both hold, `first`'s entry comes just before `second`'s. A
    stable argsort merges the two runs in linear time, with the sort code
    `graph.adjacency`'s lexsort already runs."""
    keys = np.concatenate([first[0], second[0]])
    order = np.argsort(keys, kind="stable")
    return keys[order], np.concatenate([first[1], second[1]])[order]


def pair_cosines(
    unit: np.ndarray | CSRRows, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Cosine of rows `a[i]` and `b[i]` of `unit_rows` output: their dot,
    summed left to right over the columns, starting from 0.0.

    Each value depends only on its own two rows, so identical rows score
    identically, and dense and CSR input give the same bits. `a` and `b` are
    row ids of equal length; dense input also broadcasts them (one target
    against many rows, or a block of targets against all rows).
    """
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    if isinstance(unit, CSRRows):
        # scipy's `unit[a].multiply(unit[b]) @ ones` in numpy: the products
        # over the columns a pair shares, one running sum per pair
        keys, values = merge_entries(unit.entries(a), unit.entries(b))
        shared = np.flatnonzero(keys[1:] == keys[:-1])  # a's entry, then b's
        return np.bincount(
            keys[shared] // unit.shape[1], weights=values[shared] * values[shared + 1],
            minlength=a.size,
        )
    out = np.zeros(np.broadcast(a, b).shape)
    for column in unit.T:  # column by column, so every pair sums left to right
        out += column[a] * column[b]
    return out


def product(
    a: np.ndarray | sp.spmatrix, b: np.ndarray, out: np.ndarray | None
) -> np.ndarray:
    """a @ b, written into `out` when `a` is dense. scipy's sparse @ dense
    takes no `out=`, so a sparse `a` ignores `out` and gives a new array."""
    return np.matmul(a, b, out=out) if isinstance(a, np.ndarray) else a @ b


def product_buffer(a: np.ndarray | sp.spmatrix, columns: int) -> np.ndarray | None:
    """The `out` for `product(a, b)` with `b` of `columns` columns: None for
    a sparse `a`, else an uninitialised (rows of a, columns) array."""
    return np.empty((a.shape[0], columns)) if isinstance(a, np.ndarray) else None


def l2_penalty(weights: list[np.ndarray], scratch: list[np.ndarray]) -> float:
    """The sum over `weights` of sum(w ** 2), each square written into the
    matching `scratch` array."""
    return sum(float(np.sum(np.square(w, out=s))) for w, s in zip(weights, scratch))


def add_decay(grad: np.ndarray, w: np.ndarray, rate: float, scratch: np.ndarray) -> np.ndarray:
    """grad + rate * w, in place in `grad`, with `scratch` holding rate * w."""
    grad += np.multiply(w, rate, out=scratch)
    return grad


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_with_grad(
    logits: np.ndarray, labels: np.ndarray, rows: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the given rows, plus d(loss)/d(logits).

    The gradient is zero outside `rows`; inside it is (softmax - onehot) / m.
    """
    if rows.size == 0:
        raise TrainingError("loss requested over an empty node set")
    probs = softmax(logits[rows])
    picked = probs[np.arange(rows.size), labels[rows]]
    loss = float(-np.log(np.clip(picked, 1e-12, None)).mean())
    grad = np.zeros_like(logits)
    g = probs.copy()
    g[np.arange(rows.size), labels[rows]] -= 1.0
    grad[rows] = g / rows.size
    return loss, grad


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def fit(
    params: list[np.ndarray],
    loss_and_grads: Iterator[tuple[float, list[np.ndarray]]],
    epochs: int, learning_rate: float, what: str,
) -> list[float]:
    """Full-batch Adam on `params`, updated in place; returns the loss curve.

    Each `next(loss_and_grads)` evaluates the current `params` and gives the
    loss and one gradient per parameter, in the same order; the gradients may
    be buffers that the next `next` overwrites. A non-finite loss raises
    TrainingError naming `what`.

    The losses are endless generators, not functions, so each allocates its
    buffers once per run. The Adam step works in one scratch pair sized for
    the largest parameter, in the same operations and order as
    `p -= lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)`.
    """
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    largest = max(p.size for p in params)
    scratch = np.empty(largest), np.empty(largest)
    history: list[float] = []
    for t in range(1, epochs + 1):
        loss, grads = next(loss_and_grads)
        if not np.isfinite(loss):
            raise TrainingError(f"{what} is not finite ({loss})")
        history.append(loss)
        for p, g, m_p, v_p in zip(params, grads, m, v):
            step, root = (s[:p.size].reshape(p.shape) for s in scratch)
            m_p *= BETA1
            m_p += np.multiply(g, 1 - BETA1, out=step)
            v_p *= BETA2
            np.multiply(g, g, out=step)
            step *= 1 - BETA2
            v_p += step
            np.divide(m_p, 1 - BETA1 ** t, out=step)  # m_hat
            step *= learning_rate
            np.divide(v_p, 1 - BETA2 ** t, out=root)  # v_hat
            np.sqrt(root, out=root)
            root += EPS
            step /= root
            p -= step
    return history
