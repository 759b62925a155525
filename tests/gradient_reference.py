"""Central-difference check of the GCN's hand-written gradients
(`encoder._loss_and_grads`), over every weight coordinate.
"""

import numpy as np

from tagsiege.encoder import _loss_and_grads
from tagsiege.nnops import as_dense


def gradient_check(
    weights: dict[str, np.ndarray],
    a_hat,
    features,
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
    h_pre = u @ weights["w1"]

    def loss_at(p: dict[str, np.ndarray]) -> float:
        return next(_loss_and_grads(p, a_hat, u, labels, train_rows, weight_decay))[0]

    _, (dw1, dw2) = next(_loss_and_grads(weights, a_hat, u, labels, train_rows, weight_decay))
    worst = 0.0
    for which, analytic in (("w1", dw1), ("w2", dw2)):
        w = weights[which]
        for a in range(w.shape[0]):
            for b in range(w.shape[1]):
                if which == "w1":
                    feeding = np.abs(u[:, a]) > 0
                    if np.any(np.abs(h_pre[feeding, b]) < kink_tol):
                        continue
                orig = w[a, b]
                w[a, b] = orig + step
                up = loss_at(weights)
                w[a, b] = orig - step
                down = loss_at(weights)
                w[a, b] = orig
                numeric = (up - down) / (2 * step)
                denom = max(abs(analytic[a, b]), abs(numeric), 1e-8)
                worst = max(worst, abs(analytic[a, b] - numeric) / denom)
    return worst
