"""Scalar reference for the package's one cosine (`nnops.unit_rows` and
`nnops.pair_cosines`), one float operation at a time in the documented order.
"""

import math


def unit_row(x):
    """`x` divided by its largest |entry|, then by the L2 norm of the result,
    its squares summed left to right from 0.0. A zero row stays zero."""
    x = [float(v) for v in x]
    scale = max((abs(v) for v in x), default=0.0)
    if scale == 0.0:
        return [0.0] * len(x)
    scaled = [v / scale for v in x]
    squares = 0.0
    for v in scaled:
        squares += v * v
    norm = math.sqrt(squares)
    return [v / norm for v in scaled]


def cosine(x, y):
    """Dot of the two unit rows, summed left to right from 0.0."""
    total = 0.0
    for a, b in zip(unit_row(x), unit_row(y)):
        total += a * b
    return total
