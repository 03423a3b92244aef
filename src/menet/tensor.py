"""Dense 4-D tensor helpers.

All activations, weights and gradients in this package are numpy float64
arrays in (n, c, h, w) layout. The functions here validate that layout and
provide the elementwise/reshaping primitives the rest of the package uses.
Every function is pure: inputs are never mutated.
"""

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor shapes violate an operation's contract."""


def check_nchw(x):
    if x.ndim != 4:
        raise ShapeError(f"expected 4-D (n, c, h, w) array, got ndim={x.ndim}")
    if any(d < 1 for d in x.shape):
        raise ShapeError(f"all dimensions must be >= 1, got {x.shape}")


def elementwise_combine(a, b, mode):
    """Combine two same-shaped tensors elementwise.

    mode 'product' multiplies (scaling-factor fusion), mode 'addition' adds
    (residual-style fusion).
    """
    check_nchw(a)
    check_nchw(b)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    if mode == "product":
        return a * b
    if mode == "addition":
        return a + b
    raise ValueError(f"unknown combine mode {mode!r}")


def concat_channels(a, b):
    """Concatenate along the channel axis; a's channels come first."""
    check_nchw(a)
    check_nchw(b)
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(
            f"batch/spatial mismatch: {a.shape} vs {b.shape}"
        )
    return np.concatenate([a, b], axis=1)


def slice_channels(x, start, stop):
    """Channel-range view copied out as a new tensor."""
    check_nchw(x)
    if not (0 <= start < stop <= x.shape[1]):
        raise ShapeError(f"channel range [{start}, {stop}) invalid for c={x.shape[1]}")
    return x[:, start:stop].copy()
