"""Dense 4-D tensor helpers.

All activations, weights and gradients in this package are numpy float64
arrays in (n, c, h, w) layout. The functions here validate that layout and
provide the elementwise/reshaping primitives the rest of the package uses.
Every function is pure: inputs are never mutated.
"""

import numbers

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor shapes violate an operation's contract."""


def check_nchw(x):
    if x.ndim != 4:
        raise ShapeError(f"expected 4-D (n, c, h, w) array, got ndim={x.ndim}")
    if min(x.shape) < 1:
        raise ShapeError(f"all dimensions must be >= 1, got {x.shape}")


def check_groups(channels, groups, what="channels"):
    """``channels`` split into ``groups`` equal groups, as grouped convs and
    the channel shuffle need; ``what`` names the channel count."""
    for name, value in ((what, channels), ("groups", groups)):
        check_integer(name, value)
        if value < 1:
            raise ShapeError(f"{name} must be >= 1, got {value}")
    if channels % groups:
        raise ShapeError(f"{what}={channels} not divisible by groups={groups}")


def check_integer(name, value):
    """An integer, Python's or numpy's, not a bool."""
    if type(value) is bool or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_count(name, value, low=1, prefix=""):
    """A count of steps, samples, pixels or channels: an integer, not a
    bool, and at least ``low``, which ``prefix`` may explain."""
    check_integer(name, value)
    if value < low:
        raise ValueError(f"{prefix}{name} must be >= {low}, got {value}")


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

