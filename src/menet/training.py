"""Desk-scale training harness: softmax cross-entropy, SGD with momentum
and weight decay, step learning-rate schedule, synthetic data, and the
finite-difference gradient checker.

Paper-scale defaults (batch 256, 120 epochs, lr 0.1 divided by 10 every 30
epochs, momentum 0.9, weight decay 4e-5) are kept as the "paper" preset;
the desk preset shrinks batch and epoch counts for CPU runs.

The gradient checker runs the whole unit for every finite difference, but
while it nudges the parameters of one layer, their owner, every other layer
returns its last output again when called on the very same input array:
the layers upstream of the owner, and those in the other branch of a
module, see the same input and the same weights as before. This rests on
two facts the test suite holds: a train forward reads only its input and
its own parameters, and no layer, chain or module writes into its input.
No parameter belongs to two layers: each keeps its own gradient, so tied
weights would fail the analytic side first. So the reused output is the
one the layer would compute, and the numeric gradients are byte for byte
those of re-running every layer. For the whole check, every batch norm
holds its running statistics still: no train output reads them, so the
train forwards leave them, the very same arrays, as they were.
"""

import contextlib
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .layers import BatchNorm2d, Chain
from .network import Network
from .tensor import check_count

PRESETS = {
    "paper": {"batch_size": 256, "epochs": 120, "base_lr": 0.1,
              "momentum": 0.9, "weight_decay": 4e-5, "step_epochs": 30},
    "desk": {"batch_size": 32, "epochs": 30, "base_lr": 0.1,
             "momentum": 0.9, "weight_decay": 4e-5, "step_epochs": 30},
}

# a step loss above this multiple of ln(classes) (a uniform guess) diverged
DIVERGENCE_FACTOR = 100


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def cross_entropy(logits, labels):
    """Mean negative log softmax likelihood and its logits gradient."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels)
    if logits.ndim != 2 or 0 in logits.shape:
        raise ValueError("logits must be (batch, classes) with both >= 1, "
                         f"got shape {logits.shape}")
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} != ({n},)")
    if labels.dtype == bool:
        raise ValueError("labels must be integers, got bools")
    if labels.dtype.kind not in "iu":
        # no cast truncates: a non-finite or fractional label is named
        values = labels.astype(float)
        whole = np.isfinite(values) & (np.floor(values) == values)
        if not whole.all():
            i = int(np.argmin(whole))
            raise ValueError(f"labels must be integers, got {labels[i]} "
                             f"at index {i}")
    labels = labels.astype(int, copy=False)
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels out of range [0, {k})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -log_probs[np.arange(n), labels].mean()
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

def _check_finite(name, value, positive):
    """A finite number, not a bool, > 0 if ``positive`` and >= 0
    otherwise."""
    if not (type(value) is not bool and isinstance(value, numbers.Real)
            and math.isfinite(value)
            and (value > 0 if positive else value >= 0)):
        raise ValueError(f"{name} must be a finite number "
                         f"{'>' if positive else '>='} 0, got {value}")


@dataclass
class Schedule:
    base_lr: float = 0.1
    step_epochs: int = 30
    total_epochs: int = 120

    def __post_init__(self):
        _check_finite("base_lr", self.base_lr, positive=True)
        check_count("step_epochs", self.step_epochs)
        check_count("total_epochs", self.total_epochs)

    def lr_at(self, epoch):
        if not 0 <= epoch < self.total_epochs:
            raise ValueError(f"epoch {epoch} outside [0, {self.total_epochs})")
        return self.base_lr * 0.1 ** (epoch // self.step_epochs)


class SGD:
    """SGD with momentum; weight decay hits only ``*.weight`` parameters
    (convolution and fully-connected kernels), never BN gamma/beta or
    biases."""

    def __init__(self, lr=0.1, momentum=0.9, weight_decay=4e-5):
        _check_finite("lr", lr, positive=True)
        _check_finite("momentum", momentum, positive=False)
        _check_finite("weight_decay", weight_decay, positive=False)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {}

    def step(self, net: Network):
        grads = net.grads
        for name, p in net.params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ValueError(f"gradient shape mismatch for {name}")
            wd = self.weight_decay if name.endswith(".weight") else 0.0
            v = self.velocity.get(name)
            if v is None:
                v = self.velocity[name] = np.zeros_like(p)
            # v = momentum * v + g + wd * p, then p -= lr * v, in place
            v *= self.momentum
            v += g
            v += wd * p
            p -= self.lr * v


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

def _check_class_count(classes):
    """An integer from 1 to 256; labels are stored as u8."""
    if type(classes) is bool or not isinstance(classes, numbers.Integral):
        raise ValueError(f"class_count must be an integer, got {classes!r}")
    if not 1 <= classes <= 256:
        raise ValueError(f"class_count {classes} outside [1, 256] "
                         "(labels are stored as u8)")


@dataclass
class Dataset:
    """Images and labels stored as u8. A u8 array is kept, sharing memory
    with the caller's (``load_dataset`` holds one copy of the pixels); any
    other is checked, then copied to u8."""

    images: np.ndarray  # u8, (count, c, h, w)
    labels: np.ndarray  # u8 class ids
    class_count: int

    def __post_init__(self):
        _check_class_count(self.class_count)
        self.class_count = int(self.class_count)  # JSON takes no numpy int
        images = np.asarray(self.images)
        labels = np.asarray(self.labels)
        if labels.dtype == bool:
            raise ValueError("labels must be integers, got bools")
        if images.ndim != 4 or labels.shape != (len(images),):
            raise ValueError("images must be (count, c, h, w) with matching labels")
        if len(images) == 0:
            raise ValueError("dataset is empty")
        # a u8 array holds only integers in [0, 255]; others are checked
        if images.dtype != np.uint8 and not np.all(
                (images >= 0) & (images <= 255) & (images % 1 == 0)):
            raise ValueError(f"pixels must be integers in [0, 255], got "
                             f"[{images.min()}, {images.max()}]")
        self.images = images.astype(np.uint8, copy=False)
        # the range test goes first, so ``% 1`` never sees inf or nan
        if not (np.all((labels >= 0) & (labels < self.class_count))
                and np.all(labels % 1 == 0)):
            raise ValueError(
                f"labels must be integers in [0, {self.class_count}), got "
                f"[{labels.min()}, {labels.max()}]")
        self.labels = labels.astype(np.uint8, copy=False)

    def __len__(self):
        return len(self.images)


def _to_float(pixels):
    """u8 pixels as float64 in [-1, 1]."""
    return pixels.astype(np.float64) / 127.5 - 1.0


def make_synthetic_dataset(count=64, size=8, classes=2, seed=0):
    """Linearly separable toy set of RGB images: each class lights up its
    own vertical band, plus mild noise. Every class needs a band at least
    one pixel wide, so ``classes`` may not exceed ``size``."""
    check_count("count", count, prefix="dataset is empty: ")
    check_count("size", size)
    _check_class_count(classes)
    if classes > size:
        raise ValueError(
            f"{classes} classes need images at least {classes} px wide "
            f"(one band column per class), got size {size}")
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 60, size=(count, 3, size, size),
                          dtype=np.uint8)
    labels = np.arange(count) % classes
    band = max(1, size // classes)
    for i, lab in enumerate(labels):
        x0 = int(lab) * band
        images[i, :, :, x0:x0 + band] = rng.integers(
            180, 255, size=(3, size, band), dtype=np.uint8)
    perm = rng.permutation(count)
    return Dataset(images[perm], labels[perm], classes)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def train_loop(net: Network, data: Dataset, sched: Schedule, opt: SGD,
               epochs, seed=0, batch_size=32, log=None):
    """Seed-deterministic SGD loop; returns [(epoch, lr, loss, accuracy)].
    A step whose loss is not finite, or above ``DIVERGENCE_FACTOR`` times
    the log of the logits width, raises ``ValueError`` before its update."""
    check_count("epochs", epochs)
    check_count("batch_size", batch_size)
    shape = data.images.shape[1:]
    _check_fits(net, data)
    _check_smallest_batch(net, shape, len(data), batch_size)
    y_all = data.labels.astype(int)
    rng = np.random.default_rng(seed)
    history = []
    for epoch in range(epochs):
        opt.lr = sched.lr_at(epoch)
        order = rng.permutation(len(data))
        losses = []
        correct = 0
        for start in range(0, len(data), batch_size):
            idx = order[start:start + batch_size]
            yb = y_all[idx]
            net.zero_grad()
            logits = net.forward(_to_float(data.images[idx]), train=True)
            loss, grad = cross_entropy(logits, yb)
            limit = DIVERGENCE_FACTOR * math.log(logits.shape[1])
            if not loss <= limit:
                above = (f", above the divergence limit {limit:.4g} "
                         f"({DIVERGENCE_FACTOR} * ln {logits.shape[1]})"
                         if np.isfinite(loss) else "")
                raise ValueError(f"loss is {loss} at epoch {epoch}, "
                                 f"batch offset {start}{above}")
            net.backward(grad)
            opt.step(net)
            losses.append(loss * len(idx))
            correct += int((logits.argmax(axis=1) == yb).sum())
        record = (epoch, opt.lr, sum(losses) / len(data), correct / len(data))
        history.append(record)
        if log is not None:
            log(f"epoch {record[0]} lr {record[1]:.6g} "
                f"loss {record[2]:.6f} acc {record[3]:.4f}")
    return history


def _check_fits(net, data):
    """Reject, before any forward, a dataset whose images the network does
    not take or whose labels it cannot output."""
    channels = data.images.shape[1]
    if channels != net.in_channels:
        raise ValueError(f"dataset has {channels} channels, network expects "
                         f"{net.in_channels}")
    if data.class_count > net.num_classes:
        raise ValueError(f"dataset has {data.class_count} classes, network "
                         f"outputs {net.num_classes}")


def _check_smallest_batch(net, shape, count, batch_size):
    """Reject, before any step, a split into batches whose smallest batch
    leaves some batch norm fewer than 2 values per channel."""
    smallest = count % batch_size or batch_size
    for name, layer, (_, h, w) in net.walk(shape):
        if isinstance(layer, BatchNorm2d) and smallest * h * w < 2:
            raise ValueError(
                f"{count} samples at batch size {batch_size} leave a last "
                f"batch of {smallest}, which gives batch norm {name} "
                f"{smallest * h * w} value per channel (needs at least 2); "
                "change the batch size or the sample count")


def evaluate(net: Network, data: Dataset):
    """Eval-mode accuracy (running BN statistics), 64 samples at a time."""
    _check_fits(net, data)
    y_all = data.labels.astype(int)
    correct = 0
    for start in range(0, len(data), 64):
        logits = net.forward(_to_float(data.images[start:start + 64]),
                             train=False)
        correct += int((logits.argmax(axis=1) == y_all[start:start + 64]).sum())
    return correct / len(data)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def relative_error(analytic, numeric):
    """|a - f| / max(|a|, |f|, 1e-8), with differences below 1e-7 treated
    as agreement.

    The absolute floor is needed because central differences resolve a
    gradient only down to roughly 1e-8; an exactly-zero analytic gradient
    (they occur: a per-channel shift feeding a train-mode batch norm has
    zero true gradient) would otherwise score FD noise against the 1e-8
    denominator floor.
    """
    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return np.where(diff < 1e-7, 0.0, diff / denom)


def numerical_gradient(f, arr):
    """Central differences with per-element step 1e-6 * (1 + |value|)."""
    grad = np.zeros_like(arr, dtype=float)
    # index ``arr`` itself, in C order: reshape copies a non-contiguous one
    for i in np.ndindex(arr.shape):
        orig = arr[i]
        h = 1e-6 * (1.0 + abs(orig))
        arr[i] = orig + h
        fp = f()
        arr[i] = orig - h
        fm = f()
        arr[i] = orig
        grad[i] = (fp - fm) / (2 * h)
    return grad


def gradcheck(unit, x, seed=0):
    """Max relative error of analytic vs finite-difference gradients.

    ``unit`` is any layer, module, or Network, run in train mode. The scalar
    objective is a fixed random projection of the output.
    """
    return gradcheck_errors(unit, x, seed)[0]


def _memo(forward):
    """``forward`` that returns its last output again when called on the
    very input array it last ran on."""
    last = (None, None)

    def memo(x, train=False):
        nonlocal last
        if last[0] is not x:
            last = (x, forward(x, train))
        return last[1]

    return memo


@contextlib.contextmanager
def _setting(overrides):
    """Within it, each (obj, name, value) of ``overrides`` is an instance
    attribute of obj; on exit, also on error, each object's own instance
    value, such as an instance override of ``forward``, is put back, or the
    attribute removed where it had none."""
    saved = []
    try:
        for obj, name, value in overrides:
            saved.append((obj, name, vars(obj).get(name)))
            setattr(obj, name, value)
        yield
    finally:
        for obj, name, own in saved:
            if own is None:
                delattr(obj, name)
            else:
                setattr(obj, name, own)


def gradcheck_errors(unit, x, seed=0):
    """``gradcheck``'s max relative error and, from the same pass, the max
    |analytic - numeric|: the margin that the 1e-7 agreement floor hides.
    A NaN anywhere makes both NaN, which fails any ``<`` test.

    The numeric gradients of one layer's parameters are built together,
    while every other layer reuses its output on an unchanged input (see
    the module docstring); the input's own differences, which perturb ``x``
    in place, re-run every layer. The layers are listed once through a
    one-step chain, a bare layer as its only one. Every batch norm holds
    its running statistics still for the whole check, also when it raises,
    and every train cache below ``unit`` is cleared."""
    chain = Chain(("unit", unit))
    layers = list({id(layer): layer
                   for _, layer in chain.all_layers()}.values())
    rng = np.random.default_rng(seed)
    x = np.array(x, dtype=float)
    probe = None

    def objective():
        nonlocal probe
        out = unit.forward(x, train=True)
        if probe is None:
            probe = rng.normal(size=out.shape)
        return float((out * probe).sum())

    try:
        with _setting((bn, "_track", lambda mean, var: None)
                      for bn in layers if isinstance(bn, BatchNorm2d)):
            unit.zero_grad()
            objective()
            grad_x = unit.backward(probe)
            pairs = [(grad_x, numerical_gradient(objective, x))]
            for owner in (layer for layer in layers if layer.params):
                with _setting((layer, "forward", _memo(layer.forward))
                              for layer in layers if layer is not owner):
                    pairs += [(owner.grads[key],
                               numerical_gradient(objective, p))
                              for key, p in owner.params.items()]
    finally:
        for _, holder in chain._cache_holders():
            holder._cache = None
    # np.max, unlike max, keeps a NaN wherever it is
    worst = np.max([relative_error(a, num).max() for a, num in pairs])
    diff = np.max([np.abs(a - num).max() for a, num in pairs])
    return float(worst), float(diff)
