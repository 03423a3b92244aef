"""Desk-scale training harness: softmax cross-entropy, SGD with momentum
and weight decay, step learning-rate schedule, synthetic data, and the
finite-difference gradient checker.

Paper-scale defaults (batch 256, 120 epochs, lr 0.1 divided by 10 every 30
epochs, momentum 0.9, weight decay 4e-5) are kept as the "paper" preset;
the desk preset shrinks batch and epoch counts for CPU runs.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .layers import BatchNorm2d
from .network import Network

PRESETS = {
    "paper": {"batch_size": 256, "epochs": 120, "base_lr": 0.1,
              "momentum": 0.9, "weight_decay": 4e-5, "step_epochs": 30},
    "desk": {"batch_size": 32, "epochs": 30, "base_lr": 0.1,
             "momentum": 0.9, "weight_decay": 4e-5, "step_epochs": 30},
}


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def cross_entropy(logits, labels):
    """Mean negative log softmax likelihood and its logits gradient."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} != ({n},)")
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

@dataclass
class Schedule:
    base_lr: float = 0.1
    step_epochs: int = 30
    total_epochs: int = 120

    def __post_init__(self):
        for name in ("step_epochs", "total_epochs"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    def lr_at(self, epoch):
        if not 0 <= epoch < self.total_epochs:
            raise ValueError(f"epoch {epoch} outside [0, {self.total_epochs})")
        return self.base_lr * 0.1 ** (epoch // self.step_epochs)


class SGD:
    """SGD with momentum; weight decay hits only ``*.weight`` parameters
    (convolution and fully-connected kernels), never BN gamma/beta or
    biases."""

    def __init__(self, lr=0.1, momentum=0.9, weight_decay=4e-5):
        if lr <= 0:
            raise ValueError("lr must be positive")
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
                v = np.zeros_like(p)
            v = self.momentum * v + g + wd * p
            self.velocity[name] = v
            p -= self.lr * v


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

def _check_class_count(classes):
    """An integer from 1 to 256; labels are stored as u8."""
    if not isinstance(classes, numbers.Integral):
        raise ValueError(f"class_count must be an integer, got {classes!r}")
    if not 1 <= classes <= 256:
        raise ValueError(f"class_count {classes} outside [1, 256] "
                         "(labels are stored as u8)")


@dataclass
class Dataset:
    images: np.ndarray  # u8, (count, c, h, w)
    labels: np.ndarray  # u8 class ids
    class_count: int

    def __post_init__(self):
        _check_class_count(self.class_count)
        self.class_count = int(self.class_count)  # JSON takes no numpy int
        images = np.asarray(self.images)
        labels = np.asarray(self.labels)
        if images.ndim != 4 or labels.shape != (len(images),):
            raise ValueError("images must be (count, c, h, w) with matching labels")
        if len(images) == 0:
            raise ValueError("dataset is empty")
        if not np.all((images >= 0) & (images <= 255) & (images % 1 == 0)):
            raise ValueError(f"pixels must be integers in [0, 255], got "
                             f"[{images.min()}, {images.max()}]")
        self.images = images.astype(np.uint8)
        # the range test goes first, so ``% 1`` never sees inf or nan
        if not (np.all((labels >= 0) & (labels < self.class_count))
                and np.all(labels % 1 == 0)):
            raise ValueError(
                f"labels must be integers in [0, {self.class_count}), got "
                f"[{labels.min()}, {labels.max()}]")
        self.labels = labels.astype(np.uint8)

    def __len__(self):
        return len(self.images)

    def as_float(self):
        return self.images.astype(np.float64) / 127.5 - 1.0


def make_synthetic_dataset(count=64, size=8, classes=2, seed=0):
    """Linearly separable toy set of RGB images: each class lights up its
    own vertical band, plus mild noise. Every class needs a band at least
    one pixel wide, so ``classes`` may not exceed ``size``."""
    if count < 1:
        raise ValueError(f"dataset is empty: count must be >= 1, got {count}")
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
    A step whose loss is not finite raises ``ValueError`` before its update."""
    for name, value in (("epochs", epochs), ("batch_size", batch_size)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    x_all = data.as_float()
    if x_all.shape[1] != net.in_channels:
        raise ValueError(
            f"dataset has {x_all.shape[1]} channels, network expects "
            f"{net.in_channels}")
    _check_smallest_batch(net, x_all.shape[1:], len(data), batch_size)
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
            logits = net.forward(x_all[idx], train=True)
            loss, grad = cross_entropy(logits, yb)
            if not np.isfinite(loss):
                raise ValueError(
                    f"loss is {loss} at epoch {epoch}, batch offset {start}")
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


def _check_smallest_batch(net, shape, count, batch_size):
    """Reject, before any step, a split into batches whose smallest batch
    leaves some batch norm fewer than 2 values per channel."""
    smallest = count % batch_size or batch_size
    for name, layer, (_, h, w) in net.layer_shapes(shape):
        if isinstance(layer, BatchNorm2d) and smallest * h * w < 2:
            raise ValueError(
                f"{count} samples at batch size {batch_size} leave a last "
                f"batch of {smallest}, which gives batch norm {name} "
                f"{smallest * h * w} value per channel (needs at least 2); "
                "change the batch size or the sample count")


def evaluate(net: Network, data: Dataset):
    """Eval-mode accuracy (running BN statistics), 64 samples at a time."""
    x_all = data.as_float()
    y_all = data.labels.astype(int)
    correct = 0
    for start in range(0, len(data), 64):
        logits = net.forward(x_all[start:start + 64], train=False)
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
    flat = arr.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        h = 1e-6 * (1.0 + abs(orig))
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        grad.reshape(-1)[i] = (fp - fm) / (2 * h)
    return grad


def gradcheck(unit, x, seed=0):
    """Max relative error of analytic vs finite-difference gradients.

    ``unit`` is any layer, module, or Network, run in train mode. The scalar
    objective is a fixed random projection of the output.
    """
    return gradcheck_errors(unit, x, seed)[0]


def gradcheck_errors(unit, x, seed=0):
    """``gradcheck``'s max relative error and, from the same pass, the max
    |analytic - numeric|: the margin that the 1e-7 agreement floor hides."""
    rng = np.random.default_rng(seed)
    x = np.array(x, dtype=float)
    probe = None

    def objective():
        nonlocal probe
        out = unit.forward(x, train=True)
        if probe is None:
            probe = rng.normal(size=out.shape)
        return float((out * probe).sum())

    unit.zero_grad()
    objective()
    grad_x = unit.backward(probe)
    grads = unit.grads

    pairs = [(grad_x, numerical_gradient(objective, x))]
    for name, p in unit.params.items():
        pairs.append((grads[name], numerical_gradient(objective, p)))
    worst = max(relative_error(a, num).max() for a, num in pairs)
    diff = max(np.abs(a - num).max() for a, num in pairs)
    return float(worst), float(diff)
