"""Desk-scale training harness: softmax cross-entropy, SGD with momentum
and weight decay, step learning-rate schedule, synthetic data, and the
complex-step gradient checker (Squire and Trapp 1998, SIAM Review 40(1)):
Im f(v + ih) / h is f'(v) to rounding for a tiny h, from one call, as no
two nearby values are subtracted.

Paper-scale defaults (batch 256, 120 epochs, lr 0.1 divided by 10 every 30
epochs, momentum 0.9, weight decay 4e-5) are kept as the "paper" preset;
the desk preset shrinks batch and epoch counts for CPU runs.

The gradient checker runs the whole unit for every complex step, but
while it moves the parameters of one layer, their owner, every other layer
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
import warnings
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
    ``epochs`` beyond the schedule's ``total_epochs`` raise ``ValueError``
    before any step. A step whose loss is not finite, or above
    ``DIVERGENCE_FACTOR`` times the log of the logits width, raises
    ``ValueError`` before its update."""
    check_count("epochs", epochs)
    check_count("batch_size", batch_size)
    if epochs > sched.total_epochs:
        raise ValueError(f"{epochs} epochs run past the schedule's "
                         f"{sched.total_epochs}")
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

STEP = 1e-20   # the complex step h


def _complex_step(f, arr):
    """Im f() / h with each element of ``arr``, a complex array that f
    reads, in turn moved by ih: one call of f per element."""
    grad = np.empty(arr.shape)
    im = arr.imag
    for i in np.ndindex(arr.shape):
        im[i] = STEP
        grad[i] = f().imag / STEP
        im[i] = 0.0
    return grad


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


def gradcheck(unit, x, seed=0):
    """Analytic against complex-step gradients of ``unit`` (any layer,
    module or Network, in train mode): the max over the input and every
    parameter of max|analytic - numeric| / max(1, max|analytic|), NaN if
    any is. The objective projects the output on a random probe, drawn
    from the first, real forward, whose backward gives the analytic side.

    One complex copy of ``x`` takes the input's steps through every layer.
    A layer's parameters are complex copies while their steps run, every
    other layer reusing its output on an unchanged input (see the module
    docstring); the very same arrays are put back, also on error. A
    forward that drops an imaginary part raises ``ComplexWarning``. At a
    ReLU input of exactly 0 or a max-pool tie, complex values compare by
    real part, then imaginary part, so the step takes one side; below
    about -755.8 a sigmoid's complex exp overflows in both parts, and its
    NaN warns and scores NaN. Every batch norm holds its running statistics
    still, also on error, and every train cache below ``unit`` is
    cleared."""
    chain = Chain(("unit", unit))   # lists a bare layer too
    layers = list({id(layer): layer
                   for _, layer in chain.all_layers()}.values())
    x = np.asarray(x, dtype=float)
    x_step = x.astype(complex)

    def objective(v=x):
        return (unit.forward(v, train=True) * probe).sum()

    try:
        with (warnings.catch_warnings(),
              _setting((bn, "_track", lambda mean, var: None)
                       for bn in layers if isinstance(bn, BatchNorm2d))):
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            unit.zero_grad()
            out = unit.forward(x, train=True)
            probe = np.random.default_rng(seed).normal(size=out.shape)
            pairs = [(unit.backward(probe),
                      _complex_step(lambda: objective(x_step), x_step))]
            for owner in (layer for layer in layers if layer.params):
                params = dict(owner.params)
                analytic = [owner.grads[key] for key in params]
                try:
                    owner.params.update((key, p.astype(complex))
                                        for key, p in params.items())
                    with _setting((layer, "forward", _memo(layer.forward))
                                  for layer in layers if layer is not owner):
                        pairs += zip(analytic, [
                            _complex_step(objective, owner.params[key])
                            for key in params])
                finally:
                    owner.params.update(params)
    finally:
        for _, holder in chain._cache_holders():
            holder._cache = None
    # np.max, unlike max, keeps a NaN wherever it is
    return float(np.max([np.abs(a - num).max() / max(1.0, np.abs(a).max())
                         for a, num in pairs]))
