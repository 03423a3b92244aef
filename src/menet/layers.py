"""Differentiable layer primitives with hand-written backward passes.

Each layer caches whatever the backward pass needs during forward. Backward
returns the gradient w.r.t. the input and accumulates parameter gradients
into ``self.grads`` (same keys as ``self.params``).

Training runs the reference convolution, ``conv2d_raw`` and
``conv2d_backward_raw``: a shifted-window loop over (input channel within
group, ky, kx) that works on all groups at once, through (n, groups,
per-group, h, w) views: one depthwise layer is 9 loop steps, not 9 per
channel. Each output element still adds its products in (input channel,
ky, kx) order, as the naive reference in the test suite does, so the
forward is bit-identical to it; each input-gradient element adds its taps
in the same order. The weight gradient reproduces the rounding of numpy's
einsum("nohw,nhw->o") taken group by group, the kernel this one replaced
(see ``conv2d_backward_raw``). The test suite keeps that per-group kernel
as a frozen reference and checks the forward and both gradients against it
with ``np.array_equal``, so a numpy whose einsum sums in another order
fails there rather than shifting results silently. Train-mode batch norm
runs numpy's own mean/var reductions (``np.add.reduce``, then a divide)
directly, without the ``np.mean``/``np.var`` wrappers, and gets the same
bits; the test suite checks it byte for byte against ``x.mean``/``x.var``.

The eval forward is not bit-identical to the reference. Its convolutions
run ``conv2d_gemm``, a BLAS matmul that sums in its own order, and its
batch norm is one affine pass with the running statistics folded into a
scale and a shift. The test suite holds ``conv2d_gemm`` to within 1e-12 of
``conv2d_raw``, relative to the largest output, on every conv of the
reference models.
"""

import functools

import numpy as np

from .tensor import ShapeError, check_groups, check_nchw


class Layer:
    """Base class: parameter/gradient bookkeeping and the fwd/bwd contract."""

    def __init__(self):
        self.params = {}
        self.grads = {}
        self._cache = None

    def forward(self, x, train=False):
        raise NotImplementedError

    def backward(self, grad_out):
        raise NotImplementedError

    def out_shape(self, shape):
        """(c, h, w) of the output for a (c, h, w) input."""
        return shape

    def macs(self, shape):
        """Multiply-accumulates of one forward pass on a (c, h, w) input."""
        return 0

    def zero_grad(self):
        for k, v in self.params.items():
            self.grads[k] = np.zeros_like(v)

    def _register(self, name, value):
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)

    def _need_cache(self):
        if self._cache is None:
            raise RuntimeError(
                f"{type(self).__name__}.backward called without a cached forward"
            )
        return self._cache


def conv_out_size(size, k, stride, pad):
    return (size + 2 * pad - k) // stride + 1


@functools.lru_cache(maxsize=256)
def _tap_geometry(h, w, k, stride, pad):
    """(oh, ow) and the tap tuple of ``_windows`` for an h x w map; one
    shared, immutable copy per geometry."""
    oh = conv_out_size(h, k, stride, pad)
    ow = conv_out_size(w, k, stride, pad)
    taps = tuple((ky, kx, slice(ky, ky + stride * oh, stride),
                  slice(kx, kx + stride * ow, stride))
                 for ky in range(k) for kx in range(k))
    return (oh, ow), taps


def _windows(x, k, stride, pad, fill=0.0):
    """The strided k x k windows of an NCHW map padded by ``pad`` with
    ``fill``: the padded map, (oh, ow), and for each tap in (ky, kx) order
    ``(ky, kx, rows, cols)``, the slices of the padded map's last two axes
    that the tap reads for every output position. The padded map holds the
    same values in the same memory order as ``np.pad`` would give."""
    h, w = x.shape[-2:]
    out_hw, taps = _tap_geometry(h, w, k, stride, pad)
    if pad:
        xp = np.full((*x.shape[:-2], h + 2 * pad, w + 2 * pad), fill,
                     dtype=x.dtype, order="F" if x.flags.fnc else "C")
        xp[..., pad:pad + h, pad:pad + w] = x
        x = xp
    return x, out_hw, taps


class Conv2d(Layer):
    """2-D convolution with a 1x1 or 3x3 square kernel padded by k // 2,
    optional channel groups and no bias (a batch norm follows every conv).

    Weights are shaped (out_channels, in_channels // groups, k, k).
    """

    def __init__(self, in_channels, out_channels, kernel, stride=1,
                 groups=1, rng=None):
        super().__init__()
        if kernel not in (1, 3):
            raise ValueError(f"kernel must be 1 or 3, got {kernel}")
        if stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {stride}")
        check_groups(in_channels, groups, "in_channels")
        check_groups(out_channels, groups, "out_channels")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = kernel // 2
        self.groups = groups
        wshape = (out_channels, in_channels // groups, kernel, kernel)
        if rng is None:
            w = np.zeros(wshape)
        else:
            # fan-out initialization: var = 2 / (k^2 * out_channels)
            std = np.sqrt(2.0 / (kernel * kernel * out_channels))
            w = rng.normal(0.0, std, size=wshape)
        self._register("weight", w)

    @property
    def depthwise(self):
        """One input channel in each of several groups under a 3x3 kernel;
        a one-channel 3x3 conv (a width-1 ``evo.conv_e``) counts as dense."""
        return self.kernel == 3 and self.in_channels == self.groups > 1

    def out_shape(self, shape):
        _, h, w = shape
        return (self.out_channels,
                conv_out_size(h, self.kernel, self.stride, self.pad),
                conv_out_size(w, self.kernel, self.stride, self.pad))

    def macs(self, shape):
        _, oh, ow = self.out_shape(shape)
        return (oh * ow * self.kernel * self.kernel
                * (self.in_channels // self.groups) * self.out_channels)

    def forward(self, x, train=False):
        check_nchw(x)
        if x.shape[1] != self.in_channels:
            raise ShapeError(
                f"expected {self.in_channels} input channels, got {x.shape[1]}"
            )
        self._cache = x
        # training stays on the bit-identical reference kernel; this branch
        # goes once ROADMAP 1(a)+(b) move training onto conv2d_gemm
        kernel = conv2d_raw if train else conv2d_gemm
        return kernel(x, self.params["weight"], self.stride, self.pad,
                      self.groups)

    def backward(self, grad_out):
        x = self._need_cache()
        w = self.params["weight"]
        grad_x, grad_w = conv2d_backward_raw(
            x, w, grad_out, self.stride, self.pad, self.groups
        )
        self.grads["weight"] += grad_w
        return grad_x


# Buffer size of the iterator behind np.einsum (fixed at numpy's default;
# np.setbufsize does not reach it).
_EINSUM_BUFSIZE = 8192


def _rows_join(a):
    """True when numpy iterates the last two axes of ``a`` as one run."""
    h, w = a.shape[-2:]
    return h == 1 or w == 1 or a.strides[-2] == w * a.strides[-1]


def conv2d_raw(x, w, stride, pad, groups):
    n = x.shape[0]
    cout, cpg, k, _ = w.shape
    opg = cout // groups
    xp, (oh, ow), taps = _windows(x, k, stride, pad)
    xg = xp.reshape(n, groups, cpg, *xp.shape[2:])
    wg = w.reshape(groups, opg, cpg, k, k)
    out = np.zeros((n, groups, opg, oh, ow))
    prod = np.empty_like(out)
    for ci in range(cpg):
        for ky, kx, rows, cols in taps:
            np.multiply(xg[:, :, ci, None, rows, cols],
                        wg[None, :, :, ci, ky, kx, None, None], out=prod)
            out += prod
    return out.reshape(n, cout, oh, ow)


def conv2d_gemm(x, w, stride, pad, groups):
    """The forward conv as one batched matmul of the weights, read as
    (groups, out per group, in per group * k * k), with the input columns,
    (n, groups, in per group * k * k, oh * ow). A 1x1 conv reads its input
    as the columns, a view when the stride is 1; a 3x3 conv copies its
    windows into them (im2col). Depthwise keeps ``conv2d_raw``: its columns
    would be nine copies of the map for one multiply-add per tap. BLAS sums
    in its own order, so results differ from ``conv2d_raw`` in the last
    bits."""
    n = x.shape[0]
    cout, cpg, k, _ = w.shape
    if k > 1 and cpg == 1:
        return conv2d_raw(x, w, stride, pad, groups)
    xp, (oh, ow), taps = _windows(x, k, stride, pad)
    if k == 1:
        columns = xp[:, :, ::stride, ::stride]
    else:
        xg = xp.reshape(n, groups, cpg, *xp.shape[2:])
        columns = np.empty((n, groups, cpg, k, k, oh, ow))
        for ky, kx, rows, cols in taps:
            columns[:, :, :, ky, kx] = xg[:, :, :, rows, cols]
    columns = columns.reshape(n, groups, cpg * k * k, oh * ow)
    out = np.matmul(w.reshape(groups, cout // groups, cpg * k * k), columns)
    return out.reshape(n, cout, oh, ow)


def conv2d_backward_raw(x, w, grad_out, stride, pad, groups):
    n, _, h, wd = x.shape
    cout, cpg, k, _ = w.shape
    opg = cout // groups
    xp, (oh, ow), taps = _windows(x, k, stride, pad)
    xg = xp.reshape(n, groups, cpg, *xp.shape[2:])
    gxg = np.zeros_like(xg)
    wg = w.reshape(groups, opg, cpg, k, k)
    gw = np.zeros_like(wg)
    go = grad_out.reshape(n, groups, opg, oh, ow)
    gx_tap = np.empty((n, groups, oh, ow))
    # grad_w has to round as the per-group einsum("nohw,nhw->o") did. numpy
    # sums each contiguous run of that reduction (one image when the rows of
    # both operands join, else one output row) and adds the run sums to the
    # output in order. One einsum over all groups keeps that order, except
    # when a group has one output channel or the batch one image: then one
    # einsum takes the run sums and np.add.accumulate adds them in order.
    # einsum's iterator splits a run longer than its buffer in a way not
    # modelled here, so such maps run the per-group einsum itself.
    _, _, rows0, cols0 = taps[0]
    rows_join = _rows_join(go) and _rows_join(xg[:, :, 0, rows0, cols0])
    if (oh * ow if rows_join else ow) > _EINSUM_BUFSIZE:
        runs = None
    elif groups == 1 or (opg > 1 and n > 1):
        runs = ""
    else:
        runs = "n" if rows_join else "nh"
    for ci in range(cpg):
        for ky, kx, rows, cols in taps:
            win = xg[:, :, ci, rows, cols]
            if runs is None:
                for g in range(groups):
                    gw[g, :, ci, ky, kx] += np.einsum(
                        "nohw,nhw->o", go[:, g], win[:, g])
            else:
                sums = np.einsum(f"ngohw,nghw->go{runs}", go, win)
                if runs:
                    sums = np.add.accumulate(
                        sums.reshape(groups, opg, -1), axis=-1)[..., -1]
                gw[:, :, ci, ky, kx] += sums
            np.einsum("ngohw,go->nghw", go, wg[:, :, ci, ky, kx], out=gx_tap)
            gxg[:, :, ci, rows, cols] += gx_tap
    grad_x = gxg.reshape(xp.shape)[:, :, pad:pad + h, pad:pad + wd]
    return grad_x, gw.reshape(w.shape)


class BatchNorm2d(Layer):
    """Per-channel batch normalization. ``train=True`` normalizes with the
    batch statistics and updates the running ones; ``train=False`` uses the
    running statistics."""

    epsilon = 1e-5
    momentum = 0.1

    def __init__(self, channels):
        super().__init__()
        self.channels = channels
        self._register("gamma", np.ones(channels))
        self._register("beta", np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x, train=False):
        check_nchw(x)
        if x.shape[1] != self.channels:
            raise ShapeError(f"expected {self.channels} channels, got {x.shape[1]}")
        gamma = self.params["gamma"]
        beta = self.params["beta"]
        if train:
            m = x.shape[0] * x.shape[2] * x.shape[3]
            if m < 2:
                raise ShapeError(
                    "train-mode batch norm needs at least 2 elements per channel"
                )
            # np.mean/np.var's own reductions, without their wrappers
            mean = np.add.reduce(x, axis=(0, 2, 3)) / m
            centered = x - mean[None, :, None, None]
            var = np.add.reduce(np.square(centered), axis=(0, 2, 3)) / m
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            )
            inv_std = 1.0 / np.sqrt(var + self.epsilon)
            xhat = centered * inv_std[None, :, None, None]
            self._cache = (xhat, inv_std, m)
            return gamma[None, :, None, None] * xhat + beta[None, :, None, None]
        # eval: one affine pass; backward rebuilds xhat from the input
        inv_std = 1.0 / np.sqrt(self.running_var + self.epsilon)
        scale = gamma * inv_std
        shift = beta - self.running_mean * scale
        self._cache = (x, inv_std, None)
        out = x * scale[None, :, None, None]
        out += shift[None, :, None, None]
        return out

    def backward(self, grad_out):
        xhat, inv_std, m = self._need_cache()
        if m is None:
            xhat = (xhat - self.running_mean[None, :, None, None]) \
                * inv_std[None, :, None, None]
        gamma = self.params["gamma"]
        self.grads["gamma"] += (grad_out * xhat).sum(axis=(0, 2, 3))
        self.grads["beta"] += grad_out.sum(axis=(0, 2, 3))
        if m is None:
            return grad_out * (gamma * inv_std)[None, :, None, None]
        g = grad_out * gamma[None, :, None, None]
        sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (g * xhat).sum(axis=(0, 2, 3), keepdims=True)
        grad_x = (inv_std[None, :, None, None] / m) * (
            m * g - sum_g - xhat * sum_gx
        )
        return grad_x


class ReLU(Layer):
    """max(0, x), NaN kept; gradient at exactly 0 is defined as 0."""

    def forward(self, x, train=False):
        self._cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_out):
        mask = self._need_cache()
        return np.where(mask, grad_out, 0.0)


class Sigmoid(Layer):
    def forward(self, x, train=False):
        out = 1.0 / (1.0 + np.exp(-x))
        self._cache = out
        return out

    def backward(self, grad_out):
        out = self._need_cache()
        return grad_out * out * (1.0 - out)


@functools.lru_cache(maxsize=256)
def _shuffle_orders(channels, groups):
    """The shuffle permutation and its inverse, built once per (channels,
    groups) and read-only, since every caller shares them."""
    check_groups(channels, groups)
    perm = np.arange(channels).reshape(groups, -1).T.reshape(-1)
    inv = np.empty(channels, dtype=int)
    inv[perm] = np.arange(channels)
    perm.flags.writeable = inv.flags.writeable = False
    return perm, inv


class ChannelShuffle(Layer):
    """Reshape-(g, c/g), transpose, flatten channel permutation."""

    def __init__(self, groups):
        super().__init__()
        self.groups = groups

    @staticmethod
    def permutation(channels, groups):
        """Output-position -> input-channel index map (read-only, shared)."""
        return _shuffle_orders(channels, groups)[0]

    def forward(self, x, train=False):
        check_nchw(x)
        perm, inv = _shuffle_orders(x.shape[1], self.groups)
        self._cache = inv
        return x[:, perm]

    def backward(self, grad_out):
        return grad_out[:, self._need_cache()]


class _Pool3x3s2(Layer):
    """3x3 pooling window, stride 2, pad 1 (halves spatial dims, ceil)."""

    def out_shape(self, shape):
        c, h, w = shape
        return (c, conv_out_size(h, 3, 2, 1), conv_out_size(w, 3, 2, 1))


class MaxPool3x3s2(_Pool3x3s2):
    """3x3 max pooling; a window's gradient goes to its first maximal tap."""

    def forward(self, x, train=False):
        check_nchw(x)
        xp, (oh, ow), taps = _windows(x, 3, 2, 1, fill=-np.inf)
        out = np.full((*x.shape[:2], oh, ow), -np.inf)
        for _, _, rows, cols in taps:
            np.maximum(out, xp[:, :, rows, cols], out=out)
        self._cache = (xp, out, taps)
        return out

    def backward(self, grad_out):
        xp, out, taps = self._need_cache()
        gxp = np.zeros_like(xp)
        claimed = np.zeros_like(out, dtype=bool)
        for _, _, rows, cols in taps:
            hit = (xp[:, :, rows, cols] == out) & ~claimed
            claimed |= hit
            gxp[:, :, rows, cols] += np.where(hit, grad_out, 0.0)
        return gxp[:, :, 1:-1, 1:-1]


class AvgPool3x3s2(_Pool3x3s2):
    """3x3 average pooling; padded taps count (divide by 9)."""

    def forward(self, x, train=False):
        check_nchw(x)
        xp, (oh, ow), taps = _windows(x, 3, 2, 1)
        out = np.zeros((*x.shape[:2], oh, ow))
        for _, _, rows, cols in taps:
            out += xp[:, :, rows, cols]
        out /= 9.0
        self._cache = (xp.shape, taps)
        return out

    def backward(self, grad_out):
        shape, taps = self._need_cache()
        gxp = np.zeros(shape)
        for _, _, rows, cols in taps:
            gxp[:, :, rows, cols] += grad_out
        return gxp[:, :, 1:-1, 1:-1] / 9.0


class GlobalAvgPool(Layer):
    def out_shape(self, shape):
        return (shape[0], 1, 1)

    def forward(self, x, train=False):
        check_nchw(x)
        self._cache = x.shape
        return x.mean(axis=(2, 3), keepdims=True)

    def backward(self, grad_out):
        n, c, h, w = self._need_cache()
        return np.broadcast_to(grad_out / (h * w), (n, c, h, w)).copy()


class Linear(Layer):
    """Fully-connected classifier head on (n, c, 1, 1) inputs."""

    def __init__(self, in_features, out_features, rng=None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        if rng is None:
            w = np.zeros((out_features, in_features))
        else:
            w = rng.normal(0.0, np.sqrt(1.0 / in_features),
                           size=(out_features, in_features))
        self._register("weight", w)
        self._register("bias", np.zeros(out_features))

    def out_shape(self, shape):
        """Logits as a (k, 1, 1) map, though forward returns (n, k)."""
        return (self.out_features, 1, 1)

    def macs(self, shape):
        return self.in_features * self.out_features

    def forward(self, x, train=False):
        check_nchw(x)
        if x.shape[2:] != (1, 1):
            raise ShapeError(f"expected 1x1 spatial dims, got {x.shape[2:]}")
        if x.shape[1] != self.in_features:
            raise ShapeError(
                f"expected {self.in_features} features, got {x.shape[1]}"
            )
        flat = x[:, :, 0, 0]
        self._cache = flat
        return flat @ self.params["weight"].T + self.params["bias"]

    def backward(self, grad_out):
        flat = self._need_cache()
        self.grads["weight"] += grad_out.T @ flat
        self.grads["bias"] += grad_out.sum(axis=0)
        grad_flat = grad_out @ self.params["weight"]
        return grad_flat[:, :, None, None]


class Composite:
    """A unit built from named layers. Its parameters, gradients and batch
    norms are all read through ``named_layers()`` and keep its order."""

    def prefixed_layers(self, prefix):
        return {f"{prefix}.{name}": layer
                for name, layer in self.named_layers().items()}

    def _per_layer(self, attr):
        return {f"{ln}.{key}": value
                for ln, layer in self.named_layers().items()
                for key, value in getattr(layer, attr).items()}

    params = property(lambda self: self._per_layer("params"))
    grads = property(lambda self: self._per_layer("grads"))

    def zero_grad(self):
        for layer in self.named_layers().values():
            layer.zero_grad()

    def batchnorms(self):
        for name, layer in self.named_layers().items():
            if isinstance(layer, BatchNorm2d):
                yield name, layer


class Chain(Composite):
    """Runs its steps, (name, layer or composite) pairs, in order forward
    and in reverse backward. Its named layers are the steps that hold
    parameters and, under the step name, a composite step's own."""

    def __init__(self, *steps):
        self.steps = list(steps)

    def named_layers(self):
        out = {}
        for name, step in self.steps:
            if isinstance(step, Composite):
                out.update(step.prefixed_layers(name))
            elif step.params:
                out[name] = step
        return out

    def forward(self, x, train=False):
        for _, step in self.steps:
            x = step.forward(x, train)
        return x

    def backward(self, grad_out):
        for _, step in reversed(self.steps):
            grad_out = step.backward(grad_out)
        return grad_out

    def layer_shapes(self, shape):
        """Rows of (name, layer, input shape) for the named layers in
        dataflow order, and the output shape, for a (c, h, w) input."""
        rows = []
        for name, step in self.steps:
            if isinstance(step, Composite):
                sub, shape = step.layer_shapes(shape)
                rows += [(f"{name}.{sn}", layer, s) for sn, layer, s in sub]
                continue
            if step.params:
                rows.append((name, step, shape))
            shape = step.out_shape(shape)
        return rows, shape
