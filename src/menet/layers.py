"""Differentiable layer primitives with hand-written backward passes.

Each layer caches whatever the backward pass needs during forward. Backward
returns the gradient w.r.t. the input and accumulates parameter gradients
into ``self.grads`` (same keys as ``self.params``).

Convolution is a shifted-window loop over (input channel within group,
ky, kx) that works on all groups at once, through (n, groups, per-group,
h, w) views: one depthwise layer is 9 loop steps, not 9 per channel. Each
output element still adds its products in (input channel, ky, kx) order,
as the naive reference in the test suite does, so the forward is
bit-identical to it; each input-gradient element adds its taps in the same
order. The weight gradient reproduces the rounding of numpy's
einsum("nohw,nhw->o") taken group by group, the kernel this one replaced
(see ``conv2d_backward_raw``). The test suite keeps that per-group kernel
as a frozen reference and checks the forward and both gradients against it
with ``np.array_equal``, so a numpy whose einsum sums in another order
fails there rather than shifting results silently.
"""

import numpy as np

from .tensor import ShapeError, check_nchw


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


def _pooled_shape(shape):
    """Output shape of a 3x3, stride-2, pad-1 pooling window."""
    c, h, w = shape
    return (c, conv_out_size(h, 3, 2, 1), conv_out_size(w, 3, 2, 1))


class Conv2d(Layer):
    """2-D convolution with a 1x1 or 3x3 square kernel padded by k // 2,
    optional channel groups and no bias (a batch norm follows every conv).

    Weights are shaped (out_channels, in_channels // groups, k, k).
    ``depthwise=True`` is the g == in == out special case.
    """

    def __init__(self, in_channels, out_channels, kernel, stride=1,
                 groups=1, depthwise=False, rng=None):
        super().__init__()
        if kernel not in (1, 3):
            raise ValueError(f"kernel must be 1 or 3, got {kernel}")
        if stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {stride}")
        if depthwise:
            if not (groups == in_channels == out_channels):
                raise ValueError(
                    "depthwise requires groups == in_channels == out_channels"
                )
        if in_channels % groups or out_channels % groups:
            raise ValueError(
                f"channels ({in_channels}->{out_channels}) not divisible by "
                f"groups={groups}"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = kernel // 2
        self.groups = groups
        self.depthwise = depthwise
        wshape = (out_channels, in_channels // groups, kernel, kernel)
        if rng is None:
            w = np.zeros(wshape)
        else:
            # fan-out initialization: var = 2 / (k^2 * out_channels)
            std = np.sqrt(2.0 / (kernel * kernel * out_channels))
            w = rng.normal(0.0, std, size=wshape)
        self._register("weight", w)

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
        return conv2d_raw(x, self.params["weight"], self.stride, self.pad,
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
    n, cin, h, wd = x.shape
    cout, cpg, k, _ = w.shape
    oh = conv_out_size(h, k, stride, pad)
    ow = conv_out_size(wd, k, stride, pad)
    opg = cout // groups
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    xg = xp.reshape(n, groups, cpg, *xp.shape[2:])
    wg = w.reshape(groups, opg, cpg, k, k)
    out = np.zeros((n, groups, opg, oh, ow))
    prod = np.empty_like(out)
    for ci in range(cpg):
        for ky in range(k):
            for kx in range(k):
                win = xg[:, :, ci, ky:ky + stride * oh:stride,
                         kx:kx + stride * ow:stride]
                np.multiply(win[:, :, None],
                            wg[None, :, :, ci, ky, kx, None, None], out=prod)
                out += prod
    return out.reshape(n, cout, oh, ow)


def conv2d_backward_raw(x, w, grad_out, stride, pad, groups):
    n, cin, h, wd = x.shape
    cout, cpg, k, _ = w.shape
    oh, ow = grad_out.shape[2:]
    opg = cout // groups
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
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
    win0 = xg[:, :, 0, :stride * oh:stride, :stride * ow:stride]
    rows_join = _rows_join(go) and _rows_join(win0)
    if (oh * ow if rows_join else ow) > _EINSUM_BUFSIZE:
        runs = None
    elif groups == 1 or (opg > 1 and n > 1):
        runs = ""
    else:
        runs = "n" if rows_join else "nh"
    for ci in range(cpg):
        for ky in range(k):
            for kx in range(k):
                hsl = slice(ky, ky + stride * oh, stride)
                wsl = slice(kx, kx + stride * ow, stride)
                win = xg[:, :, ci, hsl, wsl]
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
                np.einsum("ngohw,go->nghw", go, wg[:, :, ci, ky, kx],
                          out=gx_tap)
                gxg[:, :, ci, hsl, wsl] += gx_tap
    gxp = gxg.reshape(xp.shape)
    if pad:
        grad_x = gxp[:, :, pad:-pad, pad:-pad]
    else:
        grad_x = gxp
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
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            )
            inv_std = 1.0 / np.sqrt(var + self.epsilon)
            xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
            self._cache = (xhat, inv_std, m)
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + self.epsilon)
            xhat = (x - self.running_mean[None, :, None, None]) \
                * inv_std[None, :, None, None]
            self._cache = (xhat, inv_std, None)
        return gamma[None, :, None, None] * xhat + beta[None, :, None, None]

    def backward(self, grad_out):
        xhat, inv_std, m = self._need_cache()
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
    """max(0, x); gradient at exactly 0 is defined as 0."""

    def forward(self, x, train=False):
        self._cache = x > 0
        return np.where(self._cache, x, 0.0)

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


class ChannelShuffle(Layer):
    """Reshape-(g, c/g), transpose, flatten channel permutation."""

    def __init__(self, groups):
        super().__init__()
        self.groups = groups

    @staticmethod
    def permutation(channels, groups):
        """Output-position -> input-channel index map."""
        if channels % groups:
            raise ShapeError(f"channels={channels} not divisible by groups={groups}")
        n = channels // groups
        return np.arange(channels).reshape(groups, n).T.reshape(-1)

    def forward(self, x, train=False):
        check_nchw(x)
        c = x.shape[1]
        perm = self.permutation(c, self.groups)
        self._cache = (c, perm)
        return x[:, perm]

    def backward(self, grad_out):
        c, perm = self._need_cache()
        inv = np.empty(c, dtype=int)
        inv[perm] = np.arange(c)
        return grad_out[:, inv]


class MaxPool3x3s2(Layer):
    """3x3 max pooling, stride 2, pad 1 (halves spatial dims, ceil)."""

    def out_shape(self, shape):
        return _pooled_shape(shape)

    def forward(self, x, train=False):
        check_nchw(x)
        n, c = x.shape[:2]
        _, oh, ow = self.out_shape(x.shape[1:])
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)),
                    constant_values=-np.inf)
        out = np.full((n, c, oh, ow), -np.inf)
        for ky in range(3):
            for kx in range(3):
                win = xp[:, :, ky:ky + 2 * oh:2, kx:kx + 2 * ow:2]
                np.maximum(out, win, out=out)
        self._cache = (x.shape, xp, out)
        return out

    def backward(self, grad_out):
        shape, xp, out = self._need_cache()
        oh, ow = out.shape[2:]
        gxp = np.zeros_like(xp)
        claimed = np.zeros_like(out, dtype=bool)
        for ky in range(3):
            for kx in range(3):
                hsl = slice(ky, ky + 2 * oh, 2)
                wsl = slice(kx, kx + 2 * ow, 2)
                win = xp[:, :, hsl, wsl]
                hit = (win == out) & ~claimed
                claimed |= hit
                gxp[:, :, hsl, wsl] += np.where(hit, grad_out, 0.0)
        return gxp[:, :, 1:-1, 1:-1]


class AvgPool3x3s2(Layer):
    """3x3 average pooling, stride 2, pad 1; padded taps count (divide by 9)."""

    def out_shape(self, shape):
        return _pooled_shape(shape)

    def forward(self, x, train=False):
        check_nchw(x)
        n, c = x.shape[:2]
        _, oh, ow = self.out_shape(x.shape[1:])
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        out = np.zeros((n, c, oh, ow))
        for ky in range(3):
            for kx in range(3):
                out += xp[:, :, ky:ky + 2 * oh:2, kx:kx + 2 * ow:2]
        out /= 9.0
        self._cache = (x.shape, (oh, ow))
        return out

    def backward(self, grad_out):
        shape, (oh, ow) = self._need_cache()
        gxp = np.zeros((shape[0], shape[1], shape[2] + 2, shape[3] + 2))
        for ky in range(3):
            for kx in range(3):
                gxp[:, :, ky:ky + 2 * oh:2, kx:kx + 2 * ow:2] += grad_out
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
    """Runs ``steps``, (name, layer or composite) pairs, in order forward
    and in reverse backward. Its named layers are the steps that hold
    parameters and, under the step name, a composite step's own."""

    steps = ()

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
