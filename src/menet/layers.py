"""Differentiable layer primitives with hand-written backward passes.

A backward pairs with the last forward, and only a train forward, or the
eval forward of a batch norm run on its own, leaves it anything: every
other eval forward sets the cache to None. Backward takes the cache,
reading and clearing it, so a backward after such an eval forward, a
second backward, or one with no forward raises ``RuntimeError``. It
returns the gradient w.r.t. the input and adds parameter gradients into
``self.grads`` (keys from ``self.params``): a gradient array appears at the
first backward, as zeros, and ``zero_grad`` drops them all.

Training runs the reference convolution, ``conv2d_raw`` and
``conv2d_backward_raw``, with no Python loop over channels. The forward is
one einsum over one copy of the windows, channels-last for a depthwise
conv, which adds every output's products from 0 in (input channel, ky, kx)
order. Each gradient takes one step over all channels per tap: for the
input gradient an einsum that reads the weights with the out-channels it
sums innermost, or for a depthwise conv one channels-last product; for the
weight gradient an einsum arranged to round as numpy's
einsum("nohw,nhw->o") taken per (group, input channel, tap) on a C-ordered
input (see ``conv2d_backward_raw``). The bits of all three are thus those
of this build's einsum, which must neither fuse a multiply with an add nor
sum these loops in another order: the test suite holds the forward to the
naive loop, and all three to the frozen per-group kernels they replaced,
byte for byte, so a numpy whose einsum rounds otherwise fails there rather
than shifting results silently.
Train-mode batch norm runs numpy's mean/var reductions without their
wrappers and writes over its own temporaries, byte for byte as
``x.mean``/``x.var``. A train forward keeps a complex input or parameter
complex, as the gradient check's complex step needs.

The eval forward is not bit-identical to the reference. Depthwise convs
run the reference kernel there too, the others ``conv2d_gemm``, a BLAS
matmul that sums in its own order, and ``Chain`` folds each batch norm
into the conv before it (Jacob et al. 2018, arXiv 1712.05877, section 3):
scaled weights, then a per-channel shift. The test suite holds both within
1e-12 of the reference and of the unfolded pair, relative to the largest
output, on every conv of the reference models. A batch norm run on its own
in eval is one affine pass with the same scale and shift; it keeps its
normalized input, since its gradient with the statistics held constant is
the one eval gradient that differs from the train one.

A ``Composite`` (chain, module, network) lists its layers in one place, its
``walk``: its parameters, gradients, batch norms and cost rows follow it.
"""

import functools

import numpy as np

from .tensor import (ShapeError, check_count, check_groups, check_integer,
                     check_nchw)


class _Grads(dict):
    """Gradients by parameter name; a missing one is stored as zeros of its
    parameter's shape when first read, so ``grads[k] += g`` adds to 0."""

    def __init__(self, params):
        super().__init__()
        self.params = params

    def __missing__(self, name):
        p = self.params[name]
        grad = self[name] = np.zeros(p.shape, p.dtype)
        return grad


class Layer:
    """Base class: parameter/gradient bookkeeping and the fwd/bwd contract."""

    def __init__(self):
        self.params = {}
        self.grads = _Grads(self.params)
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
        self.grads.clear()

    def _take_cache(self):
        """The last forward's cache, cleared: each backward reads it once."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(f"{type(self).__name__}.backward called "
                               "without a cached forward")
        return cache


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
        check_integer("kernel", kernel)
        check_integer("stride", stride)
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
        self.params["weight"] = w

    @property
    def depthwise(self):
        """One input and one output channel per group, several groups, 3x3;
        a one-channel 3x3 conv (a width-1 ``evo.conv_e``) counts as dense."""
        return (self.kernel == 3
                and self.in_channels == self.out_channels == self.groups > 1)

    def out_shape(self, shape):
        c, h, w = shape
        if c != self.in_channels:
            raise ShapeError(
                f"expected {self.in_channels} input channels, got {c}")
        return (self.out_channels,
                conv_out_size(h, self.kernel, self.stride, self.pad),
                conv_out_size(w, self.kernel, self.stride, self.pad))

    def macs(self, shape):
        _, oh, ow = self.out_shape(shape)
        return (oh * ow * self.kernel * self.kernel
                * (self.in_channels // self.groups) * self.out_channels)

    def forward(self, x, train=False, bn=None):
        """The conv of ``x``, cached only in train. In eval, ``bn`` is the
        batch norm that follows, folded in: the weights scaled by its
        per-channel scale, then its shift added; neither keeps a cache."""
        check_nchw(x)
        if x.shape[1] != self.in_channels:
            raise ShapeError(
                f"expected {self.in_channels} input channels, got {x.shape[1]}"
            )
        self._cache = x if train else None
        w = self.params["weight"]
        conv = conv2d_raw if train or self.depthwise else conv2d_gemm
        if train or bn is None:
            return conv(x, w, self.stride, self.pad, self.groups)
        if bn.channels != self.out_channels:
            raise ShapeError(f"expected {bn.channels} channels, "
                             f"got {self.out_channels}")
        _, scale, shift = bn.eval_affine()
        bn._cache = None
        out = conv(x, w * scale[:, None, None, None], self.stride, self.pad,
                   self.groups)
        out += shift[None, :, None, None]
        return out

    def backward(self, grad_out):
        x = self._take_cache()
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


def _window_view(x, k, stride, pad, groups):
    """The k x k windows of ``x``, read C-ordered and zero-padded, as one
    strided view of the padded map, (n, groups, in per group, k, k, oh,
    ow)."""
    xp, (oh, ow), _ = _windows(np.ascontiguousarray(x), k, stride, pad)
    n, c, hp, wp = xp.shape
    chan, row, item = hp * wp * xp.itemsize, wp * xp.itemsize, xp.itemsize
    return np.ndarray(
        (n, groups, c // groups, k, k, oh, ow), xp.dtype, buffer=xp,
        offset=0, strides=(c * chan, c // groups * chan, chan, row, item,
                           stride * row, stride * item))


def conv2d_raw(x, w, stride, pad, groups):
    """The reference forward conv, C-ordered. The windows are copied once
    into columns (in-channel within group, ky, kx, group, n * oh * ow), the
    term order of every output, or for a depthwise conv into a channels-last
    map, and one einsum, or for one pixel a loop, adds their products with
    the weights from 0 in that order: bit-identical to a loop of
    multiply-adds over (in-channel, ky, kx) while this numpy's einsum does
    not fuse a multiply and an add, as the backward's gradients also
    assume. The test suite holds it to the naive loop byte for byte."""
    n, _, h, wd = x.shape
    cout, cpg, k, _ = w.shape
    opg = cout // groups
    dtype = np.result_type(x, w, float)   # a complex x or w stays complex
    if cpg == opg == 1 < groups:
        # depthwise, channels-last: x is copied once into a zero-padded
        # (n, h, w, c) map, so einsum's innermost loop runs over channels,
        # contiguous in every operand, and adds each output's taps from 0
        # in (ky, kx) order
        (oh, ow), _ = _tap_geometry(h, wd, k, stride, pad)
        xp = np.zeros((n, h + 2 * pad, wd + 2 * pad, cout), dtype)
        xp[:, pad:pad + h, pad:pad + wd] = x.transpose(0, 2, 3, 1)
        sn, sh, sw, sc = xp.strides
        win = np.ndarray((n, oh, ow, k, k, cout), xp.dtype, buffer=xp,
                         offset=0, strides=(sn, stride * sh, stride * sw,
                                            sh, sw, sc))
        sums = np.einsum("nhwyxc,yxc->nhwc", win,
                         np.ascontiguousarray(w[:, 0].transpose(1, 2, 0)))
        return np.ascontiguousarray(sums.transpose(0, 3, 1, 2))
    win = _window_view(x, k, stride, pad, groups)
    oh, ow = win.shape[-2:]
    terms, m = cpg * k * k, n * oh * ow
    cols = np.ascontiguousarray(win.transpose(2, 3, 4, 1, 0, 5, 6),
                                dtype=dtype).reshape(terms, groups, m)
    wt = w.reshape(groups, opg, terms).transpose(2, 0, 1)
    if m > 1:
        # einsum's innermost loop runs over the outputs, contiguous in cols
        # and in the output, so it adds each output's terms from 0 in order
        sums = np.einsum("tgm,tgo->gom", cols, wt)
    else:
        # one pixel, where einsum would sum the terms in SIMD lanes: they
        # are multiplied and added one by one
        sums = np.zeros((groups, opg, 1), dtype)
        for t in range(terms):
            sums += wt[t, :, :, None] * cols[t, :, None]
    # C order: batch norm's reductions, and so its bits, follow the layout
    out = np.empty((n, cout, oh, ow), dtype)
    out.reshape(n, groups, opg, oh * ow)[...] = sums.reshape(
        groups, opg, n, oh * ow).transpose(2, 0, 1, 3)
    return out


def conv2d_gemm(x, w, stride, pad, groups):
    """The forward conv as one batched matmul of the weights, read as
    (groups, out per group, in per group * k * k), with the input columns,
    (n, groups, in per group * k * k, oh * ow), read from ``conv2d_raw``'s
    window view: a view of a C-ordered input for an unpadded 1x1 conv at
    stride 1, else one copy (im2col). BLAS sums in its own order, so results
    differ from ``conv2d_raw`` in the last bits. Eval runs it for all but
    the depthwise convs, where the channels-last einsum is faster."""
    n = x.shape[0]
    cout, cpg, k, _ = w.shape
    win = _window_view(x, k, stride, pad, groups)
    columns = win.reshape(n, groups, cpg * k * k, -1)
    out = np.matmul(w.reshape(groups, cout // groups, cpg * k * k), columns)
    return out.reshape(n, cout, *win.shape[-2:])


def conv2d_backward_raw(x, w, grad_out, stride, pad, groups):
    """The reference backward conv: (grad_x, grad_w), grad_x a C-ordered
    array of its own. grad_x takes, per tap, one einsum over every channel,
    whose sum over output channels rounds as the per-group einsum it
    replaced, or for a depthwise conv one channels-last product, and adds
    the taps in (ky, kx) order into a zeroed padded map; an unpadded 1x1
    conv at stride 1 has one tap over every pixel, so its einsum's output
    is the gradient (a -0.0 there is kept, where the zeroed map would give
    +0.0). grad_w takes one einsum per tap over every channel, arranged to
    reproduce the per-group einsum's rounding (see the comment below).
    ``x`` is read C-ordered, so grad_w does not depend on its memory
    layout."""
    x = np.ascontiguousarray(x)
    n, _, h, wd = x.shape
    cout, cpg, k, _ = w.shape
    opg = cout // groups
    xp, (oh, ow), taps = _windows(x, k, stride, pad)
    xg = xp.reshape(n, groups, cpg, *xp.shape[2:])
    wg = w.reshape(groups, opg, cpg, k, k)
    go = grad_out.reshape(n, groups, opg, oh, ow)
    # The weights read (ky, kx, group, in, out). Copied in that order, the
    # out-channels that grad_x sums have the smallest stride: the einsum
    # then adds them in order into one output row at a time, not into the
    # whole (in, pixel) block, about 3x faster. On a 1x1 output map the
    # per-group einsum summed them in its innermost loop, in its own SIMD
    # order, which only w's own strides reproduce: there wt stays a view
    # (a copy fails the desk config's x (2, 4, 1, 1), w (8, 2, 1, 1)).
    wt = wg.transpose(3, 4, 0, 2, 1)
    if oh * ow > 1:
        wt = np.ascontiguousarray(wt)
    if cpg == opg == 1 < groups:
        # depthwise, channels-last: per tap one product and one add into a
        # zeroed padded (n, h, w, c) map, in (ky, kx) order
        go_nhwc = np.ascontiguousarray(grad_out.transpose(0, 2, 3, 1))
        gxp = np.zeros((n, *xp.shape[2:], cout))
        buf = np.empty_like(go_nhwc)
        for ky, kx, rows, cols in taps:
            gxp[:, rows, cols] += np.multiply(go_nhwc, wt[ky, kx, :, 0, 0],
                                              out=buf)
        grad_x = np.ascontiguousarray(
            gxp[:, pad:pad + h, pad:pad + wd].transpose(0, 3, 1, 2))
        del gxp, buf, go_nhwc   # freed before the weight gradient
    else:
        # grad_out read (group, out-channel, pixel): a copy, but on a 1x1
        # map a view with grad_out's own strides, which, with wt's, give
        # the per-group einsum's SIMD order there (a copy fails the desk
        # config's x (2, 1, 1, 1), w (4, 1, 1, 1)). The padded map is laid
        # out (group, channel, n, h, w), as the einsum's output is.
        go_cols = go.transpose(1, 2, 0, 3, 4).reshape(groups, opg, -1)
        gx_tap = np.empty((groups, cpg, n, oh, ow))
        one_tap = k == 1 and stride == 1   # the one tap reads every pixel
        gxg = gx_tap if one_tap else np.zeros((groups, cpg, n,
                                               *xp.shape[2:]))
        for ky, kx, rows, cols in taps:
            np.einsum("goN,gco->gcN", go_cols, wt[ky, kx],
                      out=gx_tap.reshape(groups, cpg, -1))
            if not one_tap:
                gxg[..., rows, cols] += gx_tap
        grad_x = np.empty(x.shape)
        grad_x.reshape(n, groups, cpg, h, wd)[...] = gxg[
            ..., pad:pad + h, pad:pad + wd].transpose(2, 0, 1, 3, 4)
        del gxg, gx_tap, go_cols   # freed before the weight gradient
    gw = np.zeros_like(wg)
    # grad_w has to round as the per-group einsum("nohw,nhw->o") did, taken
    # per (in-channel, tap). numpy sums each contiguous run of that reduction
    # (one image when the rows of both operands join, else one output row)
    # and adds the run sums to the output in order. One einsum over all
    # groups and in-channels keeps that order when a group has several
    # output channels and the batch several images; otherwise one einsum
    # takes the run sums and np.add.accumulate adds them in order. This
    # holds for C-ordered maps only, hence the read of x above. einsum's
    # iterator splits a run longer than its buffer in a way not modelled
    # here, and with one weight per tap (one group, in- and out-channel) the
    # per-group einsum has one output element, which it sums in SIMD lanes:
    # both run the per-group einsum itself.
    _, _, rows0, cols0 = taps[0]
    rows_join = _rows_join(go) and _rows_join(xg[:, :, 0, rows0, cols0])
    if (groups * opg * cpg == 1
            or (oh * ow if rows_join else ow) > _EINSUM_BUFSIZE):
        runs = None
    elif opg > 1 and n > 1:
        runs = ""
    else:
        runs = "n" if rows_join else "nh"
    for ky, kx, rows, cols in taps:
        win = xg[:, :, :, rows, cols]
        if runs is None:
            for ci in range(cpg):
                for g in range(groups):
                    gw[g, :, ci, ky, kx] += np.einsum(
                        "nohw,nhw->o", go[:, g], win[:, g, ci])
        else:
            sums = np.einsum(f"ngohw,ngchw->goc{runs}", go, win)
            if runs:
                sums = np.add.accumulate(
                    sums.reshape(groups, opg, cpg, -1), axis=-1)[..., -1]
            gw[..., ky, kx] += sums
    return grad_x, gw.reshape(w.shape)


class BatchNorm2d(Layer):
    """Per-channel batch normalization. ``train=True`` normalizes with the
    batch statistics and moves the running ones toward them (``_track``);
    ``train=False`` uses the running statistics."""

    epsilon = 1e-5
    momentum = 0.1

    def __init__(self, channels):
        super().__init__()
        check_count("channels", channels)
        self.channels = channels
        self.params["gamma"] = np.ones(channels)
        self.params["beta"] = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x, train=False):
        check_nchw(x)
        if x.shape[1] != self.channels:
            raise ShapeError(f"expected {self.channels} channels, got {x.shape[1]}")
        if train:
            m = x.shape[0] * x.shape[2] * x.shape[3]
            if m < 2:
                raise ShapeError(
                    "train-mode batch norm needs at least 2 elements per channel"
                )
            # np.mean/np.var's own reductions, without their wrappers; xhat
            # is written over centered and the output over its square
            mean = np.add.reduce(x, axis=(0, 2, 3)) / m
            centered = x - mean[None, :, None, None]
            out = np.square(centered)
            var = np.add.reduce(out, axis=(0, 2, 3)) / m
            self._track(mean, var)
            inv_std = 1.0 / np.sqrt(var + self.epsilon)
            xhat = np.multiply(centered, inv_std[None, :, None, None],
                               out=centered)
            self._cache = (xhat, inv_std, m)
            gamma = self.params["gamma"][None, :, None, None]
            # into the square's buffer when the dtypes match
            out = (np.multiply(gamma, xhat, out=out)
                   if gamma.dtype == out.dtype else gamma * xhat)
            out += self.params["beta"][None, :, None, None]
            return out
        # eval: one affine pass; the statistics are constants
        inv_std, scale, shift = self.eval_affine()
        xhat = (x - self.running_mean[None, :, None, None]) \
            * inv_std[None, :, None, None]
        self._cache = (xhat, inv_std, None)
        out = x * scale[None, :, None, None]
        out += shift[None, :, None, None]
        return out

    def _track(self, mean, var):
        """Move the running statistics toward one batch's; no train output
        reads them."""
        self.running_mean = (
            (1 - self.momentum) * self.running_mean + self.momentum * mean
        )
        self.running_var = (
            (1 - self.momentum) * self.running_var + self.momentum * var
        )

    def eval_affine(self):
        """(inv_std, scale, shift) of the eval pass from the running
        statistics: inv_std = 1 / sqrt(running_var + epsilon), scale =
        gamma * inv_std and shift = beta - running_mean * scale."""
        inv_std = 1.0 / np.sqrt(self.running_var + self.epsilon)
        scale = self.params["gamma"] * inv_std
        return inv_std, scale, self.params["beta"] - self.running_mean * scale

    def backward(self, grad_out):
        xhat, inv_std, m = self._take_cache()
        gamma = self.params["gamma"]
        prod = grad_out * xhat
        self.grads["gamma"] += prod.sum(axis=(0, 2, 3))
        self.grads["beta"] += grad_out.sum(axis=(0, 2, 3))
        if m is None:
            return grad_out * (gamma * inv_std)[None, :, None, None]
        # (inv_std / m) * (m * g - sum_g - xhat * sum_gx), g = grad_out *
        # gamma, in the same operations in two buffers
        g = grad_out * gamma[None, :, None, None]
        sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = np.multiply(g, xhat, out=prod).sum(axis=(0, 2, 3),
                                                    keepdims=True)
        g *= m
        g -= sum_g
        g -= np.multiply(xhat, sum_gx, out=prod)
        g *= inv_std[None, :, None, None] / m
        return g


class ReLU(Layer):
    """max(0, x), NaN kept; gradient at exactly 0 is defined as 0."""

    def forward(self, x, train=False):
        self._cache = x > 0 if train else None
        return np.maximum(x, 0.0)

    def backward(self, grad_out):
        mask = self._take_cache()
        return np.where(mask, grad_out, 0.0)


class Sigmoid(Layer):
    def forward(self, x, train=False):
        # exp(-x) overflows to inf below x = -709, giving the exact limit 0
        with np.errstate(over="ignore"):
            out = 1.0 / (1.0 + np.exp(-x))
        self._cache = out if train else None
        return out

    def backward(self, grad_out):
        out = self._take_cache()
        return grad_out * out * (1.0 - out)


@functools.lru_cache(maxsize=256, typed=True)
def _shuffle_orders(channels, groups):
    """The shuffle permutation and its inverse, built once per (channels,
    groups) and read-only, since every caller shares them. Keyed by type
    too, so a 2.0 or a True never finds the entry of a 2 or a 1 and is
    checked."""
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
        self._cache = inv if train else None
        # np.take returns a C-ordered array, where x[:, perm] would be laid
        # out channel-major; the convs after it read C order (see
        # conv2d_backward_raw)
        return np.take(x, perm, axis=1)

    def backward(self, grad_out):
        return np.take(grad_out, self._take_cache(), axis=1)


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
        out = np.full((*x.shape[:2], oh, ow), -np.inf,
                      np.result_type(x, float))
        for _, _, rows, cols in taps:
            np.maximum(out, xp[:, :, rows, cols], out=out)
        self._cache = (xp, out, taps) if train else None
        return out

    def backward(self, grad_out):
        xp, out, taps = self._take_cache()
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
        out = np.zeros((*x.shape[:2], oh, ow), np.result_type(x, float))
        for _, _, rows, cols in taps:
            out += xp[:, :, rows, cols]
        out /= 9.0
        self._cache = (xp.shape, taps) if train else None
        return out

    def backward(self, grad_out):
        shape, taps = self._take_cache()
        gxp = np.zeros(shape)
        for _, _, rows, cols in taps:
            gxp[:, :, rows, cols] += grad_out
        return gxp[:, :, 1:-1, 1:-1] / 9.0


class GlobalAvgPool(Layer):
    def out_shape(self, shape):
        return (shape[0], 1, 1)

    def forward(self, x, train=False):
        check_nchw(x)
        self._cache = x.shape if train else None
        return x.mean(axis=(2, 3), keepdims=True)

    def backward(self, grad_out):
        n, c, h, w = self._take_cache()
        return np.broadcast_to(grad_out / (h * w), (n, c, h, w)).copy()


class Linear(Layer):
    """Fully-connected classifier head on (n, c, 1, 1) inputs."""

    def __init__(self, in_features, out_features, rng=None):
        super().__init__()
        check_count("in_features", in_features)
        check_count("out_features", out_features)
        self.in_features = in_features
        self.out_features = out_features
        if rng is None:
            w = np.zeros((out_features, in_features))
        else:
            w = rng.normal(0.0, np.sqrt(1.0 / in_features),
                           size=(out_features, in_features))
        self.params["weight"] = w
        self.params["bias"] = np.zeros(out_features)

    def out_shape(self, shape):
        """Logits as a (k, 1, 1) map, though forward returns (n, k)."""
        c, h, w = shape
        if (h, w) != (1, 1):
            raise ShapeError(f"expected 1x1 spatial dims, got {(h, w)}")
        if c != self.in_features:
            raise ShapeError(f"expected {self.in_features} features, got {c}")
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
        self._cache = flat if train else None
        return flat @ self.params["weight"].T + self.params["bias"]

    def backward(self, grad_out):
        flat = self._take_cache()
        self.grads["weight"] += grad_out.T @ flat
        self.grads["bias"] += grad_out.sum(axis=0)
        grad_flat = grad_out @ self.params["weight"]
        return grad_flat[:, :, None, None]


class Composite:
    """A unit built from named layers. Its ``walk(shape=None, prefix="")``
    yields (prefix + path, layer, input shape) for every layer in dataflow
    order, parameter-free ones included, and returns the output shape (all
    None without an input shape). The layer list, parameters, gradients and
    batch norms are read from it in its order; parameter names read a
    ``sep`` in a path as ``.``."""

    sep = "."   # joins a composite step's name to the paths inside it

    def all_layers(self):
        for path, layer, _ in self.walk():
            yield path, layer

    def named_layers(self):
        """{parameter-name prefix: layer} for the layers with parameters."""
        return {path.replace(self.sep, "."): layer
                for path, layer in self.all_layers() if layer.params}

    def _per_layer(self, attr):
        return {f"{ln}.{key}": getattr(layer, attr)[key]
                for ln, layer in self.named_layers().items()
                for key in layer.params}

    params = property(lambda self: self._per_layer("params"))
    grads = property(lambda self: self._per_layer("grads"))

    def zero_grad(self):
        for layer in self.named_layers().values():
            layer.zero_grad()

    def batchnorms(self):
        for name, layer in self.named_layers().items():
            if isinstance(layer, BatchNorm2d):
                yield name, layer

    def _cache_holders(self, prefix=""):
        """(prefix + path, holder) for every cache below that a backward
        reads, in the order it reads them."""
        return [(path, layer)
                for path, layer, _ in self.walk(prefix=prefix)][::-1]

    def _check_caches(self):
        """Raise, naming the first path, unless every cache below is there:
        the outermost backward checks before any gradient is written, and
        passes ``checked=True`` to the composites inside, which skip it."""
        for path, holder in self._cache_holders():
            if holder._cache is None:
                raise RuntimeError(f"{path}: {type(holder).__name__}.backward"
                                   " called without a cached forward")


class Chain(Composite):
    """Runs its steps, (name, layer or composite) pairs, in order forward
    and in reverse backward; a composite step's paths are
    ``<step><sep><path>``."""

    def __init__(self, *steps):
        self.steps = list(steps)

    def walk(self, shape=None, prefix=""):
        for name, step in self.steps:
            if isinstance(step, Composite):
                shape = yield from step.walk(
                    shape, f"{prefix}{name}{self.sep}")
            else:
                yield f"{prefix}{name}", step, shape
                shape = None if shape is None else step.out_shape(shape)
        return shape

    def forward(self, x, train=False):
        if train:
            for _, step in self.steps:
                x = step.forward(x, train)
            return x
        # eval: a conv runs with the batch norm right after it folded in
        steps = [step for _, step in self.steps] + [None]
        i = 0
        while i < len(self.steps):
            step, after = steps[i], steps[i + 1]
            fold = isinstance(step, Conv2d) and isinstance(after, BatchNorm2d)
            x = (step.forward(x, False, bn=after) if fold
                 else step.forward(x, False))
            i += 1 + fold
        return x

    def _cache_holders(self, prefix=""):
        # the steps' in reverse: a layer, or a composite step's own cache (a
        # module's (d, f)), which it reads before the caches below it
        holders = []
        for name, step in reversed(self.steps):
            path = f"{prefix}{name}"
            if hasattr(step, "_cache"):
                holders.append((path, step))
            if isinstance(step, Composite):
                holders += step._cache_holders(f"{path}{self.sep}")
        return holders

    def backward(self, grad_out, checked=False):
        """The steps' backwards in reverse, the caches checked first unless
        ``checked`` (see ``Composite._check_caches``)."""
        if not checked:
            self._check_caches()
        for _, step in reversed(self.steps):
            grad_out = (step.backward(grad_out, checked=True)
                        if isinstance(step, Composite)
                        else step.backward(grad_out))
        return grad_out
