import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from menet import layers
from menet.builder import MENetConfig, build_menet
from menet.layers import (
    AvgPool3x3s2,
    BatchNorm2d,
    ChannelShuffle,
    Conv2d,
    GlobalAvgPool,
    Linear,
    MaxPool3x3s2,
    ReLU,
    Sigmoid,
    conv2d_backward_raw,
    conv2d_gemm,
    conv2d_raw,
)
from menet.me_module import MEModule, MEModuleConfig
from menet.tensor import ShapeError


def naive_conv(x, w, stride, pad, groups):
    """Reference triple-loop convolution, accumulation order (ci, ky, kx)."""
    n, cin, h, wd = x.shape
    cout, cpg, k, _ = w.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    opg = cout // groups
    out = np.zeros((n, cout, oh, ow))
    for b in range(n):
        for o in range(cout):
            grp = o // opg
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(cpg):
                        for ky in range(k):
                            for kx in range(k):
                                acc += (xp[b, grp * cpg + ci,
                                           i * stride + ky, j * stride + kx]
                                        * w[o, ci, ky, kx])
                    out[b, o, i, j] = acc
    return out


def per_group_conv(x, w, stride, pad, groups):
    """The per-group shifted-window forward conv2d_raw used to run, frozen:
    one broadcast multiply-add per (group, in-channel, tap)."""
    n, cin, h, wd = x.shape
    cout, cpg, k, _ = w.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    out = np.zeros((n, cout, oh, ow))
    opg = cout // groups
    for g in range(groups):
        osl = slice(g * opg, (g + 1) * opg)
        for ci in range(cpg):
            xc = xp[:, g * cpg + ci]
            for ky in range(k):
                for kx in range(k):
                    win = xc[:, ky:ky + stride * oh:stride,
                              kx:kx + stride * ow:stride]
                    out[:, osl] += win[:, None] * w[osl, ci, ky, kx][None, :, None, None]
    return out


def per_group_conv_backward(x, w, grad_out, stride, pad, groups):
    """The per-group backward conv2d_backward_raw used to run, frozen: two
    einsum calls per (group, in-channel, tap). Its grad_w rounding is
    numpy's einsum reduction order, so a numpy that changes that order
    fails the bit-identity tests below instead of drifting silently."""
    n, cin, h, wd = x.shape
    cout, cpg, k, _ = w.shape
    oh, ow = grad_out.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    opg = cout // groups
    for g in range(groups):
        osl = slice(g * opg, (g + 1) * opg)
        go = grad_out[:, osl]
        for ci in range(cpg):
            xc = xp[:, g * cpg + ci]
            gxc = gxp[:, g * cpg + ci]
            for ky in range(k):
                for kx in range(k):
                    hsl = slice(ky, ky + stride * oh, stride)
                    wsl = slice(kx, kx + stride * ow, stride)
                    win = xc[:, hsl, wsl]
                    gw[osl, ci, ky, kx] += np.einsum("nohw,nhw->o", go, win)
                    gxc[:, hsl, wsl] += np.einsum(
                        "nohw,o->nhw", go, w[osl, ci, ky, kx]
                    )
    if pad:
        grad_x = gxp[:, :, pad:-pad, pad:-pad]
    else:
        grad_x = gxp
    return grad_x, gw


def assert_matches_per_group(x, w, grad_out, stride, pad, groups):
    case = f"x{x.shape} w{w.shape} stride {stride} groups {groups}"
    out = conv2d_raw(x, w, stride, pad, groups)
    assert np.array_equal(out, per_group_conv(x, w, stride, pad, groups)), case
    grad_x, grad_w = conv2d_backward_raw(x, w, grad_out, stride, pad, groups)
    ref_x, ref_w = per_group_conv_backward(x, w, grad_out, stride, pad, groups)
    assert np.array_equal(grad_x, ref_x), f"grad_x, {case}"
    assert np.array_equal(grad_w, ref_w), f"grad_w, {case}"


def assert_gemm_agrees(x, w, stride, pad, groups):
    """Eval forward within 1e-12 of the reference kernel, relative to the
    largest reference output; the train forward is the reference itself."""
    case = f"x{x.shape} w{w.shape} stride {stride} groups {groups}"
    ref = conv2d_raw(x, w, stride, pad, groups)
    fast = conv2d_gemm(x, w, stride, pad, groups)
    assert fast.shape == ref.shape, case
    err = np.abs(fast - ref).max() / np.abs(ref).max()
    assert err <= 1e-12, f"{err:.3g} rel, {case}"
    cout, cpg, k, _ = w.shape
    conv = Conv2d(cpg * groups, cout, k, stride=stride, groups=groups)
    conv.params["weight"][...] = w
    assert np.array_equal(conv.forward(x, train=True), ref), case
    assert np.array_equal(conv.forward(x, train=False), fast), case


def random_conv_case(rng, n, cin, cout, k, stride, groups, h, wd):
    """(x, w, grad_out, pad) with standard-normal entries."""
    pad = 1 if k == 3 else 0
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    return (rng.normal(size=(n, cin, h, wd)),
            rng.normal(size=(cout, cin // groups, k, k)),
            rng.normal(size=(n, cout, oh, ow)), pad)


def desk_config():
    """The README's desk training run: 8-MENet-1x1, g=2, 8 px, 2 classes."""
    return MENetConfig.from_notation(
        "8-MENet-1x1", groups=2, stage_repeats=[1, 1, 1], stem_channels=4,
        stem_pool=False, num_classes=2, input_size=8)


def gradcheck_tiny_modules():
    """The four MEModule variants of the gradcheck-tiny benchmark."""
    return [MEModule(MEModuleConfig(cin, 8, 2, 2, downsample=cin == 4,
                                    combine_mode=mode))
            for mode in ("product", "addition") for cin in (8, 4)]


def conv_configs(source, size=32):
    """Distinct (cin, cout, k, stride, groups, h, w) of every Conv2d the
    source's ``layer_shapes`` yields; reference models at ``size`` px,
    gradcheck-tiny modules at 5 px."""
    if source == "gradcheck-tiny":
        walks = [module.layer_shapes((module.cfg.in_channels, 5, 5))[0]
                 for module in gradcheck_tiny_modules()]
    else:
        if source == "desk":
            cfg = desk_config()
        else:
            notation, groups = source.split("/g")
            cfg = MENetConfig.from_notation(notation, groups=int(groups),
                                            num_classes=10,
                                            input_size=size)
        walks = [build_menet(cfg).layer_shapes((3, cfg.input_size,
                                                cfg.input_size))]
    return sorted({(layer.in_channels, layer.out_channels, layer.kernel,
                    layer.stride, layer.groups, h, w)
                   for walk in walks for _, layer, (_, h, w) in walk
                   if isinstance(layer, Conv2d)})


class TestConv2d:
    def test_identity_1x1_kernel(self):
        c = 4
        conv = Conv2d(c, c, 1)
        conv.params["weight"][...] = np.eye(c).reshape(c, c, 1, 1)
        x = np.random.default_rng(0).normal(size=(2, c, 5, 5))
        assert np.array_equal(conv.forward(x), x)

    def test_depthwise_is_derived(self):
        assert Conv2d(2, 2, 3, groups=2).depthwise
        assert Conv2d(8, 8, 3, stride=2, groups=8).depthwise
        # a one-channel 3x3 conv, as a width-1 evo.conv_e is, counts as dense
        assert not Conv2d(1, 1, 3).depthwise
        assert not Conv2d(4, 4, 1, groups=4).depthwise
        assert not Conv2d(4, 8, 3, groups=2).depthwise

    def test_depthwise_ones_counts_taps(self):
        conv = Conv2d(2, 2, 3, groups=2)
        conv.params["weight"][...] = 1.0
        x = np.ones((1, 2, 5, 5))
        out = conv.forward(x)
        assert out[0, 0, 2, 2] == 9.0          # interior
        assert out[0, 0, 0, 0] == 4.0          # corner
        assert out[0, 0, 0, 2] == 6.0          # edge

    def test_grouped_dependency_by_perturbation(self):
        rng = np.random.default_rng(1)
        conv = Conv2d(4, 4, 1, groups=2, rng=rng)
        x = rng.normal(size=(1, 4, 3, 3))
        base = conv.forward(x)
        xp = x.copy()
        xp[:, 2] = 0.0
        changed = np.abs(conv.forward(xp) - base).max(axis=(0, 2, 3)) > 0
        assert not changed[0] and not changed[1]
        assert changed[2] or changed[3]

    @pytest.mark.parametrize("cin,cout,k,stride,pad,groups", [
        (3, 5, 3, 1, 1, 1),
        (4, 6, 3, 2, 1, 2),
        (6, 6, 1, 1, 0, 3),
        (4, 4, 3, 1, 1, 4),   # depthwise-shaped
    ])
    def test_bit_identical_to_naive_reference(self, cin, cout, k, stride,
                                              pad, groups):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, cin, 6, 6))
        w = rng.normal(size=(cout, cin // groups, k, k))
        fast = conv2d_raw(x, w, stride, pad, groups)
        ref = naive_conv(x, w, stride, pad, groups)
        assert np.array_equal(fast, ref)

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("cin,cout,k,stride,groups", [
        (3, 5, 3, 1, 1),
        (4, 6, 3, 2, 2),
        (6, 6, 1, 1, 3),
        (4, 4, 3, 1, 4),
        (6, 6, 3, 1, 3),      # grouped 3x3, stride 1
    ])
    def test_bit_identical_to_per_group_kernels(self, cin, cout, k, stride,
                                                groups, batch):
        rng = np.random.default_rng(3)
        x, w, grad_out, pad = random_conv_case(rng, batch, cin, cout, k,
                                               stride, groups, 6, 6)
        assert_matches_per_group(x, w, grad_out, stride, pad, groups)

    @pytest.mark.parametrize("batch", [1, 2, 16])
    @pytest.mark.parametrize("source", [
        "228-MENet-12x1/g3", "256-MENet-12x1/g4", "352-MENet-12x1/g8",
        "desk", "gradcheck-tiny",
    ])
    def test_model_convs_bit_identical_to_per_group_kernels(self, source,
                                                            batch):
        rng = np.random.default_rng(4)
        configs = conv_configs(source)
        assert configs
        for cin, cout, k, stride, groups, h, wd in configs:
            x, w, grad_out, pad = random_conv_case(rng, batch, cin, cout, k,
                                                   stride, groups, h, wd)
            assert_matches_per_group(x, w, grad_out, stride, pad, groups)

    def test_224_px_convs_bit_identical_to_per_group_kernels(self):
        # the paper's mobile setting: 228-MENet-12x1, g=3, 224 px, batch 1
        rng = np.random.default_rng(4)
        for cin, cout, k, stride, groups, h, wd in conv_configs(
                "228-MENet-12x1/g3", size=224):
            x, w, grad_out, pad = random_conv_case(rng, 1, cin, cout, k,
                                                   stride, groups, h, wd)
            assert_matches_per_group(x, w, grad_out, stride, pad, groups)

    @pytest.mark.parametrize("batch", [1, 2, 16])
    @pytest.mark.parametrize("source", [
        "228-MENet-12x1/g3", "256-MENet-12x1/g4", "352-MENet-12x1/g8",
        "desk", "gradcheck-tiny",
    ])
    def test_model_convs_gemm_agrees_with_reference(self, source, batch):
        rng = np.random.default_rng(8)
        for cin, cout, k, stride, groups, h, wd in conv_configs(source):
            x, w, _, pad = random_conv_case(rng, batch, cin, cout, k, stride,
                                            groups, h, wd)
            assert_gemm_agrees(x, w, stride, pad, groups)

    def test_224_px_convs_gemm_agrees_with_reference(self):
        rng = np.random.default_rng(8)
        for cin, cout, k, stride, groups, h, wd in conv_configs(
                "228-MENet-12x1/g3", size=224):
            x, w, _, pad = random_conv_case(rng, 1, cin, cout, k, stride,
                                            groups, h, wd)
            assert_gemm_agrees(x, w, stride, pad, groups)

    @pytest.mark.parametrize("cin,cout,k,stride,groups", [
        (3, 5, 3, 1, 1), (4, 6, 3, 2, 2), (6, 6, 3, 1, 3), (6, 6, 1, 2, 3),
    ])
    def test_gemm_agrees_on_channel_slices(self, cin, cout, k, stride,
                                           groups):
        # grouped 3x3 and a non-contiguous input, which no model yields
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 2 * cin, 7, 7))[:, cin:]
        w = rng.normal(size=(cout, cin // groups, k, k))
        assert_gemm_agrees(x, w, stride, k // 2, groups)

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("cin,cout,k,stride,groups", [
        (4, 4, 1, 1, 4), (4, 8, 1, 1, 2), (4, 4, 3, 1, 4), (4, 8, 1, 2, 2),
    ])
    def test_strided_views_bit_identical_to_per_group_kernels(
            self, cin, cout, k, stride, groups, batch):
        # a channel slice of x and a cropped grad_out, as module backward
        # passes hand them on; the rows of the cropped view do not join
        rng = np.random.default_rng(5)
        pad = 1 if k == 3 else 0
        oh = (7 + 2 * pad - k) // stride + 1
        x = rng.normal(size=(batch, 2 * cin, 7, 7))[:, cin:]
        w = rng.normal(size=(cout, cin // groups, k, k))
        framed = rng.normal(size=(batch, cout, oh + 2, oh + 2))
        assert_matches_per_group(x, w, framed[:, :, 1:-1, 1:-1], stride, pad,
                                 groups)

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("cout,groups", [(4, 4), (8, 2)])
    def test_maps_past_einsum_buffer_bit_identical(self, cout, groups, batch):
        # 92 x 92 = 8464 pixels: one image's reduction outgrows einsum's
        # 8192-element iterator buffer
        rng = np.random.default_rng(6)
        x, w, grad_out, pad = random_conv_case(rng, batch, 4, cout, 1, 1,
                                               groups, 92, 92)
        assert_matches_per_group(x, w, grad_out, 1, pad, groups)

    def test_network_step_bit_identical_to_per_group_kernels(self,
                                                             monkeypatch):
        # the layouts a real forward and backward hand to the kernels
        def step():
            net = build_menet(desk_config(), seed=0)
            x = np.random.default_rng(7).normal(size=(4, 3, 8, 8))
            net.zero_grad()
            logits = net.forward(x, train=True)
            grad_x = net.backward(np.ones_like(logits) / logits.size)
            return logits, grad_x, net.grads

        logits, grad_x, grads = step()
        with monkeypatch.context() as m:
            m.setattr(layers, "conv2d_raw", per_group_conv)
            m.setattr(layers, "conv2d_backward_raw", per_group_conv_backward)
            ref_logits, ref_grad_x, ref_grads = step()
        assert np.array_equal(logits, ref_logits)
        assert np.array_equal(grad_x, ref_grad_x)
        for name, g in grads.items():
            assert np.array_equal(g, ref_grads[name]), name

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            Conv2d(5, 4, 1, groups=2)
        conv = Conv2d(4, 4, 1)
        with pytest.raises(ShapeError):
            conv.forward(np.zeros((1, 3, 2, 2)))
        for kernel in (2, 5):
            with pytest.raises(ValueError, match="kernel must be 1 or 3"):
                Conv2d(4, 4, kernel)
        for stride in (0, 3):
            with pytest.raises(ValueError, match="stride must be 1 or 2"):
                Conv2d(4, 4, 3, stride=stride)


    @pytest.mark.parametrize("groups", [0, -2])
    def test_groups_below_one_rejected(self, groups):
        with pytest.raises(ShapeError, match=f"groups must be >= 1, got {groups}"):
            Conv2d(4, 4, 1, groups=groups)

    def test_indivisible_width_named(self):
        with pytest.raises(ShapeError, match="in_channels=5 not divisible"):
            Conv2d(5, 4, 1, groups=2)
        with pytest.raises(ShapeError, match="out_channels=6 not divisible"):
            Conv2d(4, 6, 1, groups=4)


def frozen_bn_train(x, gamma, beta, running_mean, running_var, grad_out,
                    epsilon=1e-5, momentum=0.1):
    """The train-mode batch norm forward and backward as written with
    ``x.mean``/``x.var``: output, running mean, running var, grad_x,
    grad_gamma, grad_beta."""
    m = x.shape[0] * x.shape[2] * x.shape[3]
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    running_mean = (1 - momentum) * running_mean + momentum * mean
    running_var = (1 - momentum) * running_var + momentum * var
    inv_std = 1.0 / np.sqrt(var + epsilon)
    xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    grad_gamma = (grad_out * xhat).sum(axis=(0, 2, 3))
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    g = grad_out * gamma[None, :, None, None]
    sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
    sum_gx = (g * xhat).sum(axis=(0, 2, 3), keepdims=True)
    grad_x = (inv_std[None, :, None, None] / m) * (
        m * g - sum_g - xhat * sum_gx)
    return out, running_mean, running_var, grad_x, grad_gamma, grad_beta


def bn_inputs(layout, rng):
    """A (batch, 3, 5, 5) input far from zero mean, so every summation
    order rounds differently, laid out as ``layout`` says."""
    def values(*shape):
        return 1e3 + rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, shape)
    if layout == "batch1":
        return values(1, 3, 5, 5)
    if layout == "batch4":
        return values(4, 3, 5, 5)
    if layout == "channel-slice":
        return values(4, 6, 5, 5)[:, ::2]
    if layout == "cropped":
        return values(4, 3, 7, 10)[:, :, 1:-1, ::2]
    if layout == "nhwc":
        return values(4, 5, 5, 3).transpose(0, 3, 1, 2)
    return np.asfortranarray(values(4, 3, 5, 5))


class TestBatchNorm:
    @pytest.mark.parametrize("layout", ["batch1", "batch4", "channel-slice",
                                        "cropped", "nhwc", "fortran"])
    def test_train_mode_bit_identical_to_mean_var_form(self, layout):
        rng = np.random.default_rng(21)
        bn = BatchNorm2d(3)
        bn.params["gamma"][...] = rng.normal(size=3)
        bn.params["beta"][...] = rng.normal(size=3)
        ref_mean, ref_var = bn.running_mean, bn.running_var
        for _ in range(2):      # the running statistics carry over
            x = bn_inputs(layout, rng)
            grad_out = rng.normal(size=x.shape)
            ref = frozen_bn_train(x, bn.params["gamma"], bn.params["beta"],
                                  ref_mean, ref_var, grad_out)
            _, ref_mean, ref_var, *_ = ref
            bn.zero_grad()
            out = bn.forward(x, train=True)
            grad_x = bn.backward(grad_out)
            got = (out, bn.running_mean, bn.running_var, grad_x,
                   bn.grads["gamma"], bn.grads["beta"])
            for a, b in zip(got, ref):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_train_mode_normalizes(self):
        bn = BatchNorm2d(3)
        x = np.random.default_rng(3).normal(2.0, 3.0, size=(4, 3, 5, 5))
        out = bn.forward(x, train=True)
        mean = out.mean(axis=(0, 2, 3))
        var = out.var(axis=(0, 2, 3))
        assert np.all(np.abs(mean) < 1e-10)
        assert np.all(np.abs(var - 1.0) < 1e-4)   # off by eps/(var+eps)

    def test_eval_mode_affine(self):
        bn = BatchNorm2d(2)
        bn.params["gamma"][...] = 2.0
        bn.params["beta"][...] = 3.0
        x = np.ones((1, 2, 2, 2))
        out = bn.forward(x, train=False)
        expected = 2.0 / np.sqrt(1 + 1e-5) + 3.0
        assert np.allclose(out, expected, atol=1e-12)

    def test_eval_mode_matches_normalized_form(self):
        rng = np.random.default_rng(10)
        bn = BatchNorm2d(4)
        bn.params["gamma"][...] = rng.normal(size=4)
        bn.params["beta"][...] = rng.normal(size=4)
        bn.running_mean = rng.normal(size=4)
        bn.running_var = rng.uniform(0.5, 2.0, size=4)
        x = rng.normal(size=(2, 4, 5, 5))
        gamma, beta, mean, var = (a[:, None, None] for a in (
            bn.params["gamma"], bn.params["beta"], bn.running_mean,
            bn.running_var))
        ref = gamma * (x - mean) / np.sqrt(var + bn.epsilon) + beta
        out = bn.forward(x, train=False)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_running_stats_update(self):
        bn = BatchNorm2d(1)
        x = np.full((2, 1, 2, 2), 10.0)
        x[0] = 0.0
        bn.forward(x, train=True)
        assert np.isclose(bn.running_mean[0], 0.1 * 5.0)

    def test_channel_mismatch_rejected(self):
        bn = BatchNorm2d(3)
        for train in (True, False):
            with pytest.raises(ShapeError, match="expected 3 channels, got 2"):
                bn.forward(np.zeros((2, 2, 2, 2)), train=train)

    def test_single_element_train_rejected(self):
        bn = BatchNorm2d(1)
        with pytest.raises(ShapeError):
            bn.forward(np.zeros((1, 1, 1, 1)), train=True)


class TestActivations:
    def test_relu_values(self):
        x = np.array([-1.0, 0.0, 2.0]).reshape(1, 3, 1, 1)
        out = ReLU().forward(x)
        assert out.reshape(-1).tolist() == [0.0, 0.0, 2.0]

    def test_relu_keeps_nan_and_positive_zero(self):
        x = np.array([np.nan, -0.0, -np.inf, np.inf]).reshape(1, 4, 1, 1)
        out = ReLU().forward(x).reshape(-1)
        assert np.isnan(out[0]) and out[1:].tolist() == [0.0, 0.0, np.inf]
        assert not np.signbit(out[1])

    def test_sigmoid_symmetry_and_saturation(self):
        s = Sigmoid()
        assert s.forward(np.zeros((1, 1, 1, 1)))[0, 0, 0, 0] == 0.5
        big = s.forward(np.full((1, 1, 1, 1), 20.0))[0, 0, 0, 0]
        small = s.forward(np.full((1, 1, 1, 1), -20.0))[0, 0, 0, 0]
        assert abs(big - 1.0) < 1e-8 and abs(small) < 1e-8

    def test_sigmoid_strictly_inside_unit_interval(self):
        x = np.random.default_rng(5).normal(0, 10, size=(2, 3, 4, 4))
        out = Sigmoid().forward(x)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_relu_gradient_zero_at_zero(self):
        r = ReLU()
        x = np.array([[-1.0, 0.0, 1.0]]).reshape(1, 3, 1, 1)
        r.forward(x)
        g = r.backward(np.ones_like(x))
        assert g.reshape(-1).tolist() == [0.0, 0.0, 1.0]


class TestChannelShuffle:
    def test_nine_channels_three_groups(self):
        assert ChannelShuffle.permutation(9, 3).tolist() == \
            [0, 3, 6, 1, 4, 7, 2, 5, 8]

    def test_six_channels_two_groups(self):
        assert ChannelShuffle.permutation(6, 2).tolist() == [0, 3, 1, 4, 2, 5]

    def test_single_group_identity(self):
        x = np.random.default_rng(6).normal(size=(1, 5, 2, 2))
        assert np.array_equal(ChannelShuffle(1).forward(x), x)

    def test_indivisible_rejected(self):
        with pytest.raises(ShapeError):
            ChannelShuffle(2).forward(np.zeros((1, 5, 2, 2)))

    @pytest.mark.parametrize("groups", [0, -3])
    def test_groups_below_one_rejected(self, groups):
        with pytest.raises(ShapeError, match=f"groups must be >= 1, got {groups}"):
            ChannelShuffle.permutation(9, groups)

    def test_permutation_shared_and_read_only(self):
        perm = ChannelShuffle.permutation(12, 3)
        assert ChannelShuffle.permutation(12, 3) is perm
        assert not perm.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            perm[0] = 5
        assert perm.tolist() == [0, 4, 8, 1, 5, 9, 2, 6, 10, 3, 7, 11]

    def test_backward_inverts_forward(self):
        x = np.random.default_rng(8).normal(size=(2, 12, 3, 3))
        shuffle = ChannelShuffle(3)
        y = shuffle.forward(x)
        assert y.flags.writeable
        assert np.array_equal(shuffle.backward(y), x)

    @given(c=st.integers(1, 64), seed=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_involution_and_permutation_property(self, c, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, c, 2, 2))
        for g in range(1, c + 1):
            if c % g:
                continue
            y = ChannelShuffle(g).forward(x)
            back = ChannelShuffle(c // g).forward(y)
            assert np.array_equal(back, x)
            # multiset of channel slices is preserved
            sx = sorted(map(tuple, x[0].reshape(c, -1)))
            sy = sorted(map(tuple, y[0].reshape(c, -1)))
            assert sx == sy


class TestWindows:
    @staticmethod
    def special_values(layout):
        """An input holding -0.0, NaN (with a payload), inf and -inf, laid
        out as ``layout`` says."""
        x = np.random.default_rng(4).normal(size=(2, 6, 5, 7))
        x[0, 0, 0, :4] = [-0.0, np.nan, np.inf, -np.inf]
        x[1, 2, 4, 6] = -0.0
        x.view(np.uint64)[1, 4, 2, 3] = 0x7FF8_0000_0000_BEEF
        if layout == "channel-slice":
            return x[:, ::2]
        if layout == "fortran":
            return np.asfortranarray(x)
        return x

    @pytest.mark.parametrize("layout", ["contiguous", "channel-slice",
                                        "fortran"])
    @pytest.mark.parametrize("fill", [0.0, -np.inf])
    @pytest.mark.parametrize("k, stride, pad", [(3, 1, 1), (3, 2, 1),
                                                (1, 1, 0), (1, 2, 0)])
    def test_padded_map_bit_identical_to_np_pad(self, layout, fill, k,
                                                stride, pad):
        x = self.special_values(layout)
        xp, (oh, ow), taps = layers._windows(x, k, stride, pad, fill=fill)
        if pad:
            ref = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                         constant_values=fill)
            assert xp.dtype == ref.dtype and xp.strides == ref.strides
            assert xp.tobytes(order="A") == ref.tobytes(order="A")
        else:
            assert xp is x
        h, w = x.shape[2:]
        assert (oh, ow) == ((h + 2 * pad - k) // stride + 1,
                            (w + 2 * pad - k) // stride + 1)
        assert list(taps) == [(ky, kx, slice(ky, ky + stride * oh, stride),
                               slice(kx, kx + stride * ow, stride))
                              for ky in range(k) for kx in range(k)]

    def test_repeated_geometry_shares_one_tap_tuple(self):
        a = np.zeros((1, 2, 6, 9))
        b = np.ones((3, 5, 6, 9))
        _, hw_a, taps_a = layers._windows(a, 3, 2, 1)
        _, hw_b, taps_b = layers._windows(b, 3, 2, 1)
        assert isinstance(taps_a, tuple) and taps_b is taps_a
        assert hw_a == hw_b == (3, 5)
        assert layers._windows(a, 3, 1, 1)[2] is not taps_a


class TestPooling:
    def test_global_avg_constant(self):
        x = np.full((2, 3, 4, 4), 5.0)
        out = GlobalAvgPool().forward(x)
        assert out.shape == (2, 3, 1, 1)
        assert np.all(out == 5.0)

    def test_max_pool_matches_window_scan(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 2, 7, 7))
        out = MaxPool3x3s2().forward(x)
        assert out.shape == (1, 2, 4, 4)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)),
                    constant_values=-np.inf)
        for i in range(4):
            for j in range(4):
                win = xp[0, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                assert np.array_equal(out[0, :, i, j], win.max(axis=(1, 2)))

    def test_avg_pool_counts_padded_taps(self):
        x = np.ones((1, 1, 6, 6))
        out = AvgPool3x3s2().forward(x)
        assert out.shape == (1, 1, 3, 3)
        assert np.isclose(out[0, 0, 0, 0], 4.0 / 9.0)   # corner
        assert np.isclose(out[0, 0, 1, 1], 1.0)          # interior

    @staticmethod
    def naive_pool(x, grad_out, is_max):
        """Per-window 3x3/s2/pad-1 pooling loop: output and input gradient.
        Max sends each window's gradient to its first maximal tap in (ky, kx)
        order. The gradient of each input element adds its windows' shares
        in the tap order the layers use, so the result is exact to the bit."""
        n, c = x.shape[:2]
        oh, ow = grad_out.shape[2:]
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)),
                    constant_values=-np.inf if is_max else 0.0)
        taps = [(ky, kx) for ky in range(3) for kx in range(3)]
        out = np.empty((n, c, oh, ow))
        first = {}
        for b in range(n):
            for ch in range(c):
                for i in range(oh):
                    for j in range(ow):
                        vals = [xp[b, ch, 2 * i + ky, 2 * j + kx]
                                for ky, kx in taps]
                        acc = -np.inf if is_max else 0.0
                        for v in vals:
                            acc = max(acc, v) if is_max else acc + v
                        out[b, ch, i, j] = acc if is_max else acc / 9.0
                        first[b, ch, i, j] = (taps[vals.index(acc)]
                                              if is_max else None)
        gxp = np.zeros_like(xp)
        for ky, kx in taps:
            for (b, ch, i, j), tap in first.items():
                if not is_max or tap == (ky, kx):
                    gxp[b, ch, 2 * i + ky, 2 * j + kx] += grad_out[b, ch, i, j]
        gx = gxp[:, :, 1:-1, 1:-1]
        return out, gx if is_max else gx / 9.0

    @pytest.mark.parametrize("size", [6, 7])
    @pytest.mark.parametrize("pool", [MaxPool3x3s2, AvgPool3x3s2])
    def test_pool_matches_naive_loop_bit_for_bit(self, pool, size):
        rng = np.random.default_rng(size)
        x = rng.normal(size=(2, 3, size, size))
        # tied maxima, as after a ReLU: the windows of output rows 1-2,
        # columns 0-1 read nothing but zeros and padding
        x[0, 1, 1:6, :4] = 0.0
        layer = pool()
        out = layer.forward(x)
        grad_out = rng.normal(size=out.shape)
        grad_x = layer.backward(grad_out)
        ref_out, ref_grad = self.naive_pool(x, grad_out,
                                            pool is MaxPool3x3s2)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(grad_x, ref_grad)

    def test_max_pool_tied_window_sends_gradient_once(self):
        # one window over a 2x2 zero map: the gradient goes to its first
        # tap in (ky, kx) order that holds the maximum, input (0, 0)
        pool = MaxPool3x3s2()
        pool.forward(np.zeros((1, 1, 2, 2)))
        grad_x = pool.backward(np.full((1, 1, 1, 1), 3.0))
        assert grad_x[0, 0].tolist() == [[3.0, 0.0], [0.0, 0.0]]

    def test_pool_halves_table_spatial_trace(self):
        for size, expect in [(56, 28), (28, 14), (14, 7)]:
            x = np.zeros((1, 1, size, size))
            assert AvgPool3x3s2().forward(x).shape[2] == expect
            assert MaxPool3x3s2().forward(x).shape[2] == expect


class TestLinear:
    def test_identity_weights(self):
        lin = Linear(3, 3)
        lin.params["weight"][...] = np.eye(3)
        x = np.random.default_rng(8).normal(size=(2, 3, 1, 1))
        assert np.allclose(lin.forward(x), x[:, :, 0, 0])

    def test_zero_weights_bias_only(self):
        lin = Linear(4, 2)
        lin.params["bias"][...] = [1.5, -2.0]
        out = lin.forward(np.random.default_rng(9).normal(size=(3, 4, 1, 1)))
        assert np.allclose(out, [[1.5, -2.0]] * 3)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(10)
        lin = Linear(3, 2, rng=rng)
        x = rng.normal(size=(2, 3, 1, 1))
        out = lin.forward(x)
        for b in range(2):
            for o in range(2):
                acc = lin.params["bias"][o]
                acc = acc + float(
                    np.dot(x[b, :, 0, 0], lin.params["weight"][o]))
                assert np.isclose(out[b, o], acc, rtol=0, atol=1e-15)

    def test_spatial_dims_must_be_one(self):
        with pytest.raises(ShapeError, match="1x1 spatial"):
            Linear(3, 2).forward(np.zeros((1, 3, 2, 2)))
        with pytest.raises(ShapeError, match="expected 3 features, got 4"):
            Linear(3, 2).forward(np.zeros((1, 4, 1, 1)))


def test_backward_without_forward_rejected():
    conv = Conv2d(2, 2, 1)
    with pytest.raises(RuntimeError):
        conv.backward(np.zeros((1, 2, 2, 2)))


# (kind, layer factory taking the stride); kinds without a stride argument
# get stride None
SHAPE_CASES = [
    ("pw_grouped", 1, lambda s: Conv2d(4, 6, 1, stride=s, groups=2)),
    ("pw_grouped", 2, lambda s: Conv2d(4, 6, 1, stride=s, groups=2)),
    ("conv3x3", 1, lambda s: Conv2d(4, 5, 3, stride=s)),
    ("conv3x3", 2, lambda s: Conv2d(4, 5, 3, stride=s)),
    ("depthwise", 1, lambda s: Conv2d(4, 4, 3, stride=s, groups=4)),
    ("depthwise", 2, lambda s: Conv2d(4, 4, 3, stride=s, groups=4)),
    ("bn", None, lambda s: BatchNorm2d(4)),
    ("relu", None, lambda s: ReLU()),
    ("sigmoid", None, lambda s: Sigmoid()),
    ("shuffle", None, lambda s: ChannelShuffle(2)),
    ("maxpool", None, lambda s: MaxPool3x3s2()),
    ("avgpool", None, lambda s: AvgPool3x3s2()),
    ("gap", None, lambda s: GlobalAvgPool()),
    ("linear", None, lambda s: Linear(4, 3)),
]


@pytest.mark.parametrize("size", [5, 6])
@pytest.mark.parametrize("kind,stride,make", SHAPE_CASES,
                         ids=[f"{k}-s{s}" for k, s, _ in SHAPE_CASES])
def test_out_shape_and_macs_match_forward(kind, stride, make, size):
    layer = make(stride)
    shape = (4, 1, 1) if kind == "linear" else (4, size, size)
    out = layer.forward(np.random.default_rng(size).normal(size=(2, *shape)))
    if kind == "linear":
        # the classifier's (n, k) logits are a (k, 1, 1) map to the protocol
        out = out[:, :, None, None]
    assert layer.out_shape(shape) == out.shape[1:]
    # one multiply-accumulate per weight of an output element's fan-in
    w = layer.params.get("weight")
    expected = 0 if w is None else out[0].size * w[0].size
    assert layer.macs(shape) == expected
