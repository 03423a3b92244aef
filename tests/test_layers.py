import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from menet import layers
from menet.builder import MENetConfig, build_menet
from menet.layers import (
    AvgPool3x3s2,
    BatchNorm2d,
    Chain,
    ChannelShuffle,
    Composite,
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


def same_bytes(a, b):
    """Equal shape, dtype and bytes: unlike ``np.array_equal``, -0.0 and
    +0.0 differ."""
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def assert_matches_per_group(x, w, grad_out, stride, pad, groups):
    case = f"x{x.shape} w{w.shape} stride {stride} groups {groups}"
    out = conv2d_raw(x, w, stride, pad, groups)
    assert same_bytes(out, per_group_conv(x, w, stride, pad, groups)), case
    grad_x, grad_w = conv2d_backward_raw(x, w, grad_out, stride, pad, groups)
    ref_x, ref_w = per_group_conv_backward(x, w, grad_out, stride, pad, groups)
    assert same_bytes(grad_x, ref_x), f"grad_x, {case}"
    assert same_bytes(grad_w, ref_w), f"grad_w, {case}"


def assert_gemm_agrees(x, w, stride, pad, groups):
    """conv2d_gemm within 1e-12 of the reference kernel, relative to the
    largest reference output. The train forward, and the eval forward of a
    depthwise conv, is the reference itself; any other eval forward is
    conv2d_gemm."""
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
    out = conv.forward(x, train=False)
    if conv.depthwise:
        assert same_bytes(out, ref), case
    else:
        assert np.array_equal(out, fast), case


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


def source_model(source, size=32):
    """The network of a "<notation>/g<groups>" source at ``size`` px and 10
    classes, or of the desk config."""
    if source == "desk":
        return build_menet(desk_config())
    notation, groups = source.split("/g")
    return build_menet(MENetConfig.from_notation(
        notation, groups=int(groups), num_classes=10, input_size=size))


def source_walk(source, size=32):
    """(path, layer, input shape) of every layer the source's ``walk``
    yields; reference models at ``size`` px, gradcheck-tiny modules at 5
    px, their paths led by the module's index."""
    if source == "gradcheck-tiny":
        return [(f"{i}.{path}", layer, shape)
                for i, module in enumerate(gradcheck_tiny_modules())
                for path, layer, shape in module.walk(
                    (module.cfg.in_channels, 5, 5))]
    net = source_model(source, size)
    return list(net.walk((net.in_channels, net.input_size, net.input_size)))


def conv_configs(source, size=32):
    """Distinct (cin, cout, k, stride, groups, h, w) of every Conv2d in
    ``source_walk``."""
    return sorted({(layer.in_channels, layer.out_channels, layer.kernel,
                    layer.stride, layer.groups, h, w)
                   for _, layer, (_, h, w) in source_walk(source, size)
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
        # a channel multiplier: two outputs per one-channel group
        assert not Conv2d(4, 8, 3, groups=4).depthwise

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
        assert same_bytes(fast, ref)

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

    def test_one_element_output_adds_in_order(self):
        # einsum sums a lone term axis in SIMD lanes, not in order
        rng = np.random.default_rng(10)
        for cin in (8, 64):
            x = rng.normal(size=(1, cin, 1, 1)) * 10.0 ** rng.uniform(
                -8, 8, (1, cin, 1, 1))
            w = rng.normal(size=(1, cin, 1, 1))
            assert same_bytes(conv2d_raw(x, w, 1, 0, 1),
                              naive_conv(x, w, 1, 0, 1))
            assert_matches_per_group(x, w, rng.normal(size=(1, 1, 1, 1)), 1,
                                     0, 1)

    @pytest.mark.parametrize("zeros", [False, True],
                             ids=["normal", "signed-zeros"])
    def test_one_pixel_classes_bit_identical(self, zeros):
        # every one-pixel class: groups, in- and out-channels per group each
        # in 1-3, both kernels and strides; batch 1 takes the in-order loop,
        # batch 2 the einsum over two outputs. Mostly +-0.0 entries catch a
        # kernel that writes a product where the references add it to +0.0
        rng = np.random.default_rng(24)
        for groups, cpg, opg, k, stride, batch in itertools.product(
                range(1, 4), range(1, 4), range(1, 4), (1, 3), (1, 2), (1, 2)):
            x, w, _, pad = random_conv_case(rng, batch, groups * cpg,
                                            groups * opg, k, stride, groups,
                                            1, 1)
            if zeros:
                x, w = (np.where(rng.random(a.shape) < 0.8,
                                 rng.choice([-0.0, 0.0], a.shape), a)
                        for a in (x, w))
            case = f"x{x.shape} w{w.shape} stride {stride} groups {groups}"
            out = conv2d_raw(x, w, stride, pad, groups)
            assert out.shape == (batch, groups * opg, 1, 1), case
            for ref in (naive_conv, per_group_conv):
                assert same_bytes(out, ref(x, w, stride, pad, groups)), case

    def test_576_term_sums_add_in_order(self):
        # 64 input channels under a 3x3 kernel: each output's running sum
        # is carried through 576 products
        rng = np.random.default_rng(11)
        cin, cout, batch, size = 64, 2, 2, 4
        x, w, grad_out, pad = random_conv_case(rng, batch, cin, cout, 3, 1, 1,
                                               size, size)
        assert same_bytes(conv2d_raw(x, w, 1, pad, 1),
                          naive_conv(x, w, 1, pad, 1))
        assert_matches_per_group(x, w, grad_out, 1, pad, 1)

    @settings(max_examples=150, deadline=None)
    @given(groups=st.integers(1, 3), opg=st.integers(1, 3),
           cpg=st.integers(1, 8), batch=st.integers(1, 2),
           oh=st.integers(1, 3), ow=st.integers(1, 3),
           k=st.sampled_from([1, 3]), stride=st.sampled_from([1, 2]),
           seed=st.integers(0, 2 ** 16))
    # one output element, and one pixel under a dense conv with several
    # outputs: einsum sums the terms in SIMD lanes there unless guided
    @example(groups=1, opg=1, cpg=8, batch=1, oh=1, ow=1, k=1, stride=1,
             seed=1)
    @example(groups=1, opg=2, cpg=8, batch=1, oh=1, ow=1, k=1, stride=1,
             seed=1)
    def test_degenerate_shapes_bit_identical_to_naive(
            self, groups, opg, cpg, batch, oh, ow, k, stride, seed):
        # groups, outputs per group and n * oh * ow are the axes whose
        # lengths change einsum's loop order; each is drawn down to 1, so
        # one output element and 1x1 maps at batch 1 come up. The map is
        # the smallest that gives oh x ow.
        rng = np.random.default_rng(seed)
        x, w, _, pad = random_conv_case(
            rng, batch, groups * cpg, groups * opg, k, stride, groups,
            (oh - 1) * stride + 1, (ow - 1) * stride + 1)
        out = conv2d_raw(x, w, stride, pad, groups)
        assert out.shape == (batch, groups * opg, oh, ow)
        assert same_bytes(out, naive_conv(x, w, stride, pad, groups))

    @settings(max_examples=150, deadline=None)
    @given(groups=st.integers(1, 3), opg=st.integers(1, 3),
           cpg=st.integers(1, 3), batch=st.integers(1, 3),
           oh=st.integers(1, 4), ow=st.integers(1, 4),
           k=st.sampled_from([1, 3]), stride=st.sampled_from([1, 2]),
           seed=st.integers(0, 2 ** 16))
    # the desk config's x (2, 1, 1, 1), w (4, 1, 1, 1) and x (2, 4, 1, 1),
    # w (8, 2, 1, 1): on a 1x1 map the input gradient sums out-channels as
    # the per-group einsum did only through grad_out's and w's own strides
    @example(groups=1, opg=4, cpg=1, batch=2, oh=1, ow=1, k=1, stride=1,
             seed=1)
    @example(groups=2, opg=4, cpg=2, batch=2, oh=1, ow=1, k=1, stride=1,
             seed=0)
    # a stride-2 depthwise conv with a 1x1 output
    @example(groups=3, opg=1, cpg=1, batch=1, oh=1, ow=1, k=3, stride=2,
             seed=0)
    # one weight under a 1x1 kernel, at batch 2 over 2 pixels: the batched
    # weight gradient summed the run sums in another order
    @example(groups=1, opg=1, cpg=1, batch=2, oh=1, ow=2, k=1, stride=1,
             seed=1)
    def test_backward_bit_identical_to_per_group(
            self, groups, opg, cpg, batch, oh, ow, k, stride, seed):
        # groups, in- and out-channels per group are each drawn down to 1,
        # so depthwise, dense, one-weight and one-pixel convs come up; the
        # map is the smallest that gives oh x ow
        rng = np.random.default_rng(seed)
        x, w, grad_out, pad = random_conv_case(
            rng, batch, groups * cpg, groups * opg, k, stride, groups,
            (oh - 1) * stride + 1, (ow - 1) * stride + 1)
        grad_x, grad_w = conv2d_backward_raw(x, w, grad_out, stride, pad,
                                             groups)
        ref_x, ref_w = per_group_conv_backward(x, w, grad_out, stride, pad,
                                               groups)
        assert same_bytes(grad_x, ref_x)
        assert same_bytes(grad_w, ref_w)

    @pytest.mark.parametrize("cin,cout,k,stride,groups", [
        (3, 5, 3, 1, 1), (4, 6, 1, 1, 2), (4, 4, 3, 1, 4), (4, 4, 3, 2, 4),
        (6, 6, 3, 1, 3), (2, 4, 1, 2, 1),
    ])
    def test_signed_zeros_bit_identical(self, cin, cout, k, stride, groups):
        # mostly +-0.0 entries: a kernel that writes a product where the
        # references add it to +0.0 leaves a -0.0, which np.array_equal
        # would not see
        rng = np.random.default_rng(18)
        case = random_conv_case(rng, 2, cin, cout, k, stride, groups, 5, 5)
        x, w, grad_out = (np.where(rng.random(a.shape) < 0.8,
                                   rng.choice([-0.0, 0.0], a.shape), a)
                          for a in case[:3])
        pad = case[3]
        assert same_bytes(conv2d_raw(x, w, stride, pad, groups),
                          naive_conv(x, w, stride, pad, groups))
        assert_matches_per_group(x, w, grad_out, stride, pad, groups)

    def test_einsum_does_not_fuse_multiply_adds(self):
        # -1 + (1 + 2^-30)(1 - 2^-30): the product rounds to 1, so the sum
        # is 0.0; a fused multiply-add keeps the exact -2^-60
        eps = 2.0 ** -30
        x = np.array([1.0, 1.0 + eps])[None, :, None, None].repeat(2, axis=3)
        w = np.array([-1.0, 1.0 - eps]).reshape(1, 2, 1, 1)
        out = conv2d_raw(x, w, 1, 0, 1)
        assert np.array_equal(out, np.zeros((1, 1, 1, 2))), (
            f"this numpy's einsum fuses multiply-adds (got {out.ravel()}): "
            "the bit-identity tests and train-32's committed trajectory "
            "assume unfused einsum; see the numpy SIMD baseline in the "
            "test report header")

    @pytest.mark.parametrize("layout", ["C", "F", "nhwc-view",
                                        "reversed-channels", "channel-slice"])
    @pytest.mark.parametrize("cin,cout,k,stride,groups", [
        (4, 6, 3, 1, 2), (6, 6, 1, 1, 3), (4, 4, 3, 2, 4),
    ])
    def test_input_layouts_give_c_order_and_the_same_bits(
            self, layout, cin, cout, k, stride, groups):
        # what shuffle, concat and slicing hand over; batch norm's
        # reductions, and so the next layer's bits, follow the output layout
        rng = np.random.default_rng(12)
        x, w, grad_out, pad = random_conv_case(rng, 2, cin, cout, k, stride,
                                               groups, 5, 5)
        _, c_order_w = conv2d_backward_raw(x, w, grad_out, stride, pad, groups)
        if layout == "F":
            x = np.asfortranarray(x)
        elif layout == "nhwc-view":
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(
                0, 3, 1, 2)
        elif layout == "reversed-channels":
            x = np.ascontiguousarray(x[:, ::-1])[:, ::-1]
        elif layout == "channel-slice":
            x = np.concatenate([x, x], axis=1)[:, cin:]
        out = conv2d_raw(x, w, stride, pad, groups)
        grad_x, grad_w = conv2d_backward_raw(x, w, grad_out, stride, pad,
                                             groups)
        ref_x, _ = per_group_conv_backward(x, w, grad_out, stride, pad,
                                           groups)
        assert out.flags.c_contiguous and grad_x.flags.c_contiguous
        assert same_bytes(out, naive_conv(x, w, stride, pad, groups))
        assert same_bytes(out, per_group_conv(x, w, stride, pad, groups))
        assert same_bytes(grad_x, ref_x)
        # the weight gradient reads x C-ordered, so every layout rounds as
        # the per-group einsum does on a C-ordered input
        _, ref_w = per_group_conv_backward(np.ascontiguousarray(x), w,
                                           grad_out, stride, pad, groups)
        assert same_bytes(grad_w, ref_w)
        assert same_bytes(grad_w, c_order_w)

    def test_padded_input_gradient_owns_its_memory(self):
        # as a view of its padded buffer it kept (h+2)(w+2)/(hw) of its
        # own bytes alive: 4x on a 2x2 map
        rng = np.random.default_rng(13)
        x, w, grad_out, pad = random_conv_case(rng, 2, 4, 4, 3, 1, 1, 2, 2)
        grad_x, _ = conv2d_backward_raw(x, w, grad_out, 1, pad, 1)
        assert grad_x.flags.c_contiguous and grad_x.flags.owndata
        assert same_bytes(
            grad_x, per_group_conv_backward(x, w, grad_out, 1, pad, 1)[0])

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
        assert same_bytes(logits, ref_logits)
        assert same_bytes(grad_x, ref_grad_x)
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert same_bytes(g, ref_grads[name]), name

    @pytest.mark.parametrize("config", [
        (3, 24, 3, 2, 1, 32, 32),     # the stem
        (352, 176, 1, 1, 8, 4, 4),    # the largest grouped 1x1
    ])
    def test_train_step_memory_of_train_32_convs(self, config, traced):
        # 352-MENet-12x1, g=8, 32 px, batch 16: forward and backward each
        # peak within 2x the output plus 0.5 MiB above the input, output
        # and column arrays (the forward holds the einsum's output besides
        # its own), so a kernel that holds more fails here before it raises
        # the step's peak RSS
        assert config in conv_configs("352-MENet-12x1/g8")
        cin, cout, k, stride, groups, h, wd = config
        conv = Conv2d(cin, cout, k, stride=stride, groups=groups,
                      rng=np.random.default_rng(14))
        x = np.random.default_rng(15).normal(size=(16, cin, h, wd))
        out, _, fwd_peak = traced(lambda: conv.forward(x, train=True))
        grad_out = np.ones_like(out)
        _, _, bwd_peak = traced(lambda: conv.backward(grad_out))
        columns = 8 * cin * k * k * out.size // cout
        held = x.nbytes + out.nbytes + columns
        for peak in (fwd_peak, bwd_peak):
            assert peak <= held + 2 * out.nbytes + 0.5 * 2 ** 20

    def test_unpadded_1x1_input_gradient_skips_the_padded_map(self, traced):
        # train-32's 352->176 g8 1x1 (4 px, batch 16): the einsum's output is
        # the input gradient, so the backward holds two input-sized arrays
        # and grad_out's columns (with a zeroed map and a tap add it peaked
        # at 2.41 MiB, three input-sized arrays)
        conv = Conv2d(352, 176, 1, groups=8, rng=np.random.default_rng(14))
        x = np.random.default_rng(15).normal(size=(16, 352, 4, 4))
        grad_out = np.ones_like(conv.forward(x, train=True))
        grad_x, _, peak = traced(lambda: conv.backward(grad_out))
        assert peak <= 2 * x.nbytes + grad_out.nbytes + 0.125 * 2 ** 20
        ref_x, _ = per_group_conv_backward(x, conv.params["weight"], grad_out,
                                           1, 0, 8)
        assert same_bytes(grad_x, ref_x)

    @pytest.mark.parametrize("source", [
        "352-MENet-12x1/g8", "desk", "gradcheck-tiny",
    ])
    def test_backward_calls_einsum_at_most_twice_per_tap(self, source,
                                                         monkeypatch):
        # each gradient takes one einsum per tap over every channel and
        # group, with no loop over them, while its runs fit einsum's buffer
        rng = np.random.default_rng(16)
        einsum, calls = np.einsum, []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return einsum(*args, **kwargs)

        for cin, cout, k, stride, groups, h, wd in conv_configs(source):
            conv = Conv2d(cin, cout, k, stride=stride, groups=groups, rng=rng)
            for batch in (1, 16):
                out = conv.forward(rng.normal(size=(batch, cin, h, wd)),
                                   train=True)
                calls.clear()
                with monkeypatch.context() as m:
                    m.setattr(np, "einsum", counting)
                    conv.backward(np.ones_like(out))
                assert len(calls) <= 2 * k * k, (cin, cout, k, groups, batch)

    @pytest.mark.parametrize("source", ["352-MENet-12x1/g8", "desk"])
    def test_train_forward_hands_convs_c_ordered_inputs(self, source,
                                                        monkeypatch):
        # the weight gradient reads its input C-ordered, so any other layout
        # would cost a copy of the input in every conv's backward
        cfg = desk_config() if source == "desk" else MENetConfig.from_notation(
            "352-MENet-12x1", groups=8, num_classes=10, input_size=32)
        net = build_menet(cfg, seed=0)
        c_ordered = []

        def recording(x, *args):
            c_ordered.append(x.flags.c_contiguous)
            return conv2d_raw(x, *args)

        monkeypatch.setattr(layers, "conv2d_raw", recording)
        size = cfg.input_size
        net.forward(np.random.default_rng(17).normal(size=(2, 3, size, size)),
                    train=True)
        convs = [layer for _, layer in net.all_layers()
                 if isinstance(layer, Conv2d)]
        assert len(c_ordered) == len(convs) and all(c_ordered)

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


# each layer size not an integer, or a bool, and the message naming it;
# a shuffle group count is checked at its first forward, which must not
# find the entry a 2 or a 1 left in the permutation cache
SIZES_NOT_INTEGERS = {
    "conv-groups": (lambda: Conv2d(4, 4, 1, groups=True),
                    "groups must be an integer, got True"),
    "conv-in": (lambda: Conv2d(4.0, 4, 1),
                "in_channels must be an integer, got 4.0"),
    "conv-out": (lambda: Conv2d(4, 4.0, 1),
                 "out_channels must be an integer, got 4.0"),
    "conv-kernel": (lambda: Conv2d(4, 4, True),
                    "kernel must be an integer, got True"),
    "conv-stride": (lambda: Conv2d(4, 4, 3, stride=1.0),
                    "stride must be an integer, got 1.0"),
    "bn-float": (lambda: BatchNorm2d(2.0),
                 "channels must be an integer, got 2.0"),
    "bn-bool": (lambda: BatchNorm2d(True),
                "channels must be an integer, got True"),
    "linear-out": (lambda: Linear(4, True),
                   "out_features must be an integer, got True"),
    "linear-in": (lambda: Linear(4.0, 3),
                  "in_features must be an integer, got 4.0"),
    "shuffle-float": (
        lambda: ChannelShuffle(2.0).forward(np.zeros((1, 4, 2, 2))),
        "groups must be an integer, got 2.0"),
    "shuffle-bool": (
        lambda: ChannelShuffle(True).forward(np.zeros((1, 4, 2, 2))),
        "groups must be an integer, got True"),
}


@pytest.mark.parametrize("case", list(SIZES_NOT_INTEGERS))
def test_sizes_not_integers_named(case):
    make, message = SIZES_NOT_INTEGERS[case]
    for groups in (1, 2):
        ChannelShuffle(groups).forward(np.zeros((1, 4, 2, 2)))
    with pytest.raises(ValueError, match=message):
        make()


def test_numpy_integer_sizes_build_and_run():
    i = np.int64
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 4, 3, 3))
    for layer in (Conv2d(i(4), i(4), i(3), stride=i(1), groups=i(2), rng=rng),
                  BatchNorm2d(i(4)), ChannelShuffle(i(2))):
        assert layer.forward(x, train=True).shape == x.shape
    assert Linear(i(4), i(3), rng=rng).forward(x[:, :, :1, :1]).shape == (2, 3)


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


def frozen_bn_eval(x, gamma, beta, running_mean, running_var, grad_out,
                   epsilon=1e-5):
    """The eval-mode batch norm forward and backward, the statistics held
    constant, as written out: output, grad_x, and grad_gamma and grad_beta
    added into zeros, as a first backward does."""
    inv_std = 1.0 / np.sqrt(running_var + epsilon)
    scale = gamma * inv_std
    shift = beta - running_mean * scale
    out = x * scale[None, :, None, None] + shift[None, :, None, None]
    xhat = ((x - running_mean[None, :, None, None])
            * inv_std[None, :, None, None])
    grad_gamma = 0.0 + (grad_out * xhat).sum(axis=(0, 2, 3))
    grad_beta = 0.0 + grad_out.sum(axis=(0, 2, 3))
    return out, grad_out * scale[None, :, None, None], grad_gamma, grad_beta


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

    @pytest.mark.parametrize("zeros", [False, True],
                             ids=["far-statistics", "signed-zeros"])
    def test_eval_mode_bit_identical_to_frozen_form(self, zeros):
        # running statistics far from (0, 1), so every rounding shows; the
        # signed-zeros case adds a -0.0 gamma, a zero running mean and
        # mostly +-0.0 inputs and gradients, and an all -0.0 channel
        rng = np.random.default_rng(23)
        bn = BatchNorm2d(3)
        bn.params["gamma"][...] = rng.normal(size=3) * 5.0
        bn.params["beta"][...] = rng.normal(size=3)
        bn.running_mean = 1e3 + rng.normal(size=3) * 100.0
        bn.running_var = 10.0 ** rng.uniform(-4, 4, size=3)
        x = bn_inputs("batch4", rng)
        grad_out = rng.normal(size=x.shape)
        if zeros:
            bn.params["gamma"][0] = -0.0
            bn.running_mean[2] = 0.0
            x, grad_out = (np.where(rng.random(a.shape) < 0.8,
                                    rng.choice([-0.0, 0.0], a.shape), a)
                           for a in (x, grad_out))
            grad_out[:, 1] = -0.0
        ref = frozen_bn_eval(x, bn.params["gamma"], bn.params["beta"],
                             bn.running_mean, bn.running_var, grad_out)
        out = bn.forward(x, train=False)
        got = (out, bn.backward(grad_out), bn.grads["gamma"],
               bn.grads["beta"])
        for name, a, b in zip(("out", "grad_x", "grad_gamma", "grad_beta"),
                              got, ref):
            assert same_bytes(a, b), name

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


def conv_bn_pair(seed, cin, cout, k, stride, groups):
    """A conv and the batch norm after it, with seeded weights and
    non-trivial gamma, beta and running statistics."""
    rng = np.random.default_rng(seed)
    conv = Conv2d(cin, cout, k, stride=stride, groups=groups, rng=rng)
    bn = BatchNorm2d(cout)
    bn.params["gamma"][...] = rng.normal(size=cout)
    bn.params["beta"][...] = rng.normal(size=cout)
    bn.running_mean = rng.normal(size=cout)
    bn.running_var = rng.uniform(0.1, 3.0, size=cout)
    return conv, bn


def pair_state(conv, bn):
    return {"weight": conv.params["weight"], "gamma": bn.params["gamma"],
            "beta": bn.params["beta"], "running_mean": bn.running_mean,
            "running_var": bn.running_var}


def assert_fold_agrees(rng, batch, cin, cout, k, stride, groups, h, wd):
    """The folded eval pair against the conv then the batch norm: output
    within 1e-12 relative to the largest value, and no weight or statistic
    changed."""
    case = f"b{batch} {cin}->{cout} k{k} s{stride} g{groups} {h}x{wd}"
    seed = rng.integers(2 ** 32)
    folded = conv_bn_pair(seed, cin, cout, k, stride, groups)
    plain = conv_bn_pair(seed, cin, cout, k, stride, groups)
    before = {key: a.copy() for key, a in pair_state(*folded).items()}
    x = rng.normal(size=(batch, cin, h, wd))
    out = folded[0].forward(x, False, bn=folded[1])
    ref = plain[1].forward(plain[0].forward(x, False), False)
    for key, a in pair_state(*folded).items():
        assert np.array_equal(a, before[key]), f"{key} changed, {case}"
    err = np.abs(out - ref).max() / np.abs(ref).max()
    assert err <= 1e-12, f"out: {err:.3g} rel, {case}"


class TestBatchNormFold:
    # a batch norm follows every conv of these models, so each conv
    # config is one conv->BN pair
    @pytest.mark.parametrize("source", [
        "228-MENet-12x1/g3", "256-MENet-12x1/g4", "352-MENet-12x1/g8",
    ])
    def test_224_px_pairs_agree_with_unfolded(self, source):
        # the paper's mobile setting: 224 px, batch 1
        rng = np.random.default_rng(13)
        configs = conv_configs(source, size=224)
        assert configs
        for config in configs:
            assert_fold_agrees(rng, 1, *config)

    @pytest.mark.parametrize("batch", [2, 16])
    @pytest.mark.parametrize("source", ["desk", "gradcheck-tiny"])
    def test_small_pairs_agree_with_unfolded(self, source, batch):
        rng = np.random.default_rng(14)
        configs = conv_configs(source)
        assert configs
        for config in configs:
            assert_fold_agrees(rng, batch, *config)

    @pytest.mark.parametrize("source,size", [
        ("228-MENet-12x1/g3", 224), ("228-MENet-12x1/g3", 32),
        ("256-MENet-12x1/g4", 32), ("352-MENet-12x1/g8", 32),
    ])
    def test_folded_depthwise_is_reference_kernel(self, source, size,
                                                  monkeypatch):
        # a folded eval depthwise conv runs conv2d_raw on the scaled
        # weights, then adds the shift, byte for byte
        net = source_model(source, size)
        checked = []
        forward = Conv2d.forward

        def recording(self, x, train=False, bn=None):
            out = forward(self, x, train, bn=bn)
            if self.depthwise and bn is not None:
                _, scale, shift = bn.eval_affine()
                ref = conv2d_raw(x, self.params["weight"]
                                 * scale[:, None, None, None],
                                 self.stride, self.pad, self.groups)
                assert same_bytes(out, ref + shift[None, :, None, None])
                checked.append(self)
            return out

        monkeypatch.setattr(Conv2d, "forward", recording)
        net.forward(np.random.default_rng(16).normal(size=(1, 3, size,
                                                           size)))
        depthwise = [layer for _, layer in net.all_layers()
                     if isinstance(layer, Conv2d) and layer.depthwise]
        assert depthwise and checked == depthwise

    def test_eval_network_forward_keeps_no_cache(self):
        # no backward follows an eval network forward, so each item drops
        # its caches, the folded batch norms' included, as it returns
        cfg = MENetConfig.from_notation("228-MENet-12x1", groups=3,
                                        num_classes=10, input_size=64)
        net = build_menet(cfg, seed=0)
        net.forward(np.random.default_rng(15).normal(size=(1, 3, 64, 64)),
                    train=False)
        walk = list(net.all_layers())
        assert any(isinstance(layer, BatchNorm2d) for _, layer in walk)
        for path, layer in walk:
            assert layer._cache is None, path
        modules = [m for _, m in net.items if isinstance(m, MEModule)]
        assert modules
        assert all(m._cache is None for m in modules)

    @pytest.mark.parametrize("downsample", [False, True])
    def test_eval_module_forward_keeps_no_batch_norm_array(self, downsample):
        # every batch norm of a module is folded into the conv before it,
        # and neither half of a folded pair keeps a cache, even after a
        # train forward left both theirs
        rng = np.random.default_rng(15)
        cfg = MEModuleConfig(12 if downsample else 24, 24, 3, 3,
                             downsample=downsample)
        module = MEModule(cfg, rng=rng)
        x = rng.normal(size=(2, cfg.in_channels, 8, 8))
        module.forward(x, train=True)
        module.forward(x, train=False)
        walk = list(module.all_layers())
        folded = [(path, before, bn)
                  for (_, before), (path, bn) in zip(walk, walk[1:])
                  if isinstance(bn, BatchNorm2d)]
        assert len(folded) == len(list(module.batchnorms())) == 6
        for path, conv, bn in folded:
            assert isinstance(conv, Conv2d), path
            assert conv._cache is None and bn._cache is None, path

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="expected 1 channels, got 4"):
            Conv2d(2, 4, 1).forward(np.zeros((1, 2, 3, 3)), bn=BatchNorm2d(1))


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
        r.forward(x, train=True)
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
        y = shuffle.forward(x, train=True)
        assert y.flags.writeable
        assert np.array_equal(shuffle.backward(y), x)

    @pytest.mark.parametrize("layout", ["C", "nhwc-view"])
    def test_forward_and_backward_are_c_ordered(self, layout):
        # the convs after a shuffle read C order; x[:, perm] is channel-major
        rng = np.random.default_rng(9)
        x, g = rng.normal(size=(2, 2, 12, 3, 3))
        if layout == "nhwc-view":
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(
                0, 3, 1, 2)
        perm = ChannelShuffle.permutation(12, 3)
        inv = np.argsort(perm)
        shuffle = ChannelShuffle(3)
        y = shuffle.forward(x, train=True)
        grad_x = shuffle.backward(g)
        assert y.flags.c_contiguous and grad_x.flags.c_contiguous
        assert np.array_equal(y, x[:, perm])
        assert np.array_equal(grad_x, g[:, inv])

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
        out = layer.forward(x, train=True)
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
        pool.forward(np.zeros((1, 1, 2, 2)), train=True)
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


def layer_input(kind, size, rng):
    shape = (4, 1, 1) if kind == "linear" else (4, size, size)
    return rng.normal(size=(2, *shape))


@pytest.mark.parametrize("size", [5, 6])
@pytest.mark.parametrize("kind,stride,make", SHAPE_CASES,
                         ids=[f"{k}-s{s}" for k, s, _ in SHAPE_CASES])
def test_out_shape_and_macs_match_forward(kind, stride, make, size):
    layer = make(stride)
    x = layer_input(kind, size, np.random.default_rng(size))
    shape = x.shape[1:]
    out = layer.forward(x)
    if kind == "linear":
        # the classifier's (n, k) logits are a (k, 1, 1) map to the protocol
        out = out[:, :, None, None]
    assert layer.out_shape(shape) == out.shape[1:]
    # one multiply-accumulate per weight of an output element's fan-in
    w = layer.params.get("weight")
    expected = 0 if w is None else out[0].size * w[0].size
    assert layer.macs(shape) == expected


@pytest.mark.parametrize("make,shape", [
    (lambda: Conv2d(4, 6, 1, groups=2), (3, 5, 5)),
    (lambda: Conv2d(4, 5, 3, stride=2), (5, 5, 5)),
    (lambda: Linear(4, 2), (9, 5, 5)),
    (lambda: Linear(4, 2), (4, 5, 5)),
    (lambda: Linear(4, 2), (9, 1, 1)),
], ids=["pw", "conv3x3", "linear-both", "linear-map", "linear-features"])
def test_out_shape_rejects_what_forward_rejects(make, shape):
    # count_cost walks out_shape alone, so it must refuse the same inputs
    layer = make()
    with pytest.raises(ShapeError) as forward_error:
        layer.forward(np.zeros((1, *shape)))
    with pytest.raises(ShapeError) as shape_error:
        layer.out_shape(shape)
    assert str(shape_error.value) == str(forward_error.value)


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("kind,stride,make", SHAPE_CASES,
                         ids=[f"{k}-s{s}" for k, s, _ in SHAPE_CASES])
def test_backward_takes_the_cache(kind, stride, make, train):
    # a cache lives from its forward to the backward that reads it; only a
    # train forward, or a lone batch norm's eval forward, leaves one
    layer = make(stride)
    out = layer.forward(layer_input(kind, 6, np.random.default_rng(0)),
                        train=train)
    if train or kind == "bn":
        layer.backward(np.ones_like(out))
    assert layer._cache is None
    with pytest.raises(RuntimeError, match="called without a cached forward"):
        layer.backward(np.ones_like(out))


def test_folded_pair_leaves_no_cache():
    # the fold clears both caches, so no earlier train cache survives it
    conv, bn = conv_bn_pair(0, 4, 6, 3, 1, 2)
    x = np.random.default_rng(1).normal(size=(2, 4, 5, 5))
    bn.forward(conv.forward(x, train=True), train=True)
    out = conv.forward(x, False, bn=bn)
    assert conv._cache is None and bn._cache is None
    for layer in (bn, conv):
        with pytest.raises(RuntimeError,
                           match="called without a cached forward"):
            layer.backward(np.ones_like(out))


# (id, unit factory, input shape): every layer kind, a chain with two folded
# conv->BN pairs, both module strides and a network
UNIT_CASES = [
    *((f"{kind}-s{stride}", functools.partial(make, stride),
       layer_input(kind, 6, np.random.default_rng(0)).shape)
      for kind, stride, make in SHAPE_CASES),
    ("chain", lambda: Chain(
        ("pw", Conv2d(4, 6, 1, groups=2, rng=np.random.default_rng(1))),
        ("bn", BatchNorm2d(6)), ("relu", ReLU()), ("shuffle", ChannelShuffle(2)),
        ("dw", Conv2d(6, 6, 3, groups=6, rng=np.random.default_rng(2))),
        ("bn_dw", BatchNorm2d(6)), ("pool", MaxPool3x3s2())), (2, 4, 6, 6)),
    ("module-s1", lambda: MEModule(MEModuleConfig(24, 24, 3, 3),
                                   rng=np.random.default_rng(3)), (2, 24, 6, 6)),
    ("module-s2", lambda: MEModule(MEModuleConfig(12, 24, 3, 3, downsample=True),
                                   rng=np.random.default_rng(4)), (2, 12, 6, 6)),
    ("network", lambda: build_menet(desk_config(), seed=0), (2, 3, 8, 8)),
]


def cache_holders(unit):
    """(path, holder) for everything in ``unit`` that keeps a cache: its
    layers, and each module, which caches its (d, f)."""
    if not isinstance(unit, Composite):
        return [("", unit)]
    steps = [("", unit)] + getattr(unit, "steps", [])
    return list(unit.all_layers()) + [
        (path, step) for path, step in steps if isinstance(step, MEModule)]


@pytest.mark.parametrize("name,make_unit,shape", UNIT_CASES,
                         ids=[name for name, _, _ in UNIT_CASES])
def test_eval_forward_leaves_no_backward_state(name, make_unit, shape):
    # a backward pairs with the last forward, and an eval one leaves it
    # nothing but a lone batch norm's normalized input: so a train forward's
    # caches do not survive an eval forward, and a backward after it raises
    # before any gradient array appears
    unit = make_unit()
    x = np.random.default_rng(5).normal(size=shape)
    unit.forward(x, train=True)
    out = unit.forward(x, train=False)
    if isinstance(unit, BatchNorm2d):
        # not the train forward's tuple: the statistics are constants
        xhat, inv_std, m = unit._cache
        assert same_bytes(inv_std, unit.eval_affine()[0])
        assert same_bytes(xhat, (x - unit.running_mean[None, :, None, None])
                          * inv_std[None, :, None, None])
        assert m is None
        return
    holders = cache_holders(unit)
    for path, holder in holders:
        assert holder._cache is None, path
    with pytest.raises(RuntimeError, match="without a cached forward"):
        unit.backward(np.ones_like(out))
    # a module's grads property would create the arrays it reads
    assert not any(holder.grads for _, holder in holders
                   if not isinstance(holder, MEModule))


def test_chain_backward_checks_every_cache_before_any_step():
    # a lone batch norm keeps its input in eval, the ReLU before it keeps
    # nothing: the backward raises before the norm adds a gradient
    bn = BatchNorm2d(2)
    chain = Chain(("relu", ReLU()), ("bn", bn))
    out = chain.forward(np.random.default_rng(0).normal(size=(2, 2, 3, 3)))
    assert bn._cache is not None
    with pytest.raises(RuntimeError,
                       match="relu: ReLU.backward called without a cached"):
        chain.backward(np.ones_like(out))
    assert not bn.grads
    assert bn._cache is not None


def test_network_backward_checks_module_caches():
    # a module caches its (d, f) besides its layers'; without it the
    # network backward raises before its head adds a gradient
    net = build_menet(desk_config(), seed=0)
    out = net.forward(np.random.default_rng(0).normal(size=(2, 3, 8, 8)),
                      train=True)
    name, module = next((n, s) for n, s in net.steps
                        if isinstance(s, MEModule))
    module._cache = None
    with pytest.raises(RuntimeError,
                       match=f"{name}: MEModule.backward called without"):
        net.backward(np.ones_like(out))
    assert not any(layer.grads for _, layer in net.all_layers())


def test_network_backward_checks_each_cache_once(monkeypatch):
    # the outermost backward checks every cache below it, and the chains
    # and modules inside skip the check: at every nesting level it made 729
    # checks per train-32 backward for 297 layers and 16 modules
    net = build_menet(desk_config(), seed=0)
    out = net.forward(np.random.default_rng(0).normal(size=(2, 3, 8, 8)),
                      train=True)
    holders = [holder for _, holder in net._cache_holders()]
    expected = [layer for _, layer in net.all_layers()] + [
        step for _, step in net.steps if isinstance(step, MEModule)]
    assert len(holders) == len(expected)
    assert {id(h) for h in holders} == {id(h) for h in expected}
    checked, check = [], Composite._check_caches

    def recording(self):
        checked.append(self)
        return check(self)

    monkeypatch.setattr(Composite, "_check_caches", recording)
    net.backward(np.ones_like(out))
    assert checked == [net]


def nested_module_chain():
    """A chain whose one step is a chain holding a module and a batch norm,
    after a train forward, and the forward's output."""
    module = MEModule(MEModuleConfig(8, 8, 2, 2), rng=np.random.default_rng(0))
    chain = Chain(("inner", Chain(("m", module), ("bn", BatchNorm2d(8)))))
    out = chain.forward(np.random.default_rng(1).normal(size=(1, 8, 5, 5)),
                        train=True)
    return chain, module, out


def test_nested_chain_checks_a_module_below_it():
    # the module's (d, f) is two chains down: the outermost backward names
    # it before the batch norm after it adds a gradient
    chain, module, out = nested_module_chain()
    module._cache = None
    with pytest.raises(RuntimeError,
                       match="inner.m: MEModule.backward called without"):
        chain.backward(np.ones_like(out))
    assert not any(layer.grads for _, layer in chain.all_layers())


@pytest.mark.parametrize("kind", ["nested", "network"])
def test_cache_holders_in_the_order_backward_reads_them(monkeypatch, kind):
    if kind == "nested":
        unit, _, out = nested_module_chain()
    else:
        unit = build_menet(desk_config(), seed=0)
        out = unit.forward(np.random.default_rng(0).normal(size=(2, 3, 8, 8)),
                           train=True)
    holders = unit._cache_holders()
    read = []
    take, module_backward = layers.Layer._take_cache, MEModule.backward

    def taking(self):
        read.append(self)
        return take(self)

    def entering(self, *args, **kwargs):
        read.append(self)   # its (d, f) is read first
        return module_backward(self, *args, **kwargs)

    monkeypatch.setattr(layers.Layer, "_take_cache", taking)
    monkeypatch.setattr(MEModule, "backward", entering)
    unit.backward(np.ones_like(out))
    assert [holder for _, holder in holders] == read
    assert any(isinstance(holder, MEModule) for holder in read)
    if kind == "nested":
        assert [path for path, _ in holders[:3]] == [
            "inner.bn", "inner.m", "inner.m.relu_final"]


def test_module_backward_checks_every_cache_before_any_step():
    # run on its own, a module checks its layers' caches before its
    # project chain writes a gradient
    module = MEModule(MEModuleConfig(24, 24, 3, 3),
                      rng=np.random.default_rng(3))
    out = module.forward(np.random.default_rng(5).normal(size=(2, 24, 6, 6)),
                         train=True)
    module.dw._cache = None
    with pytest.raises(RuntimeError,
                       match="dw: Conv2d.backward called without"):
        module.backward(np.ones_like(out))
    assert not any(layer.grads for _, layer in module.all_layers())


# (source, batch) of every conv the benchmark's workloads train: train-32's
# model and the other reference models at 32 px and batch 16, the
# gradcheck-tiny modules at batch 1, and the README's desk run at batch 16
WORKLOAD_SOURCES = [("228-MENet-12x1/g3", 16), ("256-MENet-12x1/g4", 16),
                    ("352-MENet-12x1/g8", 16), ("gradcheck-tiny", 1),
                    ("desk", 16)]


@pytest.mark.parametrize("source,batch", WORKLOAD_SOURCES)
def test_workload_convs_have_several_output_pixels(source, batch):
    # conv2d_raw adds a one-pixel output's terms in a Python loop: exact,
    # but slow, and kept off every workload
    for path, layer, shape in source_walk(source):
        if isinstance(layer, Conv2d):
            _, oh, ow = layer.out_shape(shape)
            assert batch * oh * ow > 1, f"{source} {path}: {shape}"


@pytest.mark.parametrize("source", [
    "228-MENet-12x1/g3", "256-MENet-12x1/g4", "352-MENet-12x1/g8",
])
def test_reference_eval_forward_runs_no_lone_batch_norm(source, monkeypatch):
    # a lone eval batch norm computes its normalized input for a backward
    # no workload runs: every batch norm of a reference model is folded
    # into its conv. An eval depthwise conv runs the reference kernel, and
    # every other eval conv conv2d_gemm
    net = source_model(source)
    paths = {id(layer): path for path, layer in net.all_layers()}
    called, convs, kernels = [], [], []
    bn_forward, conv_forward = BatchNorm2d.forward, Conv2d.forward

    def recording(self, *args, **kwargs):
        called.append(paths[id(self)])
        return bn_forward(self, *args, **kwargs)

    def conv_recording(self, *args, **kwargs):
        convs.append(paths[id(self)])
        return conv_forward(self, *args, **kwargs)

    def spy(kernel, runs_depthwise):
        def checked(x, w, stride, pad, groups):
            cout, cpg, k, _ = w.shape
            depthwise = k == 3 and cpg == 1 and cout == groups > 1
            assert depthwise == runs_depthwise, (
                f"{convs[-1]}: eval forward ran {kernel.__name__} on "
                f"w{w.shape} groups {groups}")
            kernels.append(kernel.__name__)
            return kernel(x, w, stride, pad, groups)
        return checked

    monkeypatch.setattr(BatchNorm2d, "forward", recording)
    monkeypatch.setattr(Conv2d, "forward", conv_recording)
    monkeypatch.setattr(layers, "conv2d_raw", spy(conv2d_raw, True))
    monkeypatch.setattr(layers, "conv2d_gemm", spy(conv2d_gemm, False))
    net.forward(np.random.default_rng(0).normal(size=(1, 3, 32, 32)))
    assert called == []
    assert len(kernels) == len(convs)
    assert kernels.count("conv2d_raw") == sum(
        isinstance(layer, Conv2d) and layer.depthwise
        for _, layer in net.all_layers()) > 0
