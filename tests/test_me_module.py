"""Shapes, branch wiring and gating behaviour of the assembled module."""

import numpy as np
import pytest

from menet.layers import Conv2d
from menet.me_module import EvolutionOp, MEModule, MEModuleConfig, MergingOp
from menet.network import Network
from menet.tensor import ShapeError, concat_channels, elementwise_combine


def make(cfg, seed=0):
    return MEModule(cfg, rng=np.random.default_rng(seed))


class TestConfig:
    def test_bottleneck_is_quarter(self):
        cfg = MEModuleConfig(228, 228, 12, 3)
        assert cfg.bottleneck_channels == 57

    def test_residual_split_on_downsample(self):
        cfg = MEModuleConfig(24, 228, 12, 3, downsample=True,
                             first_pointwise_grouped=False)
        assert cfg.residual_out_channels == 204
        cfg.validate()

    def test_standard_needs_equal_widths(self):
        with pytest.raises(ValueError, match="identity skip"):
            MEModuleConfig(8, 16, 2, 2).validate()

    def test_bottleneck_divisibility_named(self):
        with pytest.raises(ValueError, match="divisible by groups"):
            MEModuleConfig(12, 12, 2, 2).validate()   # bottleneck 3, g=2

    def test_fusion_bounds(self):
        with pytest.raises(ValueError, match="fusion_channels"):
            MEModuleConfig(8, 8, 0, 2).validate()
        with pytest.raises(ValueError, match="fusion_channels"):
            MEModuleConfig(8, 8, 3, 2).validate()     # bottleneck is 2

    def test_downsample_needs_growth(self):
        with pytest.raises(ValueError, match="out_channels > in_channels"):
            MEModuleConfig(8, 8, 2, 2, downsample=True).validate()

    def test_bad_combine_mode(self):
        with pytest.raises(ValueError, match="combine_mode"):
            MEModuleConfig(8, 8, 2, 2, combine_mode="concat").validate()

    def test_evolution_rejects_unknown_combine_mode(self):
        with pytest.raises(ValueError, match="combine_mode .* got 'prod'"):
            EvolutionOp(2, 4, combine_mode="prod")

    @pytest.mark.parametrize("groups", [0, -1])
    def test_groups_below_one_named(self, groups):
        with pytest.raises(ValueError, match=f"groups must be >= 1, got {groups}"):
            MEModuleConfig(8, 8, 2, groups).validate()

    @pytest.mark.parametrize("fields,message", [
        ((8, 8, 2, True), "groups must be an integer, got True"),
        ((8, 8, True, 2), "fusion_channels must be an integer, got True"),
        ((8.0, 8, 2, 2), "in_channels must be an integer, got 8.0"),
        ((8, 8.0, 2, 2), "out_channels must be an integer, got 8.0"),
    ], ids=["groups", "fusion", "in", "out"])
    def test_sizes_not_integers_named(self, fields, message):
        with pytest.raises(ValueError, match=message):
            make(MEModuleConfig(*fields))

    def test_numpy_integer_sizes_build(self):
        cfg = MEModuleConfig(*map(np.int64, (8, 8, 2, 2)))
        x = np.random.default_rng(0).normal(size=(1, 8, 5, 5))
        assert make(cfg).forward(x, train=True).shape == x.shape

    def test_grouped_widths_named(self):
        # a bottleneck of 6 splits into 3 groups; 20 inputs and the 4
        # residual outputs left beside them do not
        cfg = MEModuleConfig(20, 24, 2, 3, downsample=True)
        with pytest.raises(ValueError, match="in_channels=20 not divisible"):
            cfg.validate()
        cfg.first_pointwise_grouped = False
        with pytest.raises(ValueError, match="residual output width=4 not "
                                             "divisible by groups=3"):
            cfg.validate()


class TestShapes:
    def test_standard_full_width(self):
        cfg = MEModuleConfig(228, 228, 12, 3)
        module = make(cfg)
        x = np.random.default_rng(0).normal(size=(1, 228, 28, 28))
        out = module.forward(x, train=True)
        assert out.shape == (1, 228, 28, 28)

    def test_downsample_concat_split(self):
        cfg = MEModuleConfig(24, 228, 12, 3, downsample=True,
                             first_pointwise_grouped=False)
        module = make(cfg)
        x = np.random.default_rng(1).normal(size=(2, 24, 56, 56))
        out = module.forward(x, train=True)
        assert out.shape == (2, 228, 28, 28)

    def test_wrong_channel_count_rejected(self):
        module = make(MEModuleConfig(8, 8, 2, 2))
        with pytest.raises(ShapeError):
            module.forward(np.zeros((1, 4, 6, 6)))

    def test_spatial_preserved_standard(self):
        module = make(MEModuleConfig(8, 8, 2, 2))
        x = np.random.default_rng(2).normal(size=(1, 8, 7, 7))
        assert module.forward(x, train=True).shape == (1, 8, 7, 7)


class TestBranches:
    def test_fusion_override_one_is_noop_in_product_mode(self):
        """With the multiplicative branch forced to exactly 1 the module must
        equal the same module with the fusion computation bypassed."""
        cfg = MEModuleConfig(8, 8, 2, 2, combine_mode="product")
        rng_state = np.random.default_rng(3)
        module = make(cfg, seed=7)
        x = rng_state.normal(size=(1, 8, 6, 6))
        module.evolution.forward = lambda z, train=False: np.ones(
            (1, 2, 6, 6))
        gated = module.forward(x, train=True)
        # reference: run the residual path by hand without any fusion factor
        s = module.shuffle.forward(module.relu1.forward(
            module.bn1.forward(module.pw1.forward(x, True), True), True))
        d = module.bn_dw.forward(module.dw.forward(s, True), True)
        res = module.bn2.forward(module.pw2.forward(d, True), True)
        expect = module.relu_final.forward(x + res, True)
        assert np.array_equal(gated, expect)

    def test_product_gate_bounded(self):
        """The sigmoid keeps the fusion factor strictly inside (0, 1)."""
        cfg = MEModuleConfig(8, 8, 2, 2, combine_mode="product")
        module = make(cfg, seed=9)
        x = np.random.default_rng(5).normal(0, 5, size=(2, 8, 6, 6))
        s = module.shuffle.forward(module.relu1.forward(
            module.bn1.forward(module.pw1.forward(x, True), True), True))
        f = module.evolution.forward(module.merging.forward(s, True), True)
        assert np.all(f > 0.0) and np.all(f < 1.0)

    def test_addition_mode_has_no_sigmoid(self):
        cfg = MEModuleConfig(8, 8, 2, 2, combine_mode="addition")
        module = make(cfg)
        assert module.evolution.sigmoid is None
        # and the fusion output is not confined to (0, 1)
        x = np.random.default_rng(6).normal(0, 5, size=(4, 8, 6, 6))
        s = module.shuffle.forward(module.relu1.forward(
            module.bn1.forward(module.pw1.forward(x, True), True), True))
        f = module.evolution.forward(module.merging.forward(s, True), True)
        assert f.min() < 0.0 or f.max() > 1.0

    def test_downsample_identity_is_avg_pooled_input(self):
        cfg = MEModuleConfig(4, 8, 1, 2, downsample=True)
        module = make(cfg, seed=10)
        x = np.abs(np.random.default_rng(7).normal(size=(1, 4, 6, 6))) + 5.0
        # zero the residual path so the first channels are relu(avgpool(x))
        for name in ("pw2", "bn2"):
            for p in module.named_layers()[name].params.values():
                p[...] = 0.0
        out = module.forward(x, train=True)
        pooled = module.identity_pool.forward(x)
        assert np.array_equal(out[:, :4], np.maximum(pooled, 0.0))

    def test_merging_then_evolution_shapes(self):
        rng = np.random.default_rng(8)
        merge = MergingOp(12, 3, rng=rng)
        evo = EvolutionOp(3, 12, stride=2, rng=rng)
        x = rng.normal(size=(1, 12, 8, 8))
        z = merge.forward(x, train=True)
        assert z.shape == (1, 3, 8, 8)
        f = evo.forward(z, train=True)
        assert f.shape == (1, 12, 4, 4)

    def test_merging_width_validation(self):
        with pytest.raises(ValueError):
            MergingOp(4, 5)
        with pytest.raises(ValueError):
            MergingOp(4, 0)


class TestParamsSurface:
    def test_param_and_grad_keys_match(self):
        module = make(MEModuleConfig(8, 8, 2, 2))
        assert set(module.params) == set(module.grads)
        assert "merge.conv.weight" in module.params
        assert "evo.bn_m.beta" in module.params

    def test_zero_grad_clears(self):
        module = make(MEModuleConfig(8, 8, 2, 2))
        x = np.random.default_rng(9).normal(size=(1, 8, 5, 5))
        out = module.forward(x, train=True)
        module.backward(np.ones_like(out))
        assert any(np.abs(g).sum() > 0 for g in module.grads.values())
        module.zero_grad()
        assert all(np.abs(g).sum() == 0 for g in module.grads.values())


def walked(unit, shape):
    """The rows of ``unit.walk(shape)`` and the output shape it returns."""
    walk, rows = unit.walk(shape), []
    while True:
        try:
            rows.append(next(walk))
        except StopIteration as stop:
            return rows, stop.value


def assert_walk_matches_forward(unit, x):
    """Every walked layer, parameter-free ones included, sees in a train
    forward the input shape the walk gives it, and the walk returns the
    output shape."""
    rows, out_shape = walked(unit, x.shape[1:])
    seen = {}
    for path, layer, _ in rows:
        def recording(x, *args, path=path, forward=layer.forward, **kw):
            seen[path] = x.shape[1:]
            return forward(x, *args, **kw)
        layer.forward = recording
    out = unit.forward(x, train=True)
    assert {path: shape for path, _, shape in rows} == seen
    assert len(rows) == len(seen)
    assert out_shape == out.shape[1:]


@pytest.mark.parametrize("combine_mode", ["product", "addition"])
@pytest.mark.parametrize("downsample", [False, True])
def test_layer_shapes_match_forward(combine_mode, downsample):
    cfg = MEModuleConfig(8, 16 if downsample else 8, 2, 2,
                         downsample=downsample, combine_mode=combine_mode)
    x = np.random.default_rng(10).normal(size=(2, 8, 7, 7))
    assert_walk_matches_forward(make(cfg), x)


def test_network_walk_shapes_match_forward():
    """Through a network's ``/`` paths, a downsampling module's skip concat
    and both modules' final ReLUs."""
    rng = np.random.default_rng(13)
    net = Network([
        ("stem.conv", Conv2d(3, 4, 3, stride=2, rng=rng)),
        ("stage2.0", MEModule(MEModuleConfig(4, 8, 1, 2, downsample=True),
                              rng=rng)),
        ("stage2.1", MEModule(MEModuleConfig(8, 8, 1, 2), rng=rng))],
        in_channels=3, input_size=9, num_classes=8)
    assert_walk_matches_forward(net, rng.normal(size=(2, 3, 9, 9)))


def test_backward_before_forward_rejected():
    module = make(MEModuleConfig(8, 8, 2, 2))
    with pytest.raises(RuntimeError, match="without a cached forward"):
        module.backward(np.zeros((1, 8, 5, 5)))


# The module's dataflow as it was written out by hand before it was read
# from the four layer chains; frozen as the reference the chains must match
# bit for bit. In eval it folds each conv->BN pair as the chains do.

def reference_named_layers(m):
    evo = m.evolution
    return {"pw1": m.pw1, "bn1": m.bn1, "merge.conv": m.merging.conv,
            "merge.bn": m.merging.bn, "evo.conv_e": evo.conv_e,
            "evo.bn_e": evo.bn_e, "evo.conv_m": evo.conv_m,
            "evo.bn_m": evo.bn_m, "dw": m.dw, "bn_dw": m.bn_dw,
            "pw2": m.pw2, "bn2": m.bn2}


def conv_bn(conv, bn, x, train):
    """conv then batch norm; in eval the norm is folded into the conv."""
    if train:
        return bn.forward(conv.forward(x, train), train)
    return conv.forward(x, train, bn=bn)


def reference_forward(m, x, train):
    cfg = m.cfg
    r = m.relu1.forward(conv_bn(m.pw1, m.bn1, x, train), train)
    s = m.shuffle.forward(r, train)
    d = conv_bn(m.dw, m.bn_dw, s, train)
    f = m.evolution.forward(m.merging.forward(s, train), train)
    comb = elementwise_combine(d, f, cfg.combine_mode)
    res = conv_bn(m.pw2, m.bn2, comb, train)
    if cfg.downsample:
        ident = m.identity_pool.forward(x, train)
        out = m.relu_final.forward(concat_channels(ident, res), train)
    else:
        out = m.relu_final.forward(x + res, train)
    return out, (d, f)


def reference_backward(m, cache, grad_out):
    d, f = cache
    cfg = m.cfg
    g = m.relu_final.backward(grad_out)
    if cfg.downsample:
        g_ident = g[:, :cfg.in_channels]
        g_res = g[:, cfg.in_channels:]
        grad_x = m.identity_pool.backward(g_ident)
    else:
        g_res = g
        grad_x = g.copy()
    gc = m.pw2.backward(m.bn2.backward(g_res))
    if cfg.combine_mode == "product":
        g_d = gc * f
        g_f = gc * d
    else:
        g_d = gc
        g_f = gc
    g_s = (m.dw.backward(m.bn_dw.backward(g_d))
           + m.merging.backward(m.evolution.backward(g_f)))
    g_r = m.shuffle.backward(g_s)
    grad_x += m.pw1.backward(m.bn1.backward(m.relu1.backward(g_r)))
    return grad_x


def reference_layer_shapes(m, shape):
    layers = reference_named_layers(m)
    rows = []

    def chain(names, s):
        for name in names:
            rows.append((name, layers[name], s))
            s = layers[name].out_shape(s)
        return s

    s = chain(["pw1", "bn1"], shape)
    chain([name for name in layers if "." in name], s)  # merge.*, evo.*
    res = chain(["dw", "bn_dw", "pw2", "bn2"], s)
    if not m.cfg.downsample:
        return rows, res
    ident = m.identity_pool.out_shape(shape)
    return rows, (ident[0] + res[0],) + res[1:]


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("downsample", [False, True], ids=["s1", "s2"])
@pytest.mark.parametrize("combine_mode", ["product", "addition"])
def test_chains_bit_identical_to_hand_wired_reference(combine_mode,
                                                      downsample, train):
    """The gradcheck-tiny variants: output, batch-norm running statistics
    and shape rows; in train, the input gradient and every parameter
    gradient too. An eval forward leaves no backward state, so a backward
    after it raises and creates no gradient array."""
    cfg = MEModuleConfig(4 if downsample else 8, 8, 2, 2,
                         downsample=downsample, combine_mode=combine_mode)
    module, ref = make(cfg, seed=11), make(cfg, seed=11)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, cfg.in_channels, 5, 5))
    for _ in range(2):  # the second pass sees updated running statistics
        out = module.forward(x, train)
        ref_out, cache = reference_forward(ref, x, train)
        assert np.array_equal(out, ref_out)
        grad_out = rng.normal(size=out.shape)
        if not train:
            with pytest.raises(RuntimeError, match="without a cached forward"):
                module.backward(grad_out)
            continue
        assert np.array_equal(module.backward(grad_out),
                              reference_backward(ref, cache, grad_out))
    assert list(module.named_layers()) == list(reference_named_layers(ref))
    if train:
        assert list(module.grads) == list(ref.grads)
        for name, g in module.grads.items():
            assert np.array_equal(g, ref.grads[name]), name
    else:
        assert not any(layer.grads for _, layer in module.all_layers())
    for (name, bn), (_, ref_bn) in zip(module.batchnorms(), ref.batchnorms()):
        assert np.array_equal(bn.running_mean, ref_bn.running_mean), name
        assert np.array_equal(bn.running_var, ref_bn.running_var), name
    layers = module.named_layers()
    rows, out_shape = walked(module, x.shape[1:])
    rows = [row for row in rows if row[0] in layers]
    ref_rows, ref_out_shape = reference_layer_shapes(ref, x.shape[1:])
    assert out_shape == ref_out_shape
    assert [(n, s) for n, _, s in rows] == [(n, s) for n, _, s in ref_rows]
    assert all(layer is layers[name] for name, layer, _ in rows)
