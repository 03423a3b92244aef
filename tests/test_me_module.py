"""Shapes, branch wiring and gating behaviour of the assembled module."""

import numpy as np
import pytest

from menet.me_module import EvolutionOp, MEModule, MEModuleConfig, MergingOp
from menet.tensor import ShapeError


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
        module.fusion_override = 1.0
        gated = module.forward(x, train=True)
        # reference: run the residual path by hand without any fusion factor
        s = module.shuffle.forward(module.relu1.forward(
            module.bn1.forward(module.pw1.forward(x, True), True), True))
        d = module.bn_dw.forward(module.dw.forward(s, True), True)
        res = module.bn2.forward(module.pw2.forward(d, True), True)
        expect = module.relu_final.forward(x + res, True)
        assert np.array_equal(gated, expect)

    def test_fusion_override_zero_is_noop_in_addition_mode(self):
        cfg = MEModuleConfig(8, 8, 2, 2, combine_mode="addition")
        module = make(cfg, seed=8)
        x = np.random.default_rng(4).normal(size=(1, 8, 6, 6))
        module.fusion_override = 0.0
        a = module.forward(x, train=True)
        module.fusion_override = np.zeros((1, 2, 6, 6))
        b = module.forward(x, train=True)
        assert np.array_equal(a, b)

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


@pytest.mark.parametrize("combine_mode", ["product", "addition"])
@pytest.mark.parametrize("downsample", [False, True])
def test_layer_shapes_match_forward(combine_mode, downsample):
    cfg = MEModuleConfig(8, 16 if downsample else 8, 2, 2,
                         downsample=downsample, combine_mode=combine_mode)
    module = make(cfg)
    seen = {}
    for name, layer in module.named_layers().items():
        def recording(x, train=False, name=name, forward=layer.forward):
            seen[name] = x.shape[1:]
            return forward(x, train)
        layer.forward = recording
    x = np.random.default_rng(10).normal(size=(2, 8, 7, 7))
    out = module.forward(x, train=True)
    rows, out_shape = module.layer_shapes(x.shape[1:])
    assert {name: shape for name, _, shape in rows} == seen
    assert len(rows) == len(seen)
    assert out_shape == out.shape[1:]
