"""Analytic vs central-finite-difference gradients for every layer kind and
for assembled modules."""

import numpy as np
import pytest

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
)
from menet.me_module import MEModule, MEModuleConfig
from menet.network import Network
from menet.training import gradcheck, gradcheck_errors, numerical_gradient

N_INSTANCES = 20
LAYER_TOL = 1e-5
MODULE_TOL = 1e-4


def eval_mode_bn(channels):
    """A batch norm whose forward always runs in eval mode, so gradcheck
    (which runs in train mode) checks the running-statistics path."""
    bn = BatchNorm2d(channels)
    bn.forward = lambda x, train=False: BatchNorm2d.forward(bn, x, False)
    return bn


def layer_cases(seed):
    rng = np.random.default_rng(seed)
    yield Conv2d(3, 4, 3, stride=1, rng=rng), (2, 3, 5, 5)
    yield Conv2d(4, 6, 1, groups=2, rng=rng), (2, 4, 4, 4)
    yield Conv2d(4, 4, 3, stride=2, groups=4, rng=rng), (2, 4, 6, 6)
    yield BatchNorm2d(3), (3, 3, 4, 4)
    yield eval_mode_bn(2), (2, 2, 3, 3)
    yield ReLU(), (2, 3, 4, 4)
    yield Sigmoid(), (2, 3, 4, 4)
    yield ChannelShuffle(2), (2, 6, 3, 3)
    yield MaxPool3x3s2(), (1, 2, 6, 6)
    yield AvgPool3x3s2(), (1, 2, 6, 6)
    yield GlobalAvgPool(), (2, 3, 4, 4)
    yield Linear(5, 3, rng=rng), (3, 5, 1, 1)


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_every_layer_kind(seed):
    rng = np.random.default_rng(1000 + seed)
    for layer, shape in layer_cases(seed):
        x = rng.normal(size=shape)
        if isinstance(layer, ReLU):
            # keep inputs away from the kink so finite differences are valid
            x = np.where(np.abs(x) < 0.05, 0.5, x)
        if isinstance(layer, MaxPool3x3s2):
            # break ties so the max is differentiable
            x = x + rng.normal(0, 1e-3, size=x.shape)
        err = gradcheck(layer, x, seed=seed)
        assert err < LAYER_TOL, f"{type(layer).__name__}: {err:.2e}"


@pytest.mark.parametrize("seed", range(3))
def test_eval_mode_bn_with_running_statistics(seed):
    # running statistics far from (0, 1), so the eval backward has to
    # rebuild the normalized input, not reuse the raw one
    rng = np.random.default_rng(2000 + seed)
    bn = eval_mode_bn(3)
    bn.params["gamma"][...] = rng.normal(size=3)
    bn.params["beta"][...] = rng.normal(size=3)
    bn.running_mean = rng.normal(0.0, 2.0, size=3)
    bn.running_var = rng.uniform(0.2, 4.0, size=3)
    err = gradcheck(bn, rng.normal(size=(2, 3, 4, 4)), seed=seed)
    assert err < LAYER_TOL, f"{err:.2e}"


def test_relu_smooth_region_tighter():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(2, 3, 4, 4))
    x = np.sign(x) * (np.abs(x) + 0.1)
    assert gradcheck(ReLU(), x, seed=0) < 1e-7


def module_config(combine_mode, downsample):
    if downsample:
        return MEModuleConfig(in_channels=4, out_channels=8,
                              fusion_channels=2, groups=2,
                              downsample=True, combine_mode=combine_mode)
    return MEModuleConfig(in_channels=8, out_channels=8, fusion_channels=2,
                          groups=2, combine_mode=combine_mode)


@pytest.mark.parametrize("combine_mode", ["product", "addition"])
@pytest.mark.parametrize("downsample", [False, True])
def test_assembled_module(combine_mode, downsample):
    worst = 0.0
    for seed in range(N_INSTANCES):
        rng = np.random.default_rng(2000 + seed)
        cfg = module_config(combine_mode, downsample)
        module = MEModule(cfg, rng=rng)
        x = rng.normal(size=(1, cfg.in_channels, 5, 5))
        worst = max(worst, gradcheck(module, x, seed=seed))
    assert worst < MODULE_TOL, f"{combine_mode}/ds={downsample}: {worst:.2e}"


def test_addition_mode_gradient_passes_both_branches():
    rng = np.random.default_rng(3)
    cfg = module_config("addition", False)
    module = MEModule(cfg, rng=rng)
    x = rng.normal(size=(1, 8, 4, 4))
    module.forward(x, train=True)
    # with addition combine, grad w.r.t. both combine operands is grad_out;
    # checked indirectly: backward must run and produce finite gradients
    grad_x = module.backward(np.ones((1, 8, 4, 4)))
    assert np.all(np.isfinite(grad_x))


def test_skip_path_gradient_is_grad_out():
    rng = np.random.default_rng(5)
    cfg = module_config("product", False)
    module = MEModule(cfg, rng=rng)
    # zero every weight: residual branch output is constant in x, so the
    # input gradient reduces to the skip term (masked by the final relu);
    # in train too, since every batch norm's gamma is 0
    for layer in module.named_layers().values():
        for p in layer.params.values():
            p[...] = 0.0
    x = np.abs(rng.normal(size=(1, 8, 4, 4))) + 0.1
    out = module.forward(x, train=True)
    go = rng.normal(size=out.shape)
    grad_x = module.backward(go)
    mask = out > 0
    assert np.array_equal(grad_x, np.where(mask, go, 0.0))


def test_numerical_gradient_of_non_contiguous_array():
    # a transposed view: each step must move the array's own element
    arr = np.arange(12.0).reshape(3, 4).T
    grad = numerical_gradient(lambda: float((arr ** 2).sum()), arr)
    assert np.allclose(grad, 2 * arr, rtol=1e-8, atol=1e-6)
    assert np.array_equal(arr, np.arange(12.0).reshape(3, 4).T)


def running_statistics(bns):
    return [(bn.running_mean.copy(), bn.running_var.copy()) for bn in bns]


def gradcheck_unit(kind):
    """(unit, its batch norms, input) for a bare batch norm, a module, or a
    network holding that module."""
    rng = np.random.default_rng(0)
    if kind == "bn":
        bn = BatchNorm2d(3)
        return bn, [bn], rng.normal(size=(2, 3, 4, 4))
    module = MEModule(MEModuleConfig(8, 8, 2, 2), rng=rng)
    unit = module if kind == "module" else Network([("m", module)], 8, 5, 8)
    bns = [bn for _, bn in module.batchnorms()]
    return unit, bns, rng.normal(size=(1, 8, 5, 5))


@pytest.mark.parametrize("kind", ["bn", "module", "network"])
def test_gradcheck_restores_running_statistics(kind):
    # ~1000 train forwards would move them; the eval output must not change
    unit, bns, x = gradcheck_unit(kind)
    before = running_statistics(bns)
    eval_before = unit.forward(x, train=False)
    errors = gradcheck_errors(unit, x)
    assert errors[0] < MODULE_TOL
    for (mean, var), (mean0, var0) in zip(running_statistics(bns), before):
        assert np.array_equal(mean, mean0) and np.array_equal(var, var0)
    assert np.array_equal(unit.forward(x, train=False), eval_before)
