"""Analytic vs central-finite-difference gradients for every layer kind and
for assembled modules."""

import collections
import functools
import math

import numpy as np
import pytest

from menet import training
from menet.builder import MENetConfig, build_menet
from menet.layers import (
    AvgPool3x3s2,
    BatchNorm2d,
    Chain,
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


def run_in_eval(bn):
    """``bn`` with its forward always run in eval mode, through an instance
    attribute, so gradcheck (which runs in train mode) checks the
    running-statistics path."""
    bn.forward = lambda x, train=False: BatchNorm2d.forward(bn, x, False)
    return bn


def eval_mode_bn(channels):
    return run_in_eval(BatchNorm2d(channels))


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
    """(unit, its batch norms, input) for a bare batch norm, a module, a
    network holding that module, or a module with an eval-mode batch
    norm."""
    rng = np.random.default_rng(0)
    if kind == "bn":
        bn = BatchNorm2d(3)
        return bn, [bn], rng.normal(size=(2, 3, 4, 4))
    if kind == "eval-bn-module":
        module, x = module_with_eval_bn()
        return module, [bn for _, bn in module.batchnorms()], x
    module = MEModule(MEModuleConfig(8, 8, 2, 2), rng=rng)
    unit = module if kind == "module" else Network([("m", module)], 8, 5, 8)
    bns = [bn for _, bn in module.batchnorms()]
    return unit, bns, rng.normal(size=(1, 8, 5, 5))


def failing_at(f, n):
    """``f`` that raises at its n-th call (never for ``None``)."""
    calls = 0

    def failing(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == n:
            raise FloatingPointError("objective failed")
        return f(*args, **kwargs)

    return failing


@pytest.mark.parametrize("kind", ["bn", "module", "network", "eval-bn-module"])
def test_gradcheck_restores_running_statistics(monkeypatch, kind):
    # ~1000 train forwards would move them: each batch norm holds them
    # still, the very same arrays, also when the objective raises at its
    # 3rd call, and the next train forward moves them as in a twin unit
    tracked, track = [], BatchNorm2d._track

    def spy(self, mean, var):
        tracked.append(self)
        track(self, mean, var)

    monkeypatch.setattr(BatchNorm2d, "_track", spy)
    for fail_at in (None, 3):
        unit, bns, x = gradcheck_unit(kind)
        twin, twin_bns, _ = gradcheck_unit(kind)
        arrays = [(bn.running_mean, bn.running_var) for bn in bns]
        before = running_statistics(bns)
        eval_before = unit.forward(x, train=False)
        tracked.clear()
        if fail_at is None:
            assert gradcheck_errors(unit, x)[0] < MODULE_TOL
        else:
            unit.forward = failing_at(unit.forward, fail_at)
            with pytest.raises(FloatingPointError):
                gradcheck_errors(unit, x)
            del unit.forward
        assert tracked == [], fail_at
        for bn, (mean, var), (mean0, var0) in zip(bns, arrays, before):
            assert bn.running_mean is mean and bn.running_var is var
            assert mean.tobytes() == mean0.tobytes()
            assert var.tobytes() == var0.tobytes()
        assert np.array_equal(unit.forward(x, train=False), eval_before)
        unit.forward(x, train=True)
        twin.forward(x, train=True)
        assert sorted(map(id, tracked)) == sorted(
            id(bn) for bn in bns + twin_bns if "forward" not in vars(bn))
        for bn, twin_bn in zip(bns, twin_bns):
            assert bn.running_mean.tobytes() == twin_bn.running_mean.tobytes()
            assert bn.running_var.tobytes() == twin_bn.running_var.tobytes()


# ---------------------------------------------------------------------------
# output reuse while a parameter is nudged
# ---------------------------------------------------------------------------

def plain_numeric_gradients(unit, x, seed=0):
    """The numeric gradients of ``gradcheck_errors`` (input first, then
    every parameter), each objective re-running every layer: a frozen copy
    of the loop from before gradcheck reused any layer output."""
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
    unit.backward(probe)
    result = []
    for arr in [x, *unit.params.values()]:
        grad = np.zeros_like(arr, dtype=float)
        for i in np.ndindex(arr.shape):
            orig = arr[i]
            h = 1e-6 * (1.0 + abs(orig))
            arr[i] = orig + h
            fp = objective()
            arr[i] = orig - h
            fm = objective()
            arr[i] = orig
            grad[i] = (fp - fm) / (2 * h)
        result.append(grad)
    return result


def gradcheck_numeric_gradients(monkeypatch, unit, x, seed=0):
    """The numeric gradients ``gradcheck_errors`` builds, in its order."""
    made = []

    def recording(f, arr):
        made.append(numerical_gradient(f, arr))
        return made[-1]

    with monkeypatch.context() as m:
        m.setattr(training, "numerical_gradient", recording)
        gradcheck_errors(unit, x, seed)
    return made


def tiny_variant(i, seed=0):
    """(network, input) of the i-th benchmark ``gradcheck-tiny`` variant:
    one module alone in a Network, 5x5, batch 1."""
    mode, down = [(m, d) for m in ("product", "addition")
                  for d in (False, True)][i]
    rng = np.random.default_rng([seed, i])
    cfg = module_config(mode, down)
    net = Network([("m", MEModule(cfg, rng=rng))], cfg.in_channels, 5,
                  cfg.out_channels)
    return net, rng.normal(size=(1, cfg.in_channels, 5, 5))


def desk_network():
    """A whole network, stem pool and head included, at 8 px, batch 2."""
    cfg = MENetConfig(residual_width=8, fusion_width=1, groups=2,
                      stage_repeats=[1, 1, 1], stem_channels=4,
                      num_classes=2, input_size=8, stem_pool=True)
    net = build_menet(cfg, seed=0)
    return net, np.random.default_rng(0).normal(size=(2, 3, 8, 8))


def module_with_eval_bn():
    """A module whose depthwise batch norm runs in eval, on running
    statistics far from (0, 1)."""
    rng = np.random.default_rng(4)
    module = MEModule(module_config("product", False), rng=rng)
    bn = run_in_eval(module.bn_dw)
    bn.running_mean = rng.normal(0.0, 2.0, size=bn.channels)
    bn.running_var = rng.uniform(0.2, 4.0, size=bn.channels)
    return module, rng.normal(size=(1, 8, 5, 5))


def bare_layer(i, seed=0):
    """The i-th ``layer_cases`` layer alone as the unit, with an input."""
    layer, shape = list(layer_cases(seed))[i]
    return layer, np.random.default_rng([seed, i]).normal(size=shape)


UNITS = {**{f"tiny-{i}": functools.partial(tiny_variant, i)
            for i in range(4)},
         "desk-network": desk_network, "eval-bn-module": module_with_eval_bn,
         **{f"bare-{i}-{type(layer).__name__}":
            functools.partial(bare_layer, i)
            for i, (layer, _) in enumerate(layer_cases(0))}}


@pytest.mark.parametrize("case", list(UNITS))
def test_reuse_gives_plain_numeric_gradients(monkeypatch, case):
    # two units built alike: one for each loop
    expected = plain_numeric_gradients(*UNITS[case]())
    got = gradcheck_numeric_gradients(monkeypatch, *UNITS[case]())
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()


def counting_forwards(monkeypatch, layers):
    """Count real forward runs per layer with class-level spies, which
    every reuse wrapper sits above."""
    runs = collections.Counter()
    for cls in {type(layer) for layer in layers}:
        def spy(self, *args, forward=cls.forward, **kwargs):
            runs[id(self)] += 1
            return forward(self, *args, **kwargs)
        monkeypatch.setattr(cls, "forward", spy)
    return runs


def test_only_layers_after_the_owner_run_again(monkeypatch):
    # per owner: pw2's weight, then bn2's gamma and beta loops together,
    # in which every layer before the combine, the fusion and depthwise
    # branches included, runs once in all; pw2 reads the combine, which
    # the module computes afresh on every forward, so it runs again too
    module = MEModule(module_config("product", False),
                      rng=np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(1, 8, 5, 5))
    layers = dict(module.all_layers())
    runs = counting_forwards(monkeypatch, layers.values())
    owned = {id(p): owner for owner in ("pw2", "bn2")
             for p in layers[owner].params.values()}
    during = {"pw2": collections.Counter(), "bn2": collections.Counter()}

    def numeric(f, arr):
        before = runs.copy()
        grad = numerical_gradient(f, arr)
        if id(arr) in owned:
            during[owned[id(arr)]].update(runs - before)
        return grad

    monkeypatch.setattr(training, "numerical_gradient", numeric)
    gradcheck_errors(module, x)
    for owner, after, objectives in [
            ("pw2", {"pw2", "bn2", "relu_final"}, 16),
            ("bn2", {"pw2", "bn2", "relu_final"}, 32)]:
        assert objectives == 2 * sum(
            p.size for p in layers[owner].params.values())
        assert {path: during[owner][id(layer)]
                for path, layer in layers.items()} == {
            path: objectives if path in after else 1 for path in layers}, owner


def instance_entries(unit):
    """Per layer, its instance attribute names and its own ``forward`` and
    ``_track`` entries."""
    return {path: (set(vars(layer)), vars(layer).get("forward"),
                   vars(layer).get("_track"))
            for path, layer in unit.all_layers()}


@pytest.mark.parametrize("fail_at", [None, 3])
def test_gradcheck_puts_every_forward_back(monkeypatch, fail_at):
    module, x = module_with_eval_bn()
    before = instance_entries(module)
    assert before["bn_dw"][1] is not None
    target = module.evolution.conv_e.params["weight"]

    def numeric(f, arr):
        return numerical_gradient(
            failing_at(f, fail_at) if arr is target else f, arr)

    monkeypatch.setattr(training, "numerical_gradient", numeric)
    if fail_at is None:
        gradcheck_errors(module, x)
    else:
        with pytest.raises(FloatingPointError):
            gradcheck_errors(module, x)
    after = instance_entries(module)
    assert after.keys() == before.keys()
    for path, (names, forward, track) in before.items():
        assert after[path][0] == names, path
        assert after[path][1] is forward and after[path][2] is track, path


# ---------------------------------------------------------------------------
# the invariant the reuse rests on, and bugs it must still catch
# ---------------------------------------------------------------------------

def train_units():
    """Every layer case, a chain, and every module variant, with inputs."""
    rng = np.random.default_rng(7)
    for layer, shape in layer_cases(0):
        yield layer, rng.normal(size=shape)
    chain = Chain(("conv", Conv2d(4, 4, 3, rng=rng)), ("bn", BatchNorm2d(4)),
                  ("relu", ReLU()))
    yield chain, rng.normal(size=(2, 4, 5, 5))
    for mode in ("product", "addition"):
        for down in (False, True):
            cfg = module_config(mode, down)
            yield (MEModule(cfg, rng=rng),
                   rng.normal(size=(1, cfg.in_channels, 5, 5)))


def test_no_train_forward_writes_into_its_input():
    for unit, x in train_units():
        x.flags.writeable = False   # a write raises
        before = x.tobytes()
        unit.forward(x, train=True)
        assert x.tobytes() == before, type(unit).__name__


def add_to_weight_gradient(layer, value, index=(0, 0, 0, 0)):
    """Make ``layer``'s backward add ``value`` to its weight gradient at
    ``index`` (``...`` for every element)."""
    backward = layer.backward

    def wrong(grad_out):
        grad_x = backward(grad_out)
        layer.grads["weight"][index] += value
        return grad_x

    layer.backward = wrong


@pytest.mark.parametrize("path", ["pw1", "evo.conv_e", "pw2"])
def test_gradient_error_fails_on_either_side_of_the_owner(path):
    # upstream of most layers, in the fusion branch, and downstream
    rng = np.random.default_rng(0)
    module = MEModule(module_config("product", False), rng=rng)
    add_to_weight_gradient(module.named_layers()[path], 1.0)
    assert gradcheck(module, rng.normal(size=(1, 8, 5, 5))) > MODULE_TOL


def test_nan_weight_gradient_of_a_layer_fails():
    rng = np.random.default_rng(0)
    conv = Conv2d(3, 4, 3, rng=rng)
    add_to_weight_gradient(conv, np.nan, ...)
    worst, diff = gradcheck_errors(conv, rng.normal(size=(2, 3, 5, 5)))
    assert math.isnan(worst) and math.isnan(diff)


def test_one_nan_in_a_module_gradient_fails():
    rng = np.random.default_rng(0)
    module = MEModule(module_config("product", False), rng=rng)
    add_to_weight_gradient(module.pw2, np.nan)
    worst, diff = gradcheck_errors(module, rng.normal(size=(1, 8, 5, 5)))
    assert math.isnan(worst) and math.isnan(diff)
    assert not worst < MODULE_TOL


@pytest.mark.parametrize("kind", ["layer", "module", "network", "nested"])
def test_backward_after_gradcheck_raises(kind):
    rng = np.random.default_rng(0)
    if kind == "layer":
        unit, x = Conv2d(3, 4, 3, rng=rng), rng.normal(size=(2, 3, 5, 5))
        out_shape = (2, 4, 5, 5)
    else:
        # "nested": the module two chains down
        module = MEModule(module_config("product", False), rng=rng)
        unit = {"module": module,
                "network": Network([("m", module)], 8, 5, 8),
                "nested": Chain(("inner", Chain(("m", module))))}[kind]
        x, out_shape = rng.normal(size=(1, 8, 5, 5)), (1, 8, 5, 5)
    gradcheck_errors(unit, x)
    if kind != "layer":
        assert module._cache is None
        assert all(layer._cache is None for _, layer in unit.all_layers())
    with pytest.raises(RuntimeError, match="without a cached forward"):
        unit.backward(np.ones(out_shape))
