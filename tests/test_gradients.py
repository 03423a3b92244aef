"""Analytic vs complex-step gradients for every layer kind and for
assembled modules, and the complex step itself against frozen central
differences."""

import collections
import functools
import math
import warnings

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
    Layer,
    Linear,
    MaxPool3x3s2,
    ReLU,
    Sigmoid,
)
from menet.me_module import MEModule, MEModuleConfig
from menet.network import Network
from menet.training import _complex_step as complex_step, gradcheck

N_INSTANCES = 20
LAYER_TOL = 1e-5
MODULE_TOL = 1e-4
# Tight bounds. Over every unit the test suite checks, the worst clean
# score was 1.5e-15 for a bare layer and 9.6e-14 for a module or network
# (1.4e-15 and 1.2e-13 over 100 more layer seeds and 800 more modules):
# each bound sits ~100x or more above its worst, and ~1e5x below the 1e-6
# of a 1e-6 relative gradient bug.
LAYER_TIGHT = 1e-12
MODULE_TIGHT = 1e-11


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
            # keep inputs away from the kink (see test_kinks_fail)
            x = np.where(np.abs(x) < 0.05, 0.5, x)
        if isinstance(layer, MaxPool3x3s2):
            # break ties so the max is differentiable
            x = x + rng.normal(0, 1e-3, size=x.shape)
        err = gradcheck(layer, x, seed=seed)
        assert err < LAYER_TIGHT, f"{type(layer).__name__}: {err:.2e}"


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
    assert err < LAYER_TIGHT, f"{err:.2e}"


def test_kinks_fail():
    # complex values compare by real part, then imaginary part, so at a
    # ReLU input of exactly 0 and at a max-pool tie the step takes one side,
    # a gradient of 1 where the analytic one is 0
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 4, 4))
    x[0, 0, 0, 0] = 0.0
    assert gradcheck(ReLU(), x) == pytest.approx(0.0628, abs=1e-4)
    x = np.random.default_rng(1).normal(size=(1, 1, 6, 6))
    x[0, 0, 1, 1:3] = 3.0   # both the max of the window at (0, 1)
    assert gradcheck(MaxPool3x3s2(), x) == pytest.approx(0.5121, abs=1e-4)


def test_sigmoid_overflow_is_loud():
    # below about -755.8 the complex exp overflows in both parts (its
    # imaginary part is exp(-x) * 1e-20), and the output is NaN
    x = np.full((1, 1, 2, 2), -800.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="invalid value"):
            gradcheck(Sigmoid(), x)
        warnings.simplefilter("ignore", RuntimeWarning)
        assert math.isnan(gradcheck(Sigmoid(), x))
        assert gradcheck(Sigmoid(), x + 45.0) < LAYER_TIGHT


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
    assert worst < MODULE_TIGHT, f"{combine_mode}/ds={downsample}: {worst:.2e}"


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
            assert gradcheck(unit, x) < MODULE_TIGHT
        else:
            unit.forward = failing_at(unit.forward, fail_at)
            with pytest.raises(FloatingPointError):
                gradcheck(unit, x)
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
# the complex step, and output reuse while a parameter is moved
# ---------------------------------------------------------------------------

def probed(unit, x, seed):
    """``x`` as float, the probe gradcheck draws, and, from a real forward
    and a backward of that probe, the analytic gradients (input first,
    then every parameter)."""
    x = np.array(x, dtype=float)
    unit.zero_grad()
    probe = np.random.default_rng(seed).normal(
        size=unit.forward(x, train=True).shape)
    grad_x = unit.backward(probe)
    return x, probe, [grad_x, *(unit.grads[k] for k in unit.params)]


def plain_numeric_gradients(unit, x, seed=0):
    """(analytic, numeric) gradients, the numeric ones by central
    differences with per-element step 1e-6 * (1 + |value|), each objective
    re-running every layer: a frozen copy of the check that the complex
    step replaced."""
    x, probe, analytic = probed(unit, x, seed)
    result = []
    for arr in [x, *unit.params.values()]:
        grad = np.zeros_like(arr, dtype=float)
        for i in np.ndindex(arr.shape):
            orig = arr[i]
            h = 1e-6 * (1.0 + abs(orig))
            arr[i] = orig + h
            fp = float((unit.forward(x, train=True) * probe).sum())
            arr[i] = orig - h
            fm = float((unit.forward(x, train=True) * probe).sum())
            arr[i] = orig
            grad[i] = (fp - fm) / (2 * h)
        result.append(grad)
    return analytic, result


def floored_relative_error(analytic, numeric):
    """The max of |a - n| / max(|a|, |n|, 1e-8), with differences below
    1e-7 scored 0.0: a frozen copy of the score the complex step replaced,
    whose floor stood for central differences' resolution."""
    return max(np.where(d < 1e-7, 0.0, d / np.maximum(
        np.maximum(np.abs(a), np.abs(n)), 1e-8)).max()
        for a, n in zip(analytic, numeric) for d in [np.abs(a - n)])


def plain_complex_step_gradients(unit, x, seed=0):
    """The numeric gradients of ``gradcheck`` (input first, then every
    parameter), each objective re-running every layer: one complex copy of
    the input, then each layer's parameters swapped for complex copies
    while its steps run."""
    x, probe, _ = probed(unit, x, seed)

    def steps(arr, v):
        grad = np.empty(arr.shape)
        for i in np.ndindex(arr.shape):
            arr.imag[i] = 1e-20
            grad[i] = (unit.forward(v, train=True) * probe).sum().imag / 1e-20
            arr.imag[i] = 0.0
        return grad

    x_step = x.astype(complex)
    result = [steps(x_step, x_step)]
    owners = ([unit] if isinstance(unit, Layer)
              else unit.named_layers().values())
    for layer in owners:
        params = dict(layer.params)
        layer.params.update((k, p.astype(complex)) for k, p in params.items())
        result += [steps(layer.params[k], x) for k in params]
        layer.params.update(params)
    return result


def gradcheck_numeric_gradients(monkeypatch, unit, x, seed=0):
    """The numeric gradients ``gradcheck`` builds, in its order."""
    made = []

    def recording(f, arr):
        made.append(complex_step(f, arr))
        return made[-1]

    with monkeypatch.context() as m:
        m.setattr(training, "_complex_step", recording)
        gradcheck(unit, x, seed)
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
    expected = plain_complex_step_gradients(*UNITS[case]())
    got = gradcheck_numeric_gradients(monkeypatch, *UNITS[case]())
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()


def score(analytic, numeric):
    """gradcheck's score of two gradient lists."""
    return max(np.abs(a - n).max() / max(1.0, np.abs(a).max())
               for a, n in zip(analytic, numeric))


@pytest.mark.parametrize("i", range(4))
def test_complex_step_agrees_with_central_differences(monkeypatch, i):
    # within what central differences resolve, ~1e-8: their rounding
    # error is ~1e-16 * |objective| / 1e-6, their truncation error ~1e-12
    analytic, central = plain_numeric_gradients(*tiny_variant(i))
    stepped = gradcheck_numeric_gradients(monkeypatch, *tiny_variant(i))
    assert score(stepped, central) < 1e-8
    assert score(analytic, stepped) < MODULE_TIGHT


def scale_beta_gradients(monkeypatch, factor):
    """Make every batch norm's backward scale its beta gradient."""
    backward = BatchNorm2d.backward

    def wrong(self, grad_out):
        grad_x = backward(self, grad_out)
        self.grads["beta"] *= factor
        return grad_x

    monkeypatch.setattr(BatchNorm2d, "backward", wrong)


@pytest.mark.parametrize("i", range(4))
def test_relative_beta_gradient_bug_fails_the_tight_bound(monkeypatch, i):
    # a 1e-6 relative bug in every beta gradient, which central
    # differences' floored relative error and the north star's 1e-4 pass
    scale_beta_gradients(monkeypatch, 1 + 1e-6)
    analytic, central = plain_numeric_gradients(*tiny_variant(i))
    assert floored_relative_error(analytic, central) < MODULE_TOL
    err = gradcheck(*tiny_variant(i))
    assert err > MODULE_TIGHT
    assert err == pytest.approx(1e-6, rel=0.05)


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
    during = {"pw2": collections.Counter(), "bn2": collections.Counter()}

    def numeric(f, arr):
        before = runs.copy()
        grad = complex_step(f, arr)
        # while its loop runs, the owner holds the complex copy stepped
        for owner, counter in during.items():
            if any(arr is p for p in layers[owner].params.values()):
                counter.update(runs - before)
        return grad

    monkeypatch.setattr(training, "_complex_step", numeric)
    gradcheck(module, x)
    for owner, after, objectives in [
            ("pw2", {"pw2", "bn2", "relu_final"}, 8),
            ("bn2", {"pw2", "bn2", "relu_final"}, 16)]:
        assert objectives == sum(
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
    # and every parameter: the very same arrays with the same bytes, also
    # when an objective raises in the loop of bn2's beta, its second
    # parameter, while both are complex copies
    module, x = module_with_eval_bn()
    before = instance_entries(module)
    assert before["bn_dw"][1] is not None
    params = {k: (p, p.tobytes()) for k, p in module.params.items()}
    bn2 = module.bn2

    def numeric(f, arr):
        if arr is bn2.params["beta"]:
            assert all(np.iscomplexobj(p) for p in bn2.params.values())
            f = failing_at(f, fail_at)
        return complex_step(f, arr)

    monkeypatch.setattr(training, "_complex_step", numeric)
    if fail_at is None:
        gradcheck(module, x)
    else:
        with pytest.raises(FloatingPointError):
            gradcheck(module, x)
    after = instance_entries(module)
    assert after.keys() == before.keys()
    for path, (names, forward, track) in before.items():
        assert after[path][0] == names, path
        assert after[path][1] is forward and after[path][2] is track, path
    assert module.params.keys() == params.keys()
    for key, (p, data) in params.items():
        assert module.params[key] is p and p.tobytes() == data, key


def test_a_forward_that_drops_the_imaginary_part_raises():
    # gradcheck's own filter: ComplexWarning is a RuntimeWarning, which the
    # test suite's settings alone would turn into an error
    class RealReLU(ReLU):
        def forward(self, x, train=False):
            return super().forward(x.astype(float), train)

    x = np.random.default_rng(0).normal(size=(1, 2, 3, 3))
    with warnings.catch_warnings():
        warnings.resetwarnings()
        with pytest.raises(np.exceptions.ComplexWarning):
            gradcheck(RealReLU(), x)


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
    assert math.isnan(gradcheck(conv, rng.normal(size=(2, 3, 5, 5))))


def test_one_nan_in_a_module_gradient_fails():
    rng = np.random.default_rng(0)
    module = MEModule(module_config("product", False), rng=rng)
    add_to_weight_gradient(module.pw2, np.nan)
    worst = gradcheck(module, rng.normal(size=(1, 8, 5, 5)))
    assert math.isnan(worst) and not worst < MODULE_TOL


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
    gradcheck(unit, x)
    if kind != "layer":
        assert module._cache is None
        assert all(layer._cache is None for _, layer in unit.all_layers())
    with pytest.raises(RuntimeError, match="without a cached forward"):
        unit.backward(np.ones(out_shape))
