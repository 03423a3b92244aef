"""Acceptance gate: one test per shipped guarantee, each printing a
pass/fail verdict and enforcing its runtime budget."""

import time
from fractions import Fraction

import numpy as np
import pytest

from menet.analysis import (
    connectivity_bruteforce,
    connectivity_formula,
    count_cost,
    module_dependency_pattern,
    perturbation_pattern,
    shuffle_pattern,
)
from menet.builder import MENetConfig, build_menet, summarize
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
from menet.serialization import (
    load_dataset,
    load_weights,
    save_dataset,
    save_weights,
)
from menet.training import (
    SGD,
    Schedule,
    gradcheck,
    make_synthetic_dataset,
    train_loop,
)

REFERENCE_MODELS = [
    ("228-MENet-12x1", 3, 144e6),
    ("256-MENet-12x1", 4, 140e6),
    ("352-MENet-12x1", 8, 144e6),
]


def verdict(name, ok):
    print(f"criterion {name}: {'pass' if ok else 'FAIL'}")
    assert ok, name


def test_1_reference_mac_totals():
    """The three published configurations hit their MAC totals within 5%
    under the default counting policy, in under a second."""
    t0 = time.monotonic()
    ok = True
    for notation, groups, target in REFERENCE_MODELS:
        cfg = MENetConfig.from_notation(notation, groups=groups)
        total = count_cost(build_menet(cfg, seed=0)).total_macs
        ok &= abs(total - target) / target < 0.05
    elapsed = time.monotonic() - t0
    verdict("1 (reference MAC totals)", ok and elapsed < 1.0)


def test_2_connectivity_math():
    t0 = time.monotonic()
    ok = True
    for c in range(1, 65):
        for g in range(1, c + 1):
            if c % g:
                continue
            ok &= connectivity_formula(c, g) == connectivity_bruteforce(c, g)
    ok &= connectivity_formula(9, 3).lost_ratio == Fraction(2, 3)
    ok &= connectivity_formula(64, 8).lost_ratio == Fraction(7, 8)
    elapsed = time.monotonic() - t0
    verdict("2 (connectivity math)", ok and elapsed < 1.0)


def eval_mode_bn(channels):
    """A batch norm whose forward always runs in eval mode, so gradcheck
    (which runs in train mode) checks the running-statistics path."""
    bn = BatchNorm2d(channels)
    bn.forward = lambda x, train=False: BatchNorm2d.forward(bn, x, False)
    return bn


def _layer_instances(rng):
    yield Conv2d(3, 4, 3, stride=1, rng=rng), (2, 3, 5, 5)
    yield Conv2d(4, 6, 1, groups=2, rng=rng), (2, 4, 4, 4)
    yield Conv2d(4, 4, 3, stride=2, groups=4, depthwise=True,
                 rng=rng), (2, 4, 6, 6)
    yield BatchNorm2d(3), (3, 3, 4, 4)
    yield eval_mode_bn(2), (2, 2, 3, 3)
    yield ReLU(), (2, 3, 4, 4)
    yield Sigmoid(), (2, 3, 4, 4)
    yield ChannelShuffle(2), (2, 6, 3, 3)
    yield MaxPool3x3s2(), (1, 2, 6, 6)
    yield AvgPool3x3s2(), (1, 2, 6, 6)
    yield GlobalAvgPool(), (2, 3, 4, 4)
    yield Linear(5, 3, rng=rng), (3, 5, 1, 1)


def _module_instances():
    for seed in range(5):
        for combine_mode in ("product", "addition"):
            for downsample in (False, True):
                rng = np.random.default_rng(4000 + seed)
                if downsample:
                    cfg = MEModuleConfig(4, 8, 2, 2, downsample=True,
                                         combine_mode=combine_mode)
                else:
                    cfg = MEModuleConfig(8, 8, 2, 2,
                                         combine_mode=combine_mode)
                yield MEModule(cfg, rng=rng), \
                    rng.normal(size=(1, cfg.in_channels, 5, 5)), seed


def test_3_gradient_correctness():
    """Analytic gradients against central differences: every layer kind
    (26 instances, < 1e-5) and assembled modules in all four combine/stride
    variants (20 instances, < 1e-4), within a minute."""
    t0 = time.monotonic()
    ok = True
    n_layer = 0
    for seed in (0, 1):
        rng = np.random.default_rng(3000 + seed)
        for layer, shape in _layer_instances(np.random.default_rng(seed)):
            x = rng.normal(size=shape)
            if isinstance(layer, ReLU):
                x = np.where(np.abs(x) < 0.05, 0.5, x)
            if isinstance(layer, MaxPool3x3s2):
                x = x + rng.normal(0, 1e-3, size=x.shape)
            ok &= gradcheck(layer, x, seed=seed) < 1e-5
            n_layer += 1
    n_module = 0
    for module, x, seed in _module_instances():
        ok &= gradcheck(module, x, seed=seed) < 1e-4
        n_module += 1
    elapsed = time.monotonic() - t0
    verdict("3 (gradient correctness)",
            ok and n_layer >= 20 and n_module >= 20 and elapsed < 60.0)


def test_4_shuffle_properties():
    ok = ChannelShuffle.permutation(9, 3).tolist() == \
        [0, 3, 6, 1, 4, 7, 2, 5, 8]
    rng = np.random.default_rng(0)
    for c in range(1, 65):
        x = rng.normal(size=(1, c, 2, 2))
        for g in range(1, c + 1):
            if c % g:
                continue
            y = ChannelShuffle(g).forward(x)
            ok &= np.array_equal(ChannelShuffle(c // g).forward(y), x)
            ok &= sorted(map(tuple, x[0].reshape(c, -1))) == \
                sorted(map(tuple, y[0].reshape(c, -1)))
    verdict("4 (channel shuffle properties)", ok)


def test_5_structural_density():
    """The fused bottleneck path reaches every channel; without the fusion
    branch it stays a pure permutation. The symbolic patterns agree with a
    numeric perturbation probe on every tested instance."""
    ok = True
    for width in (8, 12, 16):
        for groups in (2, 4):
            cfg = MEModuleConfig(width * 4, width * 4,
                                 max(1, width // 4), groups)
            for include_fusion in (True, False):
                module = MEModule(cfg, rng=np.random.default_rng(0))
                symbolic = module_dependency_pattern(module, include_fusion)
                numeric = perturbation_pattern(module, include_fusion)
                ok &= np.array_equal(symbolic, numeric)
                if include_fusion:
                    ok &= bool(symbolic.all())
                else:
                    ok &= np.array_equal(symbolic,
                                         shuffle_pattern(width, groups))
    verdict("5 (structural density)", ok)


def test_6_architecture_conformance():
    ok = True
    widths = {"228-MENet-12x1": (228, 456, 912),
              "256-MENet-12x1": (256, 512, 1024),
              "352-MENet-12x1": (352, 704, 1408)}
    for notation, groups, _ in REFERENCE_MODELS:
        cfg = MENetConfig.from_notation(notation, groups=groups).validate()
        ok &= tuple(cfg.stage_width(i) for i in range(3)) == widths[notation]
        rows, _ = summarize(build_menet(cfg, seed=0))
        shapes = {r["name"]: r["output_shape"] for r in rows}
        ok &= shapes["stem.conv"][1:] == (112, 112)
        ok &= shapes["stem.pool"][1:] == (56, 56)
        ok &= shapes["stage2.0/pw2"][1:] == (28, 28)
        ok &= shapes["stage3.0/pw2"][1:] == (14, 14)
        ok &= shapes["stage4.0/pw2"][1:] == (7, 7)
        ok &= shapes["pool"][1:] == (1, 1)
    # variation grid: fusion widths, expansion factors, combine modes
    for k in (10, 12, 14, 16):
        for alpha in (1, 1.5, 2, 2.5):
            for mode in ("product", "addition"):
                try:
                    MENetConfig(residual_width=228, fusion_width=k,
                                expansion_factor=alpha, groups=3,
                                combine_mode=mode).validate()
                except ValueError:
                    ok = False
    # one built representative of the grid extremes
    build_menet(MENetConfig(residual_width=228, fusion_width=16,
                            expansion_factor=2.5, groups=3,
                            combine_mode="addition"), seed=0)
    verdict("6 (architecture conformance)", ok)


def _tiny_run(seed):
    cfg = MENetConfig(residual_width=8, fusion_width=1, groups=2,
                      stage_repeats=[1, 1, 1], stem_channels=4,
                      num_classes=2, input_size=8, stem_pool=False)
    net = build_menet(cfg, seed=1)
    data = make_synthetic_dataset(count=32, size=8, classes=2, seed=0)
    sched = Schedule(base_lr=0.05, step_epochs=30, total_epochs=30)
    opt = SGD(lr=sched.base_lr)
    history = train_loop(net, data, sched, opt, epochs=10, seed=seed,
                         batch_size=16)
    return net, history


def test_7_training_smoke():
    t0 = time.monotonic()
    _, h1 = _tiny_run(seed=0)
    _, h2 = _tiny_run(seed=0)
    ok = any(acc == 1.0 for _, _, _, acc in h1)   # 100% within the budget
    ok &= h1 == h2                                 # bit-identical histories
    elapsed = time.monotonic() - t0
    verdict("7 (training smoke test)", ok and elapsed < 300.0)


def test_8_serialization(tmp_path):
    net, _ = _tiny_run(seed=0)
    save_weights(net, tmp_path / "w")
    cfg = MENetConfig(residual_width=8, fusion_width=1, groups=2,
                      stage_repeats=[1, 1, 1], stem_channels=4,
                      num_classes=2, input_size=8, stem_pool=False)
    other = build_menet(cfg, seed=99)
    load_weights(other, tmp_path / "w")
    ok = all(np.array_equal(pa, pb)
             for (_, pa), (_, pb) in zip(net.named_params(),
                                         other.named_params()))
    for (_, a), (_, b) in zip(net.batchnorms(), other.batchnorms()):
        ok &= np.array_equal(a.running_mean, b.running_mean)
        ok &= np.array_equal(a.running_var, b.running_var)
    x = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
    ok &= np.array_equal(net.forward(x, train=False),
                         other.forward(x, train=False))

    data = make_synthetic_dataset(count=16, size=6, classes=2, seed=2)
    save_dataset(data, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    ok &= np.array_equal(back.images, data.images)
    ok &= np.array_equal(back.labels, data.labels)
    ok &= back.class_count == data.class_count
    verdict("8 (serialization round-trips)", ok)
