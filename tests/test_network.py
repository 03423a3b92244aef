"""The network's layer walk and what an eval forward keeps."""

import tracemalloc

import numpy as np
import pytest

from menet.analysis import count_cost
from menet.builder import MENetConfig, build_menet
from menet.layers import Composite, Layer
from menet.me_module import MEModule, MEModuleConfig
from menet.network import Network

REFERENCE_MODELS = [("228-MENet-12x1", 3), ("256-MENet-12x1", 4),
                    ("352-MENet-12x1", 8)]
MiB = 2 ** 20


def reference_net(notation, groups):
    return build_menet(MENetConfig.from_notation(notation, groups=groups),
                       seed=0)


def tiny_module_net(mode, down):
    """One of the four gradcheck-sized modules (8 channels, g=2, 5x5) alone
    in a one-item network."""
    rng = np.random.default_rng(0)
    if down:
        cfg = MEModuleConfig(4, 8, 2, 2, downsample=True, combine_mode=mode)
    else:
        cfg = MEModuleConfig(8, 8, 2, 2, combine_mode=mode)
    return Network([(f"{mode}-s{2 if down else 1}", MEModule(cfg, rng=rng))],
                   cfg.in_channels, 5, cfg.out_channels)


NETS = ([pytest.param(lambda m=m, g=g: reference_net(m, g), id=f"{m}-g{g}")
         for m, g in REFERENCE_MODELS]
        + [pytest.param(lambda m=m, d=d: tiny_module_net(m, d),
                        id=f"{m}-s{2 if d else 1}")
           for m in ("product", "addition") for d in (False, True)])


def reachable_layers(root):
    """Every ``Layer`` object reachable from ``root`` through the attributes
    of composites and the lists, tuples and dicts they hold, by id."""
    found, seen, todo = {}, set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Layer):
            found[id(obj)] = obj
        elif isinstance(obj, Composite):
            todo.extend(vars(obj).values())
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
    return found


class TestAllLayers:
    @pytest.mark.parametrize("make", NETS)
    def test_every_reachable_layer_once(self, make):
        net = make()
        walk = list(net.all_layers())
        ids = [id(layer) for _, layer in walk]
        assert len(set(ids)) == len(ids)
        assert len({path for path, _ in walk}) == len(walk)
        assert set(ids) == set(reachable_layers(net))

    @pytest.mark.parametrize("make", NETS)
    def test_cost_entries_in_cost_order(self, make):
        net = make()
        names = [e.name for e in count_cost(net).entries]
        walk = dict(net.all_layers())
        assert [p for p in walk if p in set(names)] == names
        for name, layer, _ in net.layer_shapes(
                (net.in_channels, net.input_size, net.input_size)):
            assert walk[name] is layer, name

    def test_module_paths(self):
        module = tiny_module_net("product", True).items[0][1]
        assert [p for p, _ in module.all_layers()] == [
            "pw1", "bn1", "relu1", "shuffle",
            "merge.conv", "merge.bn", "merge.relu",
            "evo.conv_e", "evo.bn_e", "evo.relu_e", "evo.conv_m", "evo.bn_m",
            "evo.sigmoid", "dw", "bn_dw", "pw2", "bn2", "identity_pool",
            "relu_final"]


def small_228_net():
    cfg = MENetConfig.from_notation("228-MENet-12x1", groups=3,
                                    num_classes=10, input_size=64)
    x = np.random.default_rng(15).normal(size=(1, 3, 64, 64))
    return build_menet(cfg, seed=0), x


class TestEvalForwardKeepsNothing:
    def test_second_forward_holds_and_peaks_little(self):
        # with every layer's cache kept, this forward held 2.71 MiB once it
        # returned and peaked 3.32 MiB above its start; released, 0.00 and 0.67
        net, x = small_228_net()
        first = net.forward(x, train=False)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = net.forward(x, train=False)
            held, peak = (v - start for v in tracemalloc.get_traced_memory())
        finally:
            if not tracing:
                tracemalloc.stop()
        assert np.array_equal(out, first)
        assert held < 0.1 * MiB
        assert peak < 1.5 * MiB

    def test_backward_after_eval_forward_raises(self):
        net, x = small_228_net()
        out = net.forward(x, train=False)
        with pytest.raises(RuntimeError,
                           match="called without a cached forward"):
            net.backward(np.ones_like(out))

    def test_train_forward_caches_again(self):
        net, x = small_228_net()
        x = np.concatenate([x, x[:, :, ::-1]])
        net.forward(x, train=False)
        out = net.forward(x, train=True)
        grad_x = net.backward(np.ones_like(out))
        assert grad_x.shape == x.shape and np.isfinite(grad_x).all()
