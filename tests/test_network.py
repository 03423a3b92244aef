"""The network's layer walk, what an eval forward keeps, how long a train
cache lives, and when gradient arrays exist."""

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
        assert names == [path for path, _ in net.all_layers()]
        walk = dict(net.all_layers())
        for name, layer, _ in net.walk(
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
    def test_second_forward_holds_and_peaks_little(self, traced):
        # with every layer's cache kept, this forward held 2.71 MiB once it
        # returned and peaked 3.32 MiB above its start; released, 0.00 and 0.67
        net, x = small_228_net()
        first = net.forward(x, train=False)
        out, held, peak = traced(lambda: net.forward(x, train=False))
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


def small_228_train_step(net, x):
    out = net.forward(x, train=True)
    return net.backward(np.ones_like(out))


class TestTrainCachesEndAtBackward:
    def test_step_leaves_no_cache(self):
        net, x = small_228_net()
        small_228_train_step(net, np.concatenate([x, x[:, :, ::-1]]))
        for path, layer in net.all_layers():
            assert layer._cache is None, path
        modules = [m for _, m in net.items if isinstance(m, MEModule)]
        assert modules
        assert all(m._cache is None for m in modules)

    def test_step_holds_only_its_gradients(self, traced):
        # with every forward cache kept until the next forward, this step
        # held 10.1 MiB beyond its gradient arrays and input gradient;
        # taken by each backward, 0.30 MiB, 0.02 of it the padded map the
        # input gradient was a view of; owning its memory, 0.29 MiB: the
        # new running statistics
        net, x = small_228_net()
        x = np.concatenate([x, x[:, :, ::-1]])
        small_228_train_step(net, x)
        net.zero_grad()
        grad_x, held, _ = traced(lambda: small_228_train_step(net, x))
        grad_bytes = sum(p.nbytes for p in net.params.values())
        assert held < grad_bytes + grad_x.nbytes + 0.35 * MiB

    def test_second_backward_raises(self):
        net, x = module_net_and_input()
        module = net.items[0][1]
        out = module.forward(x, train=True)
        module.backward(np.ones_like(out))
        with pytest.raises(RuntimeError, match="module backward called "
                                               "without a cached forward"):
            module.backward(np.ones_like(out))
        net, x = small_228_net()
        small_228_train_step(net, np.concatenate([x, x[:, :, ::-1]]))
        with pytest.raises(RuntimeError, match="Linear.backward called "
                                               "without a cached forward"):
            net.backward(np.ones((2, net.num_classes)))


def module_net_and_input():
    net = tiny_module_net("product", False)
    return net, np.random.default_rng(3).normal(size=(2, 8, 5, 5))


def grads_after_backward(net, x):
    out = net.forward(x, train=True)
    net.backward(np.random.default_rng(4).normal(size=out.shape))
    return {name: g.copy() for name, g in net.grads.items()}


class TestGradientsOnFirstUse:
    def test_built_net_holds_no_gradient(self, traced):
        # with a zero gradient next to every parameter, this build held
        # 28.8 MiB for 13.8 MiB of parameters
        cfg = MENetConfig.from_notation("228-MENet-12x1", groups=3)
        net, held, _ = traced(lambda: build_menet(cfg, seed=0))
        assert all(not layer.grads for _, layer in net.all_layers())
        param_bytes = sum(p.nbytes for p in net.params.values())
        assert held < 1.1 * param_bytes

    def test_unwritten_gradients_read_as_zeros(self):
        net, _ = module_net_and_input()
        grads, params = net.grads, net.params
        assert list(grads) == list(params)
        for name, p in params.items():
            g = grads[name]
            assert g.shape == p.shape and g.dtype == p.dtype, name
            assert not g.any(), name

    def test_backward_accumulates_from_zero(self):
        net, x = module_net_and_input()
        ref, _ = module_net_and_input()
        for _, layer in ref.all_layers():   # zeros in place before backward
            for key, p in layer.params.items():
                layer.grads[key] = np.zeros_like(p)
        first = grads_after_backward(net, x)
        want = grads_after_backward(ref, x)
        assert first.keys() == want.keys()
        for name, g in first.items():
            assert g.any() and g.tobytes() == want[name].tobytes(), name
        twice = grads_after_backward(net, x)
        for name, g in twice.items():
            assert g.tobytes() == (first[name] + first[name]).tobytes(), name

    def test_zero_grad_drops_every_array(self):
        net, x = module_net_and_input()
        grads_after_backward(net, x)
        assert any(layer.grads for _, layer in net.all_layers())
        net.zero_grad()
        assert all(not layer.grads for _, layer in net.all_layers())
        assert not any(g.any() for g in net.grads.values())
