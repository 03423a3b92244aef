"""Span tracing from outside the package.

A :class:`Tracer` wraps callables that the benchmark hands it: bound
methods of layer objects (patched on the instance, so the class is never
touched) and functions looked up through a module attribute (patched on the
module). Each call records one span: name, start, end, parent span and the
op it belongs to. Spans stay in memory; :meth:`Tracer.arrays` turns them
into columns when the run ends. :meth:`Tracer.restore` undoes every patch,
and must run before any untraced timing.
"""

from time import perf_counter

import numpy as np

from menet.layers import (
    AvgPool3x3s2,
    BatchNorm2d,
    ChannelShuffle,
    Conv2d,
    GlobalAvgPool,
    Layer,
    Linear,
    MaxPool3x3s2,
    ReLU,
    Sigmoid,
)
from menet.me_module import EvolutionOp, MEModule, MergingOp

KINDS = ("conv_pw_grouped", "conv_pw_dense", "conv_dw", "conv_3x3", "bn",
         "relu", "sigmoid", "shuffle", "maxpool", "avgpool", "gap", "linear")
MAC_KINDS = ("conv_pw_grouped", "conv_pw_dense", "conv_dw", "conv_3x3",
             "linear")

_KIND_OF_CLASS = {BatchNorm2d: "bn", ReLU: "relu", Sigmoid: "sigmoid",
                  ChannelShuffle: "shuffle", MaxPool3x3s2: "maxpool",
                  AvgPool3x3s2: "avgpool", GlobalAvgPool: "gap",
                  Linear: "linear"}

# MEModule attribute -> prefix used by MEModule.named_layers() and count_cost
_SUB_PREFIX = {"merging": "merge", "evolution": "evo"}


def layer_kind(layer):
    """Kind name of a layer object, one of ``KINDS``."""
    if isinstance(layer, Conv2d):
        if layer.depthwise:
            return "conv_dw"
        if layer.kernel == 3:
            return "conv_3x3"
        return "conv_pw_grouped" if layer.groups > 1 else "conv_pw_dense"
    return _KIND_OF_CLASS[type(layer)]


def module_parts(name, module):
    """Yield (path, object) for an MEModule and everything inside it.

    Paths match ``count_cost`` entry names: ``stage2.0/pw1``,
    ``stage2.0/merge.conv``, ``stage2.0/evo.conv_m``. Layers that
    ``named_layers`` leaves out (ReLUs, shuffle, identity pool, sigmoid)
    get the attribute name the module stores them under.
    """
    for attr, obj in vars(module).items():
        if isinstance(obj, Layer):
            yield f"{name}/{attr}", obj
        elif isinstance(obj, (MergingOp, EvolutionOp)):
            prefix = _SUB_PREFIX[attr]
            yield f"{name}/{prefix}", obj
            for sub, layer in vars(obj).items():
                if isinstance(layer, Layer):
                    yield f"{name}/{prefix}.{sub}", layer


class Tracer:
    """In-memory span recorder that patches callables and restores them."""

    def __init__(self):
        self.meta = []          # per span key: dict(category, name, ...)
        self._key_ids = {}
        self.key = []           # per span: index into meta
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.current_op = -1    # -1 while setting up or warming up
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _key(self, name, category, **extra):
        k = self._key_ids.get(name)
        if k is None:
            k = self._key_ids[name] = len(self.meta)
            self.meta.append(dict(name=name, category=category, **extra))
        return k

    def _wrap(self, fn, key):
        key_list, start, end, parent, op = (
            self.key, self.start, self.end, self.parent, self.op)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            key_list.append(key)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, category, **extra):
        """Replace ``owner.attr`` with a traced wrapper."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        key = self._key(name, category, **extra)
        setattr(owner, attr, self._wrap(original, key))
        self._patches.append((owner, attr, own, original))

    def restore(self):
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- what to wrap ------------------------------------------------------

    def instrument_layer(self, path, layer):
        kind = layer_kind(layer)
        for direction in ("forward", "backward"):
            self.patch(layer, direction, f"{path}:{direction}", "layer",
                       kind=kind, instance=path, direction=direction)

    def instrument_network(self, net):
        """Wrap a Network's own calls, its items and everything inside
        each MEModule."""
        for method in ("forward", "backward", "zero_grad"):
            self.patch(net, method, f"network:{method}", "network",
                       method=method)
        for name, item in net.items:
            if not isinstance(item, MEModule):
                self.instrument_layer(name, item)
                continue
            for direction in ("forward", "backward"):
                self.patch(item, direction, f"{name}:{direction}",
                           "me_module", instance=name)
            for path, obj in module_parts(name, item):
                if isinstance(obj, Layer):
                    self.instrument_layer(path, obj)
                else:
                    category = type(obj).__name__
                    for direction in ("forward", "backward"):
                        self.patch(obj, direction, f"{path}:{direction}",
                                   category, instance=path)

    # -- results -----------------------------------------------------------

    def arrays(self):
        """Span columns plus derived duration and self time (seconds)."""
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return {"key": np.asarray(self.key, dtype=np.int64),
                "start": start, "end": end, "parent": parent,
                "op": np.asarray(self.op, dtype=np.int64),
                "dur": dur, "self": dur - child}
