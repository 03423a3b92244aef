"""Ordered layer-graph container shared by the builder, trainer and CLI."""

from .layers import BatchNorm2d
from .me_module import MEModule


class Network:
    """A named, ordered sequence of layers and modules.

    Forward feeds each item's output into the next; backward runs the chain
    in reverse. Parameter names are ``<item>.<param>`` (modules add their own
    sub-layer prefix).
    """

    def __init__(self, items, in_channels, input_size, num_classes, config=None):
        self.items = list(items)
        self.in_channels = in_channels
        self.input_size = input_size
        self.num_classes = num_classes
        self.config = config

    def __iter__(self):
        return iter(self.items)

    def forward(self, x, train=False):
        for _, item in self.items:
            x = item.forward(x, train)
        return x

    def backward(self, grad_out):
        g = grad_out
        for _, item in reversed(self.items):
            g = item.backward(g)
        return g

    def named_params(self):
        for name, item in self.items:
            for pn, p in item.params.items():
                yield f"{name}.{pn}", p

    def named_grads(self):
        for name, item in self.items:
            for pn, g in item.grads.items():
                yield f"{name}.{pn}", g

    def param_dict(self):
        return dict(self.named_params())

    def zero_grad(self):
        for _, item in self.items:
            item.zero_grad()

    def layer_shapes(self, shape):
        """Yield (name, layer, input shape) for every layer, a module's
        named layers as ``<module>/<layer>``, from a (c, h, w) input."""
        for name, item in self.items:
            if isinstance(item, MEModule):
                rows, shape = item.layer_shapes(shape)
                for ln, layer, in_shape in rows:
                    yield f"{name}/{ln}", layer, in_shape
            else:
                yield name, item, shape
                shape = item.out_shape(shape)

    def batchnorms(self):
        for name, item in self.items:
            if isinstance(item, BatchNorm2d):
                yield name, item
            elif isinstance(item, MEModule):
                for ln, layer in item.named_layers().items():
                    if isinstance(layer, BatchNorm2d):
                        yield f"{name}.{ln}", layer
