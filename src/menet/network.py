"""Ordered layer-graph container shared by the builder, trainer and CLI."""

from .layers import Chain
from .me_module import MEModule


class Network(Chain):
    """A named, ordered sequence of layers and modules.

    Forward feeds each item's output into the next; backward runs the chain
    in reverse. Parameter names are ``<item>.<param>`` (modules add their own
    sub-layer prefix).
    """

    def __init__(self, items, in_channels, input_size, num_classes):
        self.items = list(items)
        self.in_channels = in_channels
        self.input_size = input_size
        self.num_classes = num_classes

    @property
    def steps(self):
        return self.items

    def named_params(self):
        return self.params.items()

    def named_grads(self):
        return self.grads.items()

    def param_dict(self):
        return self.params

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
