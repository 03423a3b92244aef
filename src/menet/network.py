"""Ordered layer-graph container shared by the builder, trainer and CLI."""

from .layers import Chain


class Network(Chain):
    """A named, ordered sequence of layers and modules.

    Forward feeds each item's output into the next; backward runs the chain
    in reverse. Layer paths are ``<item>/<path>`` (``stage2.0/merge.conv``);
    parameter names read the ``/`` as ``.``.

    A backward pairs with the last forward: an eval forward leaves no
    layer or module a cache (each batch norm here is folded into its conv),
    so a backward after it raises ``RuntimeError``; a train cache lives
    until the backward that reads it, and a second backward raises.
    """

    sep = "/"

    def __init__(self, items, in_channels, input_size, num_classes):
        super().__init__(*items)
        self.items = self.steps
        self.in_channels = in_channels
        self.input_size = input_size
        self.num_classes = num_classes

    def named_params(self):
        return self.params.items()

    def param_dict(self):
        return self.params

