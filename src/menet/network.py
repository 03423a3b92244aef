"""Ordered layer-graph container shared by the builder, trainer and CLI."""

from .layers import Chain, Composite


class Network(Chain):
    """A named, ordered sequence of layers and modules.

    Forward feeds each item's output into the next; backward runs the chain
    in reverse. Layer paths are ``<item>/<path>`` (``stage2.0/merge.conv``);
    parameter names read the ``/`` as ``.``.

    An eval forward keeps no backward state: as each item returns (a folded
    conv and batch norm count as one), its cache and the caches of every
    layer inside it are cleared, so a backward after it raises
    ``RuntimeError``. A train forward caches everything again, and each
    cache lives until the backward that reads it: a step's earlier caches
    are freed as its gradient arrays appear, and a second backward raises.
    """

    sep = "/"

    def __init__(self, items, in_channels, input_size, num_classes):
        super().__init__(*items)
        self.items = self.steps
        self.in_channels = in_channels
        self.input_size = input_size
        self.num_classes = num_classes

    def _eval_ran(self, steps):
        for step in steps:
            step._cache = None
            if isinstance(step, Composite):
                for _, layer in step.all_layers():
                    layer._cache = None

    def named_params(self):
        return self.params.items()

    def param_dict(self):
        return self.params

