"""Inter-group connectivity math, structural dependency analysis and
multiply-accumulate / parameter accounting.

Connectivity reports use exact rationals so the closed-form and brute-force
paths can be compared without tolerance. Cost accounting walks a built
network symbolically (no forward pass), asking each layer for its output
shape and MACs. Only convolutions and the fully-connected head have MACs
(the "conv-fc-macs" policy, 1 MAC = 1 FLOP); batch norm, pooling,
activations and the shuffle count as free.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .layers import ChannelShuffle, Conv2d
from .me_module import MEModule
from .network import Network
from .tensor import check_groups, elementwise_combine


# ---------------------------------------------------------------------------
# inter-group connectivity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectivityReport:
    channels: int
    groups: int
    n_total: Fraction
    n_actual: Fraction
    lost_ratio: Fraction


def connectivity_formula(channels, groups):
    """Closed-form inter-group connection counts for two consecutive grouped
    layers of ``channels`` channels linked by a channel shuffle."""
    check_groups(channels, groups)
    c, g = channels, groups
    if g == 1:
        return ConnectivityReport(c, g, Fraction(0), Fraction(0), Fraction(0))
    n_total = Fraction(c * c * (g - 1), 2 * g)
    n_actual = Fraction(c * c * (g - 1), 2 * g * g)
    lost = Fraction(g - 1, g)
    return ConnectivityReport(c, g, n_total, n_actual, lost)


def connectivity_bruteforce(channels, groups):
    """Enumerate the two-layer counting construction explicitly.

    n_total: unordered channel pairs whose group indices differ, were the
    layers fully connected (pure pair enumeration). n_actual: walk every
    second-layer channel and every former-layer group; a shuffled group
    receives a C/G^2 share of channels from each former-layer group, so
    each cross-group (channel, origin) combination contributes that share.
    Shares are exact rationals; the ordered sum is halved for unordered
    pairs.

    The C/G^2 share is the construction's premise; a walk of the realized
    shuffle permutation (``connectivity_realized``) reproduces it exactly
    whenever G divides C/G, i.e. the shuffle distributes groups evenly.
    """
    check_groups(channels, groups)
    c, g = channels, groups
    n = c // g
    n_total = Fraction(sum(
        1 for i in range(c) for j in range(i + 1, c) if i // n != j // n))
    if g == 1:
        return ConnectivityReport(c, g, n_total, Fraction(0), Fraction(0))
    share = Fraction(c, g * g)  # channels received from each former group
    ordered = Fraction(0)
    for p in range(c):
        own_group = p // n
        for origin in range(g):
            if origin != own_group:
                ordered += share
    n_actual = ordered / 2
    lost = Fraction(1) - n_actual / n_total if n_total else Fraction(0)
    return ConnectivityReport(c, g, n_total, n_actual, lost)


def connectivity_realized(channels, groups):
    """Inter-group connection count under the realized shuffle permutation:
    for each second-layer channel, count the source channels in its shuffled
    group whose original group differs from the channel's own."""
    check_groups(channels, groups)
    c, g = channels, groups
    n = c // g
    n_total = connectivity_bruteforce(c, g).n_total
    if g == 1:
        return ConnectivityReport(c, g, n_total, Fraction(0), Fraction(0))
    perm = ChannelShuffle.permutation(c, g)
    ordered = 0
    for p in range(c):
        own_group = p // n
        for slot in range(own_group * n, (own_group + 1) * n):
            if perm[slot] // n != own_group:
                ordered += 1
    n_actual = Fraction(ordered, 2)
    lost = Fraction(1) - n_actual / n_total if n_total else Fraction(0)
    return ConnectivityReport(c, g, n_total, n_actual, lost)


# ---------------------------------------------------------------------------
# structural channel-dependency patterns
# ---------------------------------------------------------------------------

def grouped_conv_pattern(in_channels, out_channels, groups):
    """Boolean (out, in) matrix: output channel o reads input channel i."""
    check_groups(in_channels, groups, "in_channels")
    check_groups(out_channels, groups, "out_channels")
    block = np.ones((out_channels // groups, in_channels // groups), dtype=bool)
    return np.kron(np.eye(groups, dtype=bool), block)


def shuffle_pattern(channels, groups):
    perm = ChannelShuffle.permutation(channels, groups)
    m = np.zeros((channels, channels), dtype=bool)
    m[np.arange(channels), perm] = True
    return m


def compose(*patterns):
    """Compose dependency matrices, first-applied first."""
    out = patterns[0]
    for m in patterns[1:]:
        out = (m.astype(int) @ out.astype(int)) > 0
    return out


def module_dependency_pattern(module: MEModule, include_fusion=True,
                              through_pw2=False):
    """Dependency pattern of the bottleneck path of a module: channel
    shuffle, then depthwise conv fused (or not) with the merging/evolution
    branch, optionally continued through the second pointwise group conv."""
    b = module.cfg.bottleneck_channels
    shuf = shuffle_pattern(b, module.cfg.groups)
    dw = compose(shuf, np.eye(b, dtype=bool))
    if include_fusion:
        # merging is dense, evolution ends dense over fusion channels:
        # anything reaching the fusion branch reaches every output channel
        fusion = compose(shuf, np.ones((b, b), dtype=bool))
        pattern = dw | fusion
    else:
        pattern = dw
    if through_pw2:
        pw2 = grouped_conv_pattern(b, module.cfg.residual_out_channels,
                                   module.cfg.groups)
        pattern = compose(pattern, pw2)
    return pattern


def perturbation_pattern(module: MEModule, include_fusion=True):
    """Numeric cross-check of ``module_dependency_pattern``.

    Overwrites the module's parameters: batch norms get gamma 1, beta 0,
    running mean 0 and variance 1 (in eval mode a positive per-channel scale,
    which cancels no perturbation), convs strictly positive weights. Runs the
    bottleneck path in eval mode on a 4x4 map with each input channel raised
    by 1e-3 in turn and records which output channels change.
    """
    cfg = module.cfg
    b = cfg.bottleneck_channels
    for _, bn in module.batchnorms():
        bn.params["gamma"][...] = 1.0
        bn.params["beta"][...] = 0.0
        bn.running_mean = np.zeros(bn.channels)
        bn.running_var = np.ones(bn.channels)
    for layer in module.named_layers().values():
        if isinstance(layer, Conv2d):
            w = np.abs(layer.params["weight"]) + 0.05
            # keep pre-activations O(1) so the sigmoid stays responsive
            fan_in = w.shape[1] * w.shape[2] * w.shape[3]
            layer.params["weight"][...] = w / fan_in

    def path(x):
        s = module.shuffle.forward(x)
        d = module.depthwise.forward(s)
        if not include_fusion:
            return d
        return elementwise_combine(d, module.fusion.forward(s),
                                   cfg.combine_mode)

    rng = np.random.default_rng(7)
    x = np.abs(rng.normal(1.0, 0.2, size=(1, b, 4, 4)))
    base = path(x)
    pattern = np.zeros((b, b), dtype=bool)
    for i in range(b):
        xp = x.copy()
        xp[:, i] += 1e-3
        diff = np.abs(path(xp) - base).max(axis=(0, 2, 3))
        pattern[:, i] = diff > 0
    return pattern


# ---------------------------------------------------------------------------
# cost accounting
# ---------------------------------------------------------------------------

@dataclass
class CostEntry:
    name: str
    output_shape: tuple
    macs: int
    params: int


@dataclass
class CostReport:
    entries: list = field(default_factory=list)

    @property
    def total_macs(self):
        return sum(e.macs for e in self.entries)

    @property
    def total_params(self):
        return sum(e.params for e in self.entries)


def count_cost(net: Network, input_shape=None) -> CostReport:
    """Per-layer MAC and parameter counts via symbolic shape propagation,
    for a (c, h, w) input (default: the network's own input size)."""
    if input_shape is None:
        input_shape = (net.in_channels, net.input_size, net.input_size)
    report = CostReport()
    for name, layer, shape in net.layer_shapes(tuple(input_shape)):
        report.entries.append(CostEntry(
            name, layer.out_shape(shape), layer.macs(shape),
            sum(p.size for p in layer.params.values())))
    return report
