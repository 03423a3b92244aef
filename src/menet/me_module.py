"""Merging/evolution operations and the three-branch module built on them.

The module is a residual-style block with an identity branch, a bottleneck
residual branch (pointwise group conv -> channel shuffle -> 3x3 depthwise
conv -> pointwise group conv) and a fusion branch. The fusion branch taps
the post-shuffle bottleneck map, compresses it to a narrow feature map with
a dense pointwise conv (merging), expands spatial context with a 3x3 conv
and maps back to bottleneck width ending in a sigmoid gate (evolution), and
is combined with the depthwise output right before the second pointwise
group conv.

Activation placement follows the shuffle-unit convention: ReLU after the
first pointwise+BN, none after the depthwise+BN, none after the second
pointwise+BN, and a final ReLU after the add/concat.

The module holds four layer chains: ``trunk`` (pw1, bn1, relu1, shuffle),
``depthwise`` (dw, bn_dw), ``fusion`` (merging, evolution) and ``project``
(pw2, bn2). Forward, backward, shapes and the archive order read them; only
the elementwise combine and the skip are written out by hand.
"""

from dataclasses import dataclass

from .tensor import check_groups, concat_channels, elementwise_combine
from .layers import (
    AvgPool3x3s2,
    BatchNorm2d,
    Chain,
    ChannelShuffle,
    Composite,
    Conv2d,
    ReLU,
    Sigmoid,
)

COMBINE_MODES = ("product", "addition")


@dataclass
class MEModuleConfig:
    in_channels: int
    out_channels: int
    fusion_channels: int
    groups: int
    downsample: bool = False
    first_pointwise_grouped: bool = True
    combine_mode: str = "product"

    @property
    def bottleneck_channels(self):
        return self.out_channels // 4

    @property
    def residual_out_channels(self):
        if self.downsample:
            return self.out_channels - self.in_channels
        return self.out_channels

    def validate(self):
        c = self
        b = c.out_channels // 4
        rules = [
            (c.out_channels % 4 == 0,
             "bottleneck rule: out_channels must be divisible by 4"),
            (c.fusion_channels >= 1, "fusion_channels must be >= 1"),
            (c.fusion_channels <= b,
             "fusion_channels must not exceed bottleneck width"),
            (c.combine_mode in COMBINE_MODES,
             f"combine_mode must be one of {COMBINE_MODES}"),
        ]
        if c.downsample:
            rules.append((c.out_channels > c.in_channels,
                          "downsampling module needs out_channels > in_channels"))
        else:
            rules.append((c.in_channels == c.out_channels,
                          "standard module needs in_channels == out_channels "
                          "for the identity skip"))
        for ok, msg in rules:
            if not ok:
                raise ValueError(f"invalid module config: {msg}")
        # the shuffle and second pointwise split the bottleneck into groups
        check_groups(b, c.groups, "bottleneck width")
        if c.first_pointwise_grouped:
            check_groups(c.in_channels, c.groups, "in_channels")
        check_groups(c.residual_out_channels, c.groups, "residual output width")
        return self


class MergingOp(Chain):
    """Dense pointwise compression of C channels into a narrow map:
    1x1 conv -> BN -> ReLU."""

    def __init__(self, in_channels, fusion_channels, rng=None):
        if fusion_channels < 1 or fusion_channels > in_channels:
            raise ValueError(
                f"fusion width must be in [1, {in_channels}], got {fusion_channels}"
            )
        self.conv = Conv2d(in_channels, fusion_channels, 1, rng=rng)
        self.bn = BatchNorm2d(fusion_channels)
        self.relu = ReLU()
        super().__init__(("conv", self.conv), ("bn", self.bn),
                         ("relu", self.relu))


class EvolutionOp(Chain):
    """3x3 spatial transform plus channel-matching pointwise transform:
    3x3 conv -> BN -> ReLU -> 1x1 conv -> BN -> sigmoid.

    In product mode the matching transform ends in a sigmoid gate; in
    addition mode the sigmoid is removed and the output ends at BN.
    """

    def __init__(self, fusion_channels, match_channels, stride=1,
                 combine_mode="product", rng=None):
        if combine_mode not in COMBINE_MODES:
            raise ValueError(f"combine_mode must be one of {COMBINE_MODES}, "
                             f"got {combine_mode!r}")
        self.conv_e = Conv2d(fusion_channels, fusion_channels, 3, stride=stride,
                             rng=rng)
        self.bn_e = BatchNorm2d(fusion_channels)
        self.relu_e = ReLU()
        self.conv_m = Conv2d(fusion_channels, match_channels, 1, rng=rng)
        self.bn_m = BatchNorm2d(match_channels)
        super().__init__(("conv_e", self.conv_e), ("bn_e", self.bn_e),
                         ("relu_e", self.relu_e), ("conv_m", self.conv_m),
                         ("bn_m", self.bn_m))
        self.sigmoid = None
        if combine_mode == "product":
            self.sigmoid = Sigmoid()
            self.steps.append(("sigmoid", self.sigmoid))


class MEModule(Composite):
    """Standard or downsampling merging-and-evolution block."""

    def __init__(self, cfg: MEModuleConfig, rng=None):
        cfg.validate()
        self.cfg = cfg
        b = cfg.bottleneck_channels
        stride = 2 if cfg.downsample else 1
        g1 = cfg.groups if cfg.first_pointwise_grouped else 1
        self.pw1 = Conv2d(cfg.in_channels, b, 1, groups=g1, rng=rng)
        self.bn1 = BatchNorm2d(b)
        self.relu1 = ReLU()
        self.shuffle = ChannelShuffle(cfg.groups)
        self.dw = Conv2d(b, b, 3, stride=stride, groups=b, rng=rng)
        self.bn_dw = BatchNorm2d(b)
        self.merging = MergingOp(b, cfg.fusion_channels, rng=rng)
        self.evolution = EvolutionOp(cfg.fusion_channels, b, stride=stride,
                                     combine_mode=cfg.combine_mode, rng=rng)
        self.pw2 = Conv2d(b, cfg.residual_out_channels, 1, groups=cfg.groups,
                          rng=rng)
        self.bn2 = BatchNorm2d(cfg.residual_out_channels)
        self.identity_pool = AvgPool3x3s2() if cfg.downsample else None
        self.relu_final = ReLU()
        self.trunk = Chain(("pw1", self.pw1), ("bn1", self.bn1),
                           ("relu1", self.relu1), ("shuffle", self.shuffle))
        self.depthwise = Chain(("dw", self.dw), ("bn_dw", self.bn_dw))
        self.fusion = Chain(("merge", self.merging), ("evo", self.evolution))
        self.project = Chain(("pw2", self.pw2), ("bn2", self.bn2))
        self._cache = None

    def named_layers(self):
        return {name: layer
                for chain in (self.trunk, self.depthwise, self.project,
                              self.fusion)
                for name, layer in chain.named_layers().items()}

    def layer_shapes(self, shape):
        """Rows of (name, layer, input shape) for every named layer, fusion
        branch first, and the module's output shape, for a (c, h, w) input."""
        rows, s = self.trunk.layer_shapes(shape)
        rows += self.fusion.layer_shapes(s)[0]
        dw_rows, d = self.depthwise.layer_shapes(s)
        project_rows, res = self.project.layer_shapes(d)
        rows += dw_rows + project_rows
        if not self.cfg.downsample:
            return rows, res
        ident = self.identity_pool.out_shape(shape)
        return rows, (ident[0] + res[0],) + res[1:]

    def forward(self, x, train=False):
        cfg = self.cfg
        s = self.trunk.forward(x, train)
        d = self.depthwise.forward(s, train)
        f = self.fusion.forward(s, train)
        res = self.project.forward(
            elementwise_combine(d, f, cfg.combine_mode), train)
        if cfg.downsample:
            out = concat_channels(self.identity_pool.forward(x, train), res)
        else:
            out = x + res
        self._cache = (d, f)
        return self.relu_final.forward(out, train)

    def backward(self, grad_out):
        if self._cache is None:
            raise RuntimeError("module backward called without a cached forward")
        d, f = self._cache
        cfg = self.cfg
        g = self.relu_final.backward(grad_out)
        if cfg.downsample:
            grad_x = self.identity_pool.backward(g[:, :cfg.in_channels])
            g = g[:, cfg.in_channels:]
        else:
            grad_x = g.copy()
        gc = self.project.backward(g)
        if cfg.combine_mode == "product":
            g_d, g_f = gc * f, gc * d
        else:
            g_d = g_f = gc
        g_s = self.depthwise.backward(g_d) + self.fusion.backward(g_f)
        grad_x += self.trunk.backward(g_s)
        return grad_x
