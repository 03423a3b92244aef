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

Merging and evolution are layer chains; the module wires its three branches
by hand and names its layers in weight-archive order (``named_layers``).
"""

from dataclasses import dataclass

from .tensor import concat_channels, elementwise_combine
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
            (c.groups >= 1, "groups must be >= 1"),
            (b % c.groups == 0,
             f"bottleneck width {b} not divisible by groups={c.groups} "
             "(channel shuffle / second pointwise)"),
            (c.combine_mode in COMBINE_MODES,
             f"combine_mode must be one of {COMBINE_MODES}"),
        ]
        if c.first_pointwise_grouped:
            rules.append((
                c.in_channels % c.groups == 0,
                f"in_channels {c.in_channels} not divisible by groups="
                f"{c.groups} (grouped first pointwise)"))
        if c.downsample:
            rules.append((c.out_channels > c.in_channels,
                          "downsampling module needs out_channels > in_channels"))
        rules.append((
            c.residual_out_channels % c.groups == 0,
            f"residual output width {c.residual_out_channels} not divisible "
            f"by groups={c.groups}"))
        if not c.downsample:
            rules.append((c.in_channels == c.out_channels,
                          "standard module needs in_channels == out_channels "
                          "for the identity skip"))
        for ok, msg in rules:
            if not ok:
                raise ValueError(f"invalid module config: {msg}")
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
        self.steps = [("conv", self.conv), ("bn", self.bn),
                      ("relu", self.relu)]


class EvolutionOp(Chain):
    """3x3 spatial transform plus channel-matching pointwise transform:
    3x3 conv -> BN -> ReLU -> 1x1 conv -> BN -> sigmoid.

    In product mode the matching transform ends in a sigmoid gate; in
    addition mode the sigmoid is removed and the output ends at BN.
    """

    def __init__(self, fusion_channels, match_channels, stride=1,
                 combine_mode="product", rng=None):
        self.conv_e = Conv2d(fusion_channels, fusion_channels, 3, stride=stride,
                             rng=rng)
        self.bn_e = BatchNorm2d(fusion_channels)
        self.relu_e = ReLU()
        self.conv_m = Conv2d(fusion_channels, match_channels, 1, rng=rng)
        self.bn_m = BatchNorm2d(match_channels)
        self.steps = [("conv_e", self.conv_e), ("bn_e", self.bn_e),
                      ("relu_e", self.relu_e), ("conv_m", self.conv_m),
                      ("bn_m", self.bn_m)]
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
        self.dw = Conv2d(b, b, 3, stride=stride, groups=b, depthwise=True,
                         rng=rng)
        self.bn_dw = BatchNorm2d(b)
        self.merging = MergingOp(b, cfg.fusion_channels, rng=rng)
        self.evolution = EvolutionOp(cfg.fusion_channels, b, stride=stride,
                                     combine_mode=cfg.combine_mode, rng=rng)
        self.pw2 = Conv2d(b, cfg.residual_out_channels, 1, groups=cfg.groups,
                          rng=rng)
        self.bn2 = BatchNorm2d(cfg.residual_out_channels)
        self.identity_pool = AvgPool3x3s2() if cfg.downsample else None
        self.relu_final = ReLU()
        self._cache = None

    def named_layers(self):
        return {"pw1": self.pw1, "bn1": self.bn1, "dw": self.dw,
                "bn_dw": self.bn_dw, "pw2": self.pw2, "bn2": self.bn2,
                **self.merging.prefixed_layers("merge"),
                **self.evolution.prefixed_layers("evo")}

    def layer_shapes(self, shape):
        """Rows of (name, layer, input shape) for every named layer in
        dataflow order, and the module's output shape, for a (c, h, w)
        input. No forward pass runs; ReLUs, the shuffle and the sigmoid
        keep the shape."""
        layers = self.named_layers()
        rows = []

        def chain(names, s):
            for name in names:
                rows.append((name, layers[name], s))
                s = layers[name].out_shape(s)
            return s

        s = chain(["pw1", "bn1"], shape)
        chain([name for name in layers if "." in name], s)  # merge.*, evo.*
        res = chain(["dw", "bn_dw", "pw2", "bn2"], s)
        if not self.cfg.downsample:
            return rows, res
        ident = self.identity_pool.out_shape(shape)
        return rows, (ident[0] + res[0],) + res[1:]

    def forward(self, x, train=False):
        cfg = self.cfg
        r = self.relu1.forward(
            self.bn1.forward(self.pw1.forward(x, train), train), train)
        s = self.shuffle.forward(r, train)
        d = self.bn_dw.forward(self.dw.forward(s, train), train)
        f = self.evolution.forward(self.merging.forward(s, train), train)
        comb = elementwise_combine(d, f, cfg.combine_mode)
        res = self.bn2.forward(self.pw2.forward(comb, train), train)
        if cfg.downsample:
            ident = self.identity_pool.forward(x, train)
            out = self.relu_final.forward(concat_channels(ident, res), train)
        else:
            out = self.relu_final.forward(x + res, train)
        self._cache = (d, f)
        return out

    def backward(self, grad_out):
        if self._cache is None:
            raise RuntimeError("module backward called without a cached forward")
        d, f = self._cache
        cfg = self.cfg
        g = self.relu_final.backward(grad_out)
        if cfg.downsample:
            g_ident = g[:, :cfg.in_channels]
            g_res = g[:, cfg.in_channels:]
            grad_x = self.identity_pool.backward(g_ident)
        else:
            g_res = g
            grad_x = g.copy()
        gc = self.pw2.backward(self.bn2.backward(g_res))
        if cfg.combine_mode == "product":
            g_d = gc * f
            g_f = gc * d
        else:
            g_d = gc
            g_f = gc
        g_s = (self.dw.backward(self.bn_dw.backward(g_d))
               + self.merging.backward(self.evolution.backward(g_f)))
        g_r = self.shuffle.backward(g_s)
        grad_x += self.pw1.backward(
            self.bn1.backward(self.relu1.backward(g_r)))
        return grad_x
