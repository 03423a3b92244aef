"""Architecture builder: hyper-parameters or "w-MENet-kxa" notation in,
validated network out.

The network begins with a 3x3 stride-2 stem conv (BN + ReLU) and a 3x3
stride-2 max pool, followed by three stages of modules; each stage opens
with a downsampling module and keeps its width, which doubles stage to
stage. Bottleneck width is a quarter of the module output width and the
fusion width of stage i is round(alpha^(i-2) * k), floored at 1.
"""

import math
import numbers
import re
from dataclasses import dataclass, field

import numpy as np

from .layers import BatchNorm2d, Conv2d, GlobalAvgPool, Linear, MaxPool3x3s2, ReLU
from .me_module import MEModule, MEModuleConfig
from .network import Network
from .tensor import check_count

NOTATION_RE = re.compile(r"^(\d+)-MENet-(\d+)[x×](\d+(?:\.\d+)?)$")


def parse_notation(s):
    """Parse "w-MENet-kxa" (ASCII x or the multiplication sign) into
    (residual_width, fusion_width, expansion_factor)."""
    m = NOTATION_RE.match(s)
    if m is None:
        raise ValueError(f"malformed model notation {s!r} (expected "
                         f"'<w>-MENet-<k>x<alpha>'), first mismatch at "
                         f"position {_mismatch_pos(s)}")
    w, k, alpha = int(m.group(1)), int(m.group(2)), float(m.group(3))
    return w, k, alpha


def _mismatch_pos(s):
    # longest prefix of s that is still a prefix of some valid notation
    partial = re.compile(r"^\d+(-(M(E(N(e(t(-(\d+([x×](\d+(\.\d*)?)?)?)?)?)?)?)?)?)?)?")
    m = partial.match(s)
    return m.end() if m else 0


def format_notation(w, k, alpha):
    a = int(alpha) if float(alpha).is_integer() else alpha
    return f"{w}-MENet-{k}x{a}"


def fusion_width_at_stage(k, alpha, stage_index):
    """Fusion width for stage ``stage_index`` (0 = stage 2): round to the
    nearest integer, ties up, floored at 1."""
    return max(1, int(np.floor(alpha ** stage_index * k + 0.5)))


@dataclass
class MENetConfig:
    residual_width: int
    fusion_width: int
    expansion_factor: float = 1.0
    groups: int = 3
    stage_repeats: list = field(default_factory=lambda: [4, 8, 4])
    num_classes: int = 1000
    input_size: int = 224
    stem_channels: int = 24
    combine_mode: str = "product"
    stem_pool: bool = True

    @classmethod
    def from_notation(cls, s, **kwargs):
        w, k, alpha = parse_notation(s)
        return cls(residual_width=w, fusion_width=k, expansion_factor=alpha,
                   **kwargs)

    def notation(self):
        return format_notation(self.residual_width, self.fusion_width,
                               self.expansion_factor)

    def stage_width(self, stage_index):
        return self.residual_width * (2 ** stage_index)

    def module_configs(self):
        """Yield (stage_number, index_in_stage, MEModuleConfig) for every
        module, validating each."""
        in_ch = self.stem_channels
        for si, reps in enumerate(self.stage_repeats):
            out_ch = self.stage_width(si)
            fusion = fusion_width_at_stage(self.fusion_width,
                                           self.expansion_factor, si)
            for r in range(reps):
                downsample = r == 0
                # the very first module's pointwise conv sees the narrow stem
                # output and is left dense; everything else is grouped
                first_grouped = not (si == 0 and r == 0)
                cfg = MEModuleConfig(
                    in_channels=in_ch,
                    out_channels=out_ch,
                    fusion_channels=fusion,
                    groups=self.groups,
                    downsample=downsample,
                    first_pointwise_grouped=first_grouped,
                    combine_mode=self.combine_mode,
                )
                try:
                    cfg.validate()
                except ValueError as e:
                    raise ValueError(
                        f"stage {si + 2} module {r}: {e}") from e
                yield si + 2, r, cfg
                in_ch = out_ch

    def validate(self):
        for name, low in (("residual_width", 4), ("fusion_width", 1),
                          ("groups", 1), ("num_classes", 2),
                          ("input_size", 1), ("stem_channels", 1)):
            check_count(name, getattr(self, name), low)
        alpha = self.expansion_factor
        if type(alpha) is bool or not (isinstance(alpha, numbers.Real)
                                       and 1 <= alpha < math.inf):
            raise ValueError("expansion_factor must be >= 1 and finite, "
                             f"got {alpha!r}")
        if not self.stage_repeats:
            raise ValueError("stage_repeats must list at least one stage")
        for repeats in self.stage_repeats:
            check_count("every stage_repeats entry", repeats)
        for _ in self.module_configs():
            pass
        return self


def build_menet(cfg: MENetConfig, seed=0) -> Network:
    """Instantiate the full network with seeded, reproducible parameters."""
    cfg.validate()
    rng = np.random.default_rng(seed)
    items = []
    items.append(("stem.conv", Conv2d(3, cfg.stem_channels, 3, stride=2,
                                      rng=rng)))
    items.append(("stem.bn", BatchNorm2d(cfg.stem_channels)))
    items.append(("stem.relu", ReLU()))
    if cfg.stem_pool:
        items.append(("stem.pool", MaxPool3x3s2()))
    for stage, idx, mcfg in cfg.module_configs():
        items.append((f"stage{stage}.{idx}", MEModule(mcfg, rng=rng)))
    final_width = cfg.stage_width(len(cfg.stage_repeats) - 1)
    items.append(("pool", GlobalAvgPool()))
    items.append(("fc", Linear(final_width, cfg.num_classes, rng=rng)))
    return Network(items, in_channels=3, input_size=cfg.input_size,
                   num_classes=cfg.num_classes)

