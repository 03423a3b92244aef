"""Compact-CNN toolkit: merging/evolution operations, the module family
built from them, inter-group connectivity analysis, cost accounting and a
desk-scale training harness. Pure numpy, double precision, hand-written
backward passes throughout.
"""

from .tensor import concat_channels, elementwise_combine
from .layers import (
    AvgPool3x3s2,
    BatchNorm2d,
    ChannelShuffle,
    Conv2d,
    GlobalAvgPool,
    Linear,
    MaxPool3x3s2,
    ReLU,
    Sigmoid,
)
from .me_module import EvolutionOp, MEModule, MEModuleConfig, MergingOp
from .network import Network
from .builder import (
    MENetConfig,
    build_menet,
    format_notation,
    parse_notation,
)
from .analysis import (
    ConnectivityReport,
    CostReport,
    connectivity_bruteforce,
    connectivity_formula,
    count_cost,
    module_dependency_pattern,
)
from .training import (
    SGD,
    Dataset,
    Schedule,
    cross_entropy,
    gradcheck,
    make_synthetic_dataset,
    train_loop,
)
from .serialization import load_dataset, load_weights, save_dataset, save_weights

__version__ = "0.1.0"
