"""Notation parsing and full-architecture construction."""

import numpy as np
import pytest

from menet.builder import (
    MENetConfig,
    build_menet,
    format_notation,
    fusion_width_at_stage,
    parse_notation,
    summarize,
)
from menet.me_module import MEModule

TABLE_CONFIGS = [
    # (notation, groups, stage widths, final width)
    ("228-MENet-12x1", 3, (228, 456, 912)),
    ("256-MENet-12x1", 4, (256, 512, 1024)),
    ("352-MENet-12x1", 8, (352, 704, 1408)),
]


class TestNotation:
    def test_parse_basic(self):
        assert parse_notation("228-MENet-12x1") == (228, 12, 1.0)

    def test_parse_multiplication_sign(self):
        assert parse_notation("256-MENet-12×2") == (256, 12, 2.0)

    def test_parse_fractional_alpha(self):
        assert parse_notation("348-MENet-12x1.5") == (348, 12, 1.5)

    def test_format_roundtrip(self):
        for s in ("228-MENet-12x1", "348-MENet-12x1.5", "352-MENet-12x2"):
            assert format_notation(*parse_notation(s)) == s

    @pytest.mark.parametrize("bad,pos", [
        ("228-MeNet-12x1", 5),       # wrong capitalisation
        ("228-MENet-12", 12),        # missing xalpha
        ("MENet-12x1", 0),           # missing width
        ("228-MENet-12x1x2", 14),    # trailing junk
    ])
    def test_malformed_rejected_with_position(self, bad, pos):
        with pytest.raises(ValueError, match=f"position {pos}"):
            parse_notation(bad)


class TestFusionWidth:
    def test_alpha_one_constant(self):
        assert [fusion_width_at_stage(12, 1, i) for i in range(3)] == [12, 12, 12]

    def test_alpha_two_doubles(self):
        assert [fusion_width_at_stage(12, 2, i) for i in range(3)] == [12, 24, 48]

    def test_fractional_alpha_rounds_half_up(self):
        # 1.5^1 * 12 = 18; 1.5^2 * 12 = 27
        assert fusion_width_at_stage(12, 1.5, 1) == 18
        assert fusion_width_at_stage(12, 1.5, 2) == 27
        # tie: 2.5 * 1 = 2.5 rounds up
        assert fusion_width_at_stage(1, 2.5, 1) == 3

    def test_floor_at_one(self):
        assert fusion_width_at_stage(1, 1, 0) == 1


class TestConfig:
    @pytest.mark.parametrize("notation,groups,widths", TABLE_CONFIGS)
    def test_table_stage_widths(self, notation, groups, widths):
        cfg = MENetConfig.from_notation(notation, groups=groups)
        assert tuple(cfg.stage_width(i) for i in range(3)) == widths
        cfg.validate()

    def test_module_plan_counts_and_downsampling(self):
        cfg = MENetConfig.from_notation("228-MENet-12x1", groups=3)
        plan = list(cfg.module_configs())
        assert len(plan) == 16                       # 4 + 8 + 4
        downs = [(s, r) for s, r, m in plan if m.downsample]
        assert downs == [(2, 0), (3, 0), (4, 0)]
        # dense first pointwise only on the very first module
        dense = [(s, r) for s, r, m in plan if not m.first_pointwise_grouped]
        assert dense == [(2, 0)]

    def test_invalid_group_width_combination_named(self):
        cfg = MENetConfig.from_notation("228-MENet-12x1", groups=5)
        with pytest.raises(ValueError, match="stage 2 module 0"):
            cfg.validate()

    def test_ablation_grid_builds(self):
        """Fusion widths 10..16 and expansion factors 1..2.5 must all
        validate on the 228-wide base in both combine modes."""
        for k in (10, 12, 14, 16):
            for alpha in (1, 1.5, 2, 2.5):
                for mode in ("product", "addition"):
                    MENetConfig(residual_width=228, fusion_width=k,
                                expansion_factor=alpha, groups=3,
                                combine_mode=mode).validate()


class TestBuiltNetwork:
    def test_spatial_trace_and_logits(self):
        cfg = MENetConfig.from_notation("228-MENet-12x1", groups=3,
                                        num_classes=10)
        net = build_menet(cfg, seed=0)
        x = np.zeros((1, 3, 224, 224))
        out = net.forward(x, train=False)
        assert out.shape == (1, 10)
        # spatial sizes 224 -> 112 (stem) -> 56 (pool) -> 28/14/7 (stages),
        # read off the symbolic cost report
        rows, _ = summarize(net)
        by_name = {r["name"]: r["output_shape"] for r in rows}
        assert by_name["stem.conv"][1:] == (112, 112)
        assert by_name["stage2.0/pw2"][1:] == (28, 28)
        assert by_name["stage3.0/pw2"][1:] == (14, 14)
        assert by_name["stage4.0/pw2"][1:] == (7, 7)
        assert by_name["pool"] == (912, 1, 1)

    def test_deterministic_rebuild(self):
        cfg = MENetConfig(residual_width=8, fusion_width=1, groups=2,
                          stage_repeats=[1, 1, 1], stem_channels=4,
                          num_classes=2, input_size=16, stem_pool=False)
        a = build_menet(cfg, seed=5)
        b = build_menet(cfg, seed=5)
        for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
            assert na == nb and np.array_equal(pa, pb)
        c = build_menet(cfg, seed=6)
        diff = any(not np.array_equal(pa, pc)
                   for (_, pa), (_, pc) in zip(a.named_params(),
                                               c.named_params()))
        assert diff

    def test_module_sequence_types(self):
        cfg = MENetConfig.from_notation("256-MENet-12x1", groups=4)
        net = build_menet(cfg, seed=0)
        modules = [item for _, item in net.items if isinstance(item, MEModule)]
        assert len(modules) == 16
        assert modules[0].cfg.in_channels == 24
        assert modules[0].cfg.out_channels == 256
        assert modules[-1].cfg.out_channels == 1024

    def test_tiny_desk_config_forward(self):
        cfg = MENetConfig(residual_width=8, fusion_width=1, groups=2,
                          stage_repeats=[1, 1, 1], stem_channels=4,
                          num_classes=2, input_size=8, stem_pool=False)
        net = build_menet(cfg, seed=0)
        out = net.forward(np.random.default_rng(0).normal(size=(2, 3, 8, 8)),
                          train=True)
        assert out.shape == (2, 2)
        assert np.all(np.isfinite(out))
