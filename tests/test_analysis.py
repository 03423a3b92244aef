"""Connectivity math, dependency patterns and cost accounting."""

from fractions import Fraction

import numpy as np
import pytest

from menet.analysis import (
    connectivity_bruteforce,
    connectivity_formula,
    connectivity_realized,
    count_cost,
    grouped_conv_pattern,
    module_dependency_pattern,
    perturbation_pattern,
    shuffle_pattern,
)
from menet.builder import MENetConfig, build_menet
from menet.me_module import MEModule, MEModuleConfig
from menet.tensor import ShapeError


def all_cg_pairs(cmax=64):
    for c in range(1, cmax + 1):
        for g in range(1, c + 1):
            if c % g == 0:
                yield c, g


class TestConnectivity:
    def test_reference_case_nine_three(self):
        r = connectivity_formula(9, 3)
        assert r.n_total == 27
        assert r.n_actual == 9
        assert r.lost_ratio == Fraction(2, 3)

    def test_lost_ratio_examples(self):
        assert connectivity_formula(8, 8).lost_ratio == Fraction(7, 8)
        assert connectivity_formula(64, 8).lost_ratio == Fraction(7, 8)
        assert connectivity_formula(12, 3).lost_ratio == Fraction(2, 3)

    def test_formula_matches_bruteforce_exact_sweep(self):
        for c, g in all_cg_pairs():
            assert connectivity_formula(c, g) == connectivity_bruteforce(c, g), \
                (c, g)

    def test_realized_matches_formula_on_even_distribution(self):
        """The realized shuffle permutation reproduces the counts whenever
        each group's channels split evenly over the groups."""
        for c, g in all_cg_pairs():
            if g > 1 and (c // g) % g == 0:
                assert connectivity_realized(c, g) == \
                    connectivity_formula(c, g), (c, g)

    def test_lost_ratio_monotone_in_groups(self):
        ratios = [float(connectivity_formula(48, g).lost_ratio)
                  for g in (2, 3, 4, 6, 8)]
        assert ratios == sorted(ratios)
        assert all(0 < r < 1 for r in ratios)

    def test_single_group_loses_nothing(self):
        r = connectivity_formula(16, 1)
        assert r.n_actual == 0 and r.lost_ratio == 0

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            connectivity_formula(10, 3)
        with pytest.raises(ValueError):
            connectivity_bruteforce(10, 4)

    @pytest.mark.parametrize("count", [connectivity_formula,
                                       connectivity_bruteforce,
                                       connectivity_realized])
    @pytest.mark.parametrize("groups", [0, -3])
    def test_groups_below_one_rejected(self, count, groups):
        with pytest.raises(ValueError, match="groups must be >= 1"):
            count(9, groups)


class TestDependencyPatterns:
    def test_grouped_conv_block_diagonal(self):
        m = grouped_conv_pattern(4, 4, 2)
        expect = np.zeros((4, 4), dtype=bool)
        expect[:2, :2] = True
        expect[2:, 2:] = True
        assert np.array_equal(m, expect)

    def test_grouped_conv_non_square_blocks(self):
        m = grouped_conv_pattern(6, 4, 2)
        expect = np.zeros((4, 6), dtype=bool)
        expect[:2, :3] = True
        expect[2:, 3:] = True
        assert m.dtype == bool and np.array_equal(m, expect)

    @pytest.mark.parametrize("in_channels,out_channels,groups", [
        (4, 6, 4), (6, 4, 4), (4, 4, 0), (4, 4, -2)])
    def test_grouped_conv_uneven_split_rejected(self, in_channels,
                                                out_channels, groups):
        with pytest.raises(ShapeError):
            grouped_conv_pattern(in_channels, out_channels, groups)

    def test_shuffle_pattern_is_permutation(self):
        m = shuffle_pattern(9, 3)
        assert m.sum() == 9
        assert np.all(m.sum(axis=0) == 1) and np.all(m.sum(axis=1) == 1)

    @pytest.mark.parametrize("width,groups", [
        (8, 2), (16, 2), (8, 4), (16, 4),
    ])
    def test_symbolic_matches_perturbation(self, width, groups):
        for include_fusion in (False, True):
            cfg = MEModuleConfig(width * 4, width * 4,
                                 max(1, width // 4), groups)
            module = MEModule(cfg, rng=np.random.default_rng(0))
            symbolic = module_dependency_pattern(module, include_fusion)
            numeric = perturbation_pattern(module, include_fusion)
            assert np.array_equal(symbolic, numeric), \
                (width, groups, include_fusion)

    def test_fused_path_dense(self):
        cfg = MEModuleConfig(32, 32, 2, 4)
        module = MEModule(cfg, rng=np.random.default_rng(1))
        assert module_dependency_pattern(module, include_fusion=True).all()

    def test_bare_path_diagonal_after_shuffle(self):
        cfg = MEModuleConfig(32, 32, 2, 4)
        module = MEModule(cfg, rng=np.random.default_rng(2))
        bare = module_dependency_pattern(module, include_fusion=False)
        b = cfg.bottleneck_channels
        assert bare.sum() == b
        assert np.array_equal(bare, shuffle_pattern(b, 4))

    def test_through_pw2_stays_blocked_without_fusion(self):
        cfg = MEModuleConfig(32, 32, 2, 4)
        module = MEModule(cfg, rng=np.random.default_rng(3))
        full = module_dependency_pattern(module, include_fusion=False,
                                         through_pw2=True)
        assert not full.all()
        fused = module_dependency_pattern(module, include_fusion=True,
                                          through_pw2=True)
        assert fused.all()


class TestCost:
    def test_single_conv_closed_form(self):
        """3x3 conv, 3->64, 224->112: 112*112*9*3*64 = 21,676,032 MACs."""
        cfg = MENetConfig(residual_width=8, fusion_width=1, groups=2,
                          stage_repeats=[1, 1, 1], stem_channels=4,
                          num_classes=2, input_size=16, stem_pool=False)
        net = build_menet(cfg, seed=0)
        report = count_cost(net)
        stem = next(e for e in report.entries if e.name == "stem.conv")
        assert stem.macs == 8 * 8 * 9 * 3 * 4
        assert stem.params == 4 * 3 * 9

    def test_grouped_pointwise_closed_form(self):
        """1x1 group conv 228->57 g=3 at 28x28:
        28*28*1*1*(228/3)*57 = 3,396,672 MACs."""
        cfg = MENetConfig.from_notation("228-MENet-12x1", groups=3)
        net = build_menet(cfg, seed=0)
        report = count_cost(net)
        pw1 = next(e for e in report.entries if e.name == "stage2.1/pw1")
        assert pw1.macs == 28 * 28 * (228 // 3) * 57

    def test_depthwise_closed_form(self):
        cfg = MENetConfig.from_notation("228-MENet-12x1", groups=3)
        report = count_cost(build_menet(cfg, seed=0))
        dw = next(e for e in report.entries if e.name == "stage2.1/dw")
        assert dw.macs == 28 * 28 * 9 * 1 * 57

    def test_fc_counted(self):
        cfg = MENetConfig.from_notation("228-MENet-12x1", groups=3)
        report = count_cost(build_menet(cfg, seed=0))
        fc = next(e for e in report.entries if e.name == "fc")
        assert fc.macs == 912 * 1000
        assert fc.params == 912 * 1000 + 1000

    @pytest.mark.parametrize("notation,groups,target", [
        ("228-MENet-12x1", 3, 144e6),
        ("256-MENet-12x1", 4, 140e6),
        ("352-MENet-12x1", 8, 144e6),
    ])
    def test_reference_totals_within_five_percent(self, notation, groups,
                                                  target):
        cfg = MENetConfig.from_notation(notation, groups=groups)
        total = count_cost(build_menet(cfg, seed=0)).total_macs
        assert abs(total - target) / target < 0.05, total
