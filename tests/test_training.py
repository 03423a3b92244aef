"""Loss, optimizer, schedule, data and training-loop determinism."""

import numpy as np
import pytest

from menet.builder import MENetConfig, build_menet
from menet.training import (
    SGD,
    Dataset,
    Schedule,
    cross_entropy,
    evaluate,
    make_synthetic_dataset,
    train_loop,
)


def tiny_config(**kw):
    base = dict(residual_width=8, fusion_width=1, groups=2,
                stage_repeats=[1, 1, 1], stem_channels=4, num_classes=2,
                input_size=8, stem_pool=False)
    base.update(kw)
    return MENetConfig(**base)


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        for k in (2, 5, 10):
            logits = np.zeros((3, k))
            loss, _ = cross_entropy(logits, np.zeros(3, dtype=int))
            assert np.isclose(loss, np.log(k), atol=1e-12)

    def test_confident_correct_is_near_zero(self):
        logits = np.array([[30.0, 0.0], [0.0, 30.0]])
        loss, _ = cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-12

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 6))
        _, grad = cross_entropy(logits, rng.integers(0, 6, size=4))
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-15)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(2, 3))
        labels = np.array([0, 2])
        _, grad = cross_entropy(logits, labels)
        h = 1e-6
        for i in range(2):
            for j in range(3):
                lp = logits.copy(); lp[i, j] += h
                lm = logits.copy(); lm[i, j] -= h
                num = (cross_entropy(lp, labels)[0]
                       - cross_entropy(lm, labels)[0]) / (2 * h)
                assert abs(grad[i, j] - num) < 1e-8

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[1000.0, -1000.0]])
        loss, grad = cross_entropy(logits, np.array([1]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))

    def test_label_validation(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([0]))


class TestSchedule:
    def test_step_decay_boundaries(self):
        s = Schedule(base_lr=0.1, step_epochs=30, total_epochs=120)
        assert s.lr_at(0) == 0.1
        assert s.lr_at(29) == 0.1
        assert np.isclose(s.lr_at(30), 0.01)
        assert np.isclose(s.lr_at(119), 0.1 * 0.1 ** 3)

    @pytest.mark.parametrize("name", ["step_epochs", "total_epochs"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_epochs_below_one_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got {value}"):
            Schedule(**{name: value})
        assert Schedule(step_epochs=1, total_epochs=1).lr_at(0) == 0.1

    def test_out_of_range_rejected(self):
        s = Schedule(total_epochs=10)
        with pytest.raises(ValueError):
            s.lr_at(10)
        with pytest.raises(ValueError):
            s.lr_at(-1)


class TestSGD:
    def test_matches_scalar_recurrence(self):
        """Drive one weight parameter with fixed gradients and reproduce the
        velocity recurrence v <- m v + g + wd p; p <- p - lr v by hand."""

        class OneParamNet:
            def __init__(self):
                self.p = np.array([1.0])

            @property
            def params(self):
                return {"layer.weight": self.p}

            @property
            def grads(self):
                return {"layer.weight": self._g}

        net = OneParamNet()
        opt = SGD(lr=0.1, momentum=0.9, weight_decay=4e-5)
        p_ref, v_ref = 1.0, 0.0
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = float(rng.normal())
            net._g = np.array([g])
            opt.step(net)
            v_ref = 0.9 * v_ref + g + 4e-5 * p_ref
            p_ref = p_ref - 0.1 * v_ref
            assert abs(net.p[0] - p_ref) < 1e-12

    def test_weight_decay_skips_bn_and_bias(self):
        class TwoParamNet:
            def __init__(self):
                self.w = np.array([2.0])
                self.gamma = np.array([2.0])
                self.params = {"conv.weight": self.w, "bn.gamma": self.gamma}
                self.grads = {"conv.weight": np.zeros(1),
                              "bn.gamma": np.zeros(1)}

        net = TwoParamNet()
        SGD(lr=1.0, momentum=0.0, weight_decay=0.1).step(net)
        assert np.isclose(net.w[0], 2.0 - 0.1 * 2.0)   # decayed
        assert net.gamma[0] == 2.0                      # untouched

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)

    def test_gradient_shape_mismatch_rejected(self):
        class MismatchedNet:
            params = {"conv.weight": np.ones((2, 2))}
            grads = {"conv.weight": np.ones(4)}

        net = MismatchedNet()
        with pytest.raises(ValueError, match="shape mismatch for conv.weight"):
            SGD(lr=0.1).step(net)
        assert np.array_equal(net.params["conv.weight"], np.ones((2, 2)))


class TestSyntheticData:
    def test_shapes_and_label_balance(self):
        data = make_synthetic_dataset(count=64, size=8, classes=2, seed=0)
        assert data.images.shape == (64, 3, 8, 8)
        assert data.images.dtype == np.uint8
        counts = np.bincount(data.labels, minlength=2)
        assert counts.tolist() == [32, 32]

    def test_float_range(self):
        data = make_synthetic_dataset(seed=1)
        x = data.as_float()
        assert x.min() >= -1.0 and x.max() <= 1.0

    def test_seed_determinism(self):
        a = make_synthetic_dataset(seed=3)
        b = make_synthetic_dataset(seed=3)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_more_classes_than_u8_labels_rejected(self):
        with pytest.raises(ValueError, match="class_count 300"):
            make_synthetic_dataset(count=4, classes=300)
        with pytest.raises(ValueError, match="class_count 300"):
            Dataset(np.zeros((300, 1, 2, 2)), np.arange(300), 300)

    @pytest.mark.parametrize("classes", [0, -2])
    def test_class_count_below_one_rejected(self, classes):
        with pytest.raises(ValueError, match=f"class_count {classes} outside"):
            make_synthetic_dataset(count=4, classes=classes)
        with pytest.raises(ValueError, match=f"class_count {classes} outside"):
            Dataset(np.zeros((1, 1, 2, 2)), [0], classes)

    def test_more_classes_than_pixels_rejected(self):
        # a class past the last pixel column would get no band at all
        with pytest.raises(ValueError, match="10 classes need images at "
                                             "least 10 px wide"):
            make_synthetic_dataset(count=40, size=8, classes=10)
        data = make_synthetic_dataset(count=40, size=10, classes=10)
        for label in range(10):
            assert data.images[data.labels == label].max() >= 180

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_named(self, count):
        with pytest.raises(ValueError, match=f"dataset is empty: count must "
                                             f"be >= 1, got {count}"):
            make_synthetic_dataset(count=count)

    def test_empty_or_mismatched_labels_rejected(self):
        with pytest.raises(ValueError, match="dataset is empty"):
            Dataset(np.zeros((0, 1, 2, 2)), [], 2)
        with pytest.raises(ValueError, match="matching labels"):
            Dataset(np.zeros((2, 1, 2, 2)), [0], 2)
        with pytest.raises(ValueError, match="matching labels"):
            Dataset(np.zeros((2, 2, 2)), [0, 1], 2)
        with pytest.raises(ValueError, match="matching labels"):
            Dataset(np.zeros((2, 1, 2, 2)), [[0], [1]], 2)

    @pytest.mark.parametrize("classes", ["2", 2.5, 2.0, None])
    def test_non_integer_class_count_rejected(self, classes):
        with pytest.raises(ValueError, match="class_count must be an integer"):
            Dataset(np.zeros((2, 1, 2, 2)), [0, 1], classes)

    def test_labels_checked_before_u8_cast(self):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            Dataset(np.zeros((2, 1, 2, 2)), [0, 256], 2)

    def test_non_integral_labels_rejected(self):
        # the u8 cast would store 1.7 as 1
        for bad in (1.7, np.inf, np.nan):
            with pytest.raises(ValueError, match=r"integers in \[0, 2\)"):
                Dataset(np.zeros((2, 1, 2, 2)), [0, bad], 2)
        data = Dataset(np.zeros((2, 1, 2, 2)), [0.0, 1.0], 2)
        assert data.labels.tolist() == [0, 1]

    def test_pixels_checked_before_u8_cast(self):
        for bad in (300, -1.5, 1.5, np.nan):
            with pytest.raises(ValueError, match=r"integers in \[0, 255\]"):
                Dataset(np.full((2, 3, 4, 4), bad), [0, 1], 2)
        data = Dataset(np.full((2, 3, 4, 4), 255.0), [0, 1], 2)
        assert data.images.dtype == np.uint8 and data.images.max() == 255

    def test_classes_are_separable_by_band_position(self):
        data = make_synthetic_dataset(count=32, size=8, classes=2, seed=4)
        left = data.images[:, :, :, :4].mean(axis=(1, 2, 3))
        right = data.images[:, :, :, 4:].mean(axis=(1, 2, 3))
        predicted = (right > left).astype(int)
        assert np.array_equal(predicted, data.labels)


class TestTrainLoop:
    def _run(self, seed=0, epochs=6):
        net = build_menet(tiny_config(), seed=1)
        data = make_synthetic_dataset(count=32, size=8, classes=2, seed=0)
        sched = Schedule(base_lr=0.05, step_epochs=30, total_epochs=30)
        opt = SGD(lr=sched.base_lr, momentum=0.9, weight_decay=4e-5)
        return net, data, train_loop(net, data, sched, opt, epochs=epochs,
                                     seed=seed, batch_size=16)

    def test_loss_decreases_and_fits(self):
        _, _, history = self._run(epochs=8)
        losses = [h[2] for h in history]
        assert losses[-1] < losses[0]
        assert history[-1][3] == 1.0

    def test_history_bit_identical_across_reruns(self):
        _, _, h1 = self._run(seed=5, epochs=4)
        _, _, h2 = self._run(seed=5, epochs=4)
        assert h1 == h2

    def test_different_seed_changes_history(self):
        _, _, h1 = self._run(seed=5, epochs=3)
        _, _, h2 = self._run(seed=6, epochs=3)
        assert h1 != h2

    def test_eval_mode_accuracy_after_fit(self):
        net, data, history = self._run(epochs=8)
        assert evaluate(net, data) == 1.0

    def test_channel_mismatch_rejected(self):
        net = build_menet(tiny_config(), seed=0)
        rgb = make_synthetic_dataset(count=8, size=8, seed=0)
        data = Dataset(rgb.images[:, :1], rgb.labels, rgb.class_count)
        sched = Schedule(total_epochs=30)
        with pytest.raises(ValueError):
            train_loop(net, data, sched, SGD(), epochs=1)

    def test_last_batch_too_small_for_batch_norm_rejected_up_front(self):
        # the tiny net's last batch norms see 1x1 maps, so a last batch of
        # one sample would give them one value per channel
        net = build_menet(tiny_config(), seed=1)
        before = {k: v.copy() for k, v in net.named_params()}
        data = make_synthetic_dataset(count=33, size=8, classes=2, seed=0)
        sched = Schedule(base_lr=0.05, step_epochs=30, total_epochs=30)
        with pytest.raises(ValueError, match="33 samples at batch size 16 "
                                             "leave a last batch of 1"):
            train_loop(net, data, sched, SGD(lr=0.05), epochs=1,
                       batch_size=16)
        for name, p in net.named_params():
            assert np.array_equal(p, before[name]), name
        with pytest.raises(ValueError, match="last batch of 1"):
            train_loop(net, data, sched, SGD(lr=0.05), epochs=1,
                       batch_size=1)

    def test_non_finite_loss_names_epoch_and_batch(self):
        # a NaN set between two updates is caught at the next step
        class PoisonAfter(SGD):
            """Sets one classifier weight to NaN after its third update."""
            calls = 0

            def step(self, net):
                super().step(net)
                self.calls += 1
                if self.calls == 3:
                    net.params["fc.weight"][0, 0] = np.nan

        net = build_menet(tiny_config(), seed=1)
        data = make_synthetic_dataset(count=16, size=8, classes=2, seed=0)
        sched = Schedule(base_lr=0.05, step_epochs=30, total_epochs=30)
        opt = PoisonAfter(lr=0.05)
        # two batches an epoch: the fourth step is epoch 1, offset 8
        with pytest.raises(ValueError, match="loss is nan at epoch 1, "
                                             "batch offset 8"):
            train_loop(net, data, sched, opt, epochs=3, batch_size=8)
        assert opt.calls == 3
        assert np.isnan(net.params["fc.weight"]).sum() == 1

    def test_nan_backbone_weight_reaches_loss_guard(self):
        # every conv feeds a ReLU, which must pass the NaN on
        net = build_menet(tiny_config(), seed=1)
        net.params["stage3.0.pw1.weight"][0, 0, 0, 0] = np.nan
        data = make_synthetic_dataset(count=16, size=8, classes=2, seed=0)
        sched = Schedule(base_lr=0.05, step_epochs=30, total_epochs=30)
        with pytest.raises(ValueError, match="loss is nan at epoch 0, "
                                             "batch offset 0"):
            train_loop(net, data, sched, SGD(lr=0.05), epochs=4, batch_size=8)

    def test_last_batch_of_two_trains(self):
        net = build_menet(tiny_config(), seed=1)
        data = make_synthetic_dataset(count=18, size=8, classes=2, seed=0)
        sched = Schedule(base_lr=0.05, step_epochs=30, total_epochs=30)
        history = train_loop(net, data, sched, SGD(lr=0.05), epochs=1,
                             batch_size=16)
        assert np.isfinite(history[0][2])
