"""Loss, optimizer, schedule, data and training-loop determinism."""

import re

import numpy as np
import pytest

from menet.builder import MENetConfig, build_menet
from menet.training import (
    SGD,
    Dataset,
    Schedule,
    _to_float,
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

    @pytest.mark.parametrize("shape", [(2,), (2, 3, 1), (0, 3), (2, 0)])
    def test_logits_not_a_batch_of_rows_named(self, shape):
        # an empty batch would otherwise reach numpy's reduction errors
        with pytest.raises(ValueError, match=(
                r"logits must be \(batch, classes\) with both >= 1, got "
                rf"shape {re.escape(str(shape))}")):
            cross_entropy(np.zeros(shape), np.zeros(shape[:1], dtype=int))

    @pytest.mark.parametrize("labels,named", [
        ([0.7, 2.9], "got 0.7 at index 0"),
        ([1, 1.5], "got 1.5 at index 1"),
        ([0, np.nan], "got nan at index 1"),
        ([np.inf, 0], "got inf at index 0"),
        ([1, -np.inf], "got -inf at index 1"),
    ], ids=["fraction", "half", "nan", "inf", "-inf"])
    def test_non_integral_label_rejected_by_name(self, labels, named):
        # no cast truncates it, and no cast warning comes first
        with pytest.raises(ValueError,
                           match=f"labels must be integers, {named}"):
            cross_entropy(np.zeros((2, 3)), labels)

    def test_bool_labels_rejected(self):
        # a bool array would index the rows as 1 and 0
        with pytest.raises(ValueError, match="labels must be integers, got "
                                             "bools"):
            cross_entropy(np.zeros((2, 3)), np.array([True, False]))

    def test_integral_labels_of_any_dtype_accepted(self):
        logits = np.random.default_rng(2).normal(size=(2, 3))
        want = cross_entropy(logits, np.array([2, 0]))
        for labels in ([2.0, 0.0], np.array([2, 0], dtype=np.uint8)):
            got = cross_entropy(logits, labels)
            assert got[0] == want[0] and np.array_equal(got[1], want[1])


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

    @pytest.mark.parametrize("name", ["step_epochs", "total_epochs"])
    @pytest.mark.parametrize("value", [1.5, 2.0, float("nan"), "3", True])
    def test_epochs_not_integers_rejected(self, name, value):
        with pytest.raises(ValueError,
                           match=f"{name} must be an integer, got {value!r}"):
            Schedule(**{name: value})
        assert Schedule(step_epochs=np.int64(2)).lr_at(2) == 0.1 * 0.1

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), 0.0, -0.1, True])
    def test_base_lr_not_finite_and_positive_rejected(self, value):
        with pytest.raises(ValueError, match="base_lr must be a finite "
                                             f"number > 0, got {value}"):
            Schedule(base_lr=value)

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

    @pytest.mark.parametrize("name,value,bound", [
        ("lr", float("nan"), ">"), ("lr", float("inf"), ">"),
        ("momentum", float("nan"), ">="), ("momentum", -0.5, ">="),
        ("weight_decay", float("inf"), ">="),
        ("weight_decay", float("-inf"), ">="),
        # a bool is not a rate, though Python counts it as a number
        ("lr", True, ">"), ("momentum", True, ">="),
        ("weight_decay", False, ">=")])
    def test_settings_not_finite_or_in_range_rejected(self, name, value,
                                                      bound):
        with pytest.raises(ValueError, match=f"{name} must be a finite "
                                             f"number {bound} 0, got {value}"):
            SGD(**{name: value})

    def test_zero_momentum_and_weight_decay_accepted(self):
        opt = SGD(lr=0.01, momentum=0.0, weight_decay=0.0)
        assert (opt.lr, opt.momentum, opt.weight_decay) == (0.01, 0.0, 0.0)

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
        x = _to_float(data.images)
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

    @pytest.mark.parametrize("kwargs,message", [
        ({"count": True}, "count must be an integer, got True"),
        ({"count": 4.0}, "count must be an integer, got 4.0"),
        ({"size": 8.0}, "size must be an integer, got 8.0"),
        ({"size": True}, "size must be an integer, got True"),
        ({"size": 0, "classes": 1}, "size must be >= 1, got 0")])
    def test_count_and_size_not_counts_named(self, kwargs, message):
        # each failed with a TypeError from numpy; size 0 named the classes
        with pytest.raises(ValueError, match=message):
            make_synthetic_dataset(**kwargs)

    def test_empty_or_mismatched_labels_rejected(self):
        with pytest.raises(ValueError, match="dataset is empty"):
            Dataset(np.zeros((0, 1, 2, 2)), [], 2)
        with pytest.raises(ValueError, match="matching labels"):
            Dataset(np.zeros((2, 1, 2, 2)), [0], 2)
        with pytest.raises(ValueError, match="matching labels"):
            Dataset(np.zeros((2, 2, 2)), [0, 1], 2)
        with pytest.raises(ValueError, match="matching labels"):
            Dataset(np.zeros((2, 1, 2, 2)), [[0], [1]], 2)

    @pytest.mark.parametrize("classes", ["2", 2.5, 2.0, None, True])
    def test_non_integer_class_count_rejected(self, classes):
        with pytest.raises(ValueError, match="class_count must be an integer"):
            Dataset(np.zeros((2, 1, 2, 2)), [0, 1], classes)

    def test_bool_labels_rejected(self):
        # the u8 cast would store them as 1 and 0
        with pytest.raises(ValueError, match="labels must be integers, got "
                                             "bools"):
            Dataset(np.zeros((2, 1, 2, 2)), np.array([True, False]), 2)

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

    def test_u8_images_checked_without_temporaries(self, traced):
        # range and integrality temporaries peaked at 3x the image bytes
        images = np.random.default_rng(0).integers(
            0, 256, size=(256, 3, 64, 64), dtype=np.uint8)
        data, _, peak = traced(lambda: Dataset(images, np.arange(256) % 2, 2))
        assert np.array_equal(data.images, images)
        assert np.shares_memory(data.images, images)  # kept, not copied
        assert peak < 1.1 * images.nbytes

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

    def test_evaluation_between_train_steps_changes_nothing(self):
        data = make_synthetic_dataset(count=16, size=8, classes=2, seed=0)
        runs = []
        for evaluate_between in (False, True):
            net = build_menet(tiny_config(), seed=1)
            sched = Schedule(base_lr=0.05, step_epochs=30, total_epochs=30)
            opt = SGD(lr=sched.base_lr, momentum=0.9, weight_decay=4e-5)
            train_loop(net, data, sched, opt, epochs=1, batch_size=16)
            if evaluate_between:
                evaluate(net, data)
            train_loop(net, data, sched, opt, epochs=1, seed=1,
                       batch_size=16)
            stats = {f"{name}.{attr}": getattr(bn, attr)
                     for name, bn in net.batchnorms()
                     for attr in ("running_mean", "running_var")}
            runs.append((net.params, net.grads, stats, opt.velocity))
        for kept, evaluated in zip(*runs):
            assert kept.keys() == evaluated.keys()
            for key, value in kept.items():
                assert np.array_equal(value, evaluated[key]), key

    def test_channel_mismatch_rejected(self):
        net = build_menet(tiny_config(), seed=0)
        rgb = make_synthetic_dataset(count=8, size=8, seed=0)
        data = Dataset(rgb.images[:, :1], rgb.labels, rgb.class_count)
        sched = Schedule(total_epochs=30)
        with pytest.raises(ValueError):
            train_loop(net, data, sched, SGD(), epochs=1)

    @pytest.mark.parametrize("run", ["train", "evaluate"])
    def test_more_classes_than_outputs_rejected_before_any_forward(
            self, monkeypatch, run):
        # a 2-class network scored 3-class labels as misses, and train_loop
        # stopped only at the first step's loss
        net = build_menet(tiny_config(), seed=0)
        data = make_synthetic_dataset(count=8, size=8, classes=3, seed=0)

        def forward(*args, **kwargs):
            raise AssertionError("forward ran")
        monkeypatch.setattr(net, "forward", forward)
        with pytest.raises(ValueError, match="dataset has 3 classes, "
                                             "network outputs 2"):
            if run == "train":
                train_loop(net, data, Schedule(total_epochs=30), SGD(),
                           epochs=1, batch_size=8)
            else:
                evaluate(net, data)

    def test_fewer_classes_than_outputs_accepted(self):
        net = build_menet(tiny_config(num_classes=3), seed=0)
        data = make_synthetic_dataset(count=8, size=8, classes=2, seed=0)
        assert 0.0 <= evaluate(net, data) <= 1.0

    @pytest.mark.parametrize("name,value", [
        ("epochs", True), ("epochs", 1.5), ("batch_size", True),
        ("batch_size", 2.0)])
    def test_epochs_and_batch_size_not_integers_named(self, name, value):
        # epochs=True ran one epoch, and batch_size=True reported a last
        # batch of True
        net = build_menet(tiny_config(), seed=1)
        data = make_synthetic_dataset(count=8, size=8, classes=2, seed=0)
        sched = Schedule(base_lr=0.05, step_epochs=30, total_epochs=30)
        kwargs = {"epochs": 1, "batch_size": 8, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer, "
                                             f"got {value!r}"):
            train_loop(net, data, sched, SGD(lr=0.05), **kwargs)

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

    def test_diverging_loss_names_the_limit(self):
        # at lr 1e6 the second step's loss is finite but far above
        # 100 * ln 2; that step raises before its update
        class CountingSGD(SGD):
            calls = 0

            def step(self, net):
                super().step(net)
                self.calls += 1

        net = build_menet(tiny_config(), seed=1)
        data = make_synthetic_dataset(count=16, size=8, classes=2, seed=0)
        sched = Schedule(base_lr=1e6, step_epochs=30, total_epochs=30)
        opt = CountingSGD(lr=1e6)
        with pytest.raises(ValueError, match=r"loss is \S+ at epoch 0, batch "
                                             r"offset 8, above the divergence "
                                             r"limit 69\.31 \(100 \* ln 2\)"):
            train_loop(net, data, sched, opt, epochs=2, batch_size=8)
        assert opt.calls == 1

    def test_last_batch_of_two_trains(self):
        net = build_menet(tiny_config(), seed=1)
        data = make_synthetic_dataset(count=18, size=8, classes=2, seed=0)
        sched = Schedule(base_lr=0.05, step_epochs=30, total_epochs=30)
        history = train_loop(net, data, sched, SGD(lr=0.05), epochs=1,
                             batch_size=16)
        assert np.isfinite(history[0][2])


def readme_desk_run():
    """The README's make-synth set and the net, schedule and SGD of its
    train command."""
    data = make_synthetic_dataset(count=32, size=8, classes=2, seed=0)
    cfg = MENetConfig.from_notation("8-MENet-1x1", groups=2,
                                    stage_repeats=[1, 1, 1], stem_channels=4,
                                    stem_pool=False, num_classes=2)
    sched = Schedule(base_lr=0.05, step_epochs=30, total_epochs=30)
    opt = SGD(lr=0.05, momentum=0.9, weight_decay=4e-5)
    return data, build_menet(cfg, seed=0), sched, opt


def whole_set_history(net, data, sched, opt, epochs, batch_size):
    """``train_loop``'s steps and records, with the whole set converted to
    float before the first step."""
    x_all, y_all = _to_float(data.images), data.labels.astype(int)
    rng = np.random.default_rng(0)
    history = []
    for epoch in range(epochs):
        opt.lr = sched.lr_at(epoch)
        order = rng.permutation(len(data))
        losses, correct = [], 0
        for start in range(0, len(data), batch_size):
            idx = order[start:start + batch_size]
            net.zero_grad()
            logits = net.forward(x_all[idx], train=True)
            loss, grad = cross_entropy(logits, y_all[idx])
            net.backward(grad)
            opt.step(net)
            losses.append(loss * len(idx))
            correct += int((logits.argmax(axis=1) == y_all[idx]).sum())
        history.append((epoch, opt.lr, sum(losses) / len(data),
                        correct / len(data)))
    return history


class TestBatchConversion:
    def test_readme_desk_run_matches_whole_set_conversion(self):
        data, net, sched, opt = readme_desk_run()
        history = train_loop(net, data, sched, opt, epochs=24, batch_size=16)
        _, ref, ref_sched, ref_opt = readme_desk_run()
        want = whole_set_history(ref, data, ref_sched, ref_opt, epochs=24,
                                 batch_size=16)
        assert repr(history) == repr(want)
        for name, p in net.params.items():
            assert p.tobytes() == ref.params[name].tobytes(), name
        x_all = _to_float(data.images)
        correct = sum(int((net.forward(x_all[s:s + 64], train=False)
                           .argmax(axis=1) == data.labels[s:s + 64]).sum())
                      for s in range(0, len(data), 64))
        assert repr(evaluate(net, data)) == repr(correct / len(data))

    def test_evaluate_memory_does_not_grow_with_the_set(self, traced):
        # converting the whole set up front added its float copy, 8x the
        # u8 images, to the peak
        net = build_menet(tiny_config(input_size=32), seed=1)
        images = np.random.default_rng(0).integers(
            0, 256, size=(256, 3, 32, 32), dtype=np.uint8)
        sets = {n: Dataset(images[:n], np.arange(n) % 2, 2) for n in (64, 256)}
        evaluate(net, sets[64])     # fill the geometry caches first
        peaks = {n: traced(lambda: evaluate(net, data))[2]
                 for n, data in sets.items()}
        whole_set_floats = 8 * images.nbytes
        assert peaks[256] - peaks[64] < 0.05 * whole_set_floats
