"""End-to-end command-line behaviour via ``menet.cli.main``."""

import json

import numpy as np
import pytest

from menet import builder, cli, training
from menet.layers import Conv2d
from menet.cli import _merged_settings, build_parser, load_config, main

DESK_FLAGS = ["--model", "8-MENet-1x1", "--groups", "2",
              "--stage-repeats", "1", "1", "1", "--stem-channels", "4",
              "--no-stem-pool"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(code, err):
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1


class TestShuffleDemo:
    def test_nine_three(self, capsys):
        code, out, _ = run(capsys, "shuffle-demo", "--channels", "9",
                           "--groups", "3")
        assert code == 0
        assert out.strip() == "0 3 6 1 4 7 2 5 8"

    def test_deterministic_output(self, capsys):
        _, a, _ = run(capsys, "shuffle-demo", "--channels", "12", "--groups", "4")
        _, b, _ = run(capsys, "shuffle-demo", "--channels", "12", "--groups", "4")
        assert a == b

    @pytest.mark.parametrize("channels", ["0", "-4"])
    def test_channels_below_one_is_error(self, capsys, channels):
        code, out, err = run(capsys, "shuffle-demo", "--channels", channels,
                             "--groups", "2")
        assert_one_error_line(code, err)
        assert f"channels must be >= 1, got {channels}" in err and out == ""

    @pytest.mark.parametrize("groups", ["0", "-3"])
    def test_groups_below_one_is_error(self, capsys, groups):
        code, out, err = run(capsys, "shuffle-demo", "--channels", "9",
                             "--groups", groups)
        assert_one_error_line(code, err)
        assert f"groups must be >= 1, got {groups}" in err and out == ""


class TestAnalyze:
    def test_reference_numbers(self, capsys):
        code, out, _ = run(capsys, "analyze", "--channels", "9",
                           "--groups", "3")
        assert code == 0
        assert "n_total 27" in out
        assert "n_actual 9" in out
        assert "(66.7%)" in out
        assert "formula_agrees yes" in out

    def test_eight_groups(self, capsys):
        code, out, _ = run(capsys, "analyze", "--channels", "64",
                           "--groups", "8")
        assert code == 0
        assert "(87.5%)" in out

    def test_pattern_flag(self, capsys):
        code, out, _ = run(capsys, "analyze", "--channels", "8",
                           "--groups", "2", "--pattern")
        assert code == 0
        assert "fused_pattern_dense yes" in out

    def test_indivisible_is_error(self, capsys):
        code, _, err = run(capsys, "analyze", "--channels", "10",
                           "--groups", "3")
        assert code == 2
        assert err.startswith("error:")

    def test_groups_below_one_is_error(self, capsys):
        code, _, err = run(capsys, "analyze", "--channels", "9",
                           "--groups", "0")
        assert_one_error_line(code, err)
        assert "groups must be >= 1" in err

    @pytest.mark.parametrize("channels", ["0", "-3"])
    def test_channels_below_one_is_error(self, capsys, channels):
        code, out, err = run(capsys, "analyze", "--channels", channels,
                             "--groups", "3")
        assert_one_error_line(code, err)
        assert f"channels must be >= 1, got {channels}" in err and out == ""


class TestFlops:
    def test_reference_total(self, capsys):
        code, out, _ = run(capsys, "flops", "--model", "352-MENet-12x1",
                           "--groups", "8")
        assert code == 0
        total = int(out.split("total_macs")[1].split()[0])
        assert abs(total - 144e6) / 144e6 < 0.05

    def test_per_layer_table(self, capsys):
        code, out, _ = run(capsys, "flops", "--model", "228-MENet-12x1",
                           "--groups", "3", "--per-layer")
        assert code == 0
        assert "stem.conv" in out and "stage4.3/pw2" in out

    def test_missing_model_is_error(self, capsys):
        code, _, err = run(capsys, "flops")
        assert code == 2 and "model" in err

    @pytest.mark.parametrize("command", ["flops", "build"])
    def test_negative_seed_is_one_error_line(self, capsys, command):
        assert run(capsys, command, *DESK_FLAGS)[0] == 0
        code, out, err = run(capsys, command, *DESK_FLAGS, "--seed", "-1")
        assert_one_error_line(code, err)
        assert "negative" in err and out == ""


class TestBuild:
    def test_summary_printed(self, capsys):
        code, out, _ = run(capsys, "build", "--model", "256-MENet-12x1",
                           "--groups", "4")
        assert code == 0
        assert "16 modules" in out
        assert "total" in out

    def test_malformed_notation_is_error(self, capsys):
        code, _, err = run(capsys, "build", "--model", "not-a-model")
        assert code == 2
        assert "position" in err

    @pytest.mark.parametrize("flags,message", [
        (["--model", "2-MENet-1x1"], "residual_width must be >= 4"),
        (["--model", "8-MENet-0x1"], "fusion_width must be >= 1"),
        (["--model", "8-MENet-1x0.5"], "expansion_factor must be >= 1"),
        (["--model", "8-MENet-1x1", "--num-classes", "1"],
         "num_classes must be >= 2"),
        (["--model", "228-MENet-12x1", "--input-size", "0"],
         "input_size must be >= 1"),
        (["--model", "228-MENet-12x1", "--input-size", "-5"],
         "input_size must be >= 1"),
        (["--model", "8-MENet-1x1", "--stem-channels", "0"],
         "stem_channels must be >= 1"),
        (["--model", "8-MENet-1x1", "--stage-repeats", "0", "1", "1"],
         "every stage_repeats entry must be >= 1"),
        (["--model", "8-MENet-1x1", "--stage-repeats", "1", "1", "-2"],
         "every stage_repeats entry must be >= 1"),
    ])
    def test_out_of_range_setting_is_one_error_line(self, capsys, flags,
                                                    message):
        code, out, err = run(capsys, "build", *flags)
        assert_one_error_line(code, err)
        assert message in err and out == ""


    def test_groups_zero_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "build", "--model", "228-MENet-12x1",
                             "--groups", "0")
        assert_one_error_line(code, err)
        assert "groups must be >= 1, got 0" in err and out == ""


class TestGradcheck:
    def test_passes_both_modes(self, capsys):
        for mode in ("product", "addition"):
            code, out, _ = run(capsys, "gradcheck", "--seed", "1",
                               "--combine-mode", mode)
            assert code == 0
            assert "pass" in out

    @pytest.mark.parametrize("mode", ["product", "addition"])
    def test_prints_absolute_margin(self, capsys, mode):
        code, out, _ = run(capsys, "gradcheck", "--seed", "0",
                           "--combine-mode", mode)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "module_max_rel_err 0.000e+00"
        name, value = lines[1].split()
        assert name == "module_max_abs_diff" and 0 < float(value) < 1e-7
        assert lines[2] == "pass"

    def test_nan_weight_gradients_fail(self, capsys, monkeypatch):
        # the input gradient stays finite; every conv weight gradient is NaN
        backward = Conv2d.backward

        def nan_weights(self, grad_out):
            grad_x = backward(self, grad_out)
            self.grads["weight"][...] = np.nan
            return grad_x

        monkeypatch.setattr(Conv2d, "backward", nan_weights)
        code, out, _ = run(capsys, "gradcheck", "--seed", "0")
        assert code == 1
        assert out.splitlines() == ["module_max_rel_err nan",
                                    "module_max_abs_diff nan", "FAIL"]


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"model": "228-MENet-12x1", "bogus": 1}))
        with pytest.raises(ValueError, match="bogus"):
            load_config(p)

    def test_unknown_preset_rejected(self, capsys, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"model": "8-MENet-1x1", "preset": "fast"}))
        message = "unknown preset 'fast'; valid presets: desk, paper"
        with pytest.raises(ValueError, match=message):
            load_config(p)
        code, out, err = run(capsys, "build", "--config", str(p))
        assert_one_error_line(code, err)
        assert message in err and out == ""

    def test_root_not_an_object_is_one_error_line(self, capsys, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(["228-MENet-12x1"]))
        code, _, err = run(capsys, "build", "--config", str(p))
        assert_one_error_line(code, err)
        assert "JSON object" in err

    def test_flip_augment_is_unknown_key(self, capsys, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"model": "8-MENet-1x1",
                                 "flip_augment": True}))
        code, _, err = run(capsys, "build", "--config", str(p))
        assert_one_error_line(code, err)
        assert "unknown config keys: ['flip_augment']" in err

    def test_flag_overrides_file(self, capsys, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"model": "228-MENet-12x1", "groups": 3}))
        code, out, _ = run(capsys, "build", "--config", str(p),
                           "--groups", "4")
        assert code == 2  # 228 bottlenecks are not divisible by 4
        code, out, _ = run(capsys, "build", "--config", str(p))
        assert code == 0 and "g=3" in out

    def test_preset_flag_expands(self):
        args = build_parser().parse_args(["train", "--preset", "paper"])
        assert _merged_settings(args)["batch_size"] == 256

    def test_flag_overrides_preset(self):
        args = build_parser().parse_args(
            ["train", "--preset", "paper", "--epochs", "2"])
        settings = _merged_settings(args)
        assert settings["epochs"] == 2 and settings["batch_size"] == 256

    def test_mistyped_value_is_error(self, capsys, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"model": "228-MENet-12x1", "groups": "3"}))
        code, out, err = run(capsys, "flops", "--config", str(p))
        assert code == 2
        assert err.startswith("error:") and len(err.splitlines()) == 1


class TestConfigValueTypes:
    """Each config value must have its flag's type: no bool or float for
    an integer, an integer is a number, only true/false for stem_pool."""

    @pytest.mark.parametrize("key, value, kind", [
        ("groups", True, "an integer"),
        ("groups", 3.0, "an integer"),
        ("groups", "3", "an integer"),
        ("seed", False, "an integer"),
        ("epochs", 2.5, "an integer"),
        ("base_lr", True, "a number"),
        ("momentum", "0.9", "a number"),
        ("stem_pool", 0, "true or false"),
        ("stem_pool", "false", "true or false"),
        ("stage_repeats", 4, "a list of integers"),
        ("stage_repeats", [4, 8.0, 4], "a list of integers"),
        ("stage_repeats", [4, True, 4], "a list of integers"),
        ("model", 228, "a string"),
        ("dataset", None, "a string"),
    ])
    def test_mistyped_value_names_key(self, capsys, tmp_path, key, value,
                                      kind):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"model": "228-MENet-12x1", key: value}))
        with pytest.raises(ValueError, match=f"config key '{key}' must be "
                                             f"{kind}, got "):
            load_config(p)
        code, out, err = run(capsys, "build", "--config", str(p))
        assert_one_error_line(code, err)
        assert f"config key '{key}' must be {kind}, got " \
               f"{json.dumps(value)}" in err and out == ""

    def test_every_key_accepts_its_type(self, tmp_path):
        cfg = {"model": "8-MENet-1x1", "groups": 2, "stage_repeats": [1, 1, 1],
               "num_classes": 2, "input_size": 8, "stem_channels": 4,
               "stem_pool": False, "combine_mode": "addition", "epochs": 1,
               "batch_size": 8, "base_lr": 1, "momentum": 0.5,
               "weight_decay": 0, "step_epochs": 1, "seed": 3,
               "dataset": "d", "weights_out": "w", "metrics_out": "m",
               "preset": "desk"}
        assert cfg.keys() == cli.CONFIG_KEYS.keys()
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert load_config(p) == cfg


class TestTrainEvalRoundtrip:
    def test_full_pipeline(self, capsys, tmp_path):
        data = tmp_path / "synth"
        code, out, _ = run(capsys, "make-synth", "--out", str(data),
                           "--count", "32", "--size", "8", "--classes", "2",
                           "--seed", "0")
        assert code == 0 and "32 samples" in out

        model_flags = ["--model", "8-MENet-1x1", "--groups", "2",
                       "--stage-repeats", "1", "1", "1",
                       "--stem-channels", "4", "--no-stem-pool"]
        weights = tmp_path / "weights"
        # enough epochs for the BN running statistics to settle, so the
        # eval-mode pass agrees with the fitted train-mode behaviour
        code, out, _ = run(capsys, "train", *model_flags,
                           "--dataset", str(data), "--epochs", "24",
                           "--batch-size", "16", "--base-lr", "0.05",
                           "--seed", "0", "--weights-out", str(weights))
        assert code == 0
        final = float(out.split("final_accuracy")[1].split()[0])
        assert final == 1.0

        code, out, _ = run(capsys, "eval", *model_flags,
                           "--dataset", str(data), "--weights", str(weights),
                           "--seed", "0")
        assert code == 0
        acc = float(out.split("accuracy")[1].split()[0])
        assert acc == 1.0

    def test_train_runs_bit_identical(self, capsys, tmp_path):
        data = tmp_path / "synth"
        run(capsys, "make-synth", "--out", str(data), "--count", "16",
            "--size", "8", "--seed", "1")
        flags = ["train", "--model", "8-MENet-1x1", "--groups", "2",
                 "--stage-repeats", "1", "1", "1", "--stem-channels", "4",
                 "--no-stem-pool", "--dataset", str(data), "--epochs", "3",
                 "--batch-size", "8", "--base-lr", "0.05", "--seed", "3"]
        _, a, _ = run(capsys, *flags)
        _, b, _ = run(capsys, *flags)
        assert a == b

    def test_eval_rejects_partial_archive(self, capsys, tmp_path):
        data = tmp_path / "synth"
        run(capsys, "make-synth", "--out", str(data), "--count", "8")
        model_flags = ["--model", "8-MENet-1x1", "--groups", "2",
                       "--stage-repeats", "1", "1", "1",
                       "--stem-channels", "4", "--no-stem-pool"]
        weights = tmp_path / "weights"
        code, _, _ = run(capsys, "train", *model_flags, "--dataset",
                         str(data), "--epochs", "1", "--batch-size", "8",
                         "--weights-out", str(weights))
        assert code == 0
        manifest_path = weights.with_suffix(".json")
        manifest = json.loads(manifest_path.read_text())
        manifest["params"] = manifest["params"][:3]
        manifest_path.write_text(json.dumps(manifest))
        code, out, err = run(capsys, "eval", *model_flags, "--dataset",
                             str(data), "--weights", str(weights))
        assert code == 2 and "accuracy" not in out
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_archive_entry_not_in_network_is_one_error_line(self, capsys,
                                                            tmp_path):
        data, weights = tmp_path / "synth", tmp_path / "weights"
        run(capsys, "make-synth", "--out", str(data), "--count", "8")
        code, _, _ = run(capsys, "train", *DESK_FLAGS, "--dataset",
                         str(data), "--epochs", "1", "--batch-size", "8",
                         "--weights-out", str(weights))
        assert code == 0
        manifest_path = weights.with_suffix(".json")
        manifest = json.loads(manifest_path.read_text())
        manifest["params"].append({**manifest["params"][0],
                                   "name": "stage9.0.pw1.weight"})
        manifest_path.write_text(json.dumps(manifest))
        code, out, err = run(capsys, "eval", *DESK_FLAGS, "--dataset",
                             str(data), "--weights", str(weights))
        assert_one_error_line(code, err)
        assert "'stage9.0.pw1.weight' not in network" in err
        assert "accuracy" not in out

    def test_more_classes_than_outputs_is_one_error_line(self, capsys,
                                                         tmp_path):
        # two-class weights scored a three-class set as accuracy 0.3333
        pairs, triples = tmp_path / "pairs", tmp_path / "triples"
        weights = tmp_path / "weights"
        run(capsys, "make-synth", "--out", str(pairs), "--count", "8")
        run(capsys, "make-synth", "--out", str(triples), "--count", "9",
            "--classes", "3")
        code, _, _ = run(capsys, "train", *DESK_FLAGS, "--dataset",
                         str(pairs), "--epochs", "1", "--batch-size", "8",
                         "--weights-out", str(weights))
        assert code == 0
        code, out, err = run(capsys, "eval", *DESK_FLAGS, "--num-classes",
                             "2", "--dataset", str(triples), "--weights",
                             str(weights))
        assert_one_error_line(code, err)
        assert "dataset has 3 classes, network outputs 2" in err
        assert "accuracy" not in out
        code, out, err = run(capsys, "train", *DESK_FLAGS, "--num-classes",
                             "2", "--dataset", str(triples), "--epochs", "1",
                             "--batch-size", "9")
        assert_one_error_line(code, err)
        assert "dataset has 3 classes, network outputs 2" in err
        assert out == ""

    def test_make_synth_empty_is_one_error_line(self, capsys, tmp_path):
        code, out, err = run(capsys, "make-synth", "--out",
                             str(tmp_path / "synth"), "--count", "0")
        assert_one_error_line(code, err)
        assert "dataset is empty" in err and "wrote" not in out

    @pytest.mark.parametrize("count", ["-3", "-1"])
    def test_make_synth_negative_count_is_one_error_line(self, capsys,
                                                         tmp_path, count):
        code, out, err = run(capsys, "make-synth", "--out",
                             str(tmp_path / "synth"), "--count", count)
        assert_one_error_line(code, err)
        assert f"count must be >= 1, got {count}" in err and out == ""

    def test_last_batch_too_small_is_one_error_line(self, capsys, tmp_path):
        data = tmp_path / "synth"
        run(capsys, "make-synth", "--out", str(data), "--count", "33")
        code, out, err = run(capsys, "train", "--model", "8-MENet-1x1",
                             "--groups", "2", "--stage-repeats", "1", "1",
                             "1", "--stem-channels", "4", "--no-stem-pool",
                             "--dataset", str(data), "--epochs", "1",
                             "--batch-size", "16")
        assert code == 2 and "epoch" not in out
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "33 samples at batch size 16 leave a last batch of 1" in err

    @pytest.mark.parametrize("flag, value", [
        ("--epochs", "0"), ("--epochs", "-1"),
        ("--batch-size", "0"), ("--batch-size", "-4")])
    def test_epochs_or_batch_size_below_one_is_one_error_line(
            self, capsys, tmp_path, flag, value):
        data = tmp_path / "synth"
        run(capsys, "make-synth", "--out", str(data), "--count", "8")
        flags = {"--epochs": "1", "--batch-size": "8", flag: value}
        code, out, err = run(capsys, "train", *DESK_FLAGS, "--dataset",
                             str(data), *[a for kv in flags.items() for a in kv])
        assert_one_error_line(code, err)
        name = flag[2:].replace("-", "_")
        assert f"{name} must be >= 1, got {value}" in err and out == ""

    def test_make_synth_zero_classes_is_one_error_line(self, capsys,
                                                       tmp_path):
        code, out, err = run(capsys, "make-synth", "--out",
                             str(tmp_path / "synth"), "--classes", "0")
        assert_one_error_line(code, err)
        assert "class_count 0" in err and "wrote" not in out

    def test_step_epochs_zero_in_config_is_one_error_line(self, capsys,
                                                          tmp_path):
        data, config = tmp_path / "synth", tmp_path / "c.json"
        run(capsys, "make-synth", "--out", str(data), "--count", "8")
        config.write_text(json.dumps({"step_epochs": 0}))
        code, out, err = run(capsys, "train", *DESK_FLAGS, "--config",
                             str(config), "--dataset", str(data),
                             "--epochs", "1", "--batch-size", "8")
        assert_one_error_line(code, err)
        assert "step_epochs must be >= 1, got 0" in err
        assert "epoch" not in out

    def test_make_synth_more_classes_than_pixels_is_error(self, capsys,
                                                         tmp_path):
        code, out, err = run(capsys, "make-synth", "--out",
                             str(tmp_path / "synth"), "--count", "40",
                             "--size", "8", "--classes", "10")
        assert code == 2 and "wrote" not in out
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("manifest", ["weights", "synth"])
    def test_manifest_root_not_an_object_is_one_error_line(
            self, capsys, tmp_path, manifest):
        data, weights = tmp_path / "synth", tmp_path / "weights"
        run(capsys, "make-synth", "--out", str(data), "--count", "8")
        code, _, _ = run(capsys, "train", *DESK_FLAGS, "--dataset",
                         str(data), "--epochs", "1", "--batch-size", "8",
                         "--weights-out", str(weights))
        assert code == 0
        (tmp_path / f"{manifest}.json").write_text("[1]")
        code, out, err = run(capsys, "eval", *DESK_FLAGS, "--dataset",
                             str(data), "--weights", str(weights))
        assert code == 2 and "accuracy" not in out
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "manifest" in err

    @staticmethod
    def _desk_archives(capsys, tmp_path):
        """A desk dataset and the weights of one epoch on it."""
        data, weights = tmp_path / "synth", tmp_path / "weights"
        run(capsys, "make-synth", "--out", str(data), "--count", "8")
        code, _, _ = run(capsys, "train", *DESK_FLAGS, "--dataset",
                         str(data), "--epochs", "1", "--batch-size", "8",
                         "--weights-out", str(weights))
        assert code == 0
        return data, {"train": ["--epochs", "1", "--batch-size", "8"],
                      "eval": ["--weights", str(weights)]}

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("offset, name", [(0, "images"), (-1, "labels")])
    def test_flipped_dataset_bit_is_one_error_line(self, capsys, tmp_path,
                                                    command, offset, name):
        data, flags = self._desk_archives(capsys, tmp_path)
        blob = bytearray(data.with_suffix(".bin").read_bytes())
        blob[offset] ^= 1
        data.with_suffix(".bin").write_bytes(bytes(blob))
        code, out, err = run(capsys, command, *DESK_FLAGS, "--dataset",
                             str(data), *flags[command])
        assert_one_error_line(code, err)
        assert f"checksum mismatch for {name}" in err and out == ""

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_v1_dataset_is_one_error_line(self, capsys, tmp_path, command):
        data, flags = self._desk_archives(capsys, tmp_path)
        data.with_suffix(".json").write_text(json.dumps({
            "format": "menet-dataset", "version": 1, "count": 8,
            "channels": 3, "height": 8, "width": 8, "class_count": 2}))
        code, out, err = run(capsys, command, *DESK_FLAGS, "--dataset",
                             str(data), *flags[command])
        assert_one_error_line(code, err)
        assert "menet-dataset version 1" in err and out == ""

    def test_train_defaults_come_from_desk_preset(self, capsys, tmp_path,
                                                  monkeypatch):
        data = tmp_path / "synth"
        run(capsys, "make-synth", "--out", str(data), "--count", "8")
        monkeypatch.setitem(training.PRESETS["desk"], "epochs", 2)
        monkeypatch.setitem(training.PRESETS["desk"], "batch_size", 8)
        code, out, _ = run(capsys, "train", *DESK_FLAGS, "--dataset",
                           str(data))
        assert code == 0
        assert [line.split()[:2] for line in out.splitlines()
                if line.startswith("epoch")] == [["epoch", "0"],
                                                 ["epoch", "1"]]

    def test_metrics_out_appends_epoch_lines(self, capsys, tmp_path):
        data, metrics = tmp_path / "synth", tmp_path / "metrics.txt"
        run(capsys, "make-synth", "--out", str(data), "--count", "8")
        flags = ["train", *DESK_FLAGS, "--dataset", str(data),
                 "--batch-size", "8", "--metrics-out", str(metrics)]
        epoch_lines = []
        for epochs in ("2", "1"):
            code, out, _ = run(capsys, *flags, "--epochs", epochs)
            assert code == 0
            epoch_lines += [line for line in out.splitlines()
                            if line.startswith("epoch")]
        assert len(epoch_lines) == 3
        assert metrics.read_text() == "".join(f"{line}\n"
                                              for line in epoch_lines)

    def test_non_finite_loss_is_one_error_line(self, capsys, tmp_path,
                                               monkeypatch):
        data, metrics = tmp_path / "synth", tmp_path / "metrics.txt"
        run(capsys, "make-synth", "--out", str(data), "--count", "8")
        build = builder.build_menet

        def poisoned(cfg, seed=0):
            net = build(cfg, seed=seed)
            net.params["fc.weight"][0, 0] = float("nan")
            return net

        sinks = []

        def recording_open(*args, **kwargs):
            sinks.append(open(*args, **kwargs))
            return sinks[-1]

        monkeypatch.setattr(builder, "build_menet", poisoned)
        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        code, out, err = run(capsys, "train", *DESK_FLAGS, "--dataset",
                             str(data), "--epochs", "2", "--batch-size", "8",
                             "--metrics-out", str(metrics))
        assert_one_error_line(code, err)
        assert "loss is nan at epoch 0, batch offset 0" in err
        assert "epoch" not in out and "final_accuracy" not in out
        assert len(sinks) == 1 and sinks[0].closed
        assert metrics.read_text() == ""

    @pytest.mark.parametrize("flags,config,message", [
        (["--base-lr", "nan"], None, "base_lr must be a finite number > 0, "
                                     "got nan"),
        (["--base-lr", "inf"], None, "base_lr must be a finite number > 0, "
                                     "got inf"),
        ([], '{"momentum": NaN}', "momentum must be a finite number >= 0, "
                                  "got nan"),
        ([], '{"weight_decay": Infinity}', "weight_decay must be a finite "
                                          "number >= 0, got inf")])
    def test_non_finite_optimizer_setting_is_one_error_line(
            self, capsys, tmp_path, flags, config, message):
        data, weights = tmp_path / "synth", tmp_path / "weights"
        run(capsys, "make-synth", "--out", str(data), "--count", "8")
        if config is not None:
            (tmp_path / "c.json").write_text(config)
            flags = ["--config", str(tmp_path / "c.json")]
        code, out, err = run(capsys, "train", *DESK_FLAGS, *flags,
                             "--dataset", str(data), "--epochs", "1",
                             "--batch-size", "8", "--weights-out",
                             str(weights))
        assert_one_error_line(code, err)
        assert message in err and "epoch" not in out
        assert not list(tmp_path.glob("weights*"))

    def test_diverging_run_is_one_error_line(self, capsys, tmp_path):
        # the README desk run at a learning rate of 1e6
        data, weights = tmp_path / "synth", tmp_path / "weights"
        run(capsys, "make-synth", "--out", str(data), "--count", "32")
        code, out, err = run(capsys, "train", *DESK_FLAGS, "--dataset",
                             str(data), "--epochs", "24", "--batch-size",
                             "16", "--base-lr", "1e6", "--weights-out",
                             str(weights))
        assert_one_error_line(code, err)
        assert "above the divergence limit 69.31 (100 * ln 2)" in err
        assert "final_accuracy" not in out
        assert not list(tmp_path.glob("weights*"))

    def test_missing_dataset_is_error(self, capsys):
        code, _, err = run(capsys, "train", "--model", "8-MENet-1x1",
                           "--groups", "2")
        assert code == 2 and "dataset" in err
