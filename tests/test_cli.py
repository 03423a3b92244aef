"""End-to-end command-line behaviour via ``menet.cli.main``."""

import json

import pytest

from menet.cli import _merged_settings, build_parser, load_config, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestGradcheck:
    def test_passes_both_modes(self, capsys):
        for mode in ("product", "addition"):
            code, out, _ = run(capsys, "gradcheck", "--seed", "1",
                               "--combine-mode", mode)
            assert code == 0
            assert "pass" in out


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"model": "228-MENet-12x1", "bogus": 1}))
        with pytest.raises(ValueError, match="bogus"):
            load_config(p)

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

    def test_make_synth_more_classes_than_pixels_is_error(self, capsys,
                                                         tmp_path):
        code, out, err = run(capsys, "make-synth", "--out",
                             str(tmp_path / "synth"), "--count", "40",
                             "--size", "8", "--classes", "10")
        assert code == 2 and "wrote" not in out
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_missing_dataset_is_error(self, capsys):
        code, _, err = run(capsys, "train", "--model", "8-MENet-1x1",
                           "--groups", "2")
        assert code == 2 and "dataset" in err
