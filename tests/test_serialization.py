"""Weight-archive and dataset round-trips."""

import json

import numpy as np
import pytest

from menet.builder import MENetConfig, build_menet
from menet.serialization import (
    load_dataset,
    load_weights,
    save_dataset,
    save_weights,
)
from menet.training import make_synthetic_dataset


def tiny_net(seed=0):
    cfg = MENetConfig(residual_width=8, fusion_width=1, groups=2,
                      stage_repeats=[1, 1, 1], stem_channels=4, num_classes=2,
                      input_size=8, stem_pool=False)
    return build_menet(cfg, seed=seed)


def snapshot(net):
    entries = {name: p.copy() for name, p in net.named_params()}
    for name, bn in net.batchnorms():
        entries[f"{name}.running_mean"] = bn.running_mean.copy()
        entries[f"{name}.running_var"] = bn.running_var.copy()
    return entries


class TestWeightArchive:
    def test_float64_roundtrip_lossless(self, tmp_path):
        net = tiny_net(seed=3)
        # touch the running stats so they differ from the init values
        net.forward(np.random.default_rng(0).normal(size=(4, 3, 8, 8)),
                    train=True)
        before = snapshot(net)
        save_weights(net, tmp_path / "w", dtype="float64")
        other = tiny_net(seed=9)
        load_weights(other, tmp_path / "w")
        after = snapshot(other)
        assert set(before) == set(after)
        for name in before:
            assert np.array_equal(before[name], after[name]), name

    def test_float32_roundtrip_within_mantissa(self, tmp_path):
        net = tiny_net(seed=4)
        before = snapshot(net)
        save_weights(net, tmp_path / "w32", dtype="float32")
        other = tiny_net(seed=11)
        load_weights(other, tmp_path / "w32")
        for name, arr in snapshot(other).items():
            ref = before[name]
            denom = np.maximum(np.abs(ref), 1e-30)
            assert np.all(np.abs(arr - ref) / denom <= 2.0 ** -23), name

    def test_manifest_contents(self, tmp_path):
        net = tiny_net()
        path = save_weights(net, tmp_path / "w")
        manifest = json.loads(path.read_text())
        assert manifest["format"] == "menet-weights"
        names = [e["name"] for e in manifest["params"]]
        assert "stem.conv.weight" in names
        assert "stem.bn.running_mean" in names
        blob = (tmp_path / "w.bin").read_bytes()
        last = manifest["params"][-1]
        assert len(blob) == last["offset"] + last["nbytes"]

    def test_corrupt_blob_detected(self, tmp_path):
        net = tiny_net()
        save_weights(net, tmp_path / "w")
        blob = bytearray((tmp_path / "w.bin").read_bytes())
        blob[10] ^= 0xFF
        (tmp_path / "w.bin").write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum"):
            load_weights(tiny_net(), tmp_path / "w")

    def test_shape_mismatch_detected(self, tmp_path):
        net = tiny_net()
        save_weights(net, tmp_path / "w")
        other_cfg = MENetConfig(residual_width=8, fusion_width=1, groups=2,
                                stage_repeats=[1, 1, 1], stem_channels=4,
                                num_classes=3, input_size=8, stem_pool=False)
        other = build_menet(other_cfg, seed=0)
        with pytest.raises(ValueError, match="shape mismatch"):
            load_weights(other, tmp_path / "w")

    def test_partial_archive_rejected(self, tmp_path):
        net = tiny_net()
        save_weights(net, tmp_path / "w")
        manifest = json.loads((tmp_path / "w.json").read_text())
        total = len(manifest["params"])
        first_missing = manifest["params"][3]["name"]
        manifest["params"] = manifest["params"][:3]
        (tmp_path / "w.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=(
                f"lacks {total - 3} of .* {total} arrays, "
                f"first '{first_missing}'")):
            load_weights(tiny_net(), tmp_path / "w")

    def test_unknown_dtype_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_weights(tiny_net(), tmp_path / "w", dtype="float16")

    def test_wrong_manifest_format_rejected(self, tmp_path):
        (tmp_path / "x.json").write_text(json.dumps({"format": "other"}))
        (tmp_path / "x.bin").write_bytes(b"")
        with pytest.raises(ValueError, match="not a weight archive"):
            load_weights(tiny_net(), tmp_path / "x")


class TestDataset:
    def test_roundtrip_exact(self, tmp_path):
        data = make_synthetic_dataset(count=24, size=6, classes=3, seed=5)
        save_dataset(data, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert np.array_equal(back.images, data.images)
        assert np.array_equal(back.labels, data.labels)
        assert back.class_count == data.class_count

    def test_blob_layout_pixels_then_labels(self, tmp_path):
        data = make_synthetic_dataset(count=4, size=2, classes=2, seed=6)
        save_dataset(data, tmp_path / "d")
        blob = (tmp_path / "d.bin").read_bytes()
        n_pixels = data.images.size
        assert len(blob) == n_pixels + len(data)
        assert blob[n_pixels:] == data.labels.tobytes()

    def test_truncated_blob_detected(self, tmp_path):
        data = make_synthetic_dataset(count=4, size=2, seed=7)
        save_dataset(data, tmp_path / "d")
        blob = (tmp_path / "d.bin").read_bytes()
        (tmp_path / "d.bin").write_bytes(blob[:-3])
        with pytest.raises(ValueError, match="bytes"):
            load_dataset(tmp_path / "d")
