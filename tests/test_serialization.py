"""Weight-archive and dataset round-trips."""

import json
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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


def rewrite_manifest(base, edit):
    path = base.with_suffix(".json")
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def flip_last_crc(manifest, blob):
    manifest["params"][-1]["crc32"] ^= 1


def shorten_last(manifest, blob):
    # bytes and checksum agree, but hold one value fewer than the shape
    last = manifest["params"][-1]
    last["nbytes"] -= 8
    last["crc32"] = zlib.crc32(
        blob[last["offset"]:last["offset"] + last["nbytes"]])


def alias_equal_entries(manifest, blob):
    # two running-variance arrays of equal width hold equal bytes, so
    # pointing one at the other passes every per-entry check
    first = {}
    for entry in manifest["params"]:
        key = (entry["nbytes"], entry["crc32"])
        if key in first:
            entry["offset"] = first[key]["offset"]
            return
        first[key] = entry
    raise AssertionError("no two archive entries hold equal bytes")


# every array of tiny_net in archive order: parameters in network order
# (module layers pw1, bn1, dw, bn_dw, pw2, bn2, merge.*, evo.*), then the
# running statistics of every batch norm in the same order
MODULES = ["stage2.0", "stage3.0", "stage4.0"]
MODULE_PARAMS = [
    "pw1.weight", "bn1.gamma", "bn1.beta", "dw.weight", "bn_dw.gamma",
    "bn_dw.beta", "pw2.weight", "bn2.gamma", "bn2.beta", "merge.conv.weight",
    "merge.bn.gamma", "merge.bn.beta", "evo.conv_e.weight", "evo.bn_e.gamma",
    "evo.bn_e.beta", "evo.conv_m.weight", "evo.bn_m.gamma", "evo.bn_m.beta"]
MODULE_BNS = ["bn1", "bn_dw", "bn2", "merge.bn", "evo.bn_e", "evo.bn_m"]
TINY_ARCHIVE_ORDER = (
    ["stem.conv.weight", "stem.bn.gamma", "stem.bn.beta"]
    + [f"{m}.{p}" for m in MODULES for p in MODULE_PARAMS]
    + ["fc.weight", "fc.bias"]
    + [f"{bn}.{stat}"
       for bn in ["stem.bn"] + [f"{m}.{b}" for m in MODULES for b in MODULE_BNS]
       for stat in ("running_mean", "running_var")])


class TestWeightArchive:
    def test_float64_roundtrip_lossless(self, tmp_path):
        net = tiny_net(seed=3)
        # touch the running stats so they differ from the init values
        net.forward(np.random.default_rng(0).normal(size=(4, 3, 8, 8)),
                    train=True)
        before = snapshot(net)
        save_weights(net, tmp_path / "w")
        other = tiny_net(seed=9)
        load_weights(other, tmp_path / "w")
        after = snapshot(other)
        assert set(before) == set(after)
        for name in before:
            assert np.array_equal(before[name], after[name]), name

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

    def test_archive_order_is_fixed(self, tmp_path):
        path = save_weights(tiny_net(), tmp_path / "w")
        names = [e["name"] for e in json.loads(path.read_text())["params"]]
        assert len(TINY_ARCHIVE_ORDER) == 97
        assert names == TINY_ARCHIVE_ORDER

    @pytest.mark.parametrize("corrupt, message", [
        (flip_last_crc, "checksum"),
        (shorten_last, "shape mismatch"),
        (alias_equal_entries, "overlapping"),
    ])
    def test_failed_load_leaves_net_unchanged(self, tmp_path, corrupt,
                                              message):
        save_weights(tiny_net(seed=3), tmp_path / "w")
        blob = (tmp_path / "w.bin").read_bytes()
        rewrite_manifest(tmp_path / "w", lambda m: corrupt(m, blob))
        other = tiny_net(seed=9)
        before = snapshot(other)
        with pytest.raises(ValueError, match=message):
            load_weights(other, tmp_path / "w")
        after = snapshot(other)
        for name in before:
            assert np.array_equal(before[name], after[name]), name

    def test_negative_offset_rejected(self, tmp_path):
        save_weights(tiny_net(), tmp_path / "w")
        blob_size = (tmp_path / "w.bin").stat().st_size

        def from_the_end(manifest):
            # the same bytes, addressed from the blob's end
            manifest["params"][-2]["offset"] -= blob_size

        rewrite_manifest(tmp_path / "w", from_the_end)
        with pytest.raises(ValueError, match="negative offset"):
            load_weights(tiny_net(), tmp_path / "w")

    def test_unknown_manifest_dtype_named(self, tmp_path):
        save_weights(tiny_net(), tmp_path / "w")

        def to_float16(manifest):
            manifest["dtype"] = "float16"

        rewrite_manifest(tmp_path / "w", to_float16)
        with pytest.raises(ValueError, match="unknown archive dtype 'float16'"):
            load_weights(tiny_net(), tmp_path / "w")

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

    def test_wrong_manifest_format_rejected(self, tmp_path):
        (tmp_path / "x.json").write_text(json.dumps({"format": "other"}))
        (tmp_path / "x.bin").write_bytes(b"")
        with pytest.raises(ValueError, match="not a weight archive"):
            load_weights(tiny_net(), tmp_path / "x")


# one manifest field and a new value for it: an entry's offset, byte count,
# checksum, shape or name, or the archive's dtype
MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(["offset", "nbytes", "crc32"]),
              st.integers(-2 ** 40, 2 ** 40)),
    st.tuples(st.just("shape"), st.lists(st.integers(0, 40), max_size=4)),
    st.tuples(st.just("name"),
              st.one_of(st.sampled_from(TINY_ARCHIVE_ORDER), st.text())),
    st.tuples(st.just("dtype"),
              st.one_of(st.sampled_from(["float32", "float16", "<f8"]),
                        st.text())),
)


@pytest.fixture(scope="module")
def saved_archive(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz") / "w"
    save_weights(tiny_net(seed=3), base)
    return base, json.loads(base.with_suffix(".json").read_text())


@given(mutation=MUTATIONS, index=st.integers(0, len(TINY_ARCHIVE_ORDER) - 1))
@settings(max_examples=150, deadline=None)
def test_fuzzed_manifest_fails_cleanly(saved_archive, mutation, index):
    """Any one changed manifest field fails the load with ValueError or
    KeyError, and the network keeps every array it had."""
    base, manifest = saved_archive
    field, value = mutation
    manifest = json.loads(json.dumps(manifest))
    holder = manifest if field == "dtype" else manifest["params"][index]
    assume(holder[field] != value)
    holder[field] = value
    base.with_suffix(".json").write_text(json.dumps(manifest))
    net = tiny_net(seed=9)
    before = snapshot(net)
    with pytest.raises((ValueError, KeyError)):
        load_weights(net, base)
    after = snapshot(net)
    for name in before:
        assert np.array_equal(before[name], after[name]), name


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
