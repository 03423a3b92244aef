"""Weight-archive and dataset round-trips."""

import hashlib
import json
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from menet import serialization
from menet.builder import MENetConfig, build_menet
from menet.serialization import (
    _archive_entries,
    load_dataset,
    load_weights,
    save_dataset,
    save_weights,
)
from menet.training import Dataset, make_synthetic_dataset

GOLDEN = Path(__file__).parent / "golden"


def tiny_net(seed=0):
    cfg = MENetConfig(residual_width=8, fusion_width=1, groups=2,
                      stage_repeats=[1, 1, 1], stem_channels=4, num_classes=2,
                      input_size=8, stem_pool=False)
    return build_menet(cfg, seed=seed)


def arange_tiny_net():
    """``tiny_net`` with every archived array set from one running
    ``arange``, taken in ``OLD_TINY_ARCHIVE_ORDER``, so its archive does
    not depend on the RNG nor on the order it is written in."""
    net = tiny_net()
    arrays = dict(_archive_entries(net))
    start = 0
    for arr in map(arrays.get, OLD_TINY_ARCHIVE_ORDER):
        arr[...] = (np.arange(start, start + arr.size) / 7.0 - 3.0).reshape(
            arr.shape)
        start += arr.size
    return net


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


# every array of tiny_net in archive order: parameters in walk order
# (module layers pw1, bn1, merge.*, evo.*, dw, bn_dw, pw2, bn2), then the
# running statistics of every batch norm in the same order
MODULES = ["stage2.0", "stage3.0", "stage4.0"]
MODULE_PARAMS = [
    "pw1.weight", "bn1.gamma", "bn1.beta", "merge.conv.weight",
    "merge.bn.gamma", "merge.bn.beta", "evo.conv_e.weight", "evo.bn_e.gamma",
    "evo.bn_e.beta", "evo.conv_m.weight", "evo.bn_m.gamma", "evo.bn_m.beta",
    "dw.weight", "bn_dw.gamma", "bn_dw.beta", "pw2.weight", "bn2.gamma",
    "bn2.beta"]
MODULE_BNS = ["bn1", "merge.bn", "evo.bn_e", "evo.bn_m", "bn_dw", "bn2"]
# the v1 order written before the walk: each module's fusion branch last
OLD_MODULE_PARAMS = [
    "pw1.weight", "bn1.gamma", "bn1.beta", "dw.weight", "bn_dw.gamma",
    "bn_dw.beta", "pw2.weight", "bn2.gamma", "bn2.beta", "merge.conv.weight",
    "merge.bn.gamma", "merge.bn.beta", "evo.conv_e.weight", "evo.bn_e.gamma",
    "evo.bn_e.beta", "evo.conv_m.weight", "evo.bn_m.gamma", "evo.bn_m.beta"]
OLD_MODULE_BNS = ["bn1", "bn_dw", "bn2", "merge.bn", "evo.bn_e", "evo.bn_m"]


def tiny_archive_order(module_params, module_bns):
    return (
        ["stem.conv.weight", "stem.bn.gamma", "stem.bn.beta"]
        + [f"{m}.{p}" for m in MODULES for p in module_params]
        + ["fc.weight", "fc.bias"]
        + [f"{bn}.{stat}"
           for bn in ["stem.bn"] + [f"{m}.{b}" for m in MODULES
                                    for b in module_bns]
           for stat in ("running_mean", "running_var")])


TINY_ARCHIVE_ORDER = tiny_archive_order(MODULE_PARAMS, MODULE_BNS)
OLD_TINY_ARCHIVE_ORDER = tiny_archive_order(OLD_MODULE_PARAMS, OLD_MODULE_BNS)


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

    def test_dotted_names_keep_their_own_files(self, tmp_path):
        # the suffixes are appended: w_0.05 and w_0.1 must not both
        # become w_0.json/w_0.bin
        nets = {"w_0.05": tiny_net(seed=3), "w_0.1": tiny_net(seed=4)}
        for name, net in nets.items():
            assert save_weights(net, tmp_path / name) == \
                tmp_path / f"{name}.json"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "w_0.05.bin", "w_0.05.json", "w_0.1.bin", "w_0.1.json"]
        for name, net in nets.items():
            back = snapshot(load_weights(tiny_net(seed=9), tmp_path / name))
            for key, arr in snapshot(net).items():
                assert np.array_equal(back[key], arr), (name, key)

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

    @pytest.mark.parametrize("edit,message", [
        (lambda m: m["params"][2].update(offset=None),
         r"entry 2 \('[\w.]+'\): offset must be an integer, got None"),
        (lambda m: m["params"][2].update(nbytes=True),
         r"entry 2 \('[\w.]+'\): nbytes must be an integer, got True"),
        (lambda m: m["params"][2].update(offset=float(m["params"][2]["offset"])),
         r"entry 2 \('[\w.]+'\): offset must be an integer, got \d+\.0"),
        (lambda m: m["params"][2].pop("crc32"), "manifest entry 2 lacks its crc32"),
        (lambda m: m["params"][2].update(crc32="0"),
         r"entry 2 \('[\w.]+'\): crc32 must be an integer, got '0'"),
        (lambda m: m.update(params={}),
         "manifest params must be a list of entries, got dict"),
        (lambda m: m["params"].__setitem__(1, ["name"]),
         "manifest entry 1 must be an object, got list"),
        (lambda m: m["params"][1].update(name=7),
         "manifest entry 1: name must be a string that no earlier entry "
         "has, got 7"),
        (lambda m: m["params"][1].update(name=m["params"][0]["name"]),
         r"manifest entry 1: name must be a string that no earlier entry "
         r"has, got '[\w.]+'"),
        (lambda m: m["params"][1].update(shape=None),
         r"entry 1 \('[\w.]+'\): shape must be a list, got None"),
        (lambda m: m["params"][1].update(shape=[1.0]),
         r"entry 1 \('[\w.]+'\): shape dimension must be an integer, "
         r"got 1\.0"),
        (lambda m: m["params"][1].update(shape=[2, -1]),
         r"entry 1 \('[\w.]+'\): negative shape dimension -1"),
        (lambda m: m.update(version=True),
         "menet-weights version True cannot be read, only version 1"),
        (lambda m: m.update(version=1.0),
         "menet-weights version 1.0 cannot be read, only version 1"),
    ])
    def test_malformed_manifest_field_named(self, tmp_path, edit, message):
        save_weights(tiny_net(), tmp_path / "w")
        rewrite_manifest(tmp_path / "w", edit)
        with pytest.raises(ValueError, match=message):
            load_weights(tiny_net(), tmp_path / "w")


# a mutation value that deletes the field instead of setting it
DROP = object()
# JSON values of the wrong type for every manifest field
ODD_VALUES = st.one_of(st.none(), st.text(), st.floats(), st.booleans())


# one manifest field and a new value for it, or its deletion: an entry's
# offset, byte count, checksum, shape or name, or the archive's dtype,
# version or entry list
def mutations(names):
    return st.one_of(
        st.tuples(st.sampled_from(["offset", "nbytes", "crc32"]),
                  st.one_of(st.integers(-2 ** 40, 2 ** 40), ODD_VALUES)),
        st.tuples(st.just("shape"), st.one_of(
            st.lists(st.integers(0, 40), max_size=4),
            st.lists(st.one_of(st.integers(-3, -1), ODD_VALUES), min_size=1,
                     max_size=4),
            ODD_VALUES)),
        st.tuples(st.just("name"),
                  st.one_of(st.sampled_from(names), st.text(), st.integers(),
                            ODD_VALUES)),
        st.tuples(st.just("dtype"),
                  st.one_of(st.sampled_from(["float64", "float32", "float16",
                                             "<f8", "uint8", "u1"]),
                            ODD_VALUES)),
        st.tuples(st.just("version"),
                  st.one_of(st.integers(-3, 3), ODD_VALUES)),
        st.tuples(st.just("params"), st.one_of(
            st.dictionaries(st.text(), st.integers(), max_size=2),
            st.lists(ODD_VALUES, min_size=1, max_size=2), ODD_VALUES)),
        st.tuples(st.sampled_from(["offset", "nbytes", "crc32", "shape",
                                   "name", "dtype", "version", "params"]),
                  st.just(DROP)),
    )


DATASET_NAMES = ["images", "labels"]
# the fuzzed dataset's labels run up to 2, so every class count below 3,
# above 256 or not an integer contradicts its data
BAD_CLASS_COUNTS = st.one_of(
    st.integers(-2 ** 40, 2), st.integers(257, 2 ** 40), st.floats(),
    st.text(), st.none(), st.booleans())
ARCHIVE_FIELDS = {"dtype", "version", "class_count", "params"}


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """A saved weight archive ("w") and dataset ("d"): kind -> (base,
    manifest, blob)."""
    root = tmp_path_factory.mktemp("fuzz")
    save_weights(tiny_net(seed=3), root / "w")
    save_dataset(make_synthetic_dataset(count=24, size=6, classes=3, seed=5),
                 root / "d")
    return {kind: (root / kind,
                   json.loads((root / kind).with_suffix(".json").read_text()),
                   (root / kind).with_suffix(".bin").read_bytes())
            for kind in ("w", "d")}


def write_archive(base, manifest, blob):
    base.with_suffix(".json").write_text(json.dumps(manifest))
    base.with_suffix(".bin").write_bytes(blob)


def with_field(manifest, field, value, index):
    """A copy of ``manifest`` with ``field`` of the archive, or of entry
    ``index``, set to ``value`` (deleted for ``DROP``); hypothesis skips a
    value already there, compared as JSON text, so 1.0 and true differ
    from 1."""
    manifest = json.loads(json.dumps(manifest))
    holder = manifest if field in ARCHIVE_FIELDS else manifest["params"][index]
    if value is DROP:
        del holder[field]
    else:
        assume(json.dumps(holder[field]) != json.dumps(value))
        holder[field] = value
    return manifest


def load(kind, base, net):
    return load_weights(net, base) if kind == "w" else load_dataset(base)


def assert_load_fails(kind, base):
    """Loading raises ValueError or KeyError; a weight load leaves the
    network with every array it had."""
    net = tiny_net(seed=9)
    before = snapshot(net)
    with pytest.raises((ValueError, KeyError)):
        load(kind, base, net)
    after = snapshot(net)
    for name in before:
        assert np.array_equal(before[name], after[name]), name


@given(mutation=mutations(TINY_ARCHIVE_ORDER),
       index=st.integers(0, len(TINY_ARCHIVE_ORDER) - 1))
@settings(max_examples=150, deadline=None)
def test_fuzzed_manifest_fails_cleanly(archives, mutation, index):
    """Any one changed weight-manifest field fails the load cleanly."""
    base, manifest, blob = archives["w"]
    write_archive(base, with_field(manifest, *mutation, index), blob)
    assert_load_fails("w", base)


@given(mutation=st.one_of(mutations(DATASET_NAMES),
                          st.tuples(st.just("class_count"),
                                    BAD_CLASS_COUNTS)),
       index=st.integers(0, 1))
@settings(max_examples=150, deadline=None)
def test_fuzzed_dataset_manifest_fails_cleanly(archives, mutation, index):
    """Any one changed dataset-manifest field fails the load cleanly."""
    base, manifest, blob = archives["d"]
    field, value = mutation
    if field == "shape" and index == 0 and isinstance(value, list) \
            and all(type(d) is int for d in value):
        # (24, c, h, w) with c * h * w = 108 is a valid manifest of other
        # images in the same bytes, which no check can tell apart
        assume(len(value) != 4 or value[0] != 24
               or np.prod(value) != 24 * 3 * 6 * 6)
    write_archive(base, with_field(manifest, field, value, index), blob)
    assert_load_fails("d", base)


# one blob edit: cut bytes off the end, append bytes, or flip one bit
BLOB_EDITS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(1, 2 ** 16)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=64)),
    st.tuples(st.just("flip"), st.integers(0, 2 ** 31), st.integers(0, 7)),
)


def edit_blob(blob, edit):
    if edit[0] == "truncate":
        return blob[:-min(edit[1], len(blob))]
    if edit[0] == "extend":
        return blob + edit[1]
    flipped = bytearray(blob)
    flipped[edit[1] % len(blob)] ^= 1 << edit[2]
    return bytes(flipped)


@pytest.mark.parametrize("kind", ["w", "d"])
@given(edit=BLOB_EDITS)
@settings(max_examples=100, deadline=None)
def test_fuzzed_blob_fails_cleanly(archives, kind, edit):
    """A truncated, extended or bit-flipped blob of either kind fails the
    load cleanly."""
    base, manifest, blob = archives[kind]
    write_archive(base, manifest, edit_blob(blob, edit))
    assert_load_fails(kind, base)


def assert_archive_digest(base, golden_name):
    golden = json.loads((GOLDEN / golden_name).read_text())
    for suffix in ("json", "bin"):
        data = base.with_suffix(f".{suffix}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == golden[suffix], suffix


def test_archive_bytes_are_frozen(tmp_path):
    """A weight archive of fixed arrays keeps its bytes, checked as the
    SHA-256 of both files."""
    save_weights(arange_tiny_net(), tmp_path / "w")
    assert_archive_digest(tmp_path / "w", "tiny_net_archive.sha256.json")


def test_old_order_archive_loads_exactly(tmp_path):
    """A v1 archive in the entry order written before the walk, the same
    bytes as then, loads every array exactly."""
    net = arange_tiny_net()
    arrays = dict(_archive_entries(net))
    serialization._write(tmp_path / "w", serialization._WEIGHTS,
                         [(name, arrays[name])
                          for name in OLD_TINY_ARCHIVE_ORDER])
    assert_archive_digest(tmp_path / "w",
                          "tiny_net_archive_old_order.sha256.json")
    back = dict(_archive_entries(load_weights(tiny_net(seed=9),
                                              tmp_path / "w")))
    assert back.keys() == arrays.keys()
    for name, arr in arrays.items():
        assert np.array_equal(back[name], arr), name


def flip_bit(path, offset):
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0x10
    path.write_bytes(bytes(blob))


class TestDataset:
    def test_roundtrip_exact(self, tmp_path):
        data = make_synthetic_dataset(count=24, size=6, classes=3, seed=5)
        save_dataset(data, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert np.array_equal(back.images, data.images)
        assert np.array_equal(back.labels, data.labels)
        assert back.class_count == data.class_count

    def test_numpy_integer_class_count_saved(self, tmp_path):
        data = make_synthetic_dataset(count=4, size=2, classes=2, seed=6)
        data = Dataset(data.images, data.labels, np.int64(2))
        save_dataset(data, tmp_path / "d")
        assert load_dataset(tmp_path / "d").class_count == 2

    def test_manifest_contents(self, tmp_path):
        data = make_synthetic_dataset(count=4, size=2, classes=2, seed=6)
        manifest = json.loads(save_dataset(data, tmp_path / "d").read_text())
        assert {k: manifest[k] for k in ("format", "version", "dtype",
                                         "class_count")} == {
            "format": "menet-dataset", "version": 2, "dtype": "uint8",
            "class_count": 2}
        assert [(e["name"], e["shape"], e["offset"], e["nbytes"])
                for e in manifest["params"]] == [
            ("images", [4, 3, 2, 2], 0, 48), ("labels", [4], 48, 4)]

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

    @pytest.mark.parametrize("offset, name", [(0, "images"), (47, "images"),
                                              (48, "labels"), (51, "labels")])
    def test_flipped_bit_detected(self, tmp_path, offset, name):
        data = make_synthetic_dataset(count=4, size=2, seed=7)
        save_dataset(data, tmp_path / "d")
        flip_bit(tmp_path / "d.bin", offset)
        with pytest.raises(ValueError, match=f"checksum mismatch for {name}"):
            load_dataset(tmp_path / "d")

    def test_v1_manifest_names_its_version(self, tmp_path):
        data = make_synthetic_dataset(count=4, size=2, seed=7)
        (tmp_path / "d.json").write_text(json.dumps({
            "format": "menet-dataset", "version": 1, "count": 4,
            "channels": 3, "height": 2, "width": 2, "class_count": 2}))
        (tmp_path / "d.bin").write_bytes(data.images.tobytes()
                                         + data.labels.tobytes())
        with pytest.raises(ValueError, match="menet-dataset version 1"):
            load_dataset(tmp_path / "d")


@pytest.mark.parametrize("kind", ["w", "d"])
def test_extended_blob_detected(archives, kind):
    base, manifest, blob = archives[kind]
    write_archive(base, manifest, blob + bytes(16))
    with pytest.raises(ValueError, match=f"blob has {len(blob) + 16} bytes, "
                                         f"entries cover {len(blob)}"):
        load(kind, base, tiny_net())


def test_save_weights_streams_the_arrays(tmp_path, traced):
    # building the blob in memory peaked 29.7 MiB above the start here,
    # and json.dumps of the whole manifest 0.75 MiB
    cfg = MENetConfig.from_notation("228-MENet-12x1", groups=3)
    net = build_menet(cfg, seed=0)
    _, _, peak = traced(lambda: save_weights(net, tmp_path / "w"))
    assert peak < 0.4 * 2 ** 20
    back = build_menet(cfg, seed=1)
    load_weights(back, tmp_path / "w")
    for name, p in net.params.items():
        assert np.array_equal(back.params[name], p), name


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_non_contiguous_images_write_contiguous_bytes(tmp_path, layout):
    data = make_synthetic_dataset(count=6, size=4, classes=2, seed=3)
    if layout == "fortran":
        images = np.asfortranarray(data.images)
    else:
        images = np.repeat(data.images, 2, axis=3)[..., ::2]
    odd = Dataset(images, data.labels, 2)
    assert not odd.images.flags.c_contiguous
    assert np.array_equal(odd.images, data.images)
    save_dataset(odd, tmp_path / "odd")
    save_dataset(data, tmp_path / "c")
    for suffix in ("json", "bin"):
        assert ((tmp_path / f"odd.{suffix}").read_bytes()
                == (tmp_path / f"c.{suffix}").read_bytes()), suffix


def test_load_dataset_holds_one_copy_of_the_images(tmp_path, traced):
    # the blob plus the dataset's own copy of it peaked at 2x the images
    images = np.random.default_rng(0).integers(
        0, 256, size=(256, 3, 64, 64), dtype=np.uint8)
    save_dataset(Dataset(images, np.arange(256) % 2, 2), tmp_path / "d")
    data, _, peak = traced(lambda: load_dataset(tmp_path / "d"))
    assert np.array_equal(data.images, images)
    assert peak < 1.25 * images.nbytes


def test_zero_size_axis_round_trips(tmp_path):
    data = Dataset(np.zeros((2, 0, 3, 3), np.uint8), [0, 1], 2)
    save_dataset(data, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert back.images.shape == (2, 0, 3, 3)
    assert back.labels.tolist() == [0, 1]
