"""On-disk formats: weight archives and datasets.

Weight archive: ``<base>.json`` manifest mapping parameter name to shape,
dtype, byte offset, byte length and CRC32, plus ``<base>.bin`` holding the
raw little-endian IEEE-754 values in manifest order. float64 round-trips
losslessly; float32 is a storage mode for smaller files. Batch-norm running
statistics are stored alongside learnable parameters so eval mode survives
a round trip.

Dataset: ``<base>.json`` manifest (count, channels, height, width,
class_count) plus ``<base>.bin`` of u8 pixels followed by u8 labels.
"""

import json
import zlib
from pathlib import Path

import numpy as np

from .network import Network
from .training import Dataset

_DTYPES = {"float64": "<f8", "float32": "<f4"}


def _archive_entries(net: Network):
    for name, p in net.named_params():
        yield name, p
    for name, bn in net.batchnorms():
        yield f"{name}.running_mean", bn.running_mean
        yield f"{name}.running_var", bn.running_var


def save_weights(net: Network, base, dtype="float64"):
    """Write ``<base>.json`` + ``<base>.bin``; returns the manifest path."""
    if dtype not in _DTYPES:
        raise ValueError(f"dtype must be one of {sorted(_DTYPES)}")
    base = Path(base)
    np_dtype = np.dtype(_DTYPES[dtype])
    manifest = {"format": "menet-weights", "version": 1, "dtype": dtype,
                "params": []}
    blob = bytearray()
    for name, arr in _archive_entries(net):
        raw = np.ascontiguousarray(arr, dtype=np_dtype).tobytes()
        manifest["params"].append({
            "name": name,
            "shape": list(arr.shape),
            "offset": len(blob),
            "nbytes": len(raw),
            "crc32": zlib.crc32(raw),
        })
        blob += raw
    base.parent.mkdir(parents=True, exist_ok=True)
    (base.with_suffix(".bin")).write_bytes(bytes(blob))
    manifest_path = base.with_suffix(".json")
    manifest_path.write_text(json.dumps(manifest, indent=1))
    return manifest_path


def load_weights(net: Network, base):
    """Load an archive into ``net``, verifying layout and checksums."""
    base = Path(base)
    manifest = json.loads(base.with_suffix(".json").read_text())
    if manifest.get("format") != "menet-weights":
        raise ValueError("not a weight archive manifest")
    np_dtype = np.dtype(_DTYPES[manifest["dtype"]])
    blob = base.with_suffix(".bin").read_bytes()
    targets = dict(_archive_entries(net))
    archived = {entry["name"] for entry in manifest["params"]}
    missing = [name for name in targets if name not in archived]
    if missing:
        raise ValueError(
            f"archive lacks {len(missing)} of the network's {len(targets)} "
            f"arrays, first {missing[0]!r}")
    seen = []
    for entry in manifest["params"]:
        name = entry["name"]
        if name not in targets:
            raise KeyError(f"archive parameter {name!r} not in network")
        raw = blob[entry["offset"]:entry["offset"] + entry["nbytes"]]
        if len(raw) != entry["nbytes"]:
            raise ValueError(f"blob truncated at {name}")
        if zlib.crc32(raw) != entry["crc32"]:
            raise ValueError(f"checksum mismatch for {name}")
        arr = np.frombuffer(raw, dtype=np_dtype).reshape(entry["shape"])
        target = targets[name]
        if tuple(entry["shape"]) != target.shape:
            raise ValueError(
                f"shape mismatch for {name}: archive {entry['shape']} vs "
                f"network {list(target.shape)}")
        target[...] = arr.astype(np.float64)
        seen.append((entry["offset"], entry["offset"] + entry["nbytes"]))
    seen.sort()
    for (s0, e0), (s1, e1) in zip(seen, seen[1:]):
        if s1 < e0:
            raise ValueError("overlapping offsets in archive manifest")
    return net


def save_dataset(data: Dataset, base):
    base = Path(base)
    count, channels, height, width = data.images.shape
    manifest = {"format": "menet-dataset", "version": 1, "count": count,
                "channels": channels, "height": height, "width": width,
                "class_count": data.class_count}
    base.parent.mkdir(parents=True, exist_ok=True)
    blob = data.images.tobytes() + data.labels.tobytes()
    base.with_suffix(".bin").write_bytes(blob)
    manifest_path = base.with_suffix(".json")
    manifest_path.write_text(json.dumps(manifest, indent=1))
    return manifest_path


def load_dataset(base) -> Dataset:
    base = Path(base)
    manifest = json.loads(base.with_suffix(".json").read_text())
    if manifest.get("format") != "menet-dataset":
        raise ValueError("not a dataset manifest")
    count = manifest["count"]
    shape = (count, manifest["channels"], manifest["height"],
             manifest["width"])
    blob = base.with_suffix(".bin").read_bytes()
    n_pixels = int(np.prod(shape))
    if len(blob) != n_pixels + count:
        raise ValueError(
            f"dataset blob has {len(blob)} bytes, expected {n_pixels + count}")
    images = np.frombuffer(blob[:n_pixels], dtype=np.uint8).reshape(shape)
    labels = np.frombuffer(blob[n_pixels:], dtype=np.uint8)
    return Dataset(images.copy(), labels.copy(), manifest["class_count"])
