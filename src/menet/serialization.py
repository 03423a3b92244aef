"""On-disk formats: weight archives and datasets.

Weight archive: ``<base>.json`` manifest mapping parameter name to shape,
dtype, byte offset, byte length and CRC32, plus ``<base>.bin`` holding the
raw little-endian IEEE-754 float64 values in manifest order, so a round
trip is lossless; the manifest's ``dtype`` is always "float64". Batch-norm
running statistics are stored alongside learnable parameters so eval mode
survives a round trip.

Dataset: ``<base>.json`` manifest (count, channels, height, width,
class_count) plus ``<base>.bin`` of u8 pixels followed by u8 labels.
"""

import json
import zlib
from pathlib import Path

import numpy as np

from .network import Network
from .training import Dataset

_DTYPE = np.dtype("<f8")


def _archive_entries(net: Network):
    for name, p in net.named_params():
        yield name, p
    for name, bn in net.batchnorms():
        yield f"{name}.running_mean", bn.running_mean
        yield f"{name}.running_var", bn.running_var


def _read_manifest(base, kind, what):
    """The ``<base>.json`` manifest, checked to be an object of ``kind``."""
    manifest = json.loads(base.with_suffix(".json").read_text())
    if not isinstance(manifest, dict) or manifest.get("format") != kind:
        raise ValueError(f"not a {what} manifest")
    return manifest


def save_weights(net: Network, base):
    """Write ``<base>.json`` + ``<base>.bin``; returns the manifest path."""
    base = Path(base)
    manifest = {"format": "menet-weights", "version": 1, "dtype": "float64",
                "params": []}
    blob = bytearray()
    for name, arr in _archive_entries(net):
        raw = np.ascontiguousarray(arr, dtype=_DTYPE).tobytes()
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
    """Load an archive into ``net``, verifying layout and checksums; every
    entry is checked before any array is written."""
    base = Path(base)
    manifest = _read_manifest(base, "menet-weights", "weight archive")
    if manifest.get("dtype") != "float64":
        raise ValueError(f"unknown archive dtype {manifest.get('dtype')!r}, "
                         "expected 'float64'")
    blob = base.with_suffix(".bin").read_bytes()
    targets = dict(_archive_entries(net))
    archived = {entry["name"] for entry in manifest["params"]}
    missing = [name for name in targets if name not in archived]
    if missing:
        raise ValueError(
            f"archive lacks {len(missing)} of the network's {len(targets)} "
            f"arrays, first {missing[0]!r}")
    loaded = []
    for entry in manifest["params"]:
        name = entry["name"]
        if name not in targets:
            raise KeyError(f"archive parameter {name!r} not in network")
        start, stop = entry["offset"], entry["offset"] + entry["nbytes"]
        if start < 0:
            raise ValueError(f"negative offset {start} for {name}")
        raw = blob[start:stop]
        if len(raw) != entry["nbytes"]:
            raise ValueError(f"blob truncated at {name}")
        if zlib.crc32(raw) != entry["crc32"]:
            raise ValueError(f"checksum mismatch for {name}")
        target = targets[name]
        if (tuple(entry["shape"]) != target.shape
                or len(raw) != target.size * _DTYPE.itemsize):
            raise ValueError(
                f"shape mismatch for {name}: archive {entry['shape']} in "
                f"{len(raw)} bytes vs network {list(target.shape)}")
        loaded.append((start, stop, target,
                       np.frombuffer(raw, dtype=_DTYPE).reshape(target.shape)))
    loaded.sort(key=lambda item: item[:2])
    for (_, stop, _, _), (start, _, _, _) in zip(loaded, loaded[1:]):
        if start < stop:
            raise ValueError("overlapping offsets in archive manifest")
    for _, _, target, arr in loaded:
        target[...] = arr
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
    manifest = _read_manifest(base, "menet-dataset", "dataset")
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
