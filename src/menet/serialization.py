"""On-disk archives. Weights and datasets share one container, with one
writer and one reader: a ``<base>.json`` manifest (``format``, ``version``,
``dtype``, fields of its own, and each array's name, shape, byte offset,
byte count and CRC32) and a ``<base>.bin`` blob of the arrays' raw
little-endian values in that order, streamed from each array's own memory
(no copy of the blob is made). Before returning any array the reader checks
format, version, dtype, the type of every entry field (a ``ValueError``
names the entry and the field), names, each entry's bounds, checksum and
byte count against its shape, and that the entries tile the blob; it
returns writable views into its one copy of the blob.

Weights: ``menet-weights`` v1, float64 (lossless), the parameters, then
each batch norm's running statistics, so eval mode survives a round trip,
both in walk order. The reader goes by name, so v1 archives in the earlier
order (each module's fusion branch last) load the same.
Datasets: ``menet-dataset`` v2, uint8, with ``class_count``; ``images``
(count, c, h, w), then ``labels`` (count,).
"""

import json
import math
import zlib
from pathlib import Path

import numpy as np

from .network import Network
from .training import Dataset

# format, version, dtype, what the archive is, what holds its arrays
_WEIGHTS = ("menet-weights", 1, np.dtype("<f8"), "weight archive", "network")
_DATASET = ("menet-dataset", 2, np.dtype("u1"), "dataset", "dataset")


def _archive_entries(net: Network):
    yield from net.params.items()
    for name, bn in net.batchnorms():
        yield f"{name}.running_mean", bn.running_mean
        yield f"{name}.running_var", bn.running_var


def _paths(base):
    """``<base>.json`` and ``<base>.bin``, appended to the base's full name:
    a dot in it (``w_0.05``) stays part of the name."""
    return Path(f"{base}.json"), Path(f"{base}.bin")


def _write(base, kind, arrays, **fields):
    """Write the (name, array) pairs ``arrays`` as ``<base>.bin`` and
    ``<base>.json``; returns the manifest path."""
    fmt, version, dtype, _, _ = kind
    manifest_path, blob_path = _paths(base)
    manifest = {"format": fmt, "version": version, "dtype": dtype.name,
                **fields, "params": []}
    blob_path.parent.mkdir(parents=True, exist_ok=True)
    with open(blob_path, "wb") as blob:
        for name, arr in arrays:
            flat = np.ascontiguousarray(arr, dtype=dtype).reshape(-1)
            raw = memoryview(flat).cast("B")  # a view: no bytes copied
            manifest["params"].append({
                "name": name, "shape": list(arr.shape), "offset": blob.tell(),
                "nbytes": len(raw), "crc32": zlib.crc32(raw)})
            blob.write(raw)
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=1)
    return manifest_path


def _count(where, field, value):
    """``value`` if an integer >= 0 (JSON's true, 1.0 and null are not)."""
    if type(value) is not int:
        raise ValueError(f"{where}: {field} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{where}: negative {field} {value}")
    return value


def _entries(params):
    """{name: (shape, offset, nbytes, crc32)} of the manifest entries, each
    field type-checked and no name repeated."""
    if not isinstance(params, list):
        raise ValueError("manifest params must be a list of entries, got "
                         f"{type(params).__name__}")
    entries = {}
    for i, entry in enumerate(params):
        where = f"manifest entry {i}"
        if not isinstance(entry, dict):
            raise ValueError(
                f"{where} must be an object, got {type(entry).__name__}")
        lacking = [field for field in ("name", "shape", "offset", "nbytes",
                                       "crc32") if field not in entry]
        if lacking:
            raise ValueError(f"{where} lacks its {lacking[0]}")
        name, shape = entry["name"], entry["shape"]
        if not isinstance(name, str) or name in entries:
            raise ValueError(f"{where}: name must be a string that no "
                             f"earlier entry has, got {name!r}")
        where = f"{where} ({name!r})"
        if not isinstance(shape, list):
            raise ValueError(f"{where}: shape must be a list, got {shape!r}")
        entries[name] = (
            tuple(_count(where, "shape dimension", d) for d in shape),
            *(_count(where, field, entry[field])
              for field in ("offset", "nbytes", "crc32")))
    return entries


def _read(base, kind, shapes):
    """The manifest and {name: array} of a ``kind`` archive holding exactly
    the names of ``shapes``, in the shapes they map to (None: any)."""
    fmt, version, dtype, what, holder = kind
    manifest_path, blob_path = _paths(base)
    manifest = json.loads(manifest_path.read_text())
    if not isinstance(manifest, dict) or manifest.get("format") != fmt:
        raise ValueError(f"not a {what} manifest")
    got = manifest.get("version")
    if type(got) is not int or got != version:
        raise ValueError(f"{fmt} version {got!r} cannot be read, only "
                         f"version {version}")
    if manifest.get("dtype") != dtype.name:
        raise ValueError(f"unknown archive dtype {manifest.get('dtype')!r}, "
                         f"expected {dtype.name!r}")
    entries = _entries(manifest.get("params"))
    missing = [name for name in shapes if name not in entries]
    if missing:
        raise ValueError(
            f"archive lacks {len(missing)} of the {holder}'s {len(shapes)} "
            f"arrays, first {missing[0]!r}")
    unknown = [name for name in entries if name not in shapes]
    if unknown:
        raise KeyError(f"archive parameter {unknown[0]!r} not in {holder}")
    # writable, and slices copy nothing
    blob = memoryview(np.fromfile(blob_path, dtype=np.uint8))
    arrays, spans = {}, []
    for name, (shape, start, nbytes, crc32) in entries.items():
        stop = start + nbytes
        raw = blob[start:stop]
        if len(raw) != nbytes:
            raise ValueError(f"blob truncated at {name}: {len(raw)} of "
                             f"{nbytes} bytes")
        if zlib.crc32(raw) != crc32:
            raise ValueError(f"checksum mismatch for {name}")
        want = shape if shapes[name] is None else shapes[name]
        if shape != want or len(raw) != math.prod(shape) * dtype.itemsize:
            raise ValueError(
                f"shape mismatch for {name}: archive {list(shape)} in "
                f"{len(raw)} bytes vs {holder} {list(want)}")
        arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape)
        spans.append((start, stop))
    spans.sort()
    for (_, stop), (start, _) in zip(spans, spans[1:]):
        if start < stop:
            raise ValueError("overlapping offsets in archive manifest")
    covered = sum(stop - start for start, stop in spans)
    if covered != len(blob):
        raise ValueError(f"blob has {len(blob)} bytes, entries cover {covered}")
    return manifest, arrays


def save_weights(net: Network, base):
    """Write ``<base>.json`` + ``<base>.bin``; returns the manifest path."""
    return _write(base, _WEIGHTS, _archive_entries(net))


def load_weights(net: Network, base):
    """Load an archive into ``net``; every check passes before any array
    is written."""
    targets = dict(_archive_entries(net))
    _, arrays = _read(base, _WEIGHTS,
                      {name: arr.shape for name, arr in targets.items()})
    for name, arr in arrays.items():
        targets[name][...] = arr
    return net


def save_dataset(data: Dataset, base):
    return _write(base, _DATASET,
                  [("images", data.images), ("labels", data.labels)],
                  class_count=data.class_count)


def load_dataset(base) -> Dataset:
    manifest, arrays = _read(base, _DATASET, {"images": None, "labels": None})
    return Dataset(arrays["images"], arrays["labels"],
                   manifest.get("class_count"))
