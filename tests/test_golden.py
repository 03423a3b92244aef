"""CLI output frozen as files under ``tests/golden``.

A change that keeps the numbers must keep these outputs byte for byte: the
``flops --per-layer`` and ``build`` output of the three reference models
(stored as SHA-256 of stdout), the README desk model's ``flops`` table in
both combine modes and its ``build`` output, and the connectivity report
with its dependency-pattern check (stored as text).
"""

import hashlib
import json
from pathlib import Path

import pytest

from menet.cli import main

GOLDEN = Path(__file__).parent / "golden"
DESK_FLAGS = ["--model", "8-MENet-1x1", "--groups", "2",
              "--stage-repeats", "1", "1", "1", "--stem-channels", "4",
              "--no-stem-pool"]


def stdout_of(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


REFERENCE_MODELS = pytest.mark.parametrize(
    "model,groups", [("228-MENet-12x1", 3), ("256-MENet-12x1", 4),
                     ("352-MENet-12x1", 8)])


def assert_digest(out, name, model, groups):
    digests = json.loads((GOLDEN / name).read_text())
    assert (hashlib.sha256(out.encode()).hexdigest()
            == digests[f"{model} g{groups}"])


@REFERENCE_MODELS
def test_reference_model_flops_per_layer(capsys, model, groups):
    out = stdout_of(capsys, "flops", "--model", model, "--groups",
                    str(groups), "--per-layer")
    assert_digest(out, "flops_per_layer.sha256.json", model, groups)


@REFERENCE_MODELS
def test_reference_model_build(capsys, model, groups):
    out = stdout_of(capsys, "build", "--model", model, "--groups",
                    str(groups))
    assert_digest(out, "build.sha256.json", model, groups)


@pytest.mark.parametrize("mode", ["product", "addition"])
def test_desk_model_flops_per_layer(capsys, mode):
    out = stdout_of(capsys, "flops", *DESK_FLAGS, "--combine-mode", mode,
                    "--per-layer")
    assert out == (GOLDEN / f"desk_flops_{mode}.txt").read_text()


def test_desk_model_build(capsys):
    out = stdout_of(capsys, "build", *DESK_FLAGS)
    assert out == (GOLDEN / "desk_build.txt").read_text()


def test_analyze_pattern(capsys):
    out = stdout_of(capsys, "analyze", "--channels", "9", "--groups", "3",
                    "--pattern")
    assert out == (GOLDEN / "analyze_9_3_pattern.txt").read_text()
