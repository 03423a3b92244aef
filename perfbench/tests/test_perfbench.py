"""The benchmark's own tests: output schema, reduced-size smoke runs that
go through the same gates, tracer clean-up and the gates themselves.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import measure
from calibrate import REFERENCE_S, Calibrator, calibrated
from menet import me_module, tensor, training
from tracing import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                 "0123456789_.-")


def run_bench(tmp_path, workload, seed, trace, cwd=ROOT, script=None):
    script = script or BENCH / "run.py"
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--small", "--out", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def validate_result(line, trace):
    """The last output line against the contract in BENCHMARK.json."""
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    for key in ("attempted", "failed"):
        assert isinstance(result[key], int) and result[key] >= 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    return result


def test_benchmark_json_matches_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        measure.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        measure.per_layer_units()
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(set(n) <= NAME_CHARS and len(n) <= 64 for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 8) < 3420


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_default_seed(tmp_path, workload):
    proc = run_bench(tmp_path, workload, seed=0, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = validate_result(proc.stdout.strip().splitlines()[-1], trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= measure.SETUP_REPEATS + 1
    full = json.loads(
        (tmp_path / f"BENCH_{workload}_seed0_trace0.json").read_text())
    assert full["provenance"]["blas"]["threads_requested"] == 1
    assert full["provenance"]["nproc"] >= 1
    loop = full["loops"]["untraced"]
    assert len(loop["kernel_s"]) == len(loop["op_s"]) + 1
    assert len(full["loops"]["setup_kernel_s"]) == measure.SETUP_REPEATS + 1
    assert set(full["uncalibrated"]) == set(measure.END_TO_END)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke_second_seed(tmp_path, workload):
    wl = WORKLOADS[workload](7, measure.load_reference(), small=True)
    assert wl.reference is None or workload == "model-io"
    proc = run_bench(tmp_path, workload, seed=7, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = validate_result(proc.stdout.strip().splitlines()[-1], trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "model-io":
        assert metrics["serialization.save_mb_s"] > 0
        assert metrics["layers.conv_dw.calls"] == 0
    else:
        assert metrics["layers.conv_dw.fwd_ms"] > 0
        assert metrics["me_module.merging_ms"] > 0
    if workload == "train-32":
        assert metrics["layers.conv_dw.bwd_gmac_s"] > 0
        assert metrics["training.sgd_step_ms"] > 0
    if workload == "gradcheck-tiny":
        assert metrics["training.gradcheck_objective_calls"] > 100
    spans = np.load(tmp_path / f"BENCH_{workload}_seed7_trace1_spans.npz")
    assert len(spans["start"]) > 0


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path / "out", "infer-224", 0, 0, cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tracer_leaves_nothing_wrapped(tmp_path, workload):
    class Args:
        seed, small, out = 3, True, str(tmp_path)

    originals = [(o, a, getattr(o, a)) for o, a, _, _ in measure.MODULE_CALLS]
    tally = measure.Tally()
    with Tracer() as tracer:
        for owner, attr, name, category in measure.MODULE_CALLS:
            tracer.patch(owner, attr, name, category)
        wl, _ = measure.set_up(WORKLOADS[workload], Args, {}, tally, tracer)
        assert measure.wrapped_attributes(wl)
    assert measure.wrapped_attributes(wl) == []
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn
    assert me_module.elementwise_combine is tensor.elementwise_combine
    assert training.cross_entropy.__module__ == "menet.training"
    assert len(tracer.start) > 0 and tally.failed == 0
    wl.close()


def test_calibration_divides_by_the_kernel_times_around_each_op():
    got = calibrated([1.0, 2.0, 3.0], [0.5, 1.5, 0.5, 2.5])
    assert got == pytest.approx([REFERENCE_S, 2 * REFERENCE_S,
                                 2 * REFERENCE_S])
    with pytest.raises(ValueError):
        calibrated([1.0, 2.0], [1.0, 1.0])
    kernel = Calibrator().measure()
    assert 0 < kernel < 1.0


def test_self_time_subtracts_children():
    class Toy:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            sum(range(2000))

    toy = Toy()
    with Tracer() as tracer:
        tracer.patch(toy, "inner", "inner", "toy")
        tracer.patch(toy, "outer", "outer", "toy")
        toy.outer()
    a = tracer.arrays()
    assert list(a["parent"]) == [-1, 0, 0]
    assert a["self"][0] == pytest.approx(a["dur"][0] - a["dur"][1:].sum())
    assert "outer" not in vars(toy) and "inner" not in vars(toy)


class TestGatesCatchWrongOutput:
    reference = measure.load_reference()

    def make(self, name):
        wl = WORKLOADS[name](0, self.reference, small=True)
        assert wl.reference is not None
        return wl

    def test_infer_reference_and_repeatability(self):
        wl = self.make("infer-224")
        good = np.asarray(wl.reference)[None, :]
        assert wl.check(good) == []
        assert wl.check(good.copy()) == []
        wrong = good * (1 + 1e-6)
        problems = wl.check(wrong)
        assert any("first op" in p for p in problems)
        assert any("reference" in p for p in problems)
        assert wl.check(np.full_like(good, np.nan))

    def test_infer_tolerates_summation_order(self):
        wl = self.make("infer-224")
        ref = np.asarray(wl.reference)[None, :]
        wl.check(ref * (1 + 1e-12))
        assert not any("reference" in p for p in wl.check(ref * (1 + 1e-12)))

    def test_train_loss_trajectory(self):
        wl = self.make("train-32")
        ref = wl.reference
        assert wl.check((0, 1, ref[0])) == []
        assert wl.check((1, 1, ref[1] * (1 + 1e-4)))
        assert wl.check((2, 1, float("nan")))
        assert wl.check((3, 0, ref[3]))
        assert wl.check((len(ref), 1, 0.5)) == []

    def test_gradcheck_bound(self):
        wl = WORKLOADS["gradcheck-tiny"](0, {}, small=True)
        assert wl.check([1e-9] * 4) == []
        assert len(wl.check([1e-9, 2e-4, 1e-9, 1e-3])) == 2

    def test_model_io_committed_totals(self, tmp_path):
        wl = WORKLOADS["model-io"](0, self.reference, small=True,
                                    workdir=str(tmp_path))
        wl.setup()
        out = wl.op()
        assert wl.check(out) == []
        tag, net, fresh, macs, params = out[0]
        assert (macs, params) == (144092352, 1806568)
        assert wl.check([(tag, net, fresh, macs + 1, params)])
        bn = dict(fresh.batchnorms())["stem.bn"]
        # built as constants, so only the seeded values make these fail
        for arr in (fresh.param_dict()["fc.bias"], bn.running_mean,
                    bn.running_var):
            assert not np.all(arr == arr[0])
            kept = arr[0]
            arr[0] = np.nextafter(kept, np.inf)
            assert wl.check([(tag, net, fresh, macs, params)])
            arr[0] = kept
        assert wl.check([(tag, net, fresh, macs, params)]) == []
        wl.close()
