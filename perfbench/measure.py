"""Timing loop, metrics, provenance and output files of one benchmark run.

Imported by ``run.py`` after it has pinned the BLAS thread count.
"""

import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from calibrate import REFERENCE_S, Calibrator, calibrated
from menet import analysis, builder, me_module, serialization, training
from menet.me_module import MEModule
from tracing import KINDS, MAC_KINDS, Tracer, module_parts
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
SETUP_KERNEL_RUNS = 3       # kernel runs around each set-up (median taken)
WARMUP, IDLE = -2, -3       # tracer op markers; set-up spans carry -1

END_TO_END = {"setup_s": "s", "op_ms_p50": "ms", "items_s": "1/s",
              "peak_rss_mb": "MB"}

# module-level functions the tracer wraps, as the calling module sees them
MODULE_CALLS = (
    (me_module, "elementwise_combine", "tensor:combine", "tensor"),
    (me_module, "concat_channels", "tensor:concat", "tensor"),
    (training, "cross_entropy", "training:cross_entropy", "training"),
    (training, "train_loop", "training:train_loop", "training"),
    (training, "gradcheck", "training:gradcheck", "training"),
    (builder, "build_menet", "builder:build_menet", "builder"),
    (analysis, "count_cost", "analysis:count_cost", "analysis"),
    (serialization, "save_weights", "serialization:save_weights",
     "serialization"),
    (serialization, "load_weights", "serialization:load_weights",
     "serialization"),
)


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for kind in KINDS:
        units[f"layers.{kind}.fwd_ms"] = "ms"
        units[f"layers.{kind}.bwd_ms"] = "ms"
        units[f"layers.{kind}.calls"] = "count"
    for kind in MAC_KINDS:
        units[f"layers.{kind}.fwd_gmac_s"] = "GMAC/s"
        units[f"layers.{kind}.bwd_gmac_s"] = "GMAC/s"
    units.update({
        "me_module.self_ms": "ms", "tensor.combine_ms": "ms",
        "tensor.concat_ms": "ms", "network.forward_ms": "ms",
        "network.backward_ms": "ms", "network.zero_grad_ms": "ms",
        "me_module.merging_ms": "ms", "me_module.evolution_ms": "ms",
        "me_module.fusion_time_share": "ratio",
        "me_module.fusion_mac_share": "ratio",
        "training.cross_entropy_ms": "ms", "training.sgd_step_ms": "ms",
        "training.loop_self_ms": "ms",
        "training.gradcheck_objective_calls": "count",
        "training.gradcheck_us_per_objective": "us",
        "builder.build_ms": "ms", "analysis.count_cost_ms": "ms",
        "serialization.save_weights_ms": "ms",
        "serialization.load_weights_ms": "ms",
        "serialization.save_mb_s": "MB/s", "serialization.load_mb_s": "MB/s",
        "process.cpu_wall_ratio": "ratio", "trace.overhead_pct": "%",
    })
    return units


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def blas_info():
    """BLAS library, version and the thread count it reports."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps
                    if "openblas" in line.lower() and "/" in line}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
    except OSError:
        pass
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads_requested": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "threads_reported": threads}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, wl):
    return {"workload": wl.name, **wl.describe(), "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "small": args.small, "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_info(),
            "callers": 1, "loop": "closed"}


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

class Tally:
    """Ops attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems)


def set_up(cls, args, reference, tally, tracer=None):
    """Build a workload and run its warm-up op; returns it and the time
    from its construction to the end of the warm-up op."""
    t0 = perf_counter()
    wl = cls(args.seed, reference, small=args.small, workdir=args.out)
    wl.setup()
    if tracer is not None:
        instrument(tracer, wl)
        tracer.current_op = WARMUP
    out = wl.op()
    elapsed = perf_counter() - t0
    if tracer is not None:
        tracer.current_op = IDLE
    tally.add(wl.check(out))
    return wl, elapsed


def closed_loop(wl, seconds, tally, calibrator, tracer=None):
    """Run ops back to back until ``seconds`` have passed (at least one op),
    with the calibration kernel before the first op and after each one.
    Returns per-op wall times, the kernel's times and the ops' CPU time."""
    times = []
    kernel = [calibrator.measure()]
    cpu_s = 0.0
    deadline = perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.current_op = len(times)
        c0 = time.process_time()
        t0 = perf_counter()
        try:
            out = wl.op()
            error = None
        except Exception as e:  # an op that raises is a failed op
            error = e
        t1 = perf_counter()
        cpu_s += time.process_time() - c0
        if tracer is not None:
            tracer.current_op = IDLE
        times.append(t1 - t0)
        if error is None:
            tally.add(wl.check(out))
        else:
            traceback.print_exception(error, file=sys.stderr)
            tally.add([f"{type(error).__name__}: {error}"])
        kernel.append(calibrator.measure())
        if perf_counter() >= deadline:
            break
    return {"op_s": times, "kernel_s": kernel, "cpu_s": cpu_s,
            "wall_s": sum(times)}


def instrument(tracer, wl):
    for net, _ in wl.networks():
        tracer.instrument_network(net)
    opt = getattr(wl, "opt", None)
    if opt is not None:
        tracer.patch(opt, "step", "training:sgd_step", "training")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(import_s, setups, setup_kernel, loop, wl, calibrate=True):
    """The end-to-end metrics; with ``calibrate``, every time is divided
    by the calibration kernel's time around it (see calibrate.py)."""
    op_s = loop["op_s"]
    if calibrate:
        import_s *= REFERENCE_S / setup_kernel[0]
        setups = calibrated(setups, setup_kernel)
        op_s = calibrated(op_s, loop["kernel_s"])
    return {"setup_s": import_s + statistics.median(setups),
            "op_ms_p50": statistics.median(op_s) * 1e3,
            "items_s": wl.items_per_op * len(op_s) / sum(op_s),
            "peak_rss_mb": peak_rss_mb()}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run
# ---------------------------------------------------------------------------

def instance_macs(wl):
    """Per-image forward MACs of every ``count_cost`` entry, by the same
    path the tracer gives the layer (``stage2.0/pw1``)."""
    return {e.name: e.macs for net, shape in wl.networks()
            for e in analysis.count_cost(net, input_shape=shape).entries}


def summarize_trace(tracer, wl, n_ops, macs):
    """Per-key totals over the measured ops, the per-layer metrics, and
    the per-kind and per-instance tables."""
    a = tracer.arrays()
    n_keys = len(tracer.meta)
    in_ops = a["op"] >= 0
    in_setup = a["op"] == -1

    def total(column, mask):
        return np.bincount(a["key"][mask], weights=a[column][mask],
                           minlength=n_keys)

    dur, self_t = total("dur", in_ops), total("self", in_ops)
    calls = np.bincount(a["key"][in_ops], minlength=n_keys)
    setup_dur = total("dur", in_setup)
    key_of = {m["name"]: i for i, m in enumerate(tracer.meta)}

    def per_op_ms(values, name):
        i = key_of.get(name)
        return 0.0 if i is None else values[i] * 1e3 / n_ops

    m = {}
    # per layer instance and direction: calls, seconds and MACs done;
    # backward counts 2x the forward MACs (grad wrt input and weight)
    instances = {}
    for i, meta in enumerate(tracer.meta):
        if meta["category"] != "layer":
            continue
        row = instances.setdefault(meta["instance"], {
            "kind": meta["kind"],
            "macs_per_image": macs.get(meta["instance"], 0)})
        d = "fwd" if meta["direction"] == "forward" else "bwd"
        factor = 1 if d == "fwd" else 2
        row[f"{d}_calls"] = int(calls[i]) / n_ops
        row[f"{d}_ms"] = dur[i] * 1e3 / n_ops
        row[f"{d}_mac"] = (factor * row["macs_per_image"] * wl.batch
                           * int(calls[i]) / n_ops)
    for row in instances.values():
        for d in ("fwd", "bwd"):
            ms = row[f"{d}_ms"]
            row[f"{d}_gmac_s"] = row[f"{d}_mac"] / ms / 1e6 if ms else 0.0
    kinds = {k: dict.fromkeys(("fwd_ms", "bwd_ms", "fwd_calls", "fwd_mac",
                               "bwd_mac"), 0.0) for k in KINDS}
    for row in instances.values():
        for field in kinds[row["kind"]]:
            kinds[row["kind"]][field] += row[field]
    layer_ms = sum(k["fwd_ms"] + k["bwd_ms"] for k in kinds.values())
    mac_total = sum(k["fwd_mac"] + k["bwd_mac"] for k in kinds.values())
    kind_table = []
    for name, k in kinds.items():
        fwd_rate = k["fwd_mac"] / k["fwd_ms"] / 1e6 if k["fwd_ms"] else 0.0
        bwd_rate = k["bwd_mac"] / k["bwd_ms"] / 1e6 if k["bwd_ms"] else 0.0
        m[f"layers.{name}.fwd_ms"] = k["fwd_ms"]
        m[f"layers.{name}.bwd_ms"] = k["bwd_ms"]
        m[f"layers.{name}.calls"] = k["fwd_calls"]
        if name in MAC_KINDS:
            m[f"layers.{name}.fwd_gmac_s"] = fwd_rate
            m[f"layers.{name}.bwd_gmac_s"] = bwd_rate
        kind_table.append({
            "kind": name, "fwd_ms": k["fwd_ms"], "bwd_ms": k["bwd_ms"],
            "calls": k["fwd_calls"],
            "time_share": ((k["fwd_ms"] + k["bwd_ms"]) / layer_ms
                           if layer_ms else 0.0),
            "mac_share": ((k["fwd_mac"] + k["bwd_mac"]) / mac_total
                          if mac_total else 0.0),
            "fwd_gmac_s": fwd_rate, "bwd_gmac_s": bwd_rate})

    def category_ms(values, category):
        return sum(values[i] for i, meta in enumerate(tracer.meta)
                   if meta["category"] == category) * 1e3 / n_ops

    m["me_module.self_ms"] = category_ms(self_t, "me_module")
    m["tensor.combine_ms"] = per_op_ms(dur, "tensor:combine")
    m["tensor.concat_ms"] = per_op_ms(dur, "tensor:concat")
    m["network.forward_ms"] = per_op_ms(self_t, "network:forward")
    m["network.backward_ms"] = per_op_ms(self_t, "network:backward")
    m["network.zero_grad_ms"] = per_op_ms(dur, "network:zero_grad")
    m["me_module.merging_ms"] = category_ms(dur, "MergingOp")
    m["me_module.evolution_ms"] = category_ms(dur, "EvolutionOp")
    net_ms = (per_op_ms(dur, "network:forward")
              + per_op_ms(dur, "network:backward"))
    fusion_ms = m["me_module.merging_ms"] + m["me_module.evolution_ms"]
    m["me_module.fusion_time_share"] = fusion_ms / net_ms if net_ms else 0.0
    fusion_macs = sum(v for name, v in macs.items()
                      if "/merge." in name or "/evo." in name)
    m["me_module.fusion_mac_share"] = (fusion_macs / sum(macs.values())
                                       if macs else 0.0)
    m["training.cross_entropy_ms"] = per_op_ms(dur, "training:cross_entropy")
    m["training.sgd_step_ms"] = per_op_ms(dur, "training:sgd_step")
    m["training.loop_self_ms"] = per_op_ms(self_t, "training:train_loop")
    gc = key_of.get("training:gradcheck")
    fwd = key_of.get("network:forward")
    objectives = 0
    if gc is not None and fwd is not None:
        parent_key = np.where(a["parent"] >= 0, a["key"][a["parent"]], -1)
        objectives = int(np.sum(in_ops & (a["key"] == fwd)
                                & (parent_key == gc)))
    m["training.gradcheck_objective_calls"] = objectives / n_ops
    m["training.gradcheck_us_per_objective"] = (
        dur[gc] * 1e6 / objectives if objectives else 0.0)
    build = key_of.get("builder:build_menet")
    build_s = 0.0
    if build is not None:
        build_s = dur[build] / n_ops if calls[build] else setup_dur[build]
    m["builder.build_ms"] = build_s * 1e3
    m["analysis.count_cost_ms"] = per_op_ms(dur, "analysis:count_cost")
    m["serialization.save_weights_ms"] = per_op_ms(
        dur, "serialization:save_weights")
    m["serialization.load_weights_ms"] = per_op_ms(
        dur, "serialization:load_weights")
    archive_mb = getattr(wl, "archive_bytes", 0) / 1e6
    for way in ("save", "load"):
        ms = m[f"serialization.{way}_weights_ms"]
        m[f"serialization.{way}_mb_s"] = archive_mb / ms * 1e3 if ms else 0.0

    keys = [{**meta, "calls_per_op": int(calls[i]) / n_ops,
             "ms_per_op": dur[i] * 1e3 / n_ops,
             "self_ms_per_op": self_t[i] * 1e3 / n_ops,
             "setup_ms": setup_dur[i] * 1e3}
            for i, meta in enumerate(tracer.meta)]
    tables = {"kinds": kind_table, "instances": instances, "keys": keys}
    return m, tables, a


def format_kind_table(rows):
    lines = [f"{'kind':<16}{'fwd ms':>10}{'bwd ms':>10}{'calls':>8}"
             f"{'time %':>8}{'MAC %':>8}{'fwd GMAC/s':>12}{'bwd GMAC/s':>12}"]
    for r in rows:
        if not r["calls"]:
            continue
        lines.append(
            f"{r['kind']:<16}{r['fwd_ms']:>10.2f}{r['bwd_ms']:>10.2f}"
            f"{r['calls']:>8.0f}{100 * r['time_share']:>8.1f}"
            f"{100 * r['mac_share']:>8.1f}{r['fwd_gmac_s']:>12.3f}"
            f"{r['bwd_gmac_s']:>12.3f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def load_reference():
    return json.loads((HERE / "reference.json").read_text())


def traced_run(cls, args, reference, tally, calibrator):
    """Untraced half, then traced half; returns per-layer metrics, the
    trace tables and the span columns."""
    half = args.seconds / 2
    wl, _ = set_up(cls, args, reference, tally)
    plain = closed_loop(wl, half, tally, calibrator)
    wl.close()
    del wl
    with Tracer() as tracer:
        for owner, attr, name, category in MODULE_CALLS:
            tracer.patch(owner, attr, name, category)
        wl, _ = set_up(cls, args, reference, tally, tracer)
        traced = closed_loop(wl, half, tally, calibrator, tracer)
    leftovers = wrapped_attributes(wl)
    if leftovers:
        raise RuntimeError(f"tracer left wrappers on: {leftovers}")
    n_ops = len(traced["op_s"])
    metrics, tables, spans = summarize_trace(tracer, wl, n_ops,
                                             instance_macs(wl))
    wl.close()
    metrics["process.cpu_wall_ratio"] = plain["cpu_s"] / plain["wall_s"]
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(calibrated(traced["op_s"], traced["kernel_s"]))
        / statistics.median(calibrated(plain["op_s"], plain["kernel_s"]))
        - 1.0)
    loops = {"untraced": plain, "traced": traced}
    return wl, metrics, tables, spans, tracer.meta, loops


def wrapped_attributes(wl):
    """Names of wrappers still attached to anything the tracer touched."""
    found = [f"{owner.__name__}.{attr}"
             for owner, attr, _, _ in MODULE_CALLS
             if hasattr(getattr(owner, attr), "__wrapped__")]
    objects = [("opt", getattr(wl, "opt", None))]
    for net, _ in wl.networks():
        objects.append(("network", net))
        for name, item in net.items:
            objects.append((name, item))
            if isinstance(item, MEModule):
                objects.extend(module_parts(name, item))
    for name, obj in objects:
        if obj is not None:
            found += [f"{name}.{attr}" for attr in
                      ("forward", "backward", "zero_grad", "step")
                      if attr in vars(obj)]
    return found


def run(args, import_s):
    """Run one workload; returns the result line as a dict."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cls = WORKLOADS[args.workload]
    reference = load_reference()
    tally = Tally()
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    calibrator = Calibrator()
    wall = None
    if args.trace:
        wl, metrics, tables, spans, meta, loops = traced_run(
            cls, args, reference, tally, calibrator)
        units = per_layer_units()
        np.savez(out_dir / f"{stem}_spans.npz",
                 names=np.array([k["name"] for k in meta]), **spans)
        print(format_kind_table(tables["kinds"]))
    else:
        setups = []
        setup_kernel = [calibrator.measure(SETUP_KERNEL_RUNS)]
        wl = None
        for _ in range(SETUP_REPEATS):
            if wl is not None:
                wl.close()
                wl = None   # free the last set-up's nets before the next
            wl, elapsed = set_up(cls, args, reference, tally)
            setups.append(elapsed)
            setup_kernel.append(calibrator.measure(SETUP_KERNEL_RUNS))
        loop = closed_loop(wl, args.seconds, tally, calibrator)
        wl.close()
        metrics = end_to_end(import_s, setups, setup_kernel, loop, wl)
        wall = end_to_end(import_s, setups, setup_kernel, loop, wl,
                          calibrate=False)
        units = END_TO_END
        loops = {"untraced": loop, "setups_s": setups,
                 "setup_kernel_s": setup_kernel, "import_s": import_s}
        tables = None
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in units.items()}}
    full = {"provenance": provenance(args, wl), "result": result,
            "problems": tally.problems, "loops": loops,
            "calibration_reference_s": REFERENCE_S}
    if wall is not None:
        full["uncalibrated"] = wall
    if tables is not None:
        full["trace"] = tables
    (out_dir / f"{stem}.json").write_text(json.dumps(full, indent=1))
    samples = {k: len(v["op_s"]) for k, v in loops.items()
               if isinstance(v, dict)}
    print(f"provenance: {json.dumps(full['provenance'])}")
    print(f"samples: {json.dumps(samples)}")
    if wall is not None:
        print(f"uncalibrated: {json.dumps(wall)}")
    for p in tally.problems:
        print(f"problem: {p}")
    return result
