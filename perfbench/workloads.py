"""The benchmark's workloads.

Each workload builds its inputs from a seed, runs one *op* at a time and
checks every op's output. The workloads call the package only through its
public functions, looked up as module attributes at call time
(``builder.build_menet``, ``training.train_loop``, ...) so the tracer can
wrap them from outside.

``small=True`` gives a reduced-size variant of the same workload, with the
same gates, for the benchmark's own tests.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np

from menet import analysis, builder, serialization, training
from menet.me_module import MEModule, MEModuleConfig
from menet.network import Network

INFER_RTOL = 1e-9    # max |logit - reference| over max |reference|
LOSS_RTOL = 1e-6     # |loss - reference| over max(1, |reference|)
GRADCHECK_MAX = 1e-4
# archive arrays every net is built with as zeros or ones
CONSTANT_AT_BUILD = (".bias", ".gamma", ".beta", ".running_mean",
                     ".running_var")
REFERENCE_MODELS = (("228-MENet-12x1", 3), ("256-MENet-12x1", 4),
                    ("352-MENet-12x1", 8))


def archived_arrays(net):
    """Every array a weight archive holds, by archive name."""
    arrays = dict(net.named_params())
    for name, bn in net.batchnorms():
        arrays[f"{name}.running_mean"] = bn.running_mean
        arrays[f"{name}.running_var"] = bn.running_var
    return arrays


class Workload:
    """One workload instance: ``setup`` once, then ``op`` and ``check``
    as often as the run allows."""

    name = ""
    items_per_op = 1
    batch = 1
    sizes = (None, None)    # (full, small) size of the inputs

    def __init__(self, seed, reference, small=False, workdir="."):
        self.seed = seed
        self.size = self.sizes[small]
        self.workdir = workdir
        self.reference = reference.get(self.reference_key())

    def reference_key(self):
        """Key of this configuration and seed in the reference file."""
        return f"{self.name}:{self.describe()['config']}:seed{self.seed}"

    def describe(self):
        """Provenance of what this workload runs."""
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, out):
        """Problems with one op's output; empty when it is correct."""
        raise NotImplementedError

    def networks(self):
        """(net, per-image input shape) for every network the ops run."""
        return []

    def record(self, out):
        """Value an op contributes to a regenerated reference file."""
        return None

    def close(self):
        pass


class Infer224(Workload):
    """Eval forward of 228-MENet-12x1, g=3, 1000 classes, one image."""

    name = "infer-224"
    notation, groups, classes = "228-MENet-12x1", 3, 1000
    sizes = (224, 64)
    first = None    # the first op's logits

    def describe(self):
        return {"config": f"{self.notation} g{self.groups} "
                          f"{self.size}px b{self.batch} eval",
                "model": self.notation, "groups": self.groups,
                "classes": self.classes, "input_size": self.size,
                "batch": self.batch, "mode": "eval"}

    def setup(self):
        cfg = builder.MENetConfig.from_notation(
            self.notation, groups=self.groups, num_classes=self.classes,
            input_size=self.size)
        self.net = builder.build_menet(cfg, seed=self.seed)
        rng = np.random.default_rng([self.seed, 224])
        self.x = rng.normal(size=(self.batch, 3, self.size, self.size))

    def op(self):
        return self.net.forward(self.x, train=False)

    def check(self, out):
        problems = []
        if out.shape != (self.batch, self.classes):
            return [f"logits shape {out.shape}"]
        if not np.all(np.isfinite(out)):
            problems.append("non-finite logits")
        if self.first is None:
            self.first = out.copy()
        elif not np.array_equal(out, self.first):
            problems.append("logits differ from the first op's")
        if self.reference is not None:
            ref = np.asarray(self.reference)
            err = np.max(np.abs(out[0] - ref)) / np.max(np.abs(ref))
            if not err <= INFER_RTOL:
                problems.append(f"logits off reference by {err:.3g} rel")
        return problems

    def networks(self):
        return [(self.net, (3, self.size, self.size))]

    def record(self, out):
        return out[0].tolist()


class Train32(Workload):
    """SGD steps of 352-MENet-12x1, g=8, 10 classes, through train_loop.

    The dataset holds exactly one batch, so each ``train_loop`` call with
    one epoch is one step; the log callback marks the step's end.
    """

    name = "train-32"
    notation, groups, classes = "352-MENet-12x1", 8, 10
    batch = 16
    lr = 0.01
    sizes = (32, 16)

    @property
    def items_per_op(self):
        return self.batch

    def describe(self):
        return {"config": f"{self.notation} g{self.groups} "
                          f"{self.size}px b{self.batch} train",
                "model": self.notation, "groups": self.groups,
                "classes": self.classes, "input_size": self.size,
                "batch": self.batch, "mode": "train", "lr": self.lr,
                "momentum": 0.9, "weight_decay": 4e-5}

    def setup(self):
        cfg = builder.MENetConfig.from_notation(
            self.notation, groups=self.groups, num_classes=self.classes,
            input_size=self.size)
        self.net = builder.build_menet(cfg, seed=self.seed)
        self.data = training.make_synthetic_dataset(
            count=self.batch, size=self.size, classes=self.classes,
            seed=self.seed)
        self.sched = training.Schedule(base_lr=self.lr, step_epochs=1,
                                       total_epochs=1)
        self.opt = training.SGD(lr=self.lr, momentum=0.9, weight_decay=4e-5)
        self.steps = 0

    def _mark(self, line):
        self.logged += 1

    def op(self):
        step = self.steps
        self.steps += 1
        self.logged = 0
        history = training.train_loop(
            self.net, self.data, self.sched, self.opt, epochs=1,
            seed=step, batch_size=self.batch, log=self._mark)
        return step, self.logged, history[0][2]

    def check(self, out):
        step, logged, loss = out
        problems = []
        if logged != 1:
            problems.append(f"step {step}: {logged} log lines, expected 1")
        if not np.isfinite(loss):
            return problems + [f"step {step}: non-finite loss {loss}"]
        if self.reference is not None and step < len(self.reference):
            ref = self.reference[step]
            if not abs(loss - ref) <= LOSS_RTOL * max(1.0, abs(ref)):
                problems.append(f"step {step}: loss {loss!r} vs "
                                f"reference {ref!r}")
        return problems

    def networks(self):
        return [(self.net, (3, self.size, self.size))]

    def record(self, out):
        return out[2]


class GradcheckTiny(Workload):
    """``training.gradcheck`` of the four MEModule variants (product or
    addition, stride 1 or 2) at 8 output channels, 5x5, batch 1.

    Each module sits alone in a one-item Network, so gradcheck reads its
    parameters by name and the network layer is traced too.
    """

    name = "gradcheck-tiny"
    items_per_op = 4
    variants = tuple((mode, down) for mode in ("product", "addition")
                     for down in (False, True))
    sizes = (5, 3)

    def describe(self):
        return {"config": f"MEModule x4 8ch {self.size}px b1 train",
                "model": "MEModule(8 out, fusion 2, g=2) x4",
                "groups": 2, "input_size": self.size, "batch": 1,
                "mode": "train (batch statistics)"}

    def setup(self):
        self.nets = []
        for i, (mode, down) in enumerate(self.variants):
            rng = np.random.default_rng([self.seed, i])
            if down:
                cfg = MEModuleConfig(4, 8, 2, 2, downsample=True,
                                     combine_mode=mode)
            else:
                cfg = MEModuleConfig(8, 8, 2, 2, combine_mode=mode)
            name = f"{mode}-s{2 if down else 1}"
            net = Network([(name, MEModule(cfg, rng=rng))], cfg.in_channels,
                          self.size, cfg.out_channels)
            x = rng.normal(size=(1, cfg.in_channels, self.size, self.size))
            self.nets.append((net, x))

    def op(self):
        return [training.gradcheck(net, x, seed=self.seed)
                for net, x in self.nets]

    def check(self, errors):
        return [f"variant {v}: gradcheck error {e:.3g}"
                for v, e in zip(self.variants, errors)
                if not e < GRADCHECK_MAX]

    def networks(self):
        return [(net, x.shape[1:]) for net, x in self.nets]


class ModelIO(Workload):
    """build_menet -> count_cost -> save_weights -> load_weights into a
    freshly built net, for each reference model at 1000 classes.

    Archives go to a temporary directory inside the work directory and are
    not fsynced, so they are written to the page cache, not to the disk.
    """

    name = "model-io"
    sizes = (3, 1)      # how many of the reference models

    @property
    def models(self):
        return REFERENCE_MODELS[:self.size]

    @property
    def items_per_op(self):
        return self.size

    def describe(self):
        names = ", ".join(f"{m}/g{g}" for m, g in self.models)
        return {"config": f"{names} 1000cls",
                "model": names, "classes": 1000, "input_size": 224,
                "mode": "no forward"}

    def reference_key(self):
        # MAC and parameter totals do not depend on the seed
        return f"{self.name}:{self.describe()['config']}"

    def setup(self):
        self.tmp = tempfile.mkdtemp(prefix="model-io-", dir=self.workdir)

    def op(self):
        out = []
        for i, (notation, groups) in enumerate(self.models):
            cfg = builder.MENetConfig.from_notation(notation, groups=groups)
            net = builder.build_menet(cfg, seed=self.seed)
            report = analysis.count_cost(net)
            # a fresh net holds the same built-in constants, so give them
            # seeded values or skipping them on load would go unseen
            rng = np.random.default_rng([self.seed, i])
            for name, arr in archived_arrays(net).items():
                if name.endswith(CONSTANT_AT_BUILD):
                    arr[...] = rng.uniform(0.5, 1.5, arr.shape)
            base = f"{self.tmp}/{notation}-g{groups}"
            serialization.save_weights(net, base)
            fresh = builder.build_menet(cfg, seed=self.seed + 1)
            serialization.load_weights(fresh, base)
            out.append((f"{notation}/g{groups}", net, fresh,
                        report.total_macs, report.total_params))
        return out

    def check(self, out):
        self.archive_bytes = sum(f.stat().st_size
                                 for f in Path(self.tmp).iterdir())
        problems = []
        for tag, net, fresh, macs, params in out:
            saved, loaded = archived_arrays(net), archived_arrays(fresh)
            if saved.keys() != loaded.keys() or not all(
                    np.array_equal(a, loaded[k]) for k, a in saved.items()):
                problems.append(f"{tag}: loaded arrays differ from saved")
            want = (self.reference or {}).get(tag)
            if want is not None and [macs, params] != want:
                problems.append(f"{tag}: macs/params {macs}/{params}, "
                                f"committed {want[0]}/{want[1]}")
        return problems

    def record(self, out):
        return {tag: [macs, params] for tag, _, _, macs, params in out}

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Infer224, Train32, GradcheckTiny, ModelIO)}
