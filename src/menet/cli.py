"""Command-line surface.

Subcommands: build, flops, analyze, shuffle-demo, gradcheck, train, eval,
make-synth. Model names accept both "x" and the multiplication sign.
Config files are JSON; command-line flags override file values; unknown
keys are rejected. Failures exit nonzero with a single "error: ..." line.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, builder, serialization, training
from .layers import ChannelShuffle
from .me_module import COMBINE_MODES, MEModule, MEModuleConfig


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# (what a value must be, its test), as the flag of the same name parses it
INT = ("an integer", _is_int)
FLOAT = ("a number", lambda v: _is_int(v) or isinstance(v, float))
BOOL = ("true or false", lambda v: isinstance(v, bool))
STR = ("a string", lambda v: isinstance(v, str))
INT_LIST = ("a list of integers",
            lambda v: isinstance(v, list) and all(map(_is_int, v)))

# every config key and its type; momentum, weight_decay and step_epochs
# have no flag and take their presets' types
CONFIG_KEYS = {
    "model": STR, "groups": INT, "stage_repeats": INT_LIST,
    "num_classes": INT, "input_size": INT, "stem_channels": INT,
    "stem_pool": BOOL, "combine_mode": STR, "epochs": INT,
    "batch_size": INT, "base_lr": FLOAT, "momentum": FLOAT,
    "weight_decay": FLOAT, "step_epochs": INT, "seed": INT, "dataset": STR,
    "weights_out": STR, "metrics_out": STR, "preset": STR,
}


def load_config(path):
    cfg = json.loads(Path(path).read_text())
    if not isinstance(cfg, dict):
        raise ValueError("config root must be a JSON object")
    unknown = cfg.keys() - CONFIG_KEYS.keys()
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in cfg.items():
        kind, is_kind = CONFIG_KEYS[key]
        if not is_kind(value):
            raise ValueError(f"config key {key!r} must be {kind}, "
                             f"got {json.dumps(value)}")
    presets = sorted(training.PRESETS)
    if "preset" in cfg and cfg["preset"] not in presets:
        raise ValueError(f"unknown preset {cfg['preset']!r}; valid presets: "
                         f"{', '.join(presets)}")
    return cfg


def _merged_settings(args):
    """Preset values first, then file values, then non-None CLI flags."""
    settings = {}
    if getattr(args, "config", None):
        settings.update(load_config(args.config))
    for key in CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val
    if settings.get("preset"):
        base = dict(training.PRESETS[settings["preset"]])
        base.update({k: v for k, v in settings.items() if k != "preset"})
        settings = base
    return settings


def _net_config(settings):
    if "model" not in settings:
        raise ValueError("a model name is required (--model or config file)")
    kwargs = {}
    for key in ("groups", "stage_repeats", "num_classes", "input_size",
                "stem_channels", "combine_mode", "stem_pool"):
        if key in settings:
            kwargs[key] = settings[key]
    return builder.MENetConfig.from_notation(settings["model"], **kwargs)


def cmd_build(args):
    settings = _merged_settings(args)
    cfg = _net_config(settings).validate()
    net = builder.build_menet(cfg, seed=settings.get("seed", 0))
    rows, totals = builder.summarize(net)
    print(f"model {cfg.notation()} (g={cfg.groups}) validated: "
          f"{sum(cfg.stage_repeats)} modules")
    print(builder.format_summary(rows, totals))
    return 0


def cmd_flops(args):
    settings = _merged_settings(args)
    net = builder.build_menet(_net_config(settings), seed=0)
    rows, totals = builder.summarize(net)
    if args.per_layer:
        print(builder.format_summary(rows, totals))
    print(f"total_macs {totals['macs']}")
    print(f"total_params {totals['params']}")
    print("policy conv-fc-macs")
    return 0


def cmd_analyze(args):
    c, g = args.channels, args.groups
    formula = analysis.connectivity_formula(c, g)
    brute = analysis.connectivity_bruteforce(c, g)
    agree = formula == brute
    print(f"channels {c} groups {g}")
    print(f"n_total {float(brute.n_total):g}")
    print(f"n_actual {float(brute.n_actual):g}")
    print(f"lost_ratio {float(brute.lost_ratio):.4f} "
          f"({float(brute.lost_ratio) * 100:.1f}%)")
    print(f"formula_agrees {'yes' if agree else 'no'}")
    if args.pattern:
        mcfg = MEModuleConfig(in_channels=c * 4, out_channels=c * 4,
                              fusion_channels=max(1, c // 4), groups=g)
        module = MEModule(mcfg, rng=np.random.default_rng(0))
        fused = analysis.module_dependency_pattern(module, include_fusion=True)
        bare = analysis.module_dependency_pattern(module, include_fusion=False)
        print(f"fused_pattern_dense {'yes' if fused.all() else 'no'}")
        print(f"bare_pattern_connections {int(bare.sum())} of {bare.size}")
    return 0 if agree else 1


def cmd_shuffle_demo(args):
    perm = ChannelShuffle.permutation(args.channels, args.groups)
    print(" ".join(str(p) for p in perm))
    return 0


def cmd_gradcheck(args):
    rng = np.random.default_rng(args.seed)
    mcfg = MEModuleConfig(in_channels=8, out_channels=8, fusion_channels=2,
                          groups=2, combine_mode=args.combine_mode)
    module = MEModule(mcfg, rng=rng)
    x = rng.normal(size=(2, 8, 5, 5))
    err, diff = training.gradcheck_errors(module, x, seed=args.seed)
    print(f"module_max_rel_err {err:.3e}")
    print(f"module_max_abs_diff {diff:.3e}")
    ok = err < 1e-4
    print("pass" if ok else "FAIL")
    return 0 if ok else 1


def cmd_make_synth(args):
    data = training.make_synthetic_dataset(
        count=args.count, size=args.size, classes=args.classes,
        seed=args.seed if args.seed is not None else 0)
    path = serialization.save_dataset(data, args.out)
    print(f"wrote {path} ({len(data)} samples, {data.class_count} classes)")
    return 0


def _desk_net(settings):
    cfg = _net_config(settings)
    return builder.build_menet(cfg, seed=settings.get("seed", 0))


def cmd_train(args):
    # the desk preset fills in what neither a preset nor a setting gives
    settings = {**training.PRESETS["desk"], **_merged_settings(args)}
    if "dataset" not in settings:
        raise ValueError("--dataset is required")
    data = serialization.load_dataset(settings["dataset"])
    settings.setdefault("num_classes", data.class_count)
    net = _desk_net(settings)
    sched = training.Schedule(
        base_lr=settings["base_lr"],
        step_epochs=settings["step_epochs"],
        total_epochs=max(settings["epochs"], settings["step_epochs"]),
    )
    opt = training.SGD(lr=sched.base_lr, momentum=settings["momentum"],
                       weight_decay=settings["weight_decay"])
    metrics_path = settings.get("metrics_out")
    sink = open(metrics_path, "a") if metrics_path else None
    try:
        def log(line):
            print(line)
            if sink:
                sink.write(line + "\n")

        history = training.train_loop(
            net, data, sched, opt,
            epochs=settings["epochs"],
            seed=settings.get("seed", 0),
            batch_size=settings["batch_size"],
            log=log)
    finally:
        if sink:
            sink.close()
    print(f"final_accuracy {history[-1][3]:.4f}")
    if settings.get("weights_out"):
        path = serialization.save_weights(net, settings["weights_out"])
        print(f"wrote {path}")
    return 0


def cmd_eval(args):
    settings = _merged_settings(args)
    data = serialization.load_dataset(settings["dataset"])
    settings.setdefault("num_classes", data.class_count)
    net = _desk_net(settings)
    serialization.load_weights(net, args.weights)
    acc = training.evaluate(net, data)
    print(f"accuracy {acc:.4f}")
    return 0


def _add_model_flags(p):
    p.add_argument("--model", help="model notation, e.g. 228-MENet-12x1")
    p.add_argument("--groups", type=int)
    p.add_argument("--num-classes", dest="num_classes", type=int)
    p.add_argument("--input-size", dest="input_size", type=int)
    p.add_argument("--stem-channels", dest="stem_channels", type=int)
    p.add_argument("--no-stem-pool", dest="stem_pool", action="store_false",
                   default=None)
    p.add_argument("--combine-mode", dest="combine_mode",
                   choices=COMBINE_MODES)
    p.add_argument("--stage-repeats", dest="stage_repeats", type=int,
                   nargs="+")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="menet",
        description="Compact-CNN toolkit: merging/evolution modules, "
                    "connectivity analysis, cost accounting and a desk-scale "
                    "trainer.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="validate a config and print its summary")
    _add_model_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("flops", help="MAC/parameter report for a model")
    _add_model_flags(p)
    p.add_argument("--per-layer", action="store_true")
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("analyze", help="inter-group connectivity report")
    p.add_argument("--channels", type=int, required=True)
    p.add_argument("--groups", type=int, required=True)
    p.add_argument("--pattern", action="store_true",
                   help="also print module dependency-pattern density")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("shuffle-demo", help="print a shuffle permutation")
    p.add_argument("--channels", type=int, required=True)
    p.add_argument("--groups", type=int, required=True)
    p.set_defaults(func=cmd_shuffle_demo)

    p = sub.add_parser("gradcheck", help="finite-difference check of a tiny module")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--combine-mode", dest="combine_mode", default="product",
                   choices=COMBINE_MODES)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="train on a dataset")
    _add_model_flags(p)
    p.add_argument("--dataset")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--base-lr", dest="base_lr", type=float)
    p.add_argument("--weights-out", dest="weights_out")
    p.add_argument("--metrics-out", dest="metrics_out")
    p.add_argument("--preset", choices=sorted(training.PRESETS))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="accuracy of a weight archive on a dataset")
    _add_model_flags(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--weights", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("make-synth", help="emit a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_make_synth)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, TypeError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
