"""Regenerate ``reference.json``: the committed outputs the correctness
gates compare against, for the default seed of each workload.

    python3 perfbench/make_reference.py

Only regenerate after a change that is meant to alter these outputs, and
say so in the change's description.
"""

import json

from run import HERE, bootstrap

DEFAULT_SEED = 0
TRAIN_STEPS = 100           # length of the committed train-32 loss trajectory
SMALL_TRAIN_STEPS = 30      # the same for its reduced-size variant


def main():
    bootstrap(1)
    from workloads import WORKLOADS

    reference = {}
    for small in (False, True):
        for cls in WORKLOADS.values():
            wl = cls(DEFAULT_SEED, {}, small=small, workdir=str(HERE))
            wl.setup()
            steps = 1
            if cls.name == "train-32":
                steps = SMALL_TRAIN_STEPS if small else TRAIN_STEPS
            values = []
            for _ in range(steps):
                out = wl.op()
                problems = wl.check(out)
                if problems:
                    raise SystemExit(f"error: {cls.name}: {problems}")
                values.append(wl.record(out))
            wl.close()
            if values[0] is not None:
                reference[wl.reference_key()] = (
                    values if steps > 1 else values[0])
            print(f"{wl.reference_key()}: {steps} op(s)", flush=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=0))


if __name__ == "__main__":
    main()
