"""menet benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload infer-224 --seed 0 --seconds 25 --trace 0

Run from the repository root. The package is imported from ``src/`` of
the tree this file sits in; without it the run fails before printing a
result. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer metrics. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with
provenance and op samples, goes to ``perfbench/out/``. See README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap(blas_threads):
    """Pin BLAS threads and put ``src/`` first on the path; must run
    before numpy is imported."""
    if not (ROOT / "src" / "menet" / "__init__.py").is_file():
        sys.exit(f"error: no menet package under {ROOT / 'src'}")
    if "numpy" in sys.modules:
        raise RuntimeError("bootstrap must run before numpy is imported")
    for var in BLAS_ENV:
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["infer-224", "train-32", "gradcheck-tiny",
                            "model-io"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="wall time of the measured (closed-loop) phase")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--blas-threads", type=int, default=1,
                   help="BLAS threads, 1..nproc (default 1)")
    p.add_argument("--small", action="store_true",
                   help="reduced-size variant (the benchmark's own tests)")
    p.add_argument("--out", default=str(HERE / "out"),
                   help="directory for result, trace and temporary files")
    args = p.parse_args(argv)
    if not 1 <= args.blas_threads <= (os.cpu_count() or 1):
        p.error("--blas-threads must be between 1 and nproc")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    bootstrap(args.blas_threads)
    import measure  # noqa: E402  (after bootstrap: numpy sees the env)

    import_s = time.perf_counter() - T_START
    result = measure.run(args, import_s)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
