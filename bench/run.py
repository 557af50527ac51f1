"""Benchmark of the tbtinv package, run from the root of a source checkout.

    python3 bench/run.py --workload factor-square --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads in one process, and so does
every traced run (``--trace 1``), whatever workload it names.  The package
is imported from ``src/`` of the checkout; the run fails without it.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md beside this file.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tbtinv"
WORKLOAD_NAMES = ("factor-square", "solve-many", "verify-sweep", "all")

# Set before numpy loads: a multi-threaded BLAS on a small machine spends
# more time spinning threads up than on the small matrices used here.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package source {PACKAGE} not found", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(PACKAGE.parent))
    import tbtinv
    if Path(tbtinv.__file__).resolve().parent != PACKAGE:
        print(f"error: tbtinv imported from {tbtinv.__file__}, not {PACKAGE}",
              file=sys.stderr)
        return 2
    import runner
    return runner.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
