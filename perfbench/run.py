"""gprr benchmark entry point. Run from the repository root:

    python3 perfbench/run.py --workload chain-64 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --check

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run and writes its spans to perfbench/out/ as Chrome
Trace Event JSON. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--check`` runs the
benchmark's own determinism and correctness check on the default and
held-out seeds. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", action="store_true",
                   help="determinism and correctness check over all workloads")
    args = p.parse_args(argv)

    if not (SRC / "gprr" / "__init__.py").is_file():
        print(f"perfbench: no gprr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench  # needs gprr on the path

    if args.check:
        return bench.check(1.0 if args.seconds is None else args.seconds,
                           ROOT / "BENCHMARK.json")
    if args.workload not in bench.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    seed = bench.DEFAULT_SEED if args.seed is None else args.seed
    seconds = 30.0 if args.seconds is None else args.seconds
    return bench.run_one(args.workload, seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
