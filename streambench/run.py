"""Continual-stream benchmark for latentreplay.

Runs the reference TinyNIC stream (10 classes x 4 instances x 40 frames,
33 sessions, mb 48, lrs 0.03/0.09/0.009, network and trainer seed 1)
through ``scenario.run_protocol`` for one workload, checks the outputs,
and prints one JSON result as the last line of stdout. From the root of
a checkout:

    python3 streambench/run.py --workload latent-relu3-rm500 --seed 2024 \
        --seconds 5 --trace 0

``--seed`` is the scenario seed. ``--trace 0`` times untraced streams
and prints the end-to-end metrics; ``--trace 1`` runs one untraced and
one traced stream and prints the per-layer metrics. See README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="see bench.WORKLOADS")
    ap.add_argument("--seed", type=int, required=True, help="scenario seed (reference 2024)")
    ap.add_argument("--seconds", type=float, default=5.0,
                    help="with --trace 0, start timed streams until this much time "
                         "has passed (whole streams, at least the workload's count)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pkg = SRC / "latentreplay"
    if not (pkg / "__init__.py").is_file():
        print(f"streambench: no latentreplay sources at {pkg}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads. One thread: the
    # package's GEMMs are small, and a pool adds scheduling noise.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import latentreplay
    if Path(latentreplay.__file__).resolve().parent != pkg:
        print(f"streambench: imported {latentreplay.__file__}, not {pkg}", file=sys.stderr)
        return 2
    import bench
    if args.workload not in bench.WORKLOADS:
        print(f"streambench: unknown workload {args.workload!r}; one of "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), pkg)


if __name__ == "__main__":
    sys.exit(main())
