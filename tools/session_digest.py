"""One SHA-256 per session of a benchmark workload's stream.

Trains the stream of ``streambench`` workload ``--workload`` at scenario
seed ``--seed`` session by session, with the network, strategy and
trainer seed the benchmark uses, and prints one line per session:

    <session> <sha256>

Each digest covers the trainer's ``state()``, everything the run carries
from one session to the next, then the session's loss trace and the
trainer's logits and accuracy on the test set. Two checkouts that print
the same lines trained bit-identical streams. From the root of a
checkout:

    python3 tools/session_digest.py --workload latent-relu3-rm500 --seed 2024

BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` (or
``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``) is already set, so the same
command prefixed with ``OPENBLAS_NUM_THREADS=2`` checks that the bits do
not depend on the thread count.

A change keeps the same bits when two checks agree between its checkout
and its parent's: this tool's digests for every workload at scenario
seeds 2024 and 7, and ``diff -r`` of the two output directories of

    PYTHONPATH=src python3 -m latentreplay run \\
        --config tools/reference_blocks.json --out <dir>

whose blocks also cover the strategies and memories the workloads do
not (cwr* with a latent, a native or no memory, dslda, naive, native
memories).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "streambench", ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))


def session_digest(trainer, report, test_x, test_y) -> str:
    """Digest of the trainer's state after the session ``report`` describes."""
    import numpy as np

    h = hashlib.sha256()
    outputs = {"loss_trace": np.asarray(report.loss_trace, dtype=np.float64),
               "test_logits": trainer.predict_logits(test_x),
               "test_accuracy": np.float64(trainer.accuracy(test_x, test_y))}
    for label, arr in [*trainer.state().items(), *outputs.items()]:
        arr = np.ascontiguousarray(arr)
        h.update(f"{label}:{arr.dtype.str}:{arr.shape}:".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def trained_sessions(workload: str, stream):
    """Yield (trainer, report) after each session of ``stream``, trained
    as the benchmark trains ``workload``."""
    import bench
    from latentreplay import ContinualTrainer

    spec = bench.WORKLOADS[workload]
    trainer = ContinualTrainer(bench.build_network(spec), bench.strategy_config(spec),
                               seed=bench.NET_SEED)
    for batch in stream.batches:
        yield trainer, trainer.train_batch(batch.x, batch.y)


def stream_digests(workload: str, seed: int):
    """Yield the digest of each session of ``workload``'s stream at
    scenario seed ``seed``."""
    import bench
    from latentreplay import generate_tinynic

    stream = generate_tinynic(bench.STREAM, seed)
    for trainer, report in trained_sessions(workload, stream):
        yield session_digest(trainer, report, stream.test_x, stream.test_y)


def main(argv=None) -> int:
    import bench

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="scenario seed")
    args = ap.parse_args(argv)
    for k, digest in enumerate(stream_digests(args.workload, args.seed), start=1):
        print(k, digest, flush=True)
    return 0


def default_blas_threads(environ) -> None:
    """Set each BLAS thread count the caller left unset to 1, as
    streambench/run.py pins it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        environ.setdefault(var, "1")


if __name__ == "__main__":
    default_blas_threads(os.environ)  # BLAS reads its thread count when numpy loads
    sys.exit(main())
