"""One SHA-256 per session of a benchmark workload's stream.

Trains the stream of ``streambench`` workload ``--workload`` at scenario
seed ``--seed`` session by session, with the network, strategy and
trainer seed the benchmark uses, and prints one line per session:

    <session> <sha256>

Each digest covers every parameter and BRN moving moment of the
network; the rehearsal memory's payloads, labels and origins; the
trainer's batch count, the draw counters of its and the memory's random
streams and the memory's last batch index; the CWR* consolidated head
(``cw_w``, ``cw_b``, ``past``), SI's ``theta_ref``, ``omega`` and
``importance`` and the DSLDA statistics, where the strategy has them;
the session's loss trace; and the logits and accuracy on the test set. Two
checkouts that print the same lines trained bit-identical streams. From
the root of a checkout:

    python3 tools/session_digest.py --workload latent-relu3-rm500 --seed 2024

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

    def add(label: str, arr) -> None:
        arr = np.ascontiguousarray(arr)
        h.update(f"{label}:{arr.dtype.str}:{arr.shape}:".encode())
        h.update(arr.tobytes())

    for layer in trainer.net.layers:
        for key in sorted(layer.params):
            add(f"{layer.name}.{key}", layer.params[key])
        for key in ("mu_mov", "sigma_mov"):
            if hasattr(layer, key):
                add(f"{layer.name}.{key}", getattr(layer, key))
    counters = [trainer.batch_count, trainer.rng._counter]
    if trainer.rm is not None:
        for key in ("payloads", "labels", "origins"):
            add(f"rm.{key}", getattr(trainer.rm, key))
        counters += [trainer.rm.rng._counter, trainer.rm._last_i]
    add("counters", np.asarray(counters, dtype=np.int64))
    if trainer.cwr is not None:
        for key in ("cw_w", "cw_b", "past"):
            add(f"cwr.{key}", getattr(trainer.cwr, key))
    if trainer.si is not None:
        for kind in ("theta_ref", "omega", "importance"):
            for ln, pn in trainer.si.keys:
                add(f"si.{kind}.{ln}.{pn}", getattr(trainer.si, kind)[(ln, pn)])
    if trainer.dslda is not None:
        for key in ("mu", "n_c", "scatter", "count"):
            add(f"dslda.{key}", getattr(trainer.dslda, key))
    add("loss_trace", np.asarray(report.loss_trace, dtype=np.float64))
    add("test_logits", trainer.net.predict(test_x))
    # the trainer's own scoring, which may start from kept tap activations
    add("test_accuracy", np.float64((trainer.predict_labels(test_x) == test_y).mean()))
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


if __name__ == "__main__":
    # as in streambench/run.py: BLAS reads its thread count when numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
