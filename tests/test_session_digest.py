import copy
import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "session_digest.py"
_spec = importlib.util.spec_from_file_location("session_digest", TOOL)
session_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(session_digest)


def small_stream():
    from latentreplay import ScenarioParams, generate_tinynic

    return generate_tinynic(ScenarioParams(
        classes=4, instances_per_class=2, frames_per_session=24, first_batch_classes=2,
        first_batch_instances=1, test_frames_per_instance=4), 7)


def test_digest_repeats_and_sees_one_ulp_of_one_weight():
    stream = small_stream()

    def two_sessions():
        runs = itertools.islice(session_digest.trained_sessions("ar1-pool-rm1500", stream), 2)
        return [(trainer, session_digest.session_digest(trainer, report, stream.test_x,
                                                        stream.test_y), report)
                for trainer, report in runs]

    first, again = two_sessions(), two_sessions()
    assert [d for _, d, _ in first] == [d for _, d, _ in again]
    assert first[0][1] != first[1][1]
    trainer, digest, report = again[-1]
    w = trainer.net.layer("conv3_dw").params["w"].reshape(-1)
    w[5] = np.nextafter(w[5], np.float32(np.inf))
    assert session_digest.session_digest(
        trainer, report, stream.test_x, stream.test_y) != digest


def next_ulp(arr, i):
    flat = arr.reshape(-1)
    flat[i] = np.nextafter(flat[i], np.inf)


def si_trainer(stream):
    """An ar1* trainer whose SI guards the layers above a relu3 tap, after
    one session of ``stream``."""
    from latentreplay import ContinualTrainer, StrategyConfig
    from latentreplay.presets import build_tinynic_network

    trainer = ContinualTrainer(
        build_tinynic_network(classes=stream.classes, tap="relu3", width=4),
        StrategyConfig(strategy="ar1*", replay_kind="latent", rm_capacity=20, epochs=1,
                       mb=16), seed=3)
    batch = stream.batches[0]
    return trainer, trainer.train_batch(batch.x, batch.y)


@pytest.mark.parametrize("perturb", [
    lambda t: t.rng.next_u64(),
    lambda t: t.rm.rng.next_u64(),
    lambda t: next_ulp(t.cwr.past, 1),
    lambda t: next_ulp(t.si.omega[t.si.keys[0]], 0),
], ids=["trainer_rng_draw", "memory_rng_draw", "cwr_past_ulp", "si_omega_ulp"])
def test_digest_sees_strategy_state_beyond_the_network(perturb):
    """One random draw, or one ulp of a strategy's bookkeeping, changes
    the digest where no weight, memory row or logit differs."""
    stream = small_stream()
    trainer, report = si_trainer(stream)
    assert trainer.cwr is not None and trainer.si.keys
    digest = session_digest.session_digest(trainer, report, stream.test_x, stream.test_y)
    perturb(trainer)
    assert session_digest.session_digest(
        trainer, report, stream.test_x, stream.test_y) != digest


def dslda_trainer(stream):
    """A dslda trainer after one session of ``stream``."""
    from latentreplay import ContinualTrainer, StrategyConfig
    from latentreplay.presets import build_tinynic_network

    trainer = ContinualTrainer(
        build_tinynic_network(classes=stream.classes, tap="pool", width=4),
        StrategyConfig(strategy="dslda"), seed=3)
    batch = stream.batches[0]
    return trainer, trainer.train_batch(batch.x, batch.y)


def state_changes(trainer):
    """(state() key, change) pairs: one ulp, or one unit of an integer, in
    the first element of each of the trainer's own non-empty arrays (an
    empty one, such as a memory-less run's ``rm.*``, has no element to
    nudge), and one draw of each random stream ``counters`` counts."""
    def nudge(t, key):
        flat = t.state()[key].reshape(-1)  # the trainer's own array, not a copy
        flat[0] = np.nextafter(flat[0], np.inf) if flat.dtype.kind == "f" else flat[0] + 1

    for key, value in trainer.state().items():
        if key != "counters" and value.size:
            yield key, lambda t, key=key: nudge(t, key)
    yield "counters", lambda t: t.rng.next_u64()
    yield "counters", lambda t: t.rm.rng.next_u64()


@pytest.mark.parametrize("make", [si_trainer, dslda_trainer], ids=["memory_cwr_si", "dslda"])
def test_one_ulp_or_one_draw_in_any_state_entry_changes_state_and_digest(make):
    stream = small_stream()
    trainer, report = make(stream)

    def entries(t):
        return {k: (v.dtype.str, v.shape, v.tobytes()) for k, v in t.state().items()}

    def digest(t):
        return session_digest.session_digest(t, report, stream.test_x, stream.test_y)

    base, base_digest = entries(trainer), digest(trainer)
    changed = set()
    for key, change in state_changes(trainer):
        t = copy.deepcopy(trainer)
        change(t)
        now = entries(t)
        assert list(now) == list(base)
        assert [k for k in base if now[k] != base[k]] == [key]
        assert digest(t) != base_digest, key
        changed.add(key)
    assert changed == {k for k, v in trainer.state().items() if v.size}


def test_blas_thread_count_defaults_to_one_and_keeps_the_callers():
    environ = {"OPENBLAS_NUM_THREADS": "2", "PATH": "/bin"}
    session_digest.default_blas_threads(environ)
    assert environ == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1", "PATH": "/bin"}
