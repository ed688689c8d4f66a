import importlib.util
import itertools
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parent.parent / "tools" / "session_digest.py"
_spec = importlib.util.spec_from_file_location("session_digest", TOOL)
session_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(session_digest)


def test_digest_repeats_and_sees_one_ulp_of_one_weight():
    from latentreplay import ScenarioParams, generate_tinynic

    stream = generate_tinynic(ScenarioParams(
        classes=4, instances_per_class=2, frames_per_session=24, first_batch_classes=2,
        first_batch_instances=1, test_frames_per_instance=4), 7)

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
