"""The fast narrative demos run to completion. 03 is left out: it repeats
criterion 9's strategy comparison at about ten seconds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_latent_replay_equivalence.py", "02_tradeoff_table.py",
                                  "04_activation_sparsification.py",
                                  "06_precache_pipeline.py"])
def test_demo_exits_0(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
