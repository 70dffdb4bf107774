"""The fast demos run end to end on the public API.  `demo_diarization`
trains a system and takes several times longer, so it is left out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["demo_partitions", "demo_scoring", "demo_training"])
def test_demo_runs(name, tmp_path):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    if name == "demo_scoring":
        assert "posterior equals prior: True" in proc.stdout
