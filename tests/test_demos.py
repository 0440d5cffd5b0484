import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricperiod

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", ["closed_forms.py", "certify_vectors.py"])
def test_demo_runs(script):
    # The demos import from the package's top level, so this guards its
    # export list as well as the pipeline they walk through.
    src = str(Path(toricperiod.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
