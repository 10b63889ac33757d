"""Smoke test: the demo scripts run to completion against the library.

``02_four_regimes.py`` is left out for its run time (about 7 s on a
2-core machine, more than the other three together).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["01_projections.py", "03_gda_divergence.py",
                                    "04_rates_and_bounds.py"])
def test_demo_runs(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          env={**os.environ, "PYTHONPATH": path}, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
