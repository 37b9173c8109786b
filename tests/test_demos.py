"""Each demo prints its pinned stdout, byte for byte.

`golden/demos/<name>.stdout` holds what `demos/<name>.py` prints. Each demo
runs in a fresh interpreter under `-X dev -W error` with only `src/` on the
path, as a reader would run it from a checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden" / "demos"


@pytest.mark.parametrize("demo", sorted(path.stem for path in (ROOT / "demos").glob("*.py")))
def test_demo_stdout_is_pinned(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(ROOT / "demos" / f"{demo}.py")],
        env=env, cwd=ROOT, capture_output=True,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / f"{demo}.stdout").read_bytes()
