"""The demos run as scripts and print exactly what they printed when their
output was pinned: each one's stdout is checked by sha256."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: sha256 of each demo's stdout.
DEMO_DIGESTS = {
    "01_word_problem.py": "74494654445c6cf088ec233fe9ccfacc646e95e5e993de65df19d41a540ca563",
    "02_spherical_chamber.py": "f2c9308b6343228e34a643db59a86eb0881cb08e24ed154579a7b5c93784f14e",
    "03_davis_ball.py": "0082c75bf2965f0ac7b805cc4786dd2d8fb16a826fb872803c4a2cca73f86ae5",
    "04_unique_fixed_point.py": "0cbea34d0aeadc5c6dae667b2b5056b47e11c13c8a0d0a4e46b61d1816706fe3",
    "05_certificates.py": "4ca7c4e9d15b5e76503810f080205cba5ba400b34d5d52a6f6b801e4ef2a8835",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]
