"""The benchmark's self-check, run as a test.

``bench/run.py --self-check`` runs every workload check on tiny inputs,
once plain and once traced, and feeds the checker corrupted outputs that
it must catch.  The traced repetition wraps names such as
``involution.invariant_cubes``, ``davis.Ball`` and ``davis.multiply`` and
reads the spans they leave, so this test fails when a refactor detaches
one of them.  It takes about 10 s.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_check_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--self-check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == '{"self_check": "pass"}'
