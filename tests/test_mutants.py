import os
import signal
import subprocess
import sys
import time
from pathlib import Path

MUTANTS = Path(__file__).resolve().parent / "mutants.py"


def test_sigterm_removes_the_copy(tmp_path):
    # The screen copies the checkout under TMPDIR; stopped by SIGTERM once
    # the copy is there, it exits with 128 + SIGTERM and leaves nothing.
    env = dict(os.environ, TMPDIR=str(tmp_path))
    screen = subprocess.Popen(
        [sys.executable, str(MUTANTS), "src/rcoxeter/words.py", "--count", "3",
         "tests/test_words.py"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while not any(tmp_path.glob("*/tree")) and screen.poll() is None:
            assert time.monotonic() < deadline, "no copy appeared"
            time.sleep(0.01)
        screen.send_signal(signal.SIGTERM)
        assert screen.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        if screen.poll() is None:
            screen.kill()
            screen.wait()
    assert list(tmp_path.iterdir()) == []
