import ast
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mutants

MUTANTS = Path(__file__).resolve().parent / "mutants.py"
ROOT = MUTANTS.parent.parent


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


SMALL = '''\
LIMIT = 1 + 2


def first(a, b: int = 3):
    return a < b and not a


class Box:
    size = 4

    def grow(self, x):
        if x > 0:
            return x << 1
        return -x

    def shrink(self):
        return self.size - 1


def last():
    return 5 * 6
'''


def _definition(tree, name):
    node = tree
    for part in name.split("."):
        node = next(c for c in node.body if getattr(c, "name", None) == part)
    return node


@pytest.mark.parametrize("name", ["first", "Box", "Box.grow", "Box.shrink", "last"])
def test_function_selects_the_sites_within_its_lines(name):
    tree = ast.parse(SMALL)
    node = _definition(tree, name)
    within = [
        i for i, (site, _) in enumerate(mutants.sites(tree))
        if node.lineno <= site.lineno <= node.end_lineno
    ]
    assert within
    assert mutants.definition_sites(tree, name) == within


def test_unknown_function_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as raised:
        mutants.main(["src/rcoxeter/reflection.py", "--function", "Box.nothing"])
    assert raised.value.code == 2
    assert "no function or class 'Box.nothing'" in capsys.readouterr().err


def test_function_runs_exactly_its_sites():
    # Two one-site functions of reflection, screened with its own tests.
    run = subprocess.run(
        [sys.executable, str(MUTANTS), "src/rcoxeter/reflection.py",
         "--function", "matrix_product", "--function", "identity_matrix",
         "--timeout", "120", "tests/test_reflection.py"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = [json.loads(line) for line in run.stdout.splitlines()]
    tree = ast.parse((ROOT / "src/rcoxeter/reflection.py").read_text())
    expected = (mutants.definition_sites(tree, "matrix_product")
                + mutants.definition_sites(tree, "identity_matrix"))
    assert [line["index"] for line in lines[1:]] == expected
