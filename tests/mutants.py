"""Mutation screen: run the tests against one-operator changes of a module.

    python tests/mutants.py src/rcoxeter/spherical.py --seed 27 \\
        tests/test_spherical.py tests/test_davis.py tests/test_properties.py

Each mutant changes one site of the module: it swaps a comparison (``<``
and ``<=``, ``==`` and ``!=``, ``in`` and ``not in``, ...), an arithmetic
or bitwise operator (``+`` and ``-``, ``<<`` and ``>>``, ``&`` and ``|``,
...) or ``and`` and ``or``, drops a ``not``, ``-`` or ``~``, or adds one to
an integer constant.  Annotations are left alone: the modules postpone
them, so no test can see a change there.  The sites are shuffled with
``--seed`` and the first ``--count`` are run (all by default), each with
``pytest -x`` on the given test files, or on the whole suite when none are
given.  One JSON line per mutant goes to stdout: the site's index, its
line in the module, the change and whether the tests killed it.  A mutant
whose tests run past ``--timeout`` seconds (a loop that no longer ends)
is stopped and counts as killed.  Rerun a survivor on the whole suite
with ``--only INDEX`` and no test files.  ``--function NAME``, a function
or class of the module or ``Class.method``, runs every site inside that
definition, so a rescreen names what changed rather than indices that
shift with each edit; with ``--only`` it adds to those sites.

The mutants are written into a temporary copy of the checkout, never into
the checkout itself.  The copy is removed on exit, also when the screen is
stopped by ``SIGTERM``: the signal raises ``SystemExit``, which kills the
running tests and unwinds the ``with`` block that holds the copy.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMPARE = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
BINARY = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.LShift: ast.RShift,
    ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.BitXor: ast.BitOr,
}
BOOLEAN = {ast.And: ast.Or, ast.Or: ast.And}
UNARY = (ast.Not, ast.USub, ast.Invert)


def _annotation_nodes(tree: ast.AST) -> set[int]:
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations += [node.returns] + [a.annotation for a in every if a is not None]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    return {id(n) for a in annotations if a is not None for n in ast.walk(a)}


def sites(tree: ast.AST) -> list[tuple[ast.AST, int]]:
    """Every mutable site of the tree, as (node, operator position), in
    ``ast.walk`` order."""
    skip = _annotation_nodes(tree)
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            found += [(node, i) for i, op in enumerate(node.ops) if type(op) in COMPARE]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINARY:
            found.append((node, 0))
        elif isinstance(node, ast.BoolOp) or (
            isinstance(node, ast.UnaryOp) and isinstance(node.op, UNARY)
        ):
            found.append((node, 0))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((node, 0))
    return found


def definition_sites(tree: ast.AST, name: str) -> list[int]:
    """The indices into ``sites(tree)`` of the sites inside the function or
    class ``name``, a dotted path such as ``Class.method``."""
    node = tree
    for part in name.split("."):
        found = [
            child for child in getattr(node, "body", [])
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and child.name == part
        ]
        if not found:
            raise KeyError(name)
        node = found[0]
    inside = {id(n) for n in ast.walk(node)}
    return [i for i, (site, _) in enumerate(sites(tree)) if id(site) in inside]


def mutant(source: str, index: int) -> tuple[str, int, str]:
    """The module's text with site ``index`` changed, the site's line and a
    description of the change."""
    tree = ast.parse(source)
    node, i = sites(tree)[index]
    line = node.lineno
    if isinstance(node, ast.Compare):
        old = type(node.ops[i])
        node.ops[i] = COMPARE[old]()
        change = f"{old.__name__} -> {COMPARE[old].__name__}"
    elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
        old = type(node.op)
        new = BOOLEAN[old] if isinstance(node, ast.BoolOp) else BINARY[old]
        node.op = new()
        change = f"{old.__name__} -> {new.__name__}"
    elif isinstance(node, ast.UnaryOp):
        change = f"drop {type(node.op).__name__}"

        class Drop(ast.NodeTransformer):
            def visit_UnaryOp(self, n):
                self.generic_visit(n)
                return n.operand if n is node else n

        tree = Drop().visit(tree)
    else:
        change = f"{node.value} -> {node.value + 1}"
        node.value += 1
    return ast.unparse(tree), line, change


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="path of the module, relative to the checkout")
    parser.add_argument("tests", nargs="*", help="test files (default: the whole suite)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, help="run only the first COUNT shuffled sites")
    parser.add_argument("--only", type=int, action="append", metavar="INDEX",
                        help="run this site (repeatable)")
    parser.add_argument("--function", action="append", default=[], metavar="NAME",
                        help="run every site inside this function, class or "
                        "Class.method (repeatable)")
    parser.add_argument("--timeout", type=float, default=600, metavar="SECONDS",
                        help="stop a mutant's tests after this long (default 600)")
    args = parser.parse_intermixed_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    source = (ROOT / args.module).read_text()
    parsed = ast.parse(source)
    order = list(range(len(sites(parsed))))
    random.Random(args.seed).shuffle(order)
    chosen = list(args.only or [])
    for name in args.function:
        try:
            chosen += [i for i in definition_sites(parsed, name) if i not in chosen]
        except KeyError:
            parser.error(f"no function or class {name!r} in {args.module}")
    if not (args.only or args.function):
        chosen = order[: args.count]
    print(json.dumps({"module": args.module, "sites": len(order), "seed": args.seed,
                      "tests": args.tests or "all"}), flush=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="src:tests")
    with tempfile.TemporaryDirectory() as work:
        tree = Path(work) / "tree"
        skip = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_build")
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(*skip))
        target = tree / args.module
        for index in chosen:
            text, line, change = mutant(source, index)
            target.write_text(text)
            try:
                run = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p",
                     "no:cacheprovider", *args.tests],
                    cwd=tree, env=env, capture_output=True, text=True,
                    timeout=args.timeout,
                )
            except subprocess.TimeoutExpired:
                killed, summary = True, f"timed out after {args.timeout:g} s"
            else:
                killed = run.returncode != 0
                summary = (run.stdout.strip().splitlines()[-1:] or [""])[0]
            print(json.dumps({"index": index, "line": line, "change": change,
                              "killed": killed, "summary": summary}), flush=True)
        target.write_text(source)
    return 0


if __name__ == "__main__":
    sys.exit(main())
