"""Command-line interface.

One subcommand per library operation, built-in presets, JSON (or DOT)
reports on stdout, diagnostics on stderr.  Exit codes: 0 success, 1 invalid
input or usage, 2 verification failure, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator

# The other submodules are imported by the commands that use them, so
# that --help and the word commands load only these two.
from .graphs import DefiningGraph, GraphParseError, parse_graph, preset, PRESETS
from .words import has_order_two, multiply, parse_word, word_to_text


class _UsageError(Exception):
    pass


class _CliqueCapError(Exception):
    """The graph has more cliques than the vertex cap allows to list."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _dump_json(payload) -> str:
    return json.dumps(payload) + "\n"


def _cliques_json(graph: DefiningGraph) -> Iterator[str]:
    """The text ``json.dumps`` gives of every clique as a list of labels, in
    size-then-lexicographic order, in pieces of one size each, so that the
    cliques and the text of only one size are held at a time."""
    from .spherical import _clique_levels

    quoted = [encode_basestring_ascii(label) for label in graph.labels]
    opening = "["
    for level in _clique_levels(graph.n, graph.neighbor_masks):
        yield opening + ", ".join(
            f"[{', '.join([quoted[g] for g in clique])}]" for clique, _ in level
        )
        opening = ", "
    yield "]\n"


_JSON = ("json",)
_WORD = (("word", "+"),)

#: Every command, in the order ``--help`` lists them: its help, whether it
#: takes ``--radius``, its ``--format`` choices, what ``--max-vertices``
#: bounds ("" for no such option) and its positional arguments with their
#: nargs.
_COMMANDS = {
    "nf": ("shortlex normal form of a word", False, (), "", _WORD),
    "mul": ("product of two words (quote multi-label words)", False, (), "",
            (("x", None), ("y", None))),
    "order": ("order of an element: 1, 2 or infinity", False, (), "", _WORD),
    "cliques": ("all spherical subsets", False, _JSON, "the chamber", ()),
    "maxclique": ("the maximum spherical subset", False, _JSON, "", ()),
    "gamma": ("the involution built from a maximum clique", False, _JSON, "", ()),
    "ball": ("census of a Davis-complex ball", True, _JSON, "the ball", ()),
    "cubes": ("cubes at a vertex, by dimension", True, _JSON, "the ball", _WORD),
    "fixed": ("fixed-point report for the involution", True, _JSON, "the ball", ()),
    "profile": ("displacement statistics per sphere", True, _JSON, "the ball", ()),
    "certify": ("run all checks and emit a certificate", True, _JSON, "the ball", ()),
    "export": ("full complex as JSON or 1-skeleton DOT", True, ("json", "dot"),
               "the ball", ()),
}


def _build_parser(argv: list[str]) -> _Parser:
    """The parser for ``argv``: with only the subparser of the command that
    ``argv`` starts with, or with all of them when it starts with none, so
    that the top-level help and its errors list every command."""
    parser = _Parser(prog="rcoxeter", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        help, radius, formats, cap, positionals = _COMMANDS[name]
        p = sub.add_parser(name, help=help)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--preset", choices=sorted(PRESETS), help="built-in graph")
        source.add_argument("--graph", metavar="FILE", help="graph description file")
        p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
        p.add_argument(
            "--max-generators", type=int, default=24, metavar="N",
            help="refuse graphs with more generators (default 24)",
        )
        if radius:
            p.add_argument("--radius", type=int, required=True, metavar="N")
        if cap:
            p.add_argument(
                "--max-vertices", type=int, default=1_000_000, metavar="N",
                help=f"abort if {cap} would exceed this many vertices",
            )
        if formats:
            p.add_argument("--format", choices=formats, default="json")
        for positional, nargs in positionals:
            p.add_argument(positional, nargs=nargs)
    return parser


def _load_graph(args) -> DefiningGraph:
    if args.preset:
        graph = preset(args.preset)
    else:
        graph = parse_graph(Path(args.graph).read_text())
    if graph.n > args.max_generators:
        raise ValueError(
            f"graph has {graph.n} generators, above the cap {args.max_generators}"
        )
    return graph


def _word_out(word, graph: DefiningGraph) -> str:
    text = word_to_text(word, graph)
    if not text:
        return "e" if "e" not in graph.labels else ""
    return text


def _run(args) -> tuple[str | Iterator[str], int]:
    """The command's output, whole or in pieces, and its exit code."""
    graph = _load_graph(args)
    if args.command == "nf":
        return _word_out(parse_word(" ".join(args.word), graph), graph) + "\n", 0
    if args.command == "mul":
        product = multiply(parse_word(args.x, graph), parse_word(args.y, graph), graph)
        return _word_out(product, graph) + "\n", 0
    if args.command == "order":
        word = parse_word(" ".join(args.word), graph)
        order = "1" if not word else "2" if has_order_two(word, graph) else "infinity"
        return order + "\n", 0
    if args.command == "cliques":
        from .spherical import _clique_counts

        # The cliques are the vertices of the chamber, so they answer to
        # the vertex cap; each size is counted before it is listed.
        total = 0
        for size in _clique_counts(graph.n, graph.neighbor_masks):
            total += size
            if total > args.max_vertices:
                raise _CliqueCapError(
                    f"vertex cap {args.max_vertices} exceeded; the graph has"
                    f" at least {total} cliques"
                )
        return _cliques_json(graph), 0
    if args.command == "maxclique":
        from .spherical import maximum_spherical

        return _dump_json([graph.labels[g] for g in maximum_spherical(graph)]), 0
    from .growth import _census, ball_census
    from .involution import build_involution, fixed_loci
    from .probe import _census_profile, certify

    if args.command == "gamma":
        return _dump_json(build_involution(graph).as_dict()), 0
    if args.command == "certify":
        certificate = certify(graph, args.radius, max_vertices=args.max_vertices)
        return _dump_json(certificate.as_dict()), 0 if certificate.verdict else 2
    if args.command == "ball":
        census = ball_census(graph, args.radius, max_vertices=args.max_vertices)
        return _dump_json(census.as_dict()), 0
    if args.command in ("fixed", "profile"):
        inv = build_involution(graph)
        if args.command == "profile":
            report = _census_profile(inv, args.radius, args.max_vertices, inv.n)
        else:
            report = fixed_loci(inv, _census(graph, args.radius, args.max_vertices, inv.n))
        return _dump_json(report.as_dict()), 0
    if args.command == "cubes":
        from .davis import build_ball, cubes_at_vertex

        census = ball_census(graph, args.radius, max_vertices=args.max_vertices)
        vertex = parse_word(" ".join(args.word), graph)
        if len(vertex) > args.radius:
            raise ValueError(f"vertex {_word_out(vertex, graph)!r} is not in the ball")
        # A cube (b, T) through v has |b| + |T| <= |v| + k: build only that ball.
        k = args.radius - census.reliable_radius
        ball = build_ball(graph, min(args.radius, len(vertex) + k), args.max_vertices)
        grouped = cubes_at_vertex(ball, vertex)
        payload = {
            "vertex": word_to_text(vertex, graph),
            "by_dimension": [
                {
                    "dimension": dim,
                    "cubes": [
                        {
                            "base": word_to_text(c.base, graph),
                            "axis": [graph.labels[g] for g in c.axis],
                        }
                        for c in cubes
                    ],
                }
                for dim, cubes in grouped.items()
            ],
        }
        return _dump_json(payload), 0
    if args.command == "export":
        from .davis import build_ball, export_complex

        ball = build_ball(graph, args.radius, max_vertices=args.max_vertices)
        return export_complex(ball, args.format), 0
    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        text, code = _run(args)
        pieces = (text,) if isinstance(text, str) else text
        if args.out:
            with open(args.out, "w") as out:
                out.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if not exc.code else 1
    except (GraphParseError, ValueError, OSError) as exc:
        print(f"rcoxeter: {exc}", file=sys.stderr)
        return 1
    except _cap_errors() as exc:
        print(f"rcoxeter: {exc}", file=sys.stderr)
        return 3
    return code


def _cap_errors() -> tuple[type[Exception], ...]:
    # Called only when an exception gets past the clauses above it in
    # ``main``, none of which catches a cap error, so a command that never
    # loads ``growth`` does not load it for this.
    from .growth import ResourceCapError

    return ResourceCapError, _CliqueCapError


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
