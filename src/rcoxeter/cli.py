"""Command-line interface.

One subcommand per library operation, built-in presets, JSON (or DOT)
reports on stdout, diagnostics on stderr.  Exit codes: 0 success, 1 invalid
input or usage, 2 verification failure, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .davis import (
    Ball,
    BallCensus,
    ResourceCapError,
    ball_census,
    build_ball,
    cubes_at_vertex,
    export_complex,
)
from .graphs import DefiningGraph, GraphParseError, parse_graph, preset, PRESETS
from .involution import FixedPointReport, Involution, build_involution, fixed_loci
from .probe import Certificate, DisplacementProfile, certify, displacement_profile
from .spherical import _clique_counts, maximum_spherical, spherical_poset
from .words import has_order_two, multiply, parse_word, word_to_text


class UnsupportedFormatError(ValueError):
    """The requested output format does not apply to this report kind."""


class _UsageError(Exception):
    pass


class _CliqueCapError(Exception):
    """The graph has more cliques than the vertex cap allows to list."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def format_report(value, format: str = "json") -> str:
    """Canonical serialization of a library report, newline-terminated."""
    if isinstance(value, Ball):
        return export_complex(value, format)
    if isinstance(
        value,
        (BallCensus, FixedPointReport, Certificate, DisplacementProfile, Involution),
    ):
        if format != "json":
            raise UnsupportedFormatError(
                f"{type(value).__name__} can only be rendered as json, not {format!r}"
            )
        return _dump_json(value.as_dict())
    raise UnsupportedFormatError(f"cannot format {type(value).__name__} reports")


def _dump_json(payload) -> str:
    return json.dumps(payload) + "\n"


def _build_parser() -> _Parser:
    parser = _Parser(prog="rcoxeter", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(
        name: str, help: str, radius: bool = False, fmt: bool = False, cap: str = ""
    ):
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
            cap = "the ball"
        if cap:
            p.add_argument(
                "--max-vertices", type=int, default=1_000_000, metavar="N",
                help=f"abort if {cap} would exceed this many vertices",
            )
        if fmt:
            p.add_argument("--format", choices=("json", "dot"), default="json")
        return p

    add("nf", "shortlex normal form of a word").add_argument("word", nargs="+")
    p = add("mul", "product of two words (quote multi-label words)")
    p.add_argument("x")
    p.add_argument("y")
    add("order", "order of an element: 1, 2 or infinity").add_argument(
        "word", nargs="+"
    )
    add("cliques", "all spherical subsets", fmt=True, cap="the chamber")
    add("maxclique", "the maximum spherical subset", fmt=True)
    add("gamma", "the involution built from a maximum clique", fmt=True)
    add("ball", "census of a Davis-complex ball", radius=True, fmt=True)
    add("cubes", "cubes at a vertex, by dimension", radius=True, fmt=True).add_argument(
        "word", nargs="+"
    )
    add("fixed", "fixed-point report for the involution", radius=True, fmt=True)
    add("profile", "displacement statistics per sphere", radius=True, fmt=True)
    add("certify", "run all checks and emit a certificate", radius=True, fmt=True)
    add("export", "full complex as JSON or 1-skeleton DOT", radius=True, fmt=True)
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


def _run(args) -> tuple[str, int]:
    fmt = getattr(args, "format", "json")
    if fmt != "json" and args.command != "export":
        raise UnsupportedFormatError(
            f"{args.command} output can only be rendered as json, not {fmt!r}"
        )
    graph = _load_graph(args)
    if args.command == "nf":
        return _word_out(parse_word(" ".join(args.word), graph), graph) + "\n", 0
    if args.command == "mul":
        product = multiply(parse_word(args.x, graph), parse_word(args.y, graph), graph)
        return _word_out(product, graph) + "\n", 0
    if args.command == "order":
        word = parse_word(" ".join(args.word), graph)
        if not word:
            order = "1"
        elif has_order_two(word, graph):
            order = "2"
        else:
            order = "infinity"
        return order + "\n", 0
    if args.command == "cliques":
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
        poset = spherical_poset(graph)
        payload = [[graph.labels[g] for g in clique] for clique in poset]
        return _dump_json(payload), 0
    if args.command == "maxclique":
        return _dump_json([graph.labels[g] for g in maximum_spherical(graph)]), 0
    if args.command == "gamma":
        return format_report(build_involution(graph), args.format), 0
    if args.command == "certify":
        certificate = certify(graph, args.radius, max_vertices=args.max_vertices)
        return format_report(certificate, args.format), 0 if certificate.verdict else 2
    if args.command in ("ball", "fixed", "profile"):
        census = ball_census(graph, args.radius, max_vertices=args.max_vertices)
        if args.command == "ball":
            return format_report(census, args.format), 0
        inv = build_involution(graph)
        if args.command == "fixed":
            return format_report(fixed_loci(inv, census), args.format), 0
        return format_report(displacement_profile(inv, census), args.format), 0
    ball = build_ball(graph, args.radius, max_vertices=args.max_vertices)
    if args.command == "cubes":
        vertex = parse_word(" ".join(args.word), graph)
        if vertex not in ball:
            raise ValueError(f"vertex {_word_out(vertex, graph)!r} is not in the ball")
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
        return format_report(ball, args.format), 0
    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        text, code = _run(args)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if not exc.code else 1
    except (ResourceCapError, _CliqueCapError) as exc:
        print(f"rcoxeter: {exc}", file=sys.stderr)
        return 3
    except (GraphParseError, ValueError, OSError) as exc:
        print(f"rcoxeter: {exc}", file=sys.stderr)
        return 1
    return code


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
