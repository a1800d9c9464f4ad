import contextlib
import gc
import hashlib
import io
import json
import os
import random
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcoxeter import (
    PRESETS,
    all_cliques,
    build_ball,
    certify,
    cubes_at_vertex,
    parse_graph,
    preset,
    word_to_text,
)
from rcoxeter.cli import main
from oracles import complete_graph_file, random_graph


COMMANDS = (
    "nf", "mul", "order", "cliques", "maxclique", "gamma",
    "ball", "cubes", "fixed", "profile", "certify", "export",
)
RADIUS_COMMANDS = ("ball", "cubes", "fixed", "profile", "certify", "export")
JSON_ONLY_COMMANDS = (
    "cliques", "maxclique", "gamma", "ball", "cubes", "fixed", "profile", "certify",
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWordCommands:
    def test_nf_contiguous(self, capsys):
        code, out, err = run(capsys, "nf", "--preset", "square", "ba")
        assert (code, out, err) == (0, "a b\n", "")

    def test_nf_spaced_word(self, capsys):
        code, out, _ = run(capsys, "nf", "--preset", "pentagon", "v1 v0")
        assert (code, out) == (0, "v0 v1\n")

    def test_nf_labels_as_separate_arguments(self, capsys):
        code, out, _ = run(capsys, "nf", "--preset", "pentagon", "v1", "v0")
        assert (code, out) == (0, "v0 v1\n")

    def test_nf_identity_prints_e(self, capsys):
        code, out, _ = run(capsys, "nf", "--preset", "square", "aa")
        assert (code, out) == (0, "e\n")

    def test_mul(self, capsys):
        code, out, _ = run(capsys, "mul", "--preset", "square", "ab", "b")
        assert (code, out) == (0, "a\n")

    def test_mul_with_empty_word_marker(self, capsys):
        code, out, _ = run(capsys, "mul", "--preset", "dinfty", "e", "ab")
        assert (code, out) == (0, "a b\n")

    def test_order_identity(self, capsys):
        assert run(capsys, "order", "--preset", "square", "e")[:2] == (0, "1\n")

    def test_order_two(self, capsys):
        assert run(capsys, "order", "--preset", "square", "ab")[:2] == (0, "2\n")

    def test_order_infinite(self, capsys):
        assert run(capsys, "order", "--preset", "dinfty", "ab")[:2] == (0, "infinity\n")

    def test_bad_word_is_usage_error(self, capsys):
        code, out, err = run(capsys, "nf", "--preset", "square", "xyz")
        assert code == 1
        assert out == ""
        assert "x" in err


class TestCliqueCommands:
    def test_maxclique_dinfty(self, capsys):
        code, out, _ = run(capsys, "maxclique", "--preset", "dinfty")
        assert (code, out) == (0, '["a"]\n')

    def test_cliques_square(self, capsys):
        code, out, _ = run(capsys, "cliques", "--preset", "square")
        assert code == 0
        assert json.loads(out) == [[], ["a"], ["b"], ["a", "b"]]

    def test_cliques_cap(self, capsys):
        # The pentagon has 11 cliques, the vertices of its chamber.
        code, out, _ = run(capsys, "cliques", "--preset", "pentagon", "--max-vertices", "11")
        assert code == 0
        assert len(json.loads(out)) == 11
        code, out, err = run(capsys, "cliques", "--preset", "pentagon", "--max-vertices", "10")
        assert (code, out) == (3, "")
        assert err == "rcoxeter: vertex cap 10 exceeded; the graph has at least 11 cliques\n"

    def test_cliques_of_complete_graph_stop_before_listing(self, tmp_path, capsys):
        # K20 has 2^20 cliques: counting sizes up to 14 passes the default
        # cap, and no clique is listed.  Listing them takes over 100 MiB.
        # The run peaks at about 140 KiB, nearly all of it the argument
        # parser and the graph: the count holds at most 20 merged extension
        # masks a size, where one mask per clique took about 9 MiB.
        path = complete_graph_file(tmp_path, 20)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "cliques", "--graph", path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert err == (
            "rcoxeter: vertex cap 1000000 exceeded; the graph has at least 1026876 cliques\n"
        )
        assert peak < 4 * 140 * 2**10

    def test_cliques_are_written_one_size_at_a_time(self, tmp_path, capsys):
        # K14 has 16,384 cliques, 736 KiB of JSON.  Written size by size,
        # the listing never holds the whole text: the peak stays under
        # twice the output, where one json.dumps of the full payload
        # peaks near nine times it.
        path = complete_graph_file(tmp_path, 14)
        out_path = tmp_path / "cliques.json"
        argv = ["cliques", "--graph", path, "--out", str(out_path)]
        # The first run pays the imports and leaves its freed clique
        # tuples on the tuple free lists, where the traced run takes them
        # back.  A full collection empties those lists.  When one fell in
        # either run, the traced run had to allocate the tuples anew, and
        # the lists then held up to 2,000 freed tuples of each size: the
        # peak rose from 1.66 to as much as 2.48 times the output,
        # depending on when the collection fell.  So no collection runs
        # during the two; the listing makes no reference cycles.
        gc.disable()
        try:
            assert main(argv) == 0
            tracemalloc.start()
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert code == 0
        text = out_path.read_text()
        graph = parse_graph(Path(path).read_text())
        payload = [[graph.labels[g] for g in clique] for clique in all_cliques(graph)]
        assert len(payload) == 2**14
        assert text == json.dumps(payload) + "\n"
        assert peak < 2 * len(text)

    def test_gamma_pentagon(self, capsys):
        code, out, _ = run(capsys, "gamma", "--preset", "pentagon")
        assert code == 0
        assert json.loads(out) == {"gamma": "v0 v1", "clique": ["v0", "v1"], "n": 2}


class TestBallCommands:
    def test_ball_census(self, capsys):
        code, out, _ = run(capsys, "ball", "--preset", "square", "--radius", "2")
        assert code == 0
        assert json.loads(out) == {
            "radius": 2,
            "reliable_radius": 0,
            "vertex_count": 4,
            "cells_by_dimension": [4, 4, 1],
            "cells_total": 9,
        }

    def test_cubes_at_identity(self, capsys):
        code, out, _ = run(
            capsys, "cubes", "--preset", "square", "--radius", "2", "e"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["vertex"] == ""
        assert [group["dimension"] for group in payload["by_dimension"]] == [0, 1, 2]
        assert payload["by_dimension"][2]["cubes"] == [
            {"base": "", "axis": ["a", "b"]}
        ]

    def test_cubes_outside_the_ball_spells_the_vertex(self, capsys):
        code, out, err = run(
            capsys, "cubes", "--preset", "pentagon", "--radius", "3",
            "v0", "v0", "v0", "v1", "v2", "v3",
        )
        assert (code, out) == (1, "")
        assert err == "rcoxeter: vertex 'v0 v1 v2 v3' is not in the ball\n"

    def test_fixed_report(self, capsys):
        code, out, _ = run(capsys, "fixed", "--preset", "dinfty", "--radius", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["unique_point"] is True
        assert payload["loci"] == [{"base": "", "axis": ["a"], "dimension": 0}]

    def test_profile(self, capsys):
        code, out, _ = run(capsys, "profile", "--preset", "dinfty", "--radius", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["min"] == [1, 1, 3, 5]
        assert payload["radii"] == [0, 1, 2, 3]

    def test_export_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "export", "--preset", "square", "--radius", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["vertices"] == ["", "a", "b", "a b"]
        assert len(payload["cubes"]) == 5

    def test_export_dot(self, capsys):
        code, out, _ = run(
            capsys, "export", "--preset", "dinfty", "--radius", "3",
            "--format", "dot",
        )
        assert code == 0
        assert out.startswith("graph")
        assert out.count("--") == 6

    def test_export_unknown_format(self, capsys):
        code, out, err = run(
            capsys, "export", "--preset", "square", "--radius", "2",
            "--format", "obj",
        )
        assert code == 1
        assert out == ""
        assert "obj" in err

    def test_resource_cap_exit_code(self, capsys):
        code, out, err = run(
            capsys, "ball", "--preset", "pentagon", "--radius", "6",
            "--max-vertices", "50",
        )
        assert code == 3
        assert out == ""
        assert "cap" in err or "50" in err

    def test_zero_vertex_cap_fits_no_radius(self, capsys):
        code, out, err = run(
            capsys, "ball", "--preset", "pentagon", "--radius", "3",
            "--max-vertices", "0",
        )
        assert (code, out) == (3, "")
        assert "no radius fits" in err
        assert "last complete radius" not in err

    def test_cap_that_fits_only_the_identity_names_radius_zero(self, capsys):
        # Radius 0 fits a cap of 3, unlike a cap of 0, which fits none.
        code, out, err = run(
            capsys, "ball", "--preset", "pentagon", "--radius", "3",
            "--max-vertices", "3",
        )
        assert (code, out) == (3, "")
        assert err == "rcoxeter: vertex cap 3 exceeded; last complete radius was 0\n"


class TestBallsBuilt:
    @pytest.mark.parametrize(
        "command, built",
        [
            ("ball", 0), ("fixed", 0), ("profile", 0), ("certify", 0),
            ("cubes", 1), ("export", 1),
        ],
    )
    def test_only_cubes_and_export_build_a_ball(self, capsys, monkeypatch, command, built):
        import rcoxeter.davis as davis_module

        balls = []
        real_init = davis_module.Ball.__init__

        def counted_init(self, *args, **kwargs):
            balls.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(davis_module.Ball, "__init__", counted_init)
        words = ["e"] if command == "cubes" else []
        code, out, _ = run(capsys, command, "--preset", "pentagon", "--radius", "5", *words)
        assert code == 0 and out
        assert len(balls) == built

    def test_cubes_builds_only_the_ball_its_answer_lies_in(self, capsys, monkeypatch):
        # A cube through v0 ends within |v0| + k = 3 of the identity.
        import rcoxeter.davis as davis_module

        radii = []
        real_build = davis_module.build_ball

        def recorded_build(graph, radius, *args, **kwargs):
            radii.append(radius)
            return real_build(graph, radius, *args, **kwargs)

        monkeypatch.setattr(davis_module, "build_ball", recorded_build)
        code, out, _ = run(capsys, "cubes", "--preset", "pentagon", "--radius", "10", "v0")
        assert code == 0 and json.loads(out)["vertex"] == "v0"
        assert radii == [3]

    def test_cubes_match_the_full_ball_at_every_vertex(self, capsys, tmp_path):
        rng = random.Random(33)
        graphs = [*PRESETS.values(), *(random_graph(rng, 4) for _ in range(40))]
        for i, graph in enumerate(graphs):
            path = tmp_path / f"g{i}.json"
            path.write_text(json.dumps({
                "vertices": list(graph.labels),
                "edges": [[graph.labels[a], graph.labels[b]] for a, b in graph.edges],
            }))
            radius = rng.randint(0, 5)
            ball = build_ball(graph, radius)
            for v in ball.vertices:
                text = word_to_text(v, graph)
                code, out, _ = run(
                    capsys, "cubes", "--graph", str(path), "--radius", str(radius),
                    text or "e",
                )
                assert code == 0
                assert json.loads(out) == {
                    "vertex": text,
                    "by_dimension": [
                        {
                            "dimension": d,
                            "cubes": [
                                {
                                    "base": word_to_text(c.base, graph),
                                    "axis": [graph.labels[g] for g in c.axis],
                                }
                                for c in cubes
                            ],
                        }
                        for d, cubes in cubes_at_vertex(ball, v).items()
                    ],
                }

    def test_huge_radius_on_a_line_exits_three_at_once(self, capsys):
        code, out, err = run(capsys, "ball", "--preset", "dinfty", "--radius", "100000000")
        assert (code, out) == (3, "")
        assert err == (
            "rcoxeter: vertex cap 1000000 exceeded; last complete radius was 499999\n"
        )

    def test_complete_graph_on_24_generators_lists_few_cliques(self, tmp_path, capsys):
        # K24 has 2^24 cliques; radius 2 needs the 301 of at most 2 generators.
        path = complete_graph_file(tmp_path, 24)
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "ball", "--graph", path, "--radius", "2")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(out)["vertex_count"] == 1 + 24 + 276
        assert peak < 2**20

    def test_complete_graph_on_24_generators_at_radius_thirty(self, tmp_path, capsys):
        # 536,155 cliques have at most 7 generators, 1,271,626 at most 8.
        path = complete_graph_file(tmp_path, 24)
        code, out, err = run(capsys, "ball", "--graph", path, "--radius", "30")
        assert (code, out) == (3, "")
        assert err == "rcoxeter: vertex cap 1000000 exceeded; last complete radius was 7\n"

    def test_huge_radius_on_a_finite_group(self, capsys):
        code, out, _ = run(capsys, "ball", "--preset", "square", "--radius", "3000000")
        assert code == 0
        assert json.loads(out)["vertex_count"] == 4

    def test_radius_beyond_any_index_on_a_finite_group(self, capsys):
        # However large the radius, the cliques listed stop at the graph's.
        radius = str(10**30)
        code, out, _ = run(capsys, "export", "--preset", "square", "--radius", radius)
        assert code == 0
        assert json.loads(out)["vertices"] == ["", "a", "b", "a b"]
        code, out, _ = run(capsys, "certify", "--preset", "square", "--radius", radius)
        assert code == 0


class TestCertify:
    def test_pentagon_pass(self, capsys):
        code, out, _ = run(capsys, "certify", "--preset", "pentagon", "--radius", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "pass"
        assert payload["graph"]["generators"] == ["v0", "v1", "v2", "v3", "v4"]

    def test_square_finite_note(self, capsys):
        code, out, _ = run(capsys, "certify", "--preset", "square", "--radius", "2")
        assert code == 0
        assert json.loads(out)["boundary_note"] == "empty boundary (finite group)"

    def test_byte_identical_runs(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "certify", "--preset", "grid", "--radius", "4")
            assert code == 0
            outputs.append(out.encode())
        assert outputs[0] == outputs[1]

    def test_dot_is_unsupported_pairing(self, capsys):
        code, out, err = run(
            capsys, "certify", "--preset", "square", "--radius", "2",
            "--format", "dot",
        )
        assert code == 1
        assert out == ""
        assert "json" in err

    @pytest.mark.parametrize("command", JSON_ONLY_COMMANDS)
    def test_dot_is_rejected_before_the_ball_is_built(self, capsys, command):
        # Each cap is set so that a run would exit 3 or print: exit 1 with
        # no output comes from the parser.
        words = ["e"] if command == "cubes" else []
        caps = (
            ["--radius", "6", "--max-vertices", "10"] if command in RADIUS_COMMANDS
            else ["--max-vertices", "1"] if command == "cliques" else []
        )
        code, out, err = run(
            capsys, command, "--preset", "pentagon", *caps, "--format", "dot", *words,
        )
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith(f"rcoxeter {command}: error: argument --format: ")
        assert "json" in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_offers_dot_on_export_only(self, capsys, command):
        assert main([command, "--help"]) == 0
        choices = re.findall(r"--format \{([^}]*)\}", capsys.readouterr().out)
        if command == "export":
            assert set(choices) == {"json,dot"}
        elif command in JSON_ONLY_COMMANDS:
            assert set(choices) == {"json"}
        else:
            assert choices == []

    def test_radius_precondition_is_usage_error(self, capsys):
        code, _, err = run(capsys, "certify", "--preset", "pentagon", "--radius", "1")
        assert code == 1
        assert "radius" in err

    def test_failing_verdict_exits_two(self, capsys, monkeypatch):
        # The CLI imports certify from probe when the command runs.
        import rcoxeter.probe as probe_module

        real = certify(preset("grid"), 4)
        broken = real._replace(antipodal=False, verdict=False)
        monkeypatch.setattr(probe_module, "certify", lambda *a, **k: broken)
        code, out, err = run(capsys, "certify", "--preset", "grid", "--radius", "4")
        assert code == 2
        assert json.loads(out)["verdict"] == "fail"


class TestGraphSources:
    def test_graph_file_json(self, tmp_path, capsys):
        path = tmp_path / "graph.json"
        path.write_text('{"vertices":["x","y"],"edges":[["x","y"]]}')
        code, out, _ = run(capsys, "nf", "--graph", str(path), "yx")
        assert (code, out) == (0, "x y\n")

    def test_graph_file_text(self, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_text("x y z\nx y\ny z\n")
        code, out, _ = run(capsys, "maxclique", "--graph", str(path))
        assert (code, out) == (0, '["x", "y"]\n')

    def test_missing_graph_file(self, capsys):
        code, out, err = run(capsys, "nf", "--graph", "/nonexistent/g.json", "a")
        assert code == 1
        assert out == ""
        assert err

    def test_bad_graph_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices":["a","a"],"edges":[]}')
        code, _, err = run(capsys, "nf", "--graph", str(path), "a")
        assert code == 1
        assert "a" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"vertices":["a","b"],"edges":5}',
            "[1,2]",
            '{"vertices":["a","b"],"edges":[{"a":1,"b":2}]}',
            "[" * 100_000 + "]" * 100_000,
            '{"vertices":["a b","a","b"]}',
            '{"vertices":["a\\u00a0b","a","b"]}',
        ],
        ids=[
            "edges-not-a-list", "top-level-array", "edge-object", "nested-too-deep",
            "label-with-space", "label-with-nbsp",
        ],
    )
    def test_malformed_json_graph_is_one_line_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "maxclique", "--graph", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("rcoxeter: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "graph, message",
        [
            (
                {"vertices": ["a", "a"], "edges": [["a", "z"]]},
                "edge references unknown label 'z'",
            ),
            (
                {"vertices": [], "edges": [["a", "b"]]},
                "edge references unknown label 'a'",
            ),
            (
                {"vertices": ["a b"], "edges": [["a b", "a b"]]},
                "generator label 'a b' contains whitespace",
            ),
            (
                {"vertices": ["a", "b"], "edges": [["a", "a"], ["a", "z"]]},
                "edge references unknown label 'z'",
            ),
        ],
        ids=[
            "duplicate-and-unknown", "empty-and-unknown", "whitespace-and-self-loop",
            "self-loop-and-unknown",
        ],
    )
    def test_graph_breaking_two_rules_reports_the_edge_rule_first(
        self, tmp_path, capsys, graph, message
    ):
        # The edges' own rules are checked while the masks are built; the
        # label and self-loop rules, after, by the graph's constructor.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(graph))
        code, out, err = run(capsys, "cliques", "--graph", str(path))
        assert (code, out, err) == (1, "", f"rcoxeter: {message}\n")

    def test_dot_labels_are_escaped(self, tmp_path, capsys):
        path = tmp_path / "quoted.json"
        path.write_text(json.dumps({"vertices": ['a"b', "c\\d"]}))
        code, out, _ = run(
            capsys, "export", "--graph", str(path), "--radius", "2", "--format", "dot"
        )
        assert code == 0
        assert out.splitlines()[1:6] == [
            '  n0 [label="1"];',
            '  n1 [label="a\\"b"];',
            '  n2 [label="c\\\\d"];',
            '  n3 [label="a\\"b c\\\\d"];',
            '  n4 [label="c\\\\d a\\"b"];',
        ]

    def test_unknown_preset_rejected(self, capsys):
        code, out, err = run(capsys, "nf", "--preset", "heptagon", "a")
        assert code == 1
        assert out == ""
        assert "heptagon" in err or "invalid choice" in err

    def test_generator_cap(self, tmp_path, capsys):
        path = tmp_path / "wide.txt"
        path.write_text(" ".join(f"g{i}" for i in range(30)) + "\n")
        code, _, err = run(capsys, "maxclique", "--graph", str(path))
        assert code == 1
        assert "24" in err or "cap" in err

        code, out, _ = run(
            capsys, "maxclique", "--graph", str(path), "--max-generators", "30"
        )
        assert (code, out) == (0, '["g0"]\n')

        # The default cap is 24: 24 generators pass, 25 do not.
        for n, expected in ((24, 0), (25, 1)):
            path.write_text(" ".join(f"g{i}" for i in range(n)) + "\n")
            assert run(capsys, "maxclique", "--graph", str(path))[0] == expected

    def test_missing_source_is_usage_error(self, capsys):
        code, out, err = run(capsys, "nf", "ab")
        assert code == 1
        assert out == ""
        assert err


class TestOutputTarget:
    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "certify", "--preset", "square", "--radius", "2",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["verdict"] == "pass"

    def test_unwritable_out_is_one_line_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(
            capsys, "gamma", "--preset", "square", "--out", str(target)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("rcoxeter: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not target.parent.exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


# The exit code and the sha256 of json.dumps([code, stdout, stderr]) of
# ``rcoxeter ARGV`` for help texts and usage errors, at 80 columns: the top
# level, and each command with --help, with nothing, with an unknown option
# before and after its required arguments, with a radius that is no number,
# and --format dot on certify.  The parser adds only the subparser of the
# command it is given, or all of them; each text must be the same either
# way.  The digests were computed when every subparser was always built.
USAGE_DIGESTS = {
    "--help": (
        0, "1717e3a51fd1e2b26c0c60abaf20748e4e26764971705407074d0191e555872b"
    ),
    "": (
        1, "18b43dd2dc5ade0613f94436907dbecc1dbae75ec86a7a10c6e999931a8ff9b8"
    ),
    "bogus": (
        1, "3308dae0f1a13912c722c11081b5dfa07f70cef1cc3b6ee030ebbd4afc8d63b9"
    ),
    "-x": (
        1, "18b43dd2dc5ade0613f94436907dbecc1dbae75ec86a7a10c6e999931a8ff9b8"
    ),
    "nf --help": (
        0, "70c34fe9f49005d1f0f5531b53ab4244ed1333e43e300ebf963f3e3c482c69fa"
    ),
    "nf": (
        1, "383e330e3af7c3bfc36ed442daa3635279cfdf00b777afe804f720ab4a31f82f"
    ),
    "nf --bogus": (
        1, "383e330e3af7c3bfc36ed442daa3635279cfdf00b777afe804f720ab4a31f82f"
    ),
    "nf --preset square a --bogus": (
        1, "1e6d5d74c962ca1783f976a794be178482e61a21fcf498c80142ea9f584d905a"
    ),
    "mul --help": (
        0, "7b70e96a3ef3f53056ab406f93b9596dd5dc44cbf8f72a89234161b54616ec55"
    ),
    "mul": (
        1, "657467a47b0f7619262d78410d0650630fac396fb72f4900e1c6dc16c398a24f"
    ),
    "mul --bogus": (
        1, "657467a47b0f7619262d78410d0650630fac396fb72f4900e1c6dc16c398a24f"
    ),
    "mul --preset square a b --bogus": (
        1, "1e6d5d74c962ca1783f976a794be178482e61a21fcf498c80142ea9f584d905a"
    ),
    "order --help": (
        0, "d1150f6542f5eeb43b360042474306992a24204476cffc991f20cc561683c440"
    ),
    "order": (
        1, "d6a1b18b27acddbb20413f7f9aa8d186cfe6e40a6562802780553f79052649d2"
    ),
    "order --bogus": (
        1, "d6a1b18b27acddbb20413f7f9aa8d186cfe6e40a6562802780553f79052649d2"
    ),
    "order --preset square a --bogus": (
        1, "1e6d5d74c962ca1783f976a794be178482e61a21fcf498c80142ea9f584d905a"
    ),
    "cliques --help": (
        0, "7d0443bb33cb6449d032be9928f10a7974a1730d935f82c6dbbef1b8f15f5a5d"
    ),
    "cliques": (
        1, "a2d41ba143a63cead1d718cf46035ee3a982d2f821843c82e685c5159b99e9c9"
    ),
    "cliques --bogus": (
        1, "a2d41ba143a63cead1d718cf46035ee3a982d2f821843c82e685c5159b99e9c9"
    ),
    "cliques --preset square --bogus": (
        1, "1e6d5d74c962ca1783f976a794be178482e61a21fcf498c80142ea9f584d905a"
    ),
    "maxclique --help": (
        0, "b3ea574e35a1b962594041392f7d784573bcbb58a704c949538e714a33006551"
    ),
    "maxclique": (
        1, "75f35526aaae2d2d2cf5839731f3e87b43729c89c5a90158f194339174eedcf8"
    ),
    "maxclique --bogus": (
        1, "75f35526aaae2d2d2cf5839731f3e87b43729c89c5a90158f194339174eedcf8"
    ),
    "maxclique --preset square --bogus": (
        1, "1e6d5d74c962ca1783f976a794be178482e61a21fcf498c80142ea9f584d905a"
    ),
    "gamma --help": (
        0, "0082fd49cdde4bdee4dc2565c72d82030288c4b5039f0c719297d6577e0bd9ac"
    ),
    "gamma": (
        1, "d2f06075ab943685e51e96c5e829a82369396498eb00f735dfce881cdf858bb3"
    ),
    "gamma --bogus": (
        1, "d2f06075ab943685e51e96c5e829a82369396498eb00f735dfce881cdf858bb3"
    ),
    "gamma --preset square --bogus": (
        1, "1e6d5d74c962ca1783f976a794be178482e61a21fcf498c80142ea9f584d905a"
    ),
    "ball --help": (
        0, "17f6ab025d7b37380743168a01099e37b6d61b182f9df2dc758be04c79b97e33"
    ),
    "ball": (
        1, "1ad649da22914174f7e7bb872490b3418d3f4c81b209172aef5be3cbfd0662c7"
    ),
    "ball --bogus": (
        1, "1ad649da22914174f7e7bb872490b3418d3f4c81b209172aef5be3cbfd0662c7"
    ),
    "ball --preset pentagon --radius x": (
        1, "6d1b450594def578ac6f6bc72f0cf93e64483cf255af43229c30b8cbcf3e9b23"
    ),
    "ball --preset square --radius 2 --bogus": (
        1, "1e6d5d74c962ca1783f976a794be178482e61a21fcf498c80142ea9f584d905a"
    ),
    "cubes --help": (
        0, "6c7c8ac6cd9056bb25418a4c4b0241689b182bb9dc9e6ae31598d486e0802abd"
    ),
    "cubes": (
        1, "583e1beca2de1c4159a493db593bc91991a3fcecfbf1aa699b101f5f3bfd5ae3"
    ),
    "cubes --bogus": (
        1, "583e1beca2de1c4159a493db593bc91991a3fcecfbf1aa699b101f5f3bfd5ae3"
    ),
    "cubes --preset pentagon --radius x": (
        1, "3949adc9668f4fb6c02e42fcc9614a6977bd86b133839a9b4b66146ef94ba577"
    ),
    "cubes --preset square --radius 2 a --bogus": (
        1, "1e6d5d74c962ca1783f976a794be178482e61a21fcf498c80142ea9f584d905a"
    ),
    "fixed --help": (
        0, "6840363c18d7edef088ae21173f958e1820acf5a0844280518e0e5e711dfc9f7"
    ),
    "fixed": (
        1, "15560a88399784336610a079a83bb29934c628eff7de471d3add5e2104b03511"
    ),
    "fixed --bogus": (
        1, "15560a88399784336610a079a83bb29934c628eff7de471d3add5e2104b03511"
    ),
    "fixed --preset pentagon --radius x": (
        1, "647bfaa55b48cd9f351cfdf86b7d467ff41e0c542f9c33e70b6b262d172e04d5"
    ),
    "fixed --preset square --radius 2 --bogus": (
        1, "1e6d5d74c962ca1783f976a794be178482e61a21fcf498c80142ea9f584d905a"
    ),
    "profile --help": (
        0, "53e4b39f451eaecf59702d69e6af9e293a5e99bc18f66ddc71b5100c6616c7e5"
    ),
    "profile": (
        1, "39546f21dc4b8e488f13d7d19b07b6a6a7fee841cdee1ded9766a2ed8a3c6443"
    ),
    "profile --bogus": (
        1, "39546f21dc4b8e488f13d7d19b07b6a6a7fee841cdee1ded9766a2ed8a3c6443"
    ),
    "profile --preset pentagon --radius x": (
        1, "ea109ff0cdff66cc38aac63fc08782ed1cbdbc149f59da4322e5fafac49f5e99"
    ),
    "profile --preset square --radius 2 --bogus": (
        1, "1e6d5d74c962ca1783f976a794be178482e61a21fcf498c80142ea9f584d905a"
    ),
    "certify --help": (
        0, "44a6329489214b693bd8e8fd3b55f5cf81e0a991b1fc0e3fa0c542e460642617"
    ),
    "certify": (
        1, "359983cc1a078d34a8f00bf50d230aea1e67c2db1deb9cf6cb2e7a2317f078ce"
    ),
    "certify --bogus": (
        1, "359983cc1a078d34a8f00bf50d230aea1e67c2db1deb9cf6cb2e7a2317f078ce"
    ),
    "certify --preset pentagon --radius x": (
        1, "c7a81465a92efa709002f152fce4e812d55ab6fc29596ec42fbbc65524e87d52"
    ),
    "certify --preset square --radius 2 --bogus": (
        1, "1e6d5d74c962ca1783f976a794be178482e61a21fcf498c80142ea9f584d905a"
    ),
    "export --help": (
        0, "f3e12c3d9727d443926d50611bec75d05de78219361b7d4f28fce7cbce7777b9"
    ),
    "export": (
        1, "97cbaef20207564d65b5e755b9b97a840fcb09276795943dc05591211f6e6f25"
    ),
    "export --bogus": (
        1, "97cbaef20207564d65b5e755b9b97a840fcb09276795943dc05591211f6e6f25"
    ),
    "export --preset pentagon --radius x": (
        1, "6fed4419719eca4efed04c8631411c837419b12bb60bbf054cedb0bdb0046638"
    ),
    "export --preset square --radius 2 --bogus": (
        1, "1e6d5d74c962ca1783f976a794be178482e61a21fcf498c80142ea9f584d905a"
    ),
    "certify --preset square --radius 2 --format dot": (
        1, "16fe09fc87a4664081a09c59ea571e6451e12c38703f7a00727e04823a3963a4"
    ),
}


@pytest.mark.parametrize("argv", list(USAGE_DIGESTS))
def test_help_and_usage_errors_are_pinned(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *argv.split())
    digest = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()
    assert (code, digest) == USAGE_DIGESTS[argv]


JUNK = (
    "", "zz", "a b", "v9", "-1", "x", "--radius", "--preset", "--help",
    "--max-vertices", "{", "ab" * 7, "nope",
)


@st.composite
def argvs(draw):
    """A well-formed command line over the presets, at radii of at most 6,
    with optional caps, format and words, then possibly broken by dropping,
    inserting or replacing one token."""
    command = draw(st.sampled_from(COMMANDS))
    name = draw(st.sampled_from(("square", "dinfty", "pentagon", "grid")))
    argv = [command, "--preset", name]
    if command in RADIUS_COMMANDS:
        argv += ["--radius", str(draw(st.integers(-1, 6)))]
        if draw(st.booleans()):
            argv += ["--max-vertices", str(draw(st.sampled_from((-1, 0, 1, 5, 50, 1000))))]
    if draw(st.booleans()):
        argv += ["--max-generators", draw(st.sampled_from(("1", "4", "24")))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(("json", "json", "dot", "xml")))]
    if draw(st.booleans()):
        argv += ["--out", "UNWRITABLE"]
    letters = st.lists(st.sampled_from(preset(name).labels + ("e",)), max_size=6)
    if command == "mul":
        argv += [" ".join(draw(letters)) or "e", " ".join(draw(letters)) or "e"]
    elif command in ("nf", "order", "cubes"):
        argv += draw(letters) or ["e"]
    damage = draw(st.sampled_from(("none", "none", "drop", "insert", "replace")))
    if damage != "none":
        at = draw(st.integers(0, len(argv) - 1))
        junk = draw(st.sampled_from(JUNK))
        if damage == "drop":
            del argv[at]
        elif damage == "insert":
            argv.insert(at, junk)
        else:
            argv[at] = junk
    return argv


class TestFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(argvs())
    def test_exit_codes_and_no_traceback(self, argv):
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            # A path under a directory that does not exist: never written.
            unwritable = os.path.join(tmp, "missing", "out.json")
            argv = [unwritable if a == "UNWRITABLE" else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            # A damaged argv can name any token as --out: keep it in tmp.
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            finally:
                os.chdir(cwd)
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err.getvalue()
            # Errors and caps print one line; success and verdicts none.
            assert err.getvalue().count("\n") == (code in (1, 3))
            assert not os.path.exists(os.path.dirname(unwritable))
