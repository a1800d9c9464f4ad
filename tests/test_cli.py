import contextlib
import io
import json
import os
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcoxeter import build_ball, certify, preset
from rcoxeter.cli import UnsupportedFormatError, format_report, main


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
        # cap, and no clique is listed.  Listing them takes over 100 MiB;
        # the masks of two adjacent sizes take about 9 MiB.
        path = TestBallsBuilt.complete_graph_file(tmp_path, 20)
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
        assert peak < 16 * 2**20

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

    def test_huge_radius_on_a_line_exits_three_at_once(self, capsys):
        code, out, err = run(capsys, "ball", "--preset", "dinfty", "--radius", "100000000")
        assert (code, out) == (3, "")
        assert err == (
            "rcoxeter: vertex cap 1000000 exceeded; last complete radius was 499999\n"
        )

    @staticmethod
    def complete_graph_file(tmp_path, n):
        labels = [f"x{i}" for i in range(n)]
        path = tmp_path / f"k{n}.txt"
        path.write_text(
            " ".join(labels) + "\n"
            + "".join(f"{a} {b}\n" for i, a in enumerate(labels) for b in labels[i + 1 :])
        )
        return str(path)

    def test_complete_graph_on_24_generators_lists_few_cliques(self, tmp_path, capsys):
        # K24 has 2^24 cliques; radius 2 needs the 301 of at most 2 generators.
        path = self.complete_graph_file(tmp_path, 24)
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
        path = self.complete_graph_file(tmp_path, 24)
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

    @pytest.mark.parametrize("command", ["ball", "cubes", "fixed", "profile", "certify"])
    def test_dot_is_rejected_before_the_ball_is_built(self, capsys, command):
        words = ["e"] if command == "cubes" else []
        code, out, err = run(
            capsys, command, "--preset", "pentagon", "--radius", "6",
            "--max-vertices", "10", "--format", "dot", *words,
        )
        assert (code, out) == (1, "")
        assert "json" in err

    def test_radius_precondition_is_usage_error(self, capsys):
        code, _, err = run(capsys, "certify", "--preset", "pentagon", "--radius", "1")
        assert code == 1
        assert "radius" in err

    def test_failing_verdict_exits_two(self, capsys, monkeypatch):
        import rcoxeter.cli as cli_module

        real = certify(preset("grid"), 4)
        broken = real._replace(antipodal=False, verdict=False)
        monkeypatch.setattr(cli_module, "certify", lambda *a, **k: broken)
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


class TestFormatReport:
    def test_ball_json(self):
        ball = build_ball(preset("square"), 2)
        assert json.loads(format_report(ball, "json"))["radius"] == 2

    def test_certificate_dot_unsupported(self):
        with pytest.raises(UnsupportedFormatError):
            format_report(certify(preset("square"), 2), "dot")

    def test_unknown_kind_unsupported(self):
        with pytest.raises(UnsupportedFormatError):
            format_report(object())


COMMANDS = (
    "nf", "mul", "order", "cliques", "maxclique", "gamma",
    "ball", "cubes", "fixed", "profile", "certify", "export",
)
RADIUS_COMMANDS = ("ball", "cubes", "fixed", "profile", "certify", "export")
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
