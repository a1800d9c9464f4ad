"""The package surface: what ``import rcoxeter`` loads, the lazy public
names, and the immutability of every record type."""

import ast
import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import rcoxeter
from rcoxeter import (
    DefiningGraph,
    DuplicateLabelError,
    EmptyVertexListError,
    FlagViolation,
    GraphParseError,
    SelfLoopError,
    ball_census,
    build_ball,
    build_involution,
    certify,
    chamber_complex,
    displacement_profile,
    fixed_loci,
    links_flag_check,
    parse_graph,
    preset,
    spherical_poset,
)

SRC = Path(__file__).resolve().parent.parent / "src"

#: Prints, after each step, the modules that step loaded.
STARTUP_SCRIPT = """
import sys
before = set(sys.modules)
import rcoxeter
steps = [sorted(set(sys.modules) - before)]
rcoxeter.parse_graph("a b c\\na b")
steps.append(sorted(set(sys.modules) - before))
import rcoxeter.cli
steps.append(sorted(set(sys.modules) - before))
print(repr(steps))
"""


class TestStartup:
    @pytest.fixture(scope="class")
    def steps(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP_SCRIPT],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return ast.literal_eval(proc.stdout)

    @staticmethod
    def submodules(loaded):
        return [name for name in loaded if name.startswith("rcoxeter.")]

    def test_import_loads_no_submodule_and_no_dataclasses(self, steps):
        assert "rcoxeter" in steps[0]
        assert self.submodules(steps[0]) == []
        assert "dataclasses" not in steps[0]

    def test_parse_graph_loads_only_graphs(self, steps):
        assert self.submodules(steps[1]) == ["rcoxeter.graphs"]

    def test_cli_does_not_load_dataclasses(self, steps):
        assert "rcoxeter.cli" in steps[2]
        assert "dataclasses" not in steps[2]


#: Runs one CLI command in process and prints the submodules it loaded.
COMMAND_SCRIPT = """
import contextlib, io, sys
from rcoxeter.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(repr((code, sorted(m for m in sys.modules if m.startswith("rcoxeter.")))))
"""

WORD_MODULES = ["rcoxeter.cli", "rcoxeter.graphs", "rcoxeter.words"]


class TestCommandImports:
    """Each command loads the submodules it uses, and no others."""

    @staticmethod
    def loaded(*argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        proc = subprocess.run(
            [sys.executable, "-c", COMMAND_SCRIPT, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return ast.literal_eval(proc.stdout)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["nf", "--preset", "pentagon", "v1 v0"],
            ["mul", "--preset", "pentagon", "v1", "v0"],
            ["order", "--preset", "dinfty", "a b"],
        ],
        ids=["help", "nf", "mul", "order"],
    )
    def test_help_and_word_commands_load_only_graphs_and_words(self, argv):
        assert self.loaded(*argv) == (0, WORD_MODULES)

    def test_bad_word_loads_only_graphs_and_words(self):
        assert self.loaded("nf", "--preset", "square", "xyz") == (1, WORD_MODULES)

    def test_dot_on_a_json_command_loads_only_graphs_and_words(self):
        argv = ("certify", "--preset", "square", "--radius", "2", "--format", "dot")
        assert self.loaded(*argv) == (1, WORD_MODULES)

    def test_clique_commands_add_spherical(self):
        expected = sorted(WORD_MODULES + ["rcoxeter.spherical"])
        assert self.loaded("cliques", "--preset", "grid") == (0, expected)
        assert self.loaded("maxclique", "--preset", "grid") == (0, expected)

    def test_certify_loads_every_module_it_runs(self):
        code, loaded = self.loaded("certify", "--preset", "pentagon", "--radius", "4")
        assert code == 0
        assert set(loaded) >= {
            "rcoxeter.growth", "rcoxeter.involution", "rcoxeter.probe", "rcoxeter.spherical"
        }

    def test_certify_loads_exactly_the_census_path(self):
        code, loaded = self.loaded("certify", "--preset", "pentagon", "--radius", "4")
        assert code == 0
        assert loaded == sorted(WORD_MODULES + [
            "rcoxeter.growth", "rcoxeter.involution", "rcoxeter.probe", "rcoxeter.spherical"
        ])

    @pytest.mark.parametrize(
        "argv, extra",
        [
            (["ball", "--radius", "4"], []),
            (["gamma"], ["rcoxeter.involution"]),
            (["fixed", "--radius", "4"], ["rcoxeter.involution"]),
            (["profile", "--radius", "4"], ["rcoxeter.involution", "rcoxeter.probe"]),
            (["cubes", "--radius", "4", "v0"], ["rcoxeter.davis"]),
            (["export", "--radius", "4"], ["rcoxeter.davis"]),
        ],
        ids=["ball", "gamma", "fixed", "profile", "cubes", "export"],
    )
    def test_command_loads_exactly_the_modules_it_calls(self, argv, extra):
        # Each command imports in its own branch: the census path is growth
        # and spherical, and only a command that calls the involution, the
        # profile or the enumerated ball loads that module too.
        code, loaded = self.loaded(*argv, "--preset", "pentagon")
        assert code == 0
        assert loaded == sorted(
            WORD_MODULES + ["rcoxeter.growth", "rcoxeter.spherical"] + extra
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--radius", "4"],
            ["ball", "--radius", "4"],
            ["fixed", "--radius", "4"],
            ["profile", "--radius", "4"],
            ["gamma"],
        ],
        ids=["certify", "ball", "fixed", "profile", "gamma"],
    )
    def test_census_commands_load_no_enumerated_ball(self, argv):
        # davis is the module that defines Ball; these commands read only
        # the census, the involution and the profile.
        code, loaded = self.loaded(*argv, "--preset", "pentagon")
        assert code == 0
        assert "rcoxeter.davis" not in loaded

    @pytest.mark.parametrize(
        "argv",
        [["cubes", "--radius", "4", "v0"], ["export", "--radius", "4"]],
        ids=["cubes", "export"],
    )
    def test_ball_commands_load_davis(self, argv):
        code, loaded = self.loaded(*argv, "--preset", "pentagon")
        assert code == 0
        assert "rcoxeter.davis" in loaded

    def test_cap_error_still_exits_three(self):
        code, loaded = self.loaded("ball", "--preset", "pentagon", "--radius", "9",
                                   "--max-vertices", "5")
        assert code == 3
        assert "rcoxeter.growth" in loaded
        assert "rcoxeter.davis" not in loaded


class TestPublicNames:
    def test_every_name_is_the_submodule_object(self):
        for name in rcoxeter.__all__:
            module = importlib.import_module(f"rcoxeter.{rcoxeter._SUBMODULE_OF[name]}")
            assert name in vars(module), name
            assert getattr(rcoxeter, name) is vars(module)[name], name

    def test_dir_covers_all(self):
        # The public names, bound yet or not, and the module's own globals.
        assert set(rcoxeter.__all__) | set(vars(rcoxeter)) <= set(dir(rcoxeter))

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from rcoxeter import *", namespace)
        for name in rcoxeter.__all__:
            assert namespace[name] is getattr(rcoxeter, name), name

    def test_submodules_resolve(self):
        for name in ("graphs", "davis", "probe", "cli"):
            module = importlib.import_module(f"rcoxeter.{name}")
            assert rcoxeter.__getattr__(name) is module
            assert getattr(rcoxeter, name) is module

    def test_unknown_name_is_named(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            rcoxeter.no_such_name  # noqa: B018

    def test_census_names_are_one_object_in_growth_davis_and_the_package(self):
        from rcoxeter import davis, growth

        for name in ("ResourceCapError", "Cube", "BallCensus", "_growth_columns",
                     "ball_census", "_census"):
            assert getattr(davis, name) is vars(growth)[name], name
            if not name.startswith("_"):
                assert rcoxeter._SUBMODULE_OF[name] == "growth", name
                assert getattr(rcoxeter, name) is vars(growth)[name], name

    def test_probe_reads_build_ball_from_davis_on_first_access(self):
        from rcoxeter import davis, probe

        assert probe.build_ball is davis.build_ball
        message = "module 'rcoxeter.probe' has no attribute 'no_such_name'"
        with pytest.raises(AttributeError, match=message):
            probe.no_such_name  # noqa: B018


def _records():
    graph = preset("pentagon")
    inv = build_involution(graph)
    census = ball_census(graph, 4)
    report = fixed_loci(inv, census)
    ball = build_ball(graph, 4)
    return [
        census,
        FlagViolation((0,), (0, 1)),
        links_flag_check(ball),
        inv,
        report.loci[0],
        report,
        displacement_profile(inv, census),
        certify(graph, 4),
        chamber_complex(spherical_poset(preset("square"))),
        ball.cubes[0],
    ]


class TestImmutability:
    def test_records_reject_assignment(self):
        for record in _records():
            for name in record._fields + ("extra",):
                with pytest.raises(AttributeError):
                    setattr(record, name, None)

    def test_slots_classes_reject_assignment(self):
        graph = preset("pentagon")
        for value in (graph, spherical_poset(graph)):
            for name in value.__slots__ + ("extra",):
                with pytest.raises(AttributeError):
                    setattr(value, name, None)
                with pytest.raises(AttributeError):
                    delattr(value, name)

    def test_records_are_named_tuples(self):
        certificate = certify(preset("grid"), 4)
        broken = certificate._replace(antipodal=False)
        assert broken.antipodal is False and certificate.antipodal is True
        census = ball_census(preset("square"), 2)
        assert census == tuple(census)

    def test_equal_graphs_hash_alike(self):
        parsed = parse_graph("v0 v1 v2 v3 v4\nv0 v1\nv1 v2\nv2 v3\nv3 v4\nv4 v0")
        pentagon = preset("pentagon")
        assert parsed is not pentagon
        assert parsed == pentagon and hash(parsed) == hash(pentagon)
        assert {pentagon: "p"}[parsed] == "p"
        assert parsed != preset("square")
        assert pentagon != (pentagon.labels, pentagon.neighbor_masks)
        assert spherical_poset(parsed) == spherical_poset(pentagon)
        assert hash(spherical_poset(parsed)) == hash(spherical_poset(pentagon))

    def test_graph_copies_and_pickles(self):
        graph = preset("grid")
        assert copy.deepcopy(graph) == graph
        assert pickle.loads(pickle.dumps(graph)) == graph

    def test_reprs(self):
        assert repr(preset("pentagon")) == (
            "DefiningGraph(v0 v1 v2 v3 v4; v0-v1, v0-v4, v1-v2, v2-v3, v3-v4)"
        )
        assert repr(spherical_poset(preset("square"))) == (
            "SphericalPoset(graph=DefiningGraph(a b; a-b), "
            "elements=((), (0,), (1,), (0, 1)))"
        )

    @pytest.mark.parametrize(
        "labels, masks, error",
        [
            ((), (), EmptyVertexListError),
            (("a", "a"), (0, 0), DuplicateLabelError),
            (("a", "b"), (1, 0), SelfLoopError),
            (("a", "b"), (2, 0), GraphParseError),
            (("a", "b"), (4, 0), GraphParseError),
            (("a", "b"), (0,), GraphParseError),
            (("a b",), (0,), GraphParseError),
            (("",), (0,), GraphParseError),
        ],
    )
    def test_malformed_graphs_are_rejected(self, labels, masks, error):
        with pytest.raises(error):
            DefiningGraph(labels, masks)
