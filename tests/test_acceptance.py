"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
pass.  Expected values marked as derived were computed with the
matrix-oracle routines in ``oracles.py``, which never touch normal forms.
"""

import random
import time

from rcoxeter import (
    IDENTITY,
    ball_census,
    build_ball,
    build_involution,
    canonical_cube,
    certify,
    cubes_at_vertex,
    displacement_profile,
    fixed_loci,
    has_order_two,
    links_flag_check,
    normal_form,
    preset,
    sphere,
    support,
    tits_matrix,
)
from rcoxeter.cli import main
from oracles import (
    brute_force_cliques,
    displacement,
    matrix_ball_sphere_sizes,
    random_graph,
    shortlex_class_table,
)

PRESET_NAMES = ("square", "dinfty", "pentagon", "grid")
PRESETS = tuple(preset(name) for name in PRESET_NAMES)

_rng = random.Random(20260809)
RANDOM_GRAPHS = tuple(random_graph(_rng, 7) for _ in range(200))


def _verdict(number: int, name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}")
    assert ok, f"criterion {number} failed: {name}"


def test_criterion_1_involution_law():
    start = time.perf_counter()
    ok = True
    for graph in PRESETS + RANDOM_GRAPHS:
        inv = build_involution(graph)
        ok = ok and has_order_two(inv.element, graph)
        ok = ok and inv.element != IDENTITY
        ok = ok and len(inv.element) == len(inv.clique) == inv.n
        ok = ok and support(inv.element) == set(inv.clique)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _verdict(1, f"involution law on presets + 200 random graphs ({elapsed:.2f}s)", ok)


def test_criterion_2_unique_fixed_point():
    ok = True
    slowest = 0.0
    for graph in PRESETS:
        inv = build_involution(graph)
        home = canonical_cube(IDENTITY, inv.clique, graph)
        for radius in (3, 4, 5, 6):
            start = time.perf_counter()
            report = fixed_loci(inv, build_ball(graph, radius))
            elapsed = time.perf_counter() - start
            if radius == 6:
                slowest = max(slowest, elapsed)
                ok = ok and elapsed < 10.0
            ok = ok and report.unique_point
            ok = ok and len(report.loci) == 1
            ok = ok and report.loci[0].dimension == 0
            ok = ok and report.loci[0].cube == home
            ok = ok and not any(l.dimension > 0 for l in report.loci)
    _verdict(
        2, f"unique fixed point, presets, L=3..6 (slowest L=6 run {slowest:.2f}s)", ok
    )


def test_criterion_3_antipodal_action():
    from rcoxeter import antipodal_check

    ok = all(
        antipodal_check(build_involution(graph), graph)
        for graph in PRESETS + RANDOM_GRAPHS
    )
    _verdict(3, "antipodal local action on presets + 200 random graphs", ok)


def test_criterion_4_word_problem_oracle():
    start = time.perf_counter()
    ok = True
    bounds = {"square": 6, "dinfty": 6, "grid": 6, "pentagon": 5}
    for name in PRESET_NAMES:
        graph = preset(name)
        table, words = shortlex_class_table(graph, bounds[name])
        for word, matrix in words:
            got = normal_form(word, graph)
            # the table holds the shortlex-first word reaching each matrix,
            # so equality certifies oracle agreement, geodesy and minimality
            ok = ok and got == table[matrix]
            ok = ok and (len(got), got) <= (len(word), tuple(word))
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _verdict(4, f"word problem agrees with the matrix oracle ({elapsed:.2f}s)", ok)


def test_criterion_5_ball_census():
    ok = True
    for radius in range(9):
        ball = build_ball(preset("dinfty"), radius)
        ok = ok and len(ball.vertices) == 2 * radius + 1
    ok = ok and sum(matrix_ball_sphere_sizes(preset("dinfty"), 8)) == 17
    square_ball = build_ball(preset("square"), 2)
    ok = ok and sum(square_ball.cell_counts()) == 9
    pentagon_ball = build_ball(preset("pentagon"), 2)
    ok = ok and len(pentagon_ball.vertices) == 21
    ok = ok and sum(matrix_ball_sphere_sizes(preset("pentagon"), 2)) == 21
    _verdict(5, "ball censuses match the independent BFS oracle", ok)


def test_criterion_6_davis_structure():
    ok = True
    for graph in PRESETS:
        for radius in range(2, 6):
            ok = ok and links_flag_check(build_ball(graph, radius)).ok
        clique_counts: dict[int, int] = {}
        for clique in brute_force_cliques(graph):
            clique_counts[len(clique)] = clique_counts.get(len(clique), 0) + 1
        grouped = cubes_at_vertex(build_ball(graph, 5), IDENTITY)
        ok = ok and {d: len(cs) for d, cs in grouped.items()} == clique_counts
    _verdict(6, "flag links and identity cube counts match cliques", ok)


def test_criterion_7_displacement_profile():
    ok = True
    dinfty = preset("dinfty")
    profile = displacement_profile(build_involution(dinfty), build_ball(dinfty, 4))
    ok = ok and profile.mins == (1, 1, 3, 5)
    for graph in PRESETS:
        inv = build_involution(graph)
        ball = build_ball(graph, 6)
        ok = ok and displacement_profile(inv, ball).monotone
        for vertex in ball.vertices:
            ok = ok and displacement(inv, vertex, graph) > 0
    _verdict(7, "displacement: dinfty profile, monotone minima, never zero", ok)


def test_certify_is_linear_on_a_long_line():
    # The profile reads 20,000 spheres off the growth series, a few
    # integer operations each, so the infinite dihedral group is certified
    # to radius 20,000 without conjugating words of 40,000 letters.
    dinfty = preset("dinfty")
    start = time.perf_counter()
    certificate = certify(dinfty, 20000)
    elapsed = time.perf_counter() - start
    assert certificate.verdict
    profile = displacement_profile(
        build_involution(dinfty), ball_census(dinfty, 20000)
    )
    assert profile.radii == tuple(range(20000))
    assert profile.mins == tuple(max(1, 2 * r - 1) for r in profile.radii)
    assert profile.maxs == tuple(2 * r + 1 for r in profile.radii)
    assert elapsed < 2.0


def test_criterion_8_certify_determinism(capsys):
    ok = True
    radii = {"square": 2, "dinfty": 5, "pentagon": 5, "grid": 5}
    for name in PRESET_NAMES:
        outputs = []
        for _ in range(2):
            code = main(["certify", "--preset", name, "--radius", str(radii[name])])
            captured = capsys.readouterr()
            ok = ok and code == 0
            outputs.append(captured.out.encode())
        ok = ok and outputs[0] == outputs[1] and outputs[0]
    with capsys.disabled():
        print()
        _verdict(8, "certify output is byte-identical across runs", bool(ok))


def test_sphere_helper_consistency():
    # regression guard: sphere slices agree with a direct filter
    for graph in PRESETS:
        ball = build_ball(graph, 4)
        for r in range(5):
            assert sphere(ball, r) == tuple(
                w for w in ball.vertices if len(w) == r
            )


def test_oracle_sanity():
    # the oracle itself is checked against a hand computation: the square
    # group has 4 elements and the matrix for (ab)^2 is the identity
    square = preset("square")
    assert matrix_ball_sphere_sizes(square, 3) == [1, 2, 1, 0]
    assert tits_matrix((0, 1, 0, 1), square) == tits_matrix((), square)
