import hashlib
import json
from time import perf_counter

import pytest

from rcoxeter import (
    IDENTITY,
    BallCensus,
    ball_census,
    build_ball,
    build_involution,
    certify,
    displacement_profile,
    preset,
    sphere,
)
from rcoxeter.cli import format_report, main
from oracles import closed_form_spheres, complete_graph, displacement, profile_of

SQUARE = preset("square")
DINFTY = preset("dinfty")
PENTAGON = preset("pentagon")
GRID = preset("grid")
ALL_PRESETS = (SQUARE, DINFTY, PENTAGON, GRID)


class TestDisplacement:
    def test_dinfty_hand_values(self):
        # on the line, gamma = a reflects around the first edge midpoint
        inv = build_involution(DINFTY)
        for vertex, expected in (
            (IDENTITY, 1),
            ((0,), 1),
            ((1,), 3),
            ((0, 1), 3),
            ((1, 0), 5),
            ((0, 1, 0), 5),
            ((1, 0, 1), 7),
        ):
            assert displacement(inv, vertex, DINFTY) == expected

    def test_abelian_displacement_is_constant(self):
        inv = build_involution(SQUARE)
        for vertex in build_ball(SQUARE, 2).vertices:
            assert displacement(inv, vertex, SQUARE) == 2


class TestProfile:
    def test_dinfty_profile(self):
        profile = displacement_profile(build_involution(DINFTY), build_ball(DINFTY, 4))
        assert profile.radii == (0, 1, 2, 3)
        assert profile.mins == (1, 1, 3, 5)
        assert profile.maxs == (1, 3, 5, 7)
        assert profile.means == (1.0, 2.0, 4.0, 6.0)
        assert profile.monotone

    def test_square_profile_constant(self):
        profile = displacement_profile(build_involution(SQUARE), build_ball(SQUARE, 4))
        # the group is exhausted at radius 2; later spheres are empty
        assert profile.radii == (0, 1, 2)
        assert profile.mins == (2, 2, 2)
        assert profile.maxs == (2, 2, 2)

    def test_grid_displacements_positive_and_monotone(self):
        profile = displacement_profile(build_involution(GRID), build_ball(GRID, 4))
        assert all(v > 0 for v in profile.mins)
        assert profile.monotone

    def test_hand_built_census_at_radius_40(self):
        # The vertex cap would stop a census of this ball, about 2 * 10^17
        # vertices; the profile reads the growth series out to radius 38
        # and enumerates none of them.
        census = BallCensus(PENTAGON, 40, 38, 0, ())
        start = perf_counter()
        profile = displacement_profile(build_involution(PENTAGON), census)
        elapsed = perf_counter() - start
        assert profile == profile_of(closed_form_spheres(PENTAGON, 40))
        assert profile.radii == tuple(range(39))
        assert elapsed < 0.05

    def test_finite_group_at_a_radius_beyond_any_index(self):
        # K4 presents (Z/2)^4: sphere r has C(4, r) vertices, each with r
        # left descents in the clique, so each moves by 4; the profile
        # stops at the first empty sphere.
        graph = complete_graph(4)
        profile = displacement_profile(
            build_involution(graph), ball_census(graph, 10**30)
        )
        assert profile.radii == (0, 1, 2, 3, 4)
        assert profile.mins == profile.maxs == (4,) * 5
        assert profile.means == (4.0,) * 5

    def test_parity_matches_involution_length(self):
        for graph, radius in ((DINFTY, 5), (PENTAGON, 5), (GRID, 5)):
            inv = build_involution(graph)
            ball = build_ball(graph, radius)
            parity = inv.n % 2
            for r in range(ball.reliable_radius + 1):
                for vertex in sphere(ball, r):
                    value = displacement(inv, vertex, graph)
                    assert value > 0
                    assert value % 2 == parity


class TestCertify:
    def test_dinfty_passes(self):
        certificate = certify(DINFTY, 5)
        assert certificate.verdict
        assert certificate.order_two
        assert certificate.unique_fixed_point
        assert certificate.antipodal
        assert certificate.displacement_monotone
        assert certificate.boundary_note is None
        assert certificate.gamma == "a"

    def test_square_finite_group_note(self):
        certificate = certify(SQUARE, 2)
        assert certificate.verdict
        assert certificate.complete
        assert certificate.boundary_note == "empty boundary (finite group)"

    def test_pentagon_passes(self):
        certificate = certify(PENTAGON, 5)
        assert certificate.verdict
        assert certificate.gamma == "v0 v1"
        assert certificate.clique == ("v0", "v1")

    def test_radius_precondition(self):
        with pytest.raises(ValueError, match="too small"):
            certify(PENTAGON, 2)
        with pytest.raises(ValueError, match="finite group"):
            certify(SQUARE, 1)

    def test_complete_graph_above_diameter(self):
        certificate = certify(SQUARE, 4)
        assert certificate.verdict

    def test_deterministic(self):
        for graph, radius in ((SQUARE, 2), (DINFTY, 4), (PENTAGON, 4), (GRID, 4)):
            first = certify(graph, radius)
            second = certify(graph, radius)
            assert first == second
            assert format_report(first) == format_report(second)

    def test_as_dict_field_order(self):
        payload = certify(SQUARE, 2).as_dict()
        assert list(payload) == [
            "graph",
            "radius",
            "reliable_radius",
            "gamma",
            "clique",
            "order_two",
            "unique_fixed_point",
            "antipodal",
            "displacement_monotone",
            "boundary_note",
            "verdict",
        ]
        assert payload["verdict"] == "pass"
        assert payload["graph"] == {
            "generators": ["a", "b"],
            "edges": [["a", "b"]],
            "complete": True,
        }

    def test_single_generator_group(self):
        from rcoxeter import DefiningGraph

        z2 = DefiningGraph.from_edges(("a",), ())
        certificate = certify(z2, 1)
        assert certificate.verdict
        assert certificate.gamma == "a"
        assert certificate.boundary_note == "empty boundary (finite group)"

    def test_verdict_is_conjunction(self):
        certificate = certify(GRID, 4)
        assert certificate.verdict == (
            certificate.order_two
            and certificate.unique_fixed_point
            and certificate.antipodal
            and certificate.displacement_monotone
        )
        broken = certificate._replace(antipodal=False)
        assert broken.as_dict()["antipodal"] is False


# Exit code and sha256 of the stdout of ``rcoxeter COMMAND --radius R`` on a
# preset or on K6 (generators x0..x5), computed before the fixed loci and
# the profile stopped sharing one walk of the spheres.
CLI_DIGESTS = {
    ("certify", "pentagon", 6): (
        0, "f80d15cca87d7d971bd5ddefbbb9dd08730506023a681344005c96beab9f3fd9"
    ),
    ("certify", "pentagon", 8): (
        0, "f15cf2f313cd9cb78494457247c15d4211b428f23c5196aca8d266e34231cda3"
    ),
    ("certify", "pentagon", 9): (
        0, "172b2d58cbd7ce17f3f29aec1fe02ceb7808ccfb0c1a1954c7bbc14219206b1e"
    ),
    ("certify", "pentagon", 11): (
        0, "166581a9ae622cd23482c2c481c48e7d65327e3f297fa0dd51e402514e78a73f"
    ),
    ("certify", "grid", 12): (
        0, "62a4eb0387909024da5ce386f5abaa088218fd067195b7d13f054da42530e9a3"
    ),
    ("certify", "dinfty", 200): (
        0, "10c8212a96d915fb62e7911217d7a92ea8881256f0f24986aef76c05b459b0f7"
    ),
    ("certify", "dinfty", 2000): (
        0, "75ea988ee2ed8b027abf46c6bbb2f91e911ef0bc40101fbf92fe391b11c061eb"
    ),
    ("certify", "square", 4): (
        0, "871d10e053cfccc3882bc44f6b2254f4c530bff2852e880a5888c22ac4126f2d"
    ),
    ("certify", "K6", 6): (
        0, "989bba8728add9f58407b527a8506f782b8aba31e769f53ef857e41ec798ec86"
    ),
    ("fixed", "pentagon", 6): (
        0, "77b65404107379ccd29ad67a88ab4379d0a85ecf468483b0048a21cf409ad23e"
    ),
    ("fixed", "pentagon", 8): (
        0, "0840e2e1955ec5bb382713aa5817590bb04709d9e7c352f5fa643a728072399b"
    ),
    ("fixed", "pentagon", 9): (
        0, "94e829d4a7d4060f6594cb16986e8c073f5dd14531e2cb71212e9aa678caa1ab"
    ),
    ("fixed", "pentagon", 11): (
        0, "45e55a736a81a25ac2d4bd5124bcb06070994022b879393045c561aca300d025"
    ),
    ("fixed", "grid", 12): (
        0, "eb7f09c9f32ddab5fedd74eb15ab2b31c0eb2419bf4dec041b372ca8781df357"
    ),
    ("fixed", "dinfty", 200): (
        0, "4601ed5a884a09aba601fa52f303c788cf0942f85934b79f47ca05bf2eafbfe6"
    ),
    ("fixed", "dinfty", 2000): (
        0, "1e35009970164475fca41cd27aea22a2406219c812706c157d067c964602fde6"
    ),
    ("fixed", "square", 4): (
        0, "0dba152963f6dd581c23da5e469049aca155f14e90a073e920419d8f13427e48"
    ),
    ("fixed", "K6", 6): (
        0, "4a9416f273c3b2bb489016da535d74f49d65810cefe9425ba2495c8def56ab30"
    ),
    ("profile", "pentagon", 6): (
        0, "ab553576f74d3280296cf95bbab1d3cbbec199ce14e679dea6649ffb7f19e167"
    ),
    ("profile", "pentagon", 8): (
        0, "42e31bf0fa0a553f4f11aea01220a74dba13559de305a6e3a6d5f2fd338b18d4"
    ),
    ("profile", "pentagon", 9): (
        0, "9d02faf06380562e3428865c06c0fc49f23add539c510b0c7ce281fb24a2b526"
    ),
    ("profile", "pentagon", 11): (
        0, "a5ec4c0afed0c4be842be882fb7480d0ba37e5b6dc415b8431f64da993ff6167"
    ),
    ("profile", "grid", 12): (
        0, "ffe194d0f7595452bcf03ed02a11612270f4c822428e5f57c1f3643837b0d245"
    ),
    ("profile", "dinfty", 200): (
        0, "cc4689a24c09cc4b41ddb6e253bf759a5d2050b3d54529bf4702843eb3c3b027"
    ),
    ("profile", "dinfty", 2000): (
        0, "9e96980ec116743e8686ed53547e3526ce05a81bed989fe433eb52350daa7d02"
    ),
    ("profile", "square", 4): (
        0, "144f9d3756fc538c99447a37034eafb113b23d4966457f86734d4ae8bbbe7d7d"
    ),
    ("profile", "K6", 6): (
        0, "0ecc2b60c6949cfa9bcca3da1e5f12dd9b455d52f820f2661e77584a1ab2751e"
    ),
}


@pytest.mark.parametrize("command, name, radius", list(CLI_DIGESTS))
def test_cli_output_is_pinned(tmp_path, capsys, command, name, radius):
    if name == "K6":
        path = tmp_path / "k6.json"
        graph = complete_graph(6)
        path.write_text(json.dumps({
            "vertices": list(graph.labels),
            "edges": [[graph.labels[i], graph.labels[j]] for i, j in graph.edges],
        }))
        source = ["--graph", str(path)]
    else:
        source = ["--preset", name]
    code = main([command, *source, "--radius", str(radius)])
    captured = capsys.readouterr()
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert (code, digest, captured.err) == (*CLI_DIGESTS[command, name, radius], "")


def test_certify_past_the_default_cap_exits_three(capsys):
    # The cap reads the whole ball of the given radius, though certify
    # reads the profile only to the reliable radius.
    code = main(["certify", "--preset", "pentagon", "--radius", "14"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (
        "rcoxeter: vertex cap 1000000 exceeded; last complete radius was 13\n"
    )
