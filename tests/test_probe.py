import pytest

from rcoxeter import (
    IDENTITY,
    build_ball,
    build_involution,
    certify,
    displacement,
    displacement_profile,
    preset,
    sphere,
)
from rcoxeter.cli import format_report

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
