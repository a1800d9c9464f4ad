import hashlib
import tracemalloc
from time import perf_counter

import pytest

from rcoxeter import (
    IDENTITY,
    BallCensus,
    DisplacementProfile,
    ball_census,
    build_ball,
    build_involution,
    certify,
    displacement_profile,
    preset,
    sphere,
)
from rcoxeter import probe
from rcoxeter.cli import main
from rcoxeter.probe import _LeastDisplacement
from oracles import (
    closed_form_spheres,
    complete_graph,
    complete_graph_file,
    corrupted_census,
    displacement,
    profile_of,
)

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

    @staticmethod
    def monotone(mins):
        radii = tuple(range(len(mins)))
        return DisplacementProfile(radii, mins, mins, mins).monotone

    def test_monotone_compares_each_sphere_with_the_next(self):
        # No series drops its minimum, so build the profiles by hand; a
        # drop leaves the bound max(k, 2r - k), k the minimum of sphere 0.
        monotone = self.monotone
        assert monotone(()) and monotone((4,)) and monotone((1, 1, 3))
        assert not monotone((3, 1, 5))
        assert not monotone((1, 3, 3, 2))

    def test_monotone_is_the_bound_not_a_rise(self, monkeypatch):
        # Minima that never drop but leave max(k, 2r - k) fail: by hand,
        # and on pentagon, where q_3 := 0 makes sphere 5 move by 10, not 8.
        assert self.monotone((2, 2, 2, 4)) and not self.monotone((2, 3))
        inv, census = build_involution(PENTAGON), ball_census(PENTAGON, 12)
        assert displacement_profile(inv, census).monotone
        monkeypatch.setattr(probe, "_census", corrupted_census(3, 0))
        profile = displacement_profile(inv, census)
        assert profile.mins == (2, 2, 2, 4, 6, 10, 10, 12, 14, 16, 18)
        assert not profile.monotone

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
        with pytest.raises(ValueError) as error:
            certify(PENTAGON, 2)
        assert str(error.value) == (
            "radius 2 too small; need >= 3 for a maximum clique of size 2"
        )
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
            assert first.as_dict() == second.as_dict()

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

    @pytest.mark.parametrize("check", ["order_two", "fixed", "antipodal", "monotone"])
    def test_one_failed_check_fails_the_verdict(self, monkeypatch, check):
        # Every check passes on a real graph, so fail one by hand.
        if check == "order_two":
            monkeypatch.setattr(probe, "has_order_two", lambda element, graph: False)
        elif check == "fixed":
            real = probe.fixed_loci
            monkeypatch.setattr(
                probe,
                "fixed_loci",
                lambda inv, census: real(inv, census)._replace(unique_point=False),
            )
        elif check == "antipodal":
            monkeypatch.setattr(probe, "antipodal_check", lambda inv, graph: False)
        else:
            monkeypatch.setattr(probe, "_census", corrupted_census(1, 0))
        certificate = certify(PENTAGON, 6)
        fields = (
            certificate.order_two,
            certificate.unique_fixed_point,
            certificate.antipodal,
            certificate.displacement_monotone,
        )
        failed = ["order_two", "fixed", "antipodal", "monotone"].index(check)
        assert fields == tuple(i != failed for i in range(4))
        assert not certificate.verdict

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

    @staticmethod
    def _peak(graph, radius, max_vertices):
        """The ``tracemalloc`` peak of one ``certify`` call, after a first
        call has paid for anything made once."""
        certify(graph, radius, max_vertices=max_vertices)
        tracemalloc.start()
        try:
            certify(graph, radius, max_vertices=max_vertices)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_is_flat_in_the_radius(self):
        # The bound is checked in the walk, which holds two numbers and
        # the last k + 1 columns.  Python 3.11: dinfty peaks at 4,424 bytes
        # at both radii and grid at 4,840 bytes at r2,000.  The bounds were
        # set when a receiver holding the last k + 1 q's peaked at 5,760
        # and 6,272 bytes; with the whole profile built the peaks were
        # 352 KB, 3.7 MB and 408 KB.
        near = self._peak(DINFTY, 2_000, 10**9)
        far = self._peak(DINFTY, 20_000, 10**9)
        assert abs(far - near) < 2**10
        assert max(near, far) < 4 * 5_760
        assert self._peak(GRID, 2_000, 10**12) < 4 * 6_272

    @staticmethod
    def _holds(qs, k):
        least = _LeastDisplacement()
        for q in qs:
            least.receive(q)
        return least.holds(k)

    def test_least_displacement_reads_q_up_to_the_last_sphere_less_k(self):
        # Sphere r reads q_(r - min(r, k)): the spheres 0..9 with k = 2
        # read q_0..q_7, so a zero or negative q fails there and passes in
        # the last k spheres.
        for l in range(10):
            for bad in (0, -1):
                qs = [1] * 10
                qs[l] = bad
                assert self._holds(qs, 2) == (l > 7)
        assert self._holds([1] * 10, 2)

    def test_least_displacement_reads_q0_on_every_sphere_up_to_k(self):
        # K_3 hands over q = 1, 0, 0, 0 at radius 6: spheres 0..3 read only
        # q_0.  A sphere 4 would read q_1.
        assert self._holds([1, 0, 0, 0], 3)
        assert not self._holds([1, 0, 0, 0, 0], 3)
        assert not self._holds([0, 1, 1, 1], 3)
        assert not self._holds([-1], 3)

    @pytest.mark.parametrize(
        "graph", (DINFTY, PENTAGON, GRID), ids=("dinfty", "pentagon", "grid")
    )
    def test_a_bad_q_fails_certify_up_to_radius_less_2k(self, monkeypatch, graph):
        # At radius R the census hands over q_0..q_(R-k), and the bound
        # reads q_0..q_(R-2k); the real q's there are all positive.
        k = build_involution(graph).n
        radius = 3 * k + 2
        assert certify(graph, radius).displacement_monotone
        for l in range(radius - k + 1):
            for bad in (0, -1):
                monkeypatch.setattr(probe, "_census", corrupted_census(l, bad))
                certificate = certify(graph, radius)
                assert certificate.displacement_monotone == (l > radius - 2 * k)
                assert certificate.verdict == certificate.displacement_monotone


# Every pinned CLI output: the exit code and the sha256 of the stdout of
# ``rcoxeter COMMAND --radius R`` (no ``--radius`` when R is None) on a
# preset or on K_n (generators x0..x{n-1}), where COMMAND carries any
# format or vertex; stderr must be empty.  Each digest was computed before
# the change that added its row, and none has been regenerated since.
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
    ("ball", "pentagon", 6): (
        0, "35bb4d4f91dcb3acd0d96bf1930008acd7e9f9a57a9395a6e65f2abb74008342"
    ),
    ("ball", "pentagon", 8): (
        0, "d8f2c9e53b4bf6f4ed9a72b4b3bac21947af790c8d9e1430c33c3b17f9f11bbe"
    ),
    ("ball", "pentagon", 9): (
        0, "080203c4ff8342bda88c0b7ccd6f0642ca008641f6c522b49fb82b92351450ce"
    ),
    ("ball", "pentagon", 11): (
        0, "d9625689d92176c27d996717adc2f0b7ef736aa81e6aa61b7e75793ffc2274f6"
    ),
    ("ball", "grid", 12): (
        0, "8214f77de299297710f62361ee4923bb3d5e043f67efffebfe8bafa3267025f5"
    ),
    ("ball", "dinfty", 200): (
        0, "7faae4954ed42bf02a11c285b484501b36d49789eb7edfd3e9ab04157663d3a3"
    ),
    ("ball", "dinfty", 2000): (
        0, "22166fb10d476b4f7225b0413dd2a8291507e0628aa707c0732d6fd1ea438101"
    ),
    ("ball", "square", 4): (
        0, "5f66d4f47424d3176a33c78146fdac54bf5b1b636aa767b83c3ffdba45a8caf2"
    ),
    ("ball", "K6", 6): (
        0, "bb0ca86a3d0cad284df195342b5d319137fea17bafb61f2ac6cbcdaad3f10b79"
    ),
    ("ball", "K6", 10**6): (
        0, "51b75abf19e8f21959a27f7e3d7e32af14faab515a5872a4362dc82ee23d694f"
    ),
    ("export", "pentagon", 6): (
        0, "dcf8fd1e45a38465f50af3196350b4fca6662c8a02f70f8f7c41d111e18ab42c"
    ),
    ("export --format dot", "pentagon", 6): (
        0, "1bd9654063596235f209770f57a6c3253315a5c155998760111fd94261f41370"
    ),
    ("export", "grid", 5): (
        0, "181e0bad82fc4aa85700ed1db1a8c9568ed10df08a63b390d5234224604127de"
    ),
    ("export --format dot", "grid", 5): (
        0, "504b22d58a137879958057e43a1e8e1779e09a2101ee1873307b3012c0b8e362"
    ),
    ("export", "dinfty", 50): (
        0, "571b61a06f78a9e19cbaa0678f8249c99496644b6350c775169f8b3c6f71c5ff"
    ),
    ("export --format dot", "dinfty", 50): (
        0, "776e234592c938777d4b690581b28e420b7e004ed6c1dbdd85c97ba6d374a28a"
    ),
    ("export", "K6", 6): (
        0, "249308408c1690b5eb814e27fb9a3bd6a2a31b9a03f47bf1909455041455b456"
    ),
    ("export --format dot", "K6", 6): (
        0, "bee61308b480b2698128b29962030c266f7b2c4a29f0b98dbc0bb0ea453db8a7"
    ),
    ("cubes v0 v2 v4", "pentagon", 6): (
        0, "29d4b254837788d36255e4e70eac8a1e21b34d77fee19531097c6ddbe93b659f"
    ),
    ("cubes a c b", "grid", 5): (
        0, "5776cf2b680243c5249cd4f025b621157a4421747f8fefbe2e768df0322c1344"
    ),
    ("cubes" + " a b" * 12, "dinfty", 50): (
        0, "75c086946b890a68f5eefdec1fd7eb8fb0963a8751d46cb9be0ce2e9cc205847"
    ),
    ("cubes" + " b a" * 25, "dinfty", 50): (
        0, "7c785ed2c90ff48d49dfea15ea2dd9a8b6335ad995cbac48f1aba37e577a25a3"
    ),
    ("cubes x0 x2 x4", "K6", 6): (
        0, "5e9aade6269e630cb70027cfd3f8cf8f647b89fb1ff85a829ce00118aeea8257"
    ),
    ("cubes e", "pentagon", 6): (
        0, "7e5200329e0fe546b5d9a776c3dd414834946739bbce7353491cb85847b1000f"
    ),
    ("cubes v0", "pentagon", 6): (
        0, "3fb875b2259e56770fc454c7567a1f002b1a507bf2b5df915eced660badb94fb"
    ),
    ("cubes v2 v0 v3", "pentagon", 6): (
        0, "a33bef3c6bedc224b7390b003af5b80b20b5ed0c7e368355010304b066d16704"
    ),
    ("cubes v0 v2 v4 v1 v3", "pentagon", 6): (
        0, "e4a609c4afd4cb94a0e756d65235c6b3d7c3a49708412744a2353a4981f38345"
    ),
    ("cubes v1 v3 v0 v2 v4 v1", "pentagon", 6): (
        0, "4812ef6d9ae12494af124fcdb7166ff8238f8d68921d7e46b2f8d16bce4cf1e5"
    ),
    ("cubes e", "grid", 5): (
        0, "db019379dcea90d4727f706e075b292c128a885369b3ba5696071b0d63c21f28"
    ),
    ("cubes c a", "grid", 5): (
        0, "849693d286f852f0a7eb350e7792435ee860f4e73c28e454bc90cba036615b07"
    ),
    ("cubes a b c d", "grid", 5): (
        0, "8b80961b1c5f00fab208f66dfaf74678bd972199b770db2904522a766e651428"
    ),
    ("cubes a b a b a", "grid", 5): (
        0, "5b8c9af266d60f0f2613a8faf1fff879d16b22aaf559e53d799fe5e5648c88e4"
    ),
    ("cubes e", "dinfty", 30): (
        0, "1136f42b075085251f0c2acddf8b79257b51cb8c2ce8d6108fed03ff104cc798"
    ),
    ("cubes b a", "dinfty", 30): (
        0, "5b78ce25860f7e625179b3ccb1a57fef2f4a856dbfc9666c9c62874df2b2969a"
    ),
    ("cubes " + "ab" * 14 + "a", "dinfty", 30): (
        0, "488c3b809160480247205742326bbb0b9facaa3ba95fdbe62d9511fecf95c9fd"
    ),
    ("cubes " + "ba" * 15, "dinfty", 30): (
        0, "ce1eadbbdfc19b3885561dd931574130717779ba486e1333c578ff1ff1d274b1"
    ),
    ("export", "dinfty", 30): (
        0, "5b8d1c9b6c0293518a70a00b8ad18d3bedcf1353470969d866a952bb8433927a"
    ),
    ("export --format dot", "dinfty", 30): (
        0, "18ad49df1a095956e53c7af4adfe682db589786102aa12fc2d3b012ffde8e906"
    ),
    ("export", "K5", 5): (
        0, "65e6c76013987add08d52d9f5edd1eeeec84a527b774cc84846b52e2f1e7bc5e"
    ),
    ("export --format dot", "K5", 5): (
        0, "9d7018b1da90aa550fceff637fae101366f8df43d769ba2ea17971329e514e6d"
    ),
    ("gamma", "square", None): (
        0, "e9ab79bb1db25dcf6145efe4c0d5afa4aaf82477ac976076342c00decbd1b21c"
    ),
    ("gamma", "dinfty", None): (
        0, "76d3a47af67d6cd55feee238c892e8066f7c1a4a51ecb38655f80fe54113f770"
    ),
    ("gamma", "pentagon", None): (
        0, "37e4245f91f5c7c15e1e3a568c0d6fa29fa940f66742c566eb4918123e42fd12"
    ),
    ("gamma", "grid", None): (
        0, "6d705b4779690c0b3abbccf7d699f9cb5d3784f8bf3efe4a0893407ad5af3bf3"
    ),
    ("gamma", "K6", None): (
        0, "5c5cd770f7e7954119ff35c0d8c28f40f8ecee2a0ee2f0a81a86b3f8bcfd400d"
    ),
    ("maxclique", "square", None): (
        0, "3e0529f999136e8e7bdef5bbb813a664e06d0b8a3efc5691d67205616b2c8dd0"
    ),
    ("maxclique", "dinfty", None): (
        0, "92260ea0cbd70738c0bccba89c8dbf5881ec50d1a09891ea531aa254a783c9cd"
    ),
    ("maxclique", "pentagon", None): (
        0, "1b870f2af0b7677ed6d470df499de6defe72c79ef7bf55b33500bec52d8d3e79"
    ),
    ("maxclique", "grid", None): (
        0, "0fa246bc6bd99edb6efd950e59d06cdc43d6e4c6d02bdd1b07e945feb7c06929"
    ),
    ("maxclique", "K6", None): (
        0, "1d959562173b4a859ee7f052f4510e189317bb623ee757a17d7d2986af54d16b"
    ),
    ("cliques", "square", None): (
        0, "37a0bcd7d167adaaa6f301c8a40e372b88aa42c5c45d8ab5ebbab23ab11baf34"
    ),
    ("cliques", "dinfty", None): (
        0, "63db573c9605e8c533d5c35868bb5209a085f9e3076bec4fbbfd8cfeea1e39b9"
    ),
    ("cliques", "pentagon", None): (
        0, "0eb3ea35898984134966c168c1a5ec49b4d87a2ab57516c66dd6742c790646c7"
    ),
    ("cliques", "grid", None): (
        0, "0c3ef8b2a19ee5dea0965fbd0e9d0e685725570843f44d864c32fcff01b78695"
    ),
    ("cliques", "K6", None): (
        0, "fd32c5a0d1d726171214d4a4d44de8c7eec8d5f58b2457522ebf6268b51c1e39"
    ),
}


@pytest.mark.parametrize("command, name, radius", list(CLI_DIGESTS))
def test_cli_output_is_pinned(tmp_path, capsys, command, name, radius):
    if name.startswith("K"):
        source = ["--graph", complete_graph_file(tmp_path, int(name[1:]))]
    else:
        source = ["--preset", name]
    if radius is not None:
        source += ["--radius", str(radius)]
    code = main([*command.split(), *source])
    captured = capsys.readouterr()
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert (code, digest, captured.err) == (*CLI_DIGESTS[command, name, radius], "")


def test_certify_past_the_default_cap_exits_three(capsys):
    # The cap reads the whole ball of the given radius, though certify
    # checks the displacement only to the reliable radius.  The ball is
    # never built and certify holds O(k) numbers, so the cap bounds the
    # length of the census walk, not memory; the exit is kept as it was.
    code = main(["certify", "--preset", "pentagon", "--radius", "14"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (
        "rcoxeter: vertex cap 1000000 exceeded; last complete radius was 13\n"
    )
