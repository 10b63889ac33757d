import math

import numpy as np
import pytest

from agp.geometry import Ball, Box, Product, Simplex, WholeSpace, parse_set


def simplex_project_bisection(v, scale):
    """Independent oracle: bisect on tau with sum(max(v - tau, 0)) = scale."""
    lo = float(np.min(v)) - scale - 1.0
    hi = float(np.max(v))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.sum(np.maximum(v - mid, 0.0)) > scale:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


def all_variants(dim):
    rng = np.random.default_rng(dim)
    return [
        Box(-rng.uniform(0.5, 2, dim), rng.uniform(0.5, 2, dim)),
        Ball(rng.standard_normal(dim), rng.uniform(0.5, 2)),
        Simplex(dim, scale=rng.uniform(0.5, 2)),
    ]


class TestProject:
    def test_box_clamp(self):
        s = Box([0, 0], [1, 1])
        np.testing.assert_allclose(s.project([-0.5, 2.0]), [0.0, 1.0])

    def test_whole_space_identity(self):
        s = WholeSpace(2)
        np.testing.assert_allclose(s.project([3.1, -4.2]), [3.1, -4.2])

    def test_simplex_sort_threshold(self):
        s = Simplex(3, scale=1.0)
        got = s.project([2.0, 0.5, 0.5])
        want = simplex_project_bisection(np.array([2.0, 0.5, 0.5]), 1.0)
        np.testing.assert_allclose(got, [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_ball_radial_scaling(self):
        s = Ball([0.0, 0.0], 1.0)
        np.testing.assert_allclose(s.project([3.0, 4.0]), [0.6, 0.8])

    def test_ball_center_degenerate(self):
        s = Ball([1.0, 2.0], 0.5)
        np.testing.assert_allclose(s.project([1.0, 2.0]), [1.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Box([0], [1]).project([1.0, 2.0])

    def test_simplex_matches_bisection_oracle_dims_to_10(self):
        rng = np.random.default_rng(42)
        for dim in range(1, 11):
            s = Simplex(dim, scale=1.0)
            for _ in range(50):
                v = 3 * rng.standard_normal(dim)
                np.testing.assert_allclose(
                    s.project(v), simplex_project_bisection(v, 1.0), atol=1e-10)

    def test_product_blockwise(self):
        s = Product((Ball([0.0], 1.0), Box([0.0], [1.0])))
        np.testing.assert_allclose(s.project([5.0, -3.0]), [1.0, 0.0])


class TestProjectRows:
    @pytest.mark.parametrize("n", [0, 1, 7])
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_rows_match_project_bit_for_bit(self, dim, n):
        rng = np.random.default_rng(10 * dim + n)
        sets = [*all_variants(dim), WholeSpace(dim),
                Box(np.full(dim, -np.inf), np.zeros(dim)),
                Product((Ball(np.zeros(dim), 1.0), Box([-1.0], [1.0])))]
        for s in sets:
            V = 3 * rng.standard_normal((n, s.dim))
            got = s.project_rows(V)
            assert got.shape == (n, s.dim)
            assert np.array_equal(got, np.array([s.project(v) for v in V]).reshape(n, s.dim))
            assert got is not V

    @staticmethod
    def per_row(s, V):
        # an infinite entry scales to inf * 0 in project, a NaN
        with np.errstate(invalid="ignore"):
            return np.array([s.project(v) for v in V]).reshape(V.shape)

    @pytest.mark.parametrize("dim", [1, 3, 64])
    def test_ball_edge_rows(self, dim):
        rng = np.random.default_rng(dim)
        s = Ball(rng.standard_normal(dim), 1.5)
        u = rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        on, nan, inf = s.center.copy(), s.center.copy(), s.center.copy()
        on[0] += s.radius
        nan[-1], inf[0], inf[-1] = np.nan, np.inf, -np.inf
        V = np.array([
            s.center + 0.5 * u,             # strictly inside
            on,                             # on the sphere
            s.center,                       # the center: its scaled NaN is unused
            s.center + 1.5000001 * u,       # just outside
            s.center + 1e6 * u,             # far outside
            nan, inf,
        ])
        with np.errstate(all="raise"):  # project_rows keeps its own warnings
            got = s.project_rows(V)
        assert np.array_equal(got, self.per_row(s, V), equal_nan=True)
        assert np.array_equal(got[:3], V[:3])
        assert np.isnan(got[5]).all() and np.isnan(got[6]).any()

    @pytest.mark.parametrize("nested", [False, True])
    def test_products_of_balls_and_boxes(self, nested):
        rng = np.random.default_rng(512 + nested)
        ball2, box, ball3 = (Ball(rng.standard_normal(2), 0.8),
                             Box([-1.0, 0.0], [1.0, np.inf]),
                             Ball(np.zeros(3), 2.0))
        s = (Product((Product((ball2, box)), ball3)) if nested
             else Product((ball2, box, ball3)))
        assert s.dim == 7
        V = 3 * rng.standard_normal((512, 7))
        V[10, :2] = ball2.center                      # a ball's center
        V[11, 4:] = [2.0, 0.0, 0.0]                   # on ball3's sphere
        V[12, 0] = V[13, 5] = np.nan                  # NaN in a ball block
        V[14, 2], V[15, 4:6] = np.nan, (np.inf, -np.inf)
        with np.errstate(all="raise"):
            got = s.project_rows(V)
        assert np.array_equal(got, self.per_row(s, V), equal_nan=True)
        assert np.array_equal(s.project_rows(V[:0]), np.empty((0, 7)))

    def test_shape_checked(self):
        for s in [*all_variants(2), WholeSpace(2),
                  Product((Ball(np.zeros(1), 1.0), Box([0.0], [1.0])))]:
            with pytest.raises(ValueError, match="dimension"):
                s.project_rows(np.zeros(2))
            with pytest.raises(ValueError, match="dimension"):
                s.project_rows(np.zeros((3, 3)))


class TestProjectionProperties:
    @pytest.mark.parametrize("dim", [2, 5, 10])
    def test_nonexpansive_idempotent_optimal(self, dim):
        rng = np.random.default_rng(dim * 7 + 1)
        for s in all_variants(dim):
            for _ in range(350):
                v = 4 * rng.standard_normal(dim)
                w = 4 * rng.standard_normal(dim)
                pv, pw = s.project(v), s.project(w)
                assert np.linalg.norm(pv - pw) <= np.linalg.norm(v - w) + 1e-10
                np.testing.assert_allclose(s.project(pv), pv, atol=1e-12)
                assert s.contains(pv, tol=1e-12)
                u = s.sample(rng)
                assert np.linalg.norm(pv - v) <= np.linalg.norm(u - v) + 1e-10


class TestContains:
    def test_box_inside(self):
        assert Box([0, 0], [1, 1]).contains([0.5, 0.5], tol=0.0)

    def test_ball_within_tol(self):
        assert Ball([0.0, 0.0], 1.0).contains([1.0 + 1e-9, 0.0], tol=1e-8)

    def test_simplex_sum_violation(self):
        assert not Simplex(3, 1.0).contains([0.5, 0.5, 0.5], tol=1e-8)

    @pytest.mark.parametrize("s", [
        WholeSpace(1),
        Box([0.0], [1.0]),
        Ball([0.0], 1.0),
        Simplex(1),
        Product((Box([0.0], [1.0]),)),
    ], ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_negative_tol_rejected(self, s, tol):
        with pytest.raises(ValueError, match="tol"):
            s.contains(s.project(np.full(s.dim, 0.5)), tol=tol)


class TestSizes:
    def test_box_diameter(self):
        assert Box([0, 0], [1, 1]).diameter() == pytest.approx(math.sqrt(2))

    def test_ball_diameter(self):
        assert Ball([3.0, 1.0], 0.7).diameter() == pytest.approx(1.4)

    def test_simplex_diameter_vertex_pairs(self):
        # oracle: max pairwise distance over the scaled vertices
        scale = 1.0
        verts = [scale * np.eye(3)[i] for i in range(3)]
        want = max(np.linalg.norm(a - b) for a in verts for b in verts)
        assert Simplex(3, scale).diameter() == pytest.approx(want)
        assert want == pytest.approx(math.sqrt(2))

    def test_whole_space_unbounded_marker(self):
        # an unbounded set answers inf, and so does a product holding one
        assert WholeSpace(3).diameter() == math.inf
        assert WholeSpace(3).max_norm() == math.inf
        half = Box([0.0, -1.0], [math.inf, 1.0])
        assert half.diameter() == half.max_norm() == math.inf
        s = Product((Ball([0.0], 1.0), WholeSpace(2)))
        assert s.diameter() == s.max_norm() == math.inf

    def test_box_max_norm(self):
        assert Box([-1, -1], [1, 1]).max_norm() == pytest.approx(math.sqrt(2))

    def test_ball_max_norm(self):
        assert Ball([0.0, 0.0], 2.0).max_norm() == pytest.approx(2.0)

    def test_asymmetric_box_max_norm_corner_enumeration(self):
        s = Box([1, -2], [3, 0])
        corners = [np.array([a, b]) for a in (1, 3) for b in (-2, 0)]
        want = max(np.linalg.norm(c) for c in corners)
        assert s.max_norm() == pytest.approx(want)
        assert want == pytest.approx(math.sqrt(13))

    def test_simplex_max_norm(self):
        assert Simplex(4, scale=2.5).max_norm() == pytest.approx(2.5)

    def test_product_sizes(self):
        s = Product((Ball([0.0], 1.0), Box([-1.0], [1.0])))
        assert s.diameter() == pytest.approx(math.hypot(2.0, 2.0))
        assert s.max_norm() == pytest.approx(math.hypot(1.0, 1.0))


class TestValidation:
    def test_box_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])

    def test_ball_requires_positive_radius(self):
        with pytest.raises(ValueError):
            Ball([0.0], 0.0)

    def test_simplex_requires_positive_scale(self):
        with pytest.raises(ValueError):
            Simplex(3, scale=-1.0)

    @pytest.mark.parametrize("make", [
        lambda: Box([math.nan, -1.0], [1.0, 1.0]),
        lambda: Box([0.0], [math.nan]),
        lambda: Ball([math.inf, 0.0, 0.0], 1.0),
        lambda: Ball([math.nan], 1.0),
        lambda: Ball([0.0], math.inf),
        lambda: Ball([0.0], math.nan),
        lambda: Simplex(2, scale=math.inf),
        lambda: Simplex(2, scale=math.nan),
    ], ids=["box-nan-lower", "box-nan-upper", "ball-inf-center", "ball-nan-center",
            "ball-inf-radius", "ball-nan-radius", "simplex-inf-scale",
            "simplex-nan-scale"])
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_infinite_box_bounds_allowed(self):
        assert Box([-math.inf], [math.inf]).project(np.array([3.0]))[0] == 3.0

    @pytest.mark.parametrize("text", ["simplex(dim=2.5)", "free(dim=2.9)",
                                      "simplex(dim=inf)", "free(dim=nan)"])
    def test_fractional_dim_rejected(self, text):
        with pytest.raises(ValueError, match="dim must be an integer"):
            parse_set(text)

    @pytest.mark.parametrize("text, dim", [("simplex(dim=2.0)", 2), ("free(3)", 3)])
    def test_integral_dim_accepted(self, text, dim):
        assert parse_set(text).dim == dim


class TestSerialization:
    # (config text, the set it names): one case per set kind
    @pytest.mark.parametrize("s", [
        ("free(dim=3)", WholeSpace(3)),
        ("box(lower=[0, -1.5], upper=[1, 2.25])", Box([0.0, -1.5], [1.0, 2.25])),
        ("ball(center=[0.5, 0.5], radius=1.25)", Ball([0.5, 0.5], 1.25)),
        ("simplex(dim=4, scale=2)", Simplex(4, scale=2.0)),
        ("product(ball(center=[0, 0], radius=1), interval(-1, 1))",
         Product((Ball([0.0, 0.0], 1.0), Box([-1.0], [1.0])))),
    ])
    def test_round_trip(self, s):
        text, expected = s
        t = parse_set(text)
        assert type(t) is type(expected)
        assert repr(t) == repr(expected)
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = rng.standard_normal(expected.dim)
            np.testing.assert_array_equal(expected.project(v), t.project(v))

    def test_sample_lands_inside(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2, 6):
            for s in all_variants(dim):
                for _ in range(100):
                    assert s.contains(s.sample(rng), tol=1e-9)
