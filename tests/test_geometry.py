import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from comap.geometry import (
    FOV_CLAMP,
    GOLDEN_ANGLE,
    CameraIntrinsics,
    Pose,
    ViewCone,
    compute_fov,
    cone_ball,
    cone_candidate_ball,
    cone_from_fov,
    contains,
    contains_many,
    euler_from_matrix,
    make_view_cone,
    optical_axis,
    sample_cone,
    sample_spacing,
)

FC = CameraIntrinsics(455.0, 455.0, 376.0, 240.0)
GARAGE = CameraIntrinsics(634.2, 634.8, 631.8, 359.5)


class TestComputeFov:
    def test_sim_camera(self):
        # max(2*atan(376/455), 2*atan(240/455)) = 1.3812336489575836
        assert compute_fov(FC) == pytest.approx(1.3812336489575836, abs=1e-12)

    def test_symmetric_intrinsics_give_right_angle(self):
        assert compute_fov(CameraIntrinsics(100, 100, 100, 100)) == pytest.approx(math.pi / 2)

    def test_garage_camera(self):
        assert compute_fov(GARAGE) == pytest.approx(1.5670048621425134, abs=1e-12)

    @pytest.mark.parametrize("bad", [(0, 1, 1, 1), (1, -2, 1, 1), (1, 1, float("nan"), 1), (1, 1, 1, float("inf"))])
    def test_invalid_intrinsics_rejected(self, bad):
        with pytest.raises(ValueError):
            CameraIntrinsics(*bad)

    @given(
        fx=st.floats(10, 2000),
        fy=st.floats(10, 2000),
        cx=st.floats(10, 2000),
        cy=st.floats(10, 2000),
        bump=st.floats(0.1, 500),
    )
    def test_in_range_and_monotone_in_optical_center(self, fx, fy, cx, cy, bump):
        base = compute_fov(CameraIntrinsics(fx, fy, cx, cy))
        assert 0 < base < math.pi
        wider = compute_fov(CameraIntrinsics(fx, fy, cx + bump, cy))
        taller = compute_fov(CameraIntrinsics(fx, fy, cx, cy + bump))
        assert wider >= base
        assert taller >= base


class TestOpticalAxis:
    def test_identity_rotation_points_forward(self):
        np.testing.assert_allclose(optical_axis(Pose(0, 0, 0)), [0, 0, 1], atol=1e-15)

    def test_quarter_pitch_points_along_x(self):
        np.testing.assert_allclose(
            optical_axis(Pose(0, 0, 0, pitch=math.pi / 2)), [1, 0, 0], atol=1e-12
        )

    def test_yaw_leaves_forward_axis_unchanged(self):
        np.testing.assert_allclose(
            optical_axis(Pose(5, -2, 1, yaw=math.pi)), [0, 0, 1], atol=1e-12
        )

    def test_unit_norm_for_random_poses(self, rng):
        for _ in range(200):
            p = Pose(*rng.uniform(-10, 10, 3), *rng.uniform(-math.pi, math.pi, 3))
            assert abs(np.linalg.norm(optical_axis(p)) - 1.0) < 1e-12

    def test_euler_matrix_roundtrip(self, rng):
        for _ in range(200):
            p = Pose(0, 0, 0, *rng.uniform(-math.pi * 0.9, math.pi * 0.9, 3))
            R = p.rotation_matrix()
            roll, pitch, yaw = euler_from_matrix(R)
            np.testing.assert_allclose(
                Pose(0, 0, 0, roll, pitch, yaw).rotation_matrix(), R, atol=1e-9
            )


class TestPoseInvariants:
    def test_angles_normalized(self):
        p = Pose(0, 0, 0, roll=3 * math.pi, pitch=-3 * math.pi, yaw=2 * math.pi)
        assert -math.pi < p.roll <= math.pi
        assert -math.pi < p.pitch <= math.pi
        assert p.yaw == pytest.approx(0.0)

    def test_stored_fields_rebuild_an_equal_pose(self, rng):
        # Angles around the wrap points, where re-wrapping would show.
        edges = [math.pi, -math.pi + 1e-15, np.nextafter(math.pi, 0.0), 0.0]
        for _ in range(50):
            angles = rng.choice(edges + rng.uniform(-7, 7, 3).tolist(), 3)
            pose = Pose(*rng.uniform(-1e4, 1e4, 3), *angles)
            stored = Pose.stored(*pose.as_array().tolist())
            assert stored == pose and hash(stored) == hash(pose)
        with pytest.raises(FrozenInstanceError):
            stored.x = 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Pose(float("nan"), 0, 0)


class TestMakeViewCone:
    def test_alpha_one_reproduces_base_fov(self):
        cone = make_view_cone(Pose(0, 0, 0), FC, h=20.0, alpha=1.0)
        assert cone.fov == compute_fov(FC)
        assert cone.h == 20.0

    def test_oversharing_scales_fov(self):
        cone = make_view_cone(Pose(0, 0, 0), FC, h=20.0, alpha=1.3)
        assert cone.fov == pytest.approx(1.7956037436448586, abs=1e-12)

    def test_fov_clamped_below_pi(self):
        cone = cone_from_fov(Pose(0, 0, 0), 2.9, h=20.0, alpha=1.3)
        assert cone.fov < math.pi

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            make_view_cone(Pose(0, 0, 0), FC, h=20.0, alpha=0.99)

    def test_bad_height_rejected(self):
        with pytest.raises(ValueError):
            make_view_cone(Pose(0, 0, 0), FC, h=0.0)

    def test_axis_is_computed_once_and_read_only(self):
        pose = Pose(1, 2, 3, 0.1, -0.4, 2.0)
        cone = cone_from_fov(pose, 1.2, h=20.0)
        assert cone.axis is cone.axis
        np.testing.assert_array_equal(cone.axis, optical_axis(pose))
        assert cone == cone_from_fov(pose, 1.2, h=20.0)
        with pytest.raises(ValueError):
            cone.axis[0] = 0.0


class TestContains:
    def cone(self):
        return cone_from_fov(Pose(1, 2, 3, yaw=0.4, pitch=-0.2), 1.2, 20.0)

    def test_apex_inside(self):
        cone = self.cone()
        assert contains(cone, cone.apex_pose.position)

    def test_midaxis_inside(self):
        cone = self.cone()
        assert contains(cone, cone.apex_pose.position + 10.0 * cone.axis)

    def test_behind_apex_outside(self):
        cone = self.cone()
        assert not contains(cone, cone.apex_pose.position - 0.5 * cone.axis)

    def test_beyond_height_outside(self):
        cone = self.cone()
        assert not contains(cone, cone.apex_pose.position + 20.001 * cone.axis)

    def test_just_past_boundary_angle_outside(self):
        cone = cone_from_fov(Pose(0, 0, 0), 1.2, 20.0)
        radial = 20.0 * math.tan(cone.fov / 2) * 1.01
        # Axial distance h, radial offset 1% beyond the rim.
        assert not contains(cone, np.array([radial, 0.0, 20.0]))
        assert contains(cone, np.array([20.0 * math.tan(cone.fov / 2) * 0.99, 0.0, 20.0]))

    def test_rigid_invariance(self, rng):
        cone = self.cone()
        pts = rng.uniform(-5, 25, (500, 3))
        base = contains_many(cone, pts)
        for _ in range(10):
            yaw, pitch, roll = rng.uniform(-math.pi, math.pi, 3)
            shift = rng.uniform(-50, 50, 3)
            R = Pose(0, 0, 0, roll, pitch, yaw).rotation_matrix()
            apex = cone.apex_pose
            new_R = R @ apex.rotation_matrix()
            nr, npitch, nyaw = euler_from_matrix(new_R)
            moved_pose = Pose(*(R @ apex.position + shift), nr, npitch, nyaw)
            moved_cone = ViewCone(moved_pose, cone.h, cone.fov)
            moved = contains_many(moved_cone, pts @ R.T + shift)
            # Tolerance: points are sampled away from the boundary surface
            # with overwhelming probability, so masks must agree exactly.
            assert np.array_equal(base, moved)

    def test_vectorized_matches_scalar(self, rng):
        cone = self.cone()
        pts = rng.uniform(-5, 25, (300, 3))
        mask = contains_many(cone, pts)
        for p, m in zip(pts, mask):
            assert contains(cone, p) == m


class TestConeBall:
    """``cone_ball`` is the smallest ball holding the cone, and the padded
    ``cone_candidate_ball`` holds every point ``contains_many`` accepts."""

    @staticmethod
    def probe_points(cone: ViewCone, seed: int) -> np.ndarray:
        """The apex, the base centre and rim points built exactly, plus
        points drawn on and about the cone's surface and inside it."""
        rng = np.random.default_rng(seed)
        apex = cone.apex_pose.position
        R = cone.apex_pose.rotation_matrix()
        h, rho = cone.h, cone.h * math.tan(cone.fov / 2.0)
        phi = rng.uniform(0.0, 2.0 * math.pi, 64)
        rim = np.column_stack((rho * np.cos(phi), rho * np.sin(phi), np.full(64, h)))
        # Along the slant from apex to rim, across the base disk, and just
        # either side of the surface.
        slant = rim * rng.uniform(0.0, 1.0, (64, 1))
        disk = rim * np.array([[1.0, 1.0, 0.0]]) * rng.uniform(0.0, 1.0, (64, 1))
        disk[:, 2] = h
        nudged = rim * (1.0 + rng.choice([-1, 1], (64, 1)) * rng.uniform(0, 1e-12, (64, 1)))
        local = np.vstack([np.zeros((1, 3)), [[0.0, 0.0, h]], rim, slant, disk, nudged])
        pts = apex + local @ R.T
        return np.vstack([pts, sample_cone(cone, 64, seed)[0]])

    @given(
        fov=st.one_of(
            st.floats(0.0, FOV_CLAMP, exclude_min=True),
            st.sampled_from([
                math.pi / 2, math.nextafter(math.pi / 2, 0.0), math.nextafter(math.pi / 2, 4.0),
                FOV_CLAMP, 1.3812336489575836, 1e-9,
            ]),
        ),
        h=st.floats(1e-3, 1e3),
        apex=st.tuples(*[st.floats(-1e6, 1e6)] * 3),
        angles=st.tuples(*[st.floats(-math.pi, math.pi)] * 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_holds_every_accepted_point(self, fov, h, apex, angles, seed):
        cone = ViewCone(Pose(*apex, *angles), h, fov)
        centre, radius = cone_ball(cone)
        assert radius <= h / math.cos(fov / 2.0)
        pts = self.probe_points(cone, seed)
        inside = contains_many(cone, pts)
        # Rounding can put a needle cone's base centre, built far from the
        # origin, just off the axis and so outside the cone.
        assume(inside[1])
        accepted = pts[inside]
        assert len(accepted) >= 2  # the apex and the base centre at least
        padded_centre, padded = cone_candidate_ball(cone)
        assert np.array_equal(padded_centre, centre) and padded >= radius
        assert (np.linalg.norm(accepted - centre, axis=1) <= padded).all()

    @pytest.mark.parametrize("fov", [1e-3, 0.5, 1.3812336489575836, math.pi / 2 - 1e-9,
                                     math.pi / 2, 2.0, 3.0, FOV_CLAMP])
    def test_is_the_smallest_ball(self, fov):
        cone = cone_from_fov(Pose(3, -1, 2, yaw=1.1, pitch=0.15, roll=-0.4), fov, 20.0)
        centre, radius = cone_ball(cone)
        pts = self.probe_points(cone, 0)
        apex, base, rim = pts[0], pts[1], pts[2:66]
        # Every rim point is on the sphere, and so is the apex below 45°;
        # a wider cone's ball is centred on the base.
        tol = 1e-12 * (radius + 10.0)
        np.testing.assert_allclose(np.linalg.norm(rim - centre, axis=1), radius, rtol=0, atol=tol)
        if fov < math.pi / 2:
            assert np.linalg.norm(apex - centre) == pytest.approx(radius, abs=tol)
        else:
            np.testing.assert_allclose(centre, base, rtol=0, atol=tol)
            assert np.linalg.norm(apex - centre) <= radius + tol

    def test_sizes_at_the_sim_and_slice_cones(self):
        fov = 1.3812336489575836
        _, r = cone_ball(cone_from_fov(Pose(0, 0, 0), fov, 20.0))
        assert r == pytest.approx(16.829, abs=1e-3)  # h / cos(fov/2) = 25.95
        _, r = cone_ball(cone_from_fov(Pose(0, 0, 0), fov, 20.0, alpha=1.3))
        assert r == pytest.approx(25.090, abs=1e-3)  # h / cos(fov/2) = 32.09


class TestSampleCone:
    def cone(self, fov=1.3812336489575836, h=20.0):
        return cone_from_fov(Pose(3, -1, 2, yaw=1.1, pitch=0.15), fov, h)

    def test_single_sample_is_centroid(self):
        cone = self.cone()
        pts, r = sample_cone(cone, 1, seed=9)
        np.testing.assert_allclose(
            pts[0], cone.apex_pose.position + 0.75 * cone.h * cone.axis, atol=1e-12
        )
        assert r == pytest.approx(cone.volume() ** (1 / 3))

    def test_spacing_value(self):
        # V = (pi/3) * 20^3 * tan(fov/2)^2 = 5720.994; (V/1000)^(1/3) = 1.7885
        cone = self.cone()
        assert cone.volume() == pytest.approx(5720.994121404474, rel=1e-12)
        _, r = sample_cone(cone, 1000, seed=0)
        assert r == pytest.approx(1.7885064079614827, rel=1e-12)

    def test_exact_count_and_containment(self, rng):
        for k in (1, 2, 7, 33, 300, 1000):
            cone = self.cone()
            pts, _ = sample_cone(cone, k, seed=int(rng.integers(1 << 30)))
            assert pts.shape == (k, 3)
            assert contains_many(cone, pts).all()

    def test_deterministic_given_seed(self):
        cone = self.cone()
        a, ra = sample_cone(cone, 500, seed=42)
        b, rb = sample_cone(cone, 500, seed=42)
        assert ra == rb
        np.testing.assert_array_equal(a, b)
        c, _ = sample_cone(cone, 500, seed=43)
        assert not np.array_equal(a, c)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            sample_cone(self.cone(), 0, seed=1)

    @pytest.mark.parametrize("k", [32, 128, 1000])
    def test_mean_nearest_neighbor_spacing_band(self, k):
        cone = self.cone()
        pts, r = sample_cone(cone, k, seed=7)
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        mean_nn = float(np.mean(np.sqrt(d2.min(axis=1))))
        assert 0.5 * r <= mean_nn <= 1.5 * r


def loop_sample_cone(cone, k, seed):
    """Reference for ``sample_cone``: the per-layer loop it replaced, with
    the same draws in the same order and the same arithmetic per sample."""
    r = sample_spacing(cone, k)
    apex = cone.apex_pose.position
    R = cone.apex_pose.rotation_matrix()
    if k == 1:
        return (apex + R @ np.array([0.0, 0.0, 0.75 * cone.h]))[None, :], r
    rng = np.random.default_rng(seed)
    tan_half = math.tan(cone.fov / 2.0)
    layers = max(1, int(round(k ** (1.0 / 3.0))))
    counts = np.full(layers, k // layers, dtype=int)
    counts[: k % layers] += 1
    local = np.empty((k, 3), dtype=np.float64)
    out = 0
    cum = 0
    for n in counts:
        lo, hi = cum / k, (cum + n) / k
        cum += n
        idx = np.arange(n)
        frac = lo + (idx + rng.random(n)) / n * (hi - lo)
        axial = cone.h * np.cbrt(frac)
        disk = rng.permutation(n)
        rho = np.sqrt((disk + rng.random(n)) / n)
        theta = disk * GOLDEN_ANGLE + rng.random(n) * (2.0 * math.pi / n)
        radial = rho * axial * tan_half
        local[out : out + n, 0] = radial * np.cos(theta)
        local[out : out + n, 1] = radial * np.sin(theta)
        local[out : out + n, 2] = axial
        out += n
    return apex + local @ R.T, r


class TestSampleConeMatchesLoop:
    """The batched arithmetic gives the loop's samples bit for bit: they go
    on the wire."""

    @staticmethod
    def random_cone(rng):
        pose = Pose(*rng.uniform(-100, 100, 3), *rng.uniform(-math.pi, math.pi, 3))
        return cone_from_fov(pose, float(rng.uniform(0.05, 3.1)), float(rng.uniform(0.5, 60.0)))

    def assert_same(self, cone, k, seed):
        got, r = sample_cone(cone, k, seed)
        want, want_r = loop_sample_cone(cone, k, seed)
        assert got.shape == want.shape == (k, 3)
        assert got.tobytes() == want.tobytes(), (k, seed)
        assert r == want_r

    def test_random_cones(self, rng):
        for _ in range(1200):
            self.assert_same(self.random_cone(rng), int(rng.integers(1, 401)), int(rng.integers(1 << 31)))

    def test_one_and_two_layer_counts(self, rng):
        # k = 1 is the centroid; k below 8 rounds to one layer (k <= 3) or two.
        for k in range(1, 8):
            for _ in range(30):
                self.assert_same(self.random_cone(rng), k, int(rng.integers(1 << 31)))

    def test_protocol_sample_counts(self, rng):
        cone = cone_from_fov(Pose(3, -1, 2, yaw=1.1, pitch=0.15), 1.3812336489575836, 20.0)
        for k in (8, 9, 27, 64, 254, 300, 399, 400):
            for seed in range(5):
                self.assert_same(cone, k, seed)

