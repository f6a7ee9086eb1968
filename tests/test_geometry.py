import numpy as np
import pytest

from monovio import geometry as geo
from reference import quat_log, quat_rotate_np, tangent_basis_np


def random_quat(rng):
    return geo.quat_normalize(rng.standard_normal(4))


class TestQuatMul:
    def test_identity(self):
        q = geo.quat_normalize([0.3, -0.5, 0.7, 0.2])
        np.testing.assert_allclose(geo.quat_mul(geo.quat_identity(), q), q, atol=1e-15)

    def test_same_axis_composition(self):
        h = np.sqrt(0.5)
        q90z = np.array([h, 0.0, 0.0, h])
        out = geo.quat_mul(q90z, q90z)
        np.testing.assert_allclose(out, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_matches_rotation_matrix_product(self):
        # non-commutativity verified against the matrix-product oracle
        qx = geo.quat_exp([np.pi / 2, 0.0, 0.0])
        qy = geo.quat_exp([0.0, np.pi / 2, 0.0])
        for a, b in [(qx, qy), (qy, qx)]:
            np.testing.assert_allclose(
                geo.quat_to_rot(geo.quat_mul(a, b)),
                geo.quat_to_rot(a) @ geo.quat_to_rot(b),
                atol=1e-12,
            )
        assert geo.quat_angle_between(geo.quat_mul(qx, qy), geo.quat_mul(qy, qx)) > 0.1

    def test_random_sweep_against_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = random_quat(rng), random_quat(rng)
            np.testing.assert_allclose(
                geo.quat_to_rot(geo.quat_mul(a, b)),
                geo.quat_to_rot(a) @ geo.quat_to_rot(b),
                atol=1e-12,
            )

    def test_unit_norm_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            q = geo.quat_mul(random_quat(rng), random_quat(rng))
            assert abs(np.linalg.norm(q) - 1.0) < 1e-9


class TestSkew:
    def test_zero(self):
        np.testing.assert_array_equal(geo.skew(np.zeros(3)), np.zeros((3, 3)))

    def test_cross_product_definition(self):
        np.testing.assert_allclose(geo.skew([0, 0, 1]) @ [1, 0, 0], [0, 1, 0], atol=1e-15)

    def test_random_cross_products(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            v, u = rng.standard_normal(3), rng.standard_normal(3)
            np.testing.assert_allclose(geo.skew(v) @ u, np.cross(v, u), atol=1e-12)

    def test_batched(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((5, 3))
        out = geo.skew(v)
        for i in range(5):
            np.testing.assert_array_equal(out[i], geo.skew(v[i]))


class TestSmallAngleQuat:
    def test_zero(self):
        np.testing.assert_array_equal(geo.small_angle_quat(np.zeros(3)), geo.quat_identity())

    def test_matches_exponential_map(self):
        d = np.array([0.0, 0.0, 1e-3])
        err = geo.quat_angle_between(geo.small_angle_quat(d), geo.quat_exp(d))
        assert err < 1e-7

    def test_second_order_round_trip(self):
        rng = np.random.default_rng(6)
        for mag in [1e-4, 1e-3, 1e-2]:
            d = rng.standard_normal(3)
            d = d / np.linalg.norm(d) * mag
            back = quat_log(geo.small_angle_quat(d))
            assert np.linalg.norm(back - d) < 0.2 * mag**3 + 1e-15


class TestTangentBasis:
    def test_z_axis(self):
        b1, b2 = geo.tangent_basis([0.0, 0.0, 1.0])
        np.testing.assert_allclose(b1, [0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(b2, [-1.0, 0.0, 0.0], atol=1e-15)

    def test_x_axis_fallback_pivot(self):
        b1, b2 = geo.tangent_basis([1.0, 0.0, 0.0])
        np.testing.assert_allclose(b1, [0.0, -1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(b2, [0.0, 0.0, -1.0], atol=1e-15)

    def test_orthonormal_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            g = rng.standard_normal(3)
            g /= np.linalg.norm(g)
            b1, b2 = geo.tangent_basis(g)
            assert abs(np.linalg.norm(b1) - 1) < 1e-9
            assert abs(np.linalg.norm(b2) - 1) < 1e-9
            assert abs(b1 @ b2) < 1e-9
            assert abs(b1 @ g) < 1e-9
            assert abs(b2 @ g) < 1e-9
            # right-handed triple (g, b1, b2)
            np.testing.assert_allclose(np.cross(g, b1), b2, atol=1e-9)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            geo.tangent_basis([0.0, 0.0, 2.0])


class TestCrossWithoutNpCross:
    """cross, quat_rotate and tangent_basis avoid np.cross; their results
    must equal the np.cross forms bit for bit (signed zeros included), on
    single vectors and on batches."""

    @staticmethod
    def vectors(rng, n):
        v = rng.standard_normal((n, 3))
        v[:4] = [[0.0, 0.0, 0.0], [-0.0, 1.0, -0.0], [1.0, 0.0, 0.0], [-1e-300, 3.0, 1e300]]
        return v

    @staticmethod
    def same(a, b):
        return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_cross(self):
        rng = np.random.default_rng(21)
        a, b = self.vectors(rng, 50), self.vectors(rng, 50)[::-1]
        assert self.same(geo.cross(a, b), np.cross(a, b))
        assert self.same(geo.cross(a, b[7]), np.cross(a, b[7]))
        for k in range(len(a)):
            assert self.same(geo.cross(a[k], b[k]), np.cross(a[k], b[k]))

    def test_quat_rotate(self):
        rng = np.random.default_rng(22)
        q = np.array([random_quat(rng) for _ in range(50)])
        q[:3] = [[1.0, 0.0, 0.0, 0.0], [0.0, -0.0, 0.0, 1.0], [-0.5, 0.5, -0.5, 0.5]]
        v = self.vectors(rng, 50)
        for k in range(len(q)):
            assert self.same(geo.quat_rotate(q[k], v[k]), quat_rotate_np(q[k], v[k]))
            assert self.same(geo.quat_rotate(q[k].tolist(), v[k].tolist()),
                             quat_rotate_np(q[k], v[k]))
        assert self.same(geo.quat_rotate(q, v), quat_rotate_np(q, v))
        assert self.same(geo.quat_rotate(q[5], v), quat_rotate_np(q[5], v))
        assert self.same(geo.quat_rotate(q, v[5]), quat_rotate_np(q, v[5]))

    def test_tangent_basis(self):
        rng = np.random.default_rng(23)
        g = rng.standard_normal((60, 3))
        g[:3] = [[1.0, 0.0, 0.0], [-1.0, 1e-4, 0.0], [0.0, 0.0, -1.0]]
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        for got, want in zip(geo.tangent_basis(g), tangent_basis_np(g)):
            assert self.same(got, want)
        for k in range(len(g)):
            for got, want in zip(geo.tangent_basis(g[k]), tangent_basis_np(g[k])):
                assert self.same(got, want)


class TestEulerDecompose:
    def test_identity(self):
        assert geo.yaw_roll_pitch_decompose(geo.quat_identity()) == (0.0, 0.0, 0.0)

    def test_pure_yaw(self):
        q = geo.quat_exp([0.0, 0.0, np.deg2rad(30)])
        roll, pitch, yaw = geo.yaw_roll_pitch_decompose(q)
        assert abs(roll) < 1e-12 and abs(pitch) < 1e-12
        assert abs(yaw - 0.5235987755982988) < 1e-12

    def test_round_trip_random(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            roll, yaw = rng.uniform(-np.pi, np.pi, 2)
            pitch = rng.uniform(-np.deg2rad(80), np.deg2rad(80))
            q = geo.rot_to_quat(geo.rot_zyx(roll, pitch, yaw))
            r2, p2, y2 = geo.yaw_roll_pitch_decompose(q)
            q2 = geo.rot_to_quat(geo.rot_zyx(r2, p2, y2))
            assert geo.quat_angle_between(q, q2) < 1e-8

    def test_gimbal_lock_signaled(self):
        q = geo.quat_exp([0.0, np.pi / 2, 0.0])
        with pytest.raises(geo.GimbalLockError):
            geo.yaw_roll_pitch_decompose(q)

    def test_batched_rot_zyx_equals_scalar_calls(self):
        rng = np.random.default_rng(13)
        roll, pitch, yaw = rng.uniform(-np.pi, np.pi, (3, 500))
        R = geo.rot_zyx(roll, pitch, yaw)
        assert R.shape == (500, 3, 3)
        stacked = np.array([geo.rot_zyx(r, p, y) for r, p, y in zip(roll, pitch, yaw)])
        np.testing.assert_array_equal(R, stacked)


class TestConversions:
    def test_quat_rot_round_trip(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            q = geo.quat_canonical(random_quat(rng))
            R = geo.quat_to_rot(q)
            np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(R) - 1.0) < 1e-9
            q2 = geo.rot_to_quat(R)
            assert geo.quat_angle_between(q, q2) < 1e-8

    def test_quat_rotate_matches_matrix(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            q, v = random_quat(rng), rng.standard_normal(3)
            np.testing.assert_allclose(geo.quat_rotate(q, v), geo.quat_to_rot(q) @ v, atol=1e-12)

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            v = rng.standard_normal(3)
            v = v / np.linalg.norm(v) * rng.uniform(1e-9, 3.0)
            np.testing.assert_allclose(quat_log(geo.quat_exp(v)), v, atol=1e-9)


class TestWrapAngle:
    def test_wrap(self):
        assert geo.wrap_angle(np.pi) == pytest.approx(np.pi)
        assert geo.wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert geo.wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
        assert geo.wrap_angle(0.3) == pytest.approx(0.3)
