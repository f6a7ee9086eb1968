"""Rotation, quaternion, and tangent-space utilities shared by all modules.

Conventions used throughout the package:
  - Quaternions are Hamilton, scalar-first, stored as numpy arrays [w, x, y, z].
  - R(q) maps body-frame vectors into the parent frame: v_parent = R(q) @ v_body.
  - Most functions broadcast over leading batch dimensions.

Every stored quaternion is unit and canonical (w >= 0), made so where it is
made: by quat_canonical, the last step of rot_to_quat, of the window's
states, the extrinsic, the alignment, the pose graph, each published attitude
and the rotation since the last keyframe; by small_angle_quat; and, unit by
construction, by quat_exp and the midpoint chain of
preintegration.midpoint_path. The kernels that read quaternions (quat_mul,
quat_inverse, quat_to_rot, quat_rotate) trust them.

Cross products are written out component by component (cross) instead of
calling np.cross: np.cross spends tens of microseconds per call on
broadcasting and axis handling, far more than the six products of a
3-vector, and the frame path calls it thousands of times per second of data.
The components follow np.cross's own multiply-subtract order, so the results
are bitwise equal to it.
"""

from __future__ import annotations

import numpy as np


class GimbalLockError(ValueError):
    """Euler decomposition requested too close to pitch = +-90 deg."""


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        n = np.sqrt(q @ q)
        if n < 1e-12:
            raise ValueError("cannot normalize near-zero quaternion")
        return q / n
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(n < 1e-12):
        raise ValueError("cannot normalize near-zero quaternion")
    return q / n


def quat_canonical(q):
    """Resolve the double cover: flip sign so that w >= 0."""
    q = quat_normalize(q)
    sign = np.where(q[..., :1] < 0.0, -1.0, 1.0)
    return q * sign


_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])


def quat_inverse(q):
    """Inverse of a unit quaternion: its conjugate."""
    return np.asarray(q, dtype=float) * _CONJUGATE


def quat_mul(a, b):
    """Hamilton product a (x) b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1 and b.ndim == 1:
        w1, x1, y1, z1 = a
        w2, x2, y2, z2 = b
        return np.array(
            [
                w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            ]
        )
    w1, x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    w2, x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    w = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
    out = np.empty(w.shape + (4,))
    out[..., 0] = w
    out[..., 1] = w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2
    out[..., 2] = w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2
    out[..., 3] = w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2
    return out


def cross(a, b):
    """a x b over the last axis, broadcasting; bitwise equal to np.cross(a, b)
    (each component is a1 * b2 - a2 * b1 and so on, every product rounded
    before the subtraction)."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c = np.empty(np.broadcast_shapes(a.shape, b.shape))
    c[..., 0] = a1 * b2 - a2 * b1
    c[..., 1] = a2 * b0 - a0 * b2
    c[..., 2] = a0 * b1 - a1 * b0
    return c


def quat_rotate(q, v):
    """Rotate vector(s) v by quaternion(s) q without forming the matrix:
    v + w t + qv x t with t = 2 qv x v."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    if q.ndim == 1 and v.ndim == 1:
        # one vector: the same operations on Python floats
        w, x, y, z = q.tolist()
        vx, vy, vz = v.tolist()
        tx, ty, tz = 2.0 * (y * vz - z * vy), 2.0 * (z * vx - x * vz), 2.0 * (x * vy - y * vx)
        return np.array(
            [
                vx + w * tx + (y * tz - z * ty),
                vy + w * ty + (z * tx - x * tz),
                vz + w * tz + (x * ty - y * tx),
            ]
        )
    qv = q[..., 1:]
    w = q[..., :1]
    t = 2.0 * cross(qv, v)
    return v + w * t + cross(qv, t)


def quat_to_rot(q):
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        w, x, y, z = q
        xx, yy, zz = x * x, y * y, z * z
        wx, wy, wz = w * x, w * y, w * z
        xy, xz, yz = x * y, x * z, y * z
        return np.array(
            [
                [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
                [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
                [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
            ]
        )
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1.0 - 2.0 * (yy + zz)
    R[..., 0, 1] = 2.0 * (xy - wz)
    R[..., 0, 2] = 2.0 * (xz + wy)
    R[..., 1, 0] = 2.0 * (xy + wz)
    R[..., 1, 1] = 1.0 - 2.0 * (xx + zz)
    R[..., 1, 2] = 2.0 * (yz - wx)
    R[..., 2, 0] = 2.0 * (xz - wy)
    R[..., 2, 1] = 2.0 * (yz + wx)
    R[..., 2, 2] = 1.0 - 2.0 * (xx + yy)
    return R


def rot_to_quat(R):
    """Shepperd-style conversion; returns the canonical (w >= 0) quaternion."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError("rot_to_quat expects a single 3x3 matrix")
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] > R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    return quat_canonical(q)


def quat_exp(rotvec):
    """Axis-angle rotation vector -> unit quaternion (exact exponential map)."""
    rotvec = np.asarray(rotvec, dtype=float)
    if rotvec.ndim == 1:
        angle = np.sqrt(rotvec @ rotvec)
        half = 0.5 * angle
        # sin(x)/x Taylor fallback keeps the map smooth through zero
        k = 0.5 - angle * angle / 48.0 if angle < 1e-8 else np.sin(half) / angle
        return np.array([np.cos(half), *(rotvec * k)])
    angle = np.linalg.norm(rotvec, axis=-1, keepdims=True)
    half = 0.5 * angle
    small = angle < 1e-8
    with np.errstate(invalid="ignore", divide="ignore"):
        k = np.where(small, 0.5 - angle * angle / 48.0, np.sin(half) / np.where(small, 1.0, angle))
    w = np.cos(half)
    return np.concatenate([w, rotvec * k], axis=-1)


def quat_angle(q) -> float:
    """Absolute rotation angle of a quaternion, in radians."""
    q = np.asarray(q, dtype=float)
    return float(2.0 * np.arctan2(np.linalg.norm(q[..., 1:], axis=-1), np.abs(q[..., 0])))


def quat_angle_between(a, b) -> float:
    return quat_angle(quat_mul(quat_inverse(a), b))


def skew(v):
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        x, y, z = v
        return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    S = np.zeros(v.shape[:-1] + (3, 3))
    S[..., 0, 1], S[..., 0, 2] = -z, y
    S[..., 1, 0], S[..., 1, 2] = z, -x
    S[..., 2, 0], S[..., 2, 1] = -y, x
    return S


def small_angle_quat(dtheta):
    """First-order perturbation quaternion [1, dtheta/2], normalized."""
    dtheta = np.asarray(dtheta, dtype=float)
    one = np.ones(dtheta.shape[:-1] + (1,))
    return quat_normalize(np.concatenate([one, 0.5 * dtheta], axis=-1))


def tangent_basis(g_dir):
    """Two orthonormal vectors spanning the plane orthogonal to unit vector g_dir.

    b1 = normalize(g_dir x pivot) with pivot = (1,0,0), falling back to (0,0,1)
    when g_dir is nearly parallel to the x axis; b2 = g_dir x b1.
    """
    g = np.asarray(g_dir, dtype=float)
    n = np.linalg.norm(g, axis=-1)
    if np.any(np.abs(n - 1.0) > 1e-6):
        raise ValueError("tangent_basis expects a unit vector")
    pivot_x = np.zeros_like(g)
    pivot_x[..., 0] = 1.0
    pivot_z = np.zeros_like(g)
    pivot_z[..., 2] = 1.0
    use_z = (np.abs(g[..., 0]) > 1.0 - 1e-6)[..., None]
    pivot = np.where(use_z, pivot_z, pivot_x)
    b1 = cross(g, pivot)
    b1 = b1 / np.linalg.norm(b1, axis=-1, keepdims=True)
    b2 = cross(g, b1)
    return b1, b2


def rot_zyx(roll, pitch, yaw) -> np.ndarray:
    """R = Rz(yaw) @ Ry(pitch) @ Rx(roll); broadcasts over arrays of angles."""
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    R = np.empty(np.broadcast(cr, cp, cy).shape + (3, 3))
    R[..., 0, 0] = cy * cp
    R[..., 0, 1] = cy * sp * sr - sy * cr
    R[..., 0, 2] = cy * sp * cr + sy * sr
    R[..., 1, 0] = sy * cp
    R[..., 1, 1] = sy * sp * sr + cy * cr
    R[..., 1, 2] = sy * sp * cr - cy * sr
    R[..., 2, 0] = -sp
    R[..., 2, 1] = cp * sr
    R[..., 2, 2] = cp * cr
    return R


def yaw_roll_pitch_decompose(q):
    """Decompose q as Rz(yaw) Ry(pitch) Rx(roll); returns (roll, pitch, yaw).

    Raises GimbalLockError within ~1e-4 rad of pitch = +-90 deg, where yaw and
    roll are no longer separable.
    """
    R = quat_to_rot(q)
    sp = -R[2, 0]
    if abs(sp) > 1.0 - 1e-8 or abs(abs(sp) - 1.0) < 1e-8:
        raise GimbalLockError("pitch too close to +-90 deg")
    pitch = np.arcsin(np.clip(sp, -1.0, 1.0))
    if np.cos(pitch) < 1e-4:
        raise GimbalLockError("pitch too close to +-90 deg")
    roll = np.arctan2(R[2, 1], R[2, 2])
    yaw = np.arctan2(R[1, 0], R[0, 0])
    return float(roll), float(pitch), float(yaw)


def wrap_angle(a):
    """Wrap angle(s) into (-pi, pi]."""
    a = np.asarray(a, dtype=float)
    out = -((-a + np.pi) % (2.0 * np.pi) - np.pi)
    return float(out) if out.ndim == 0 else out
