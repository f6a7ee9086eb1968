"""Plain-numpy references that tests compare the library's kernels against,
bit for bit where the kernel claims bitwise equality."""

import numpy as np

from monovio.geometry import quat_to_rot, skew
from monovio.preintegration import (
    PreintegrationError,
    interpolate_sample,
    midpoint_path,
    so3_right_jacobian_batch,
)

_EYE3 = np.eye(3)


def integrate_segment_stepwise(samples, bias, noise):
    """(P, J) of integrate_segment, with each step's transition A and
    injected noise built inside the per-step loop, one small product at a
    time."""
    path = midpoint_path(samples, bias)
    Rs = path.R
    Ts = np.swapaxes(quat_to_rot(path.dq), 1, 2)
    Jrs = so3_right_jacobian_batch(path.rotvec)
    sks = skew(path.accel)
    qd = noise.q_diag()

    F = np.zeros((15, 15))
    F[0:3, 3:6] = _EYE3
    G = np.zeros((15, 12))
    G[6:9, 3:6] = -_EYE3
    G[9:12, 6:9] = _EYE3
    G[12:15, 9:12] = _EYE3
    P = np.zeros((15, 15))
    J = np.eye(15)
    for i, dt in enumerate(path.dt.tolist()):
        R0, R1, T = Rs[i], Rs[i + 1], Ts[i]
        R1a1 = R1 @ sks[i + 1]
        m_theta = -0.5 * (R0 @ sks[i] + R1a1 @ T)
        bw_to_amid = (0.5 * dt) * (R1a1 @ Jrs[i])
        R_sum = R0 + R1
        F[0:3, 6:9] = (0.5 * dt) * m_theta
        F[0:3, 9:12] = (-0.25 * dt) * R_sum
        F[0:3, 12:15] = (0.5 * dt) * bw_to_amid
        F[3:6, 6:9] = m_theta
        F[3:6, 9:12] = -0.5 * R_sum
        F[3:6, 12:15] = bw_to_amid
        F[6:9, 6:9] = (T - _EYE3) / dt
        F[6:9, 12:15] = -Jrs[i]
        G[3:6, 0:3] = -R0
        A = F * dt
        A.flat[::16] += 1.0
        P = (A @ P) @ A.T
        P += (G * (qd * dt)) @ G.T
        P = 0.5 * (P + P.T)
        J = A @ J
    return P, J


def quat_rotate_np(q, v):
    """Rotation of v by q through np.cross."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    qv = q[..., 1:]
    t = 2.0 * np.cross(qv, v)
    return v + q[..., :1] * t + np.cross(qv, t)


def tangent_basis_np(g):
    """tangent_basis through np.cross."""
    g = np.asarray(g, dtype=float)
    use_z = (np.abs(g[..., 0]) > 1.0 - 1e-6)[..., None]
    pivot = np.where(use_z, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    b1 = np.cross(g, pivot)
    b1 = b1 / np.linalg.norm(b1, axis=-1, keepdims=True)
    return b1, np.cross(g, b1)


def segment_samples_searchsorted(samples, t0, t1):
    """segment_samples with its boundary indices found by np.searchsorted
    over an array of every sample time."""
    if t1 <= t0:
        raise PreintegrationError("empty segment")
    times = np.array([s.t for s in samples])
    i0 = int(np.searchsorted(times, t0 + 1e-9, side="right")) - 1
    i1 = int(np.searchsorted(times, t1 - 1e-9, side="left"))
    if i0 < 0 or i1 >= len(samples):
        raise PreintegrationError("segment extends beyond the sample stream")
    if abs(samples[i0].t - t0) < 1e-9:
        first = samples[i0]
    else:
        first = interpolate_sample(samples[i0], samples[i0 + 1], t0)
    if abs(samples[i1].t - t1) < 1e-9:
        last = samples[i1]
    else:
        last = interpolate_sample(samples[i1 - 1], samples[i1], t1)
    return [first, *samples[i0 + 1 : i1], last]
