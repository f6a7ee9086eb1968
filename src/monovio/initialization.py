"""Loosely-coupled visual-inertial alignment.

Estimates gyroscope bias, per-frame body velocities, the gravity vector in
the first camera frame, and metric scale by aligning up-to-scale camera
poses with pre-integrated IMU terms, then rotates everything into a
gravity-aligned world frame. Accelerometer bias is held at zero throughout:
it is unobservable against gravity over a short alignment window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    quat_canonical,
    quat_identity,
    quat_inverse,
    quat_mul,
    quat_rotate,
    quat_to_rot,
    tangent_basis,
    yaw_roll_pitch_decompose,
)
from .preintegration import GRAVITY_MAGNITUDE, MAX_GYRO_BIAS, BiasState, FrameStates, PreintegratedDelta

MIN_ROTATION_EXCITATION = np.deg2rad(5.0)  # total rotation across the window
MIN_ACCEL_VARIANCE = 0.05  # (m/s^2)^2 across the window
# gravity refinement stops once the direction moves less than this per step
GRAVITY_DIRECTION_TOL = 1e-5  # rad


class InitializationError(RuntimeError):
    """Alignment cannot proceed (insufficient excitation or degenerate data)."""


@dataclass
class UpToScaleFrame:
    """Camera pose relative to the first camera frame, translation scale-free."""

    t: float
    q_c0_ck: np.ndarray
    p_bar: np.ndarray

    def __post_init__(self):
        self.q_c0_ck = quat_canonical(np.asarray(self.q_c0_ck, dtype=float))
        self.p_bar = np.asarray(self.p_bar, dtype=float)


@dataclass
class ExtrinsicCalib:
    """Camera pose in the body (IMU) frame."""

    p_b_c: np.ndarray
    q_b_c: np.ndarray

    def __post_init__(self):
        self.p_b_c = np.asarray(self.p_b_c, dtype=float)
        self.q_b_c = quat_canonical(np.asarray(self.q_b_c, dtype=float))


@dataclass
class BodyFrames:
    """Up-to-scale body poses in the c0 frame.

    Metric body position is position(s) = s * p_bar_ck - R_c0_bk @ p_b_c, kept
    symbolic in the scale until alignment solves for it.
    """

    t: np.ndarray
    q_c0_bk: np.ndarray  # (N, 4)
    p_bar_ck: np.ndarray  # (N, 3) camera centers, scale-free
    lever: np.ndarray  # (N, 3) -R_c0_bk @ p_b_c

    def position(self, scale: float) -> np.ndarray:
        return scale * self.p_bar_ck + self.lever

    def __len__(self) -> int:
        return len(self.t)


def camera_to_body_poses(frames: list[UpToScaleFrame], extrinsic: ExtrinsicCalib) -> BodyFrames:
    """Rotate up-to-scale camera poses into the body frame.

    q_c0_bk = q_c0_ck (x) q_b_c^-1; translations stay as camera centers with
    the lever-arm term split out so the scale stays symbolic.
    """
    if len(frames) < 2:
        raise InitializationError("need at least two frames")
    q_bc_inv = quat_inverse(extrinsic.q_b_c)
    ts, qs, ps, levers = [], [], [], []
    for f in frames:
        q_c0_bk = quat_canonical(quat_mul(f.q_c0_ck, q_bc_inv))
        ts.append(f.t)
        qs.append(q_c0_bk)
        ps.append(f.p_bar)
        levers.append(-quat_rotate(q_c0_bk, extrinsic.p_b_c))
    return BodyFrames(np.array(ts), np.array(qs), np.array(ps), np.array(levers))


def calibrate_gyro_bias(
    body_rotations: np.ndarray, deltas: list[PreintegratedDelta]
) -> np.ndarray:
    """Least-squares gyro bias from visual relative rotations vs pre-integrated
    rotations, linearized through the gamma bias Jacobian.

    Depends only on relative rotations, so the result is invariant to any
    global rotation of the visual poses. Callers must re-propagate all deltas
    at the returned bias afterwards.
    """
    n_pairs = len(deltas)
    if n_pairs < 3:
        raise InitializationError("need at least three frame pairs")
    if body_rotations.shape[0] != n_pairs + 1:
        raise InitializationError("rotation/delta count mismatch")
    A = np.zeros((3, 3))
    b = np.zeros(3)
    for k, delta in enumerate(deltas):
        q_vis = quat_mul(quat_inverse(body_rotations[k]), body_rotations[k + 1])
        q_err = quat_mul(quat_inverse(delta.gamma), q_vis)
        if q_err[0] < 0:
            q_err = -q_err
        J = delta.j_gamma_bw
        A += J.T @ J
        b += J.T @ (2.0 * q_err[1:])
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e8:
        raise InitializationError("gyro-bias normal equations are rank deficient")
    bias = deltas[0].lin_bias.gyro + np.linalg.solve(A, b)
    if not np.linalg.norm(bias) < MAX_GYRO_BIAS:
        raise InitializationError("gyro bias exceeds its sanity bound")
    return bias


def _alignment_system(body: BodyFrames, deltas: list[PreintegratedDelta], extrinsic: ExtrinsicCalib):
    """Stacked linear system z = H x over x = [v_0..v_n (body), g_c0, s]."""
    n = len(body)
    if n != len(deltas) + 1:
        raise InitializationError("frame/delta count mismatch")
    rows = 6 * (n - 1)
    cols = 3 * n + 4
    H = np.zeros((rows, cols))
    z = np.zeros(rows)
    p_bc = extrinsic.p_b_c
    for k, delta in enumerate(deltas):
        dt = delta.dt_total
        R_bk_c0 = quat_to_rot(body.q_c0_bk[k]).T
        R_c0_bk1 = quat_to_rot(body.q_c0_bk[k + 1])
        r = 6 * k
        # alpha row
        H[r : r + 3, 3 * k : 3 * k + 3] = -np.eye(3) * dt
        H[r : r + 3, 3 * n : 3 * n + 3] = 0.5 * R_bk_c0 * dt * dt
        H[r : r + 3, 3 * n + 3] = R_bk_c0 @ (body.p_bar_ck[k + 1] - body.p_bar_ck[k])
        z[r : r + 3] = delta.alpha - p_bc + R_bk_c0 @ R_c0_bk1 @ p_bc
        # beta row
        H[r + 3 : r + 6, 3 * k : 3 * k + 3] = -np.eye(3)
        H[r + 3 : r + 6, 3 * (k + 1) : 3 * (k + 1) + 3] = R_bk_c0 @ R_c0_bk1
        H[r + 3 : r + 6, 3 * n : 3 * n + 3] = R_bk_c0 * dt
        z[r + 3 : r + 6] = delta.beta
    return H, z


def _check_observability(H: np.ndarray):
    norms = np.linalg.norm(H, axis=0)
    norms[norms < 1e-12] = 1.0
    s = np.linalg.svd(H / norms, compute_uv=False)
    if s[-1] < 1e-8 * s[0]:
        raise InitializationError("alignment unobservable (insufficient excitation)")


def solve_velocity_gravity_scale(
    body: BodyFrames, deltas: list[PreintegratedDelta], extrinsic: ExtrinsicCalib
):
    """Solve Eq-style linear alignment for velocities, gravity in c0, and scale."""
    H, z = _alignment_system(body, deltas, extrinsic)
    _check_observability(H)
    x, *_ = np.linalg.lstsq(H, z, rcond=None)
    n = len(body)
    velocities = x[: 3 * n].reshape(n, 3)
    gravity_c0 = x[3 * n : 3 * n + 3]
    scale = float(x[3 * n + 3])
    if scale <= 0.0:
        raise InitializationError(f"non-positive scale {scale:.4g}")
    return velocities, gravity_c0, scale


def refine_gravity(
    gravity_c0: np.ndarray,
    body: BodyFrames,
    deltas: list[PreintegratedDelta],
    extrinsic: ExtrinsicCalib,
    max_iterations: int = 10,
):
    """Re-solve the alignment with gravity constrained to GRAVITY_MAGNITUDE.

    Gravity is reduced to two tangent-plane displacements around the current
    direction estimate; iterate until the direction converges.
    """
    g0 = np.linalg.norm(gravity_c0)
    if abs(g0 - GRAVITY_MAGNITUDE) > 0.2 * GRAVITY_MAGNITUDE:
        raise InitializationError("gravity estimate too far from nominal magnitude")
    H, z = _alignment_system(body, deltas, extrinsic)
    n = len(body)
    g_cols = slice(3 * n, 3 * n + 3)
    direction = gravity_c0 / g0
    velocities, scale = None, None
    for _ in range(max_iterations):
        b1, b2 = tangent_basis(direction)
        B = np.stack([b1, b2], axis=1)  # (3, 2)
        Hg = H[:, g_cols]
        H2 = np.concatenate([H[:, : 3 * n], Hg @ B, H[:, 3 * n + 3 :]], axis=1)
        z2 = z - Hg @ (GRAVITY_MAGNITUDE * direction)
        x, *_ = np.linalg.lstsq(H2, z2, rcond=None)
        w12 = x[3 * n : 3 * n + 2]
        g_new = GRAVITY_MAGNITUDE * direction + B @ w12
        new_direction = g_new / np.linalg.norm(g_new)
        velocities = x[: 3 * n].reshape(n, 3)
        scale = float(x[3 * n + 2])
        step = np.arccos(np.clip(new_direction @ direction, -1.0, 1.0))
        direction = new_direction
        if step < GRAVITY_DIRECTION_TOL:
            break
    else:
        raise InitializationError("gravity refinement did not converge")
    if scale <= 0.0:
        raise InitializationError(f"non-positive scale {scale:.4g}")
    return GRAVITY_MAGNITUDE * direction, velocities, scale


def gravity_aligning_rotation(gravity_c0: np.ndarray) -> np.ndarray:
    """q_w_c0 rotating the c0-frame gravity onto +z, with yaw pinned to zero."""
    g_dir = gravity_c0 / np.linalg.norm(gravity_c0)
    z = np.array([0.0, 0.0, 1.0])
    c = float(np.clip(g_dir @ z, -1.0, 1.0))
    axis = np.cross(g_dir, z)
    s = np.linalg.norm(axis)
    if s < 1e-12:
        q = quat_identity() if c > 0 else np.array([0.0, 1.0, 0.0, 0.0])
    else:
        angle = np.arctan2(s, c)
        q = np.concatenate([[np.cos(angle / 2)], np.sin(angle / 2) * axis / s])
    # yaw is unobservable from gravity; pin it to zero for determinism
    _, _, yaw = yaw_roll_pitch_decompose(q)
    q_unyaw = np.array([np.cos(-yaw / 2), 0.0, 0.0, np.sin(-yaw / 2)])
    return quat_canonical(quat_mul(q_unyaw, q))


def complete_initialization(
    body: BodyFrames,
    gyro_bias: np.ndarray,
    velocities: np.ndarray,
    gravity_c0: np.ndarray,
    scale: float,
) -> FrameStates:
    """Rotate the aligned solution into the gravity-aligned world frame.

    The states are the sliding-window estimator's seed: metric poses with
    the first body frame at the origin and the gravity vector mapped onto
    (0, 0, g), zero accelerometer bias and gyro_bias in every row.
    """
    q_w_c0 = gravity_aligning_rotation(gravity_c0)
    p_w = quat_rotate(q_w_c0, body.position(scale))
    p_w -= p_w[0]
    q_w = np.array([quat_canonical(quat_mul(q_w_c0, q)) for q in body.q_c0_bk])
    v_w = quat_rotate(q_w_c0, quat_rotate(body.q_c0_bk, velocities))
    bw = np.tile(gyro_bias, (len(body), 1))
    return FrameStates(body.t.copy(), p_w, q_w, v_w, np.zeros_like(p_w), bw)


def excitation_gates(deltas: list[PreintegratedDelta], imu_window) -> bool:
    """True when the window carries enough motion for alignment to be solvable.

    Requires total pre-integrated rotation above MIN_ROTATION_EXCITATION and
    raw accelerometer variance of the ImuSamples imu_window above MIN_ACCEL_VARIANCE.
    """
    total_rot = 0.0
    for d in deltas:
        w = np.clip(abs(d.gamma[0]), -1.0, 1.0)
        total_rot += 2.0 * np.arccos(w)
    if total_rot < MIN_ROTATION_EXCITATION:
        return False
    if len(imu_window) < 2:
        return False
    var = float(np.mean(np.var(imu_window.accel, axis=0)))
    return var > MIN_ACCEL_VARIANCE


def run_alignment(
    frames: list[UpToScaleFrame],
    deltas: list[PreintegratedDelta],
    extrinsic: ExtrinsicCalib,
) -> tuple[FrameStates, list[PreintegratedDelta]]:
    """Full alignment pipeline: gyro bias, linear solve, gravity refinement,
    world-frame completion. Returns the estimator's seed states and the
    deltas re-propagated at their biases as well."""
    body = camera_to_body_poses(frames, extrinsic)
    gyro_bias = calibrate_gyro_bias(body.q_c0_bk, deltas)
    new_bias = BiasState(np.zeros(3), gyro_bias)
    deltas = [d.repropagate(new_bias) for d in deltas]
    _, gravity_c0, _ = solve_velocity_gravity_scale(body, deltas, extrinsic)
    gravity_c0, velocities, scale = refine_gravity(gravity_c0, body, deltas, extrinsic)
    states = complete_initialization(body, gyro_bias, velocities, gravity_c0, scale)
    return states, deltas
