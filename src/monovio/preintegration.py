"""IMU pre-integration between image frames.

Accumulates buffered IMU samples into relative-motion terms (alpha, beta,
gamma) that are independent of the absolute start state, together with a
15x15 covariance over the error state (d_alpha, d_beta, d_theta, d_ba, d_bw)
and the Jacobian of that error state with respect to the linearization-point
biases. Mean propagation uses the midpoint rule with an exact quaternion
increment; covariance and Jacobian use the first-order (I + F dt) transition.

The accelerometer model is a_hat = R_bw (a_world + g_w) + b_a + n_a with
g_w = (0, 0, +9.81): a resting sensor at identity attitude reads +g on z.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .geometry import (
    quat_exp,
    quat_identity,
    quat_inverse,
    quat_mul,
    quat_to_rot,
    skew,
    small_angle_quat,
)

# g_w of the accelerometer model above
GRAVITY_MAGNITUDE = 9.81  # m/s^2
GRAVITY = np.array([0.0, 0.0, GRAVITY_MAGNITUDE])
GRAVITY.setflags(write=False)  # shared by every module; never modified

MAX_SAMPLE_GAP = 0.1  # seconds; larger steps are rejected as data gaps

# first-order bias correction is valid only near the linearization point;
# beyond these deltas callers should re-propagate
REPROP_ACCEL_THRESHOLD = 0.05  # m/s^2
REPROP_GYRO_THRESHOLD = 0.01  # rad/s

# sanity bounds on bias norms
MAX_ACCEL_BIAS = 2.0  # m/s^2
MAX_GYRO_BIAS = 1.0  # rad/s


class PreintegrationError(ValueError):
    """Invalid sample stream fed to the pre-integrator."""


_EYE3 = np.eye(3)
_EYE15 = np.eye(15)


@dataclass
class ImuSample:
    """One inertial measurement: time (s), specific force (m/s^2), body rate (rad/s)."""

    t: float
    accel: np.ndarray
    gyro: np.ndarray

    def __post_init__(self):
        self.accel = np.asarray(self.accel, dtype=float)
        self.gyro = np.asarray(self.gyro, dtype=float)


@dataclass
class BiasState:
    """Accelerometer and gyroscope biases, checked against the sanity bounds
    when made. Never written in place, so holders share one."""

    accel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gyro: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.accel = np.asarray(self.accel, dtype=float)
        self.gyro = np.asarray(self.gyro, dtype=float)
        self.check(self.accel, self.gyro)

    @staticmethod
    def check(accel, gyro) -> None:
        """Raise ValueError unless every bias row (last axis) is finite and
        inside the sanity bounds MAX_ACCEL_BIAS and MAX_GYRO_BIAS."""
        if not (np.all(np.isfinite(accel)) and np.all(np.isfinite(gyro))):
            raise ValueError("bias must be finite")
        if np.any(np.linalg.norm(accel, axis=-1) >= MAX_ACCEL_BIAS):
            raise ValueError("accelerometer bias exceeds sanity bound")
        if np.any(np.linalg.norm(gyro, axis=-1) >= MAX_GYRO_BIAS):
            raise ValueError("gyroscope bias exceeds sanity bound")


@dataclass
class FrameStates:
    """IMU states x_k = (p, v, q, b_a, b_g) of consecutive frames as stacked
    rows: times t (N,), world positions p (N, 3), attitudes q (N, 4),
    velocities v (N, 3), and accelerometer and gyroscope biases ba, bw (N, 3).
    A single state is one row.

    Row slicing copies, and the window and its solve replace these arrays
    instead of writing into them, so no states handed out alias the
    window's.
    """

    t: np.ndarray
    p: np.ndarray
    q: np.ndarray
    v: np.ndarray
    ba: np.ndarray
    bw: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float).reshape(-1)
        for name, width in (("p", 3), ("q", 4), ("v", 3), ("ba", 3), ("bw", 3)):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float).reshape(-1, width))

    def _arrays(self):
        return self.t, self.p, self.q, self.v, self.ba, self.bw

    def __len__(self) -> int:
        return len(self.t)

    @classmethod
    def _of(cls, arrays) -> "FrameStates":
        """States over arrays that are already float and shaped, which
        __post_init__ would only convert again."""
        out = cls.__new__(cls)
        out.t, out.p, out.q, out.v, out.ba, out.bw = arrays
        return out

    def __getitem__(self, rows: slice) -> "FrameStates":
        """A copy of the rows that a slice selects."""
        return FrameStates._of(a[rows].copy() for a in self._arrays())

    def append(self, other: "FrameStates") -> "FrameStates":
        """These rows followed by other's, in new arrays."""
        return FrameStates._of(map(np.concatenate, zip(self._arrays(), other._arrays())))

    def bias(self, k: int) -> BiasState:
        """Row k's biases, checked against the sanity bounds."""
        return BiasState(self.ba[k], self.bw[k])


@dataclass
class NoiseParams:
    """Continuous-time noise densities, per axis.

    sigma_a / sigma_w are white-noise densities of the accelerometer and
    gyroscope; sigma_ba / sigma_bw are random-walk densities of the biases.
    The per-step discrete covariance is G Q Gt dt, so propagated covariance is
    independent of the IMU rate. Zero densities are allowed for noise-free
    simulation.
    """

    sigma_a: np.ndarray
    sigma_w: np.ndarray
    sigma_ba: np.ndarray
    sigma_bw: np.ndarray

    def __post_init__(self):
        for name in ("sigma_a", "sigma_w", "sigma_ba", "sigma_bw"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.ndim == 0:
                v = np.full(3, float(v))
            if v.shape != (3,) or not np.all(np.isfinite(v)) or np.any(v < 0.0):
                raise ValueError(f"{name} must be non-negative and finite, per axis")
            setattr(self, name, v)

    def q_diag(self) -> np.ndarray:
        """Diagonal of the 12x12 density matrix (variances)."""
        return np.concatenate(
            [self.sigma_a**2, self.sigma_w**2, self.sigma_ba**2, self.sigma_bw**2]
        )


class PreintegratedDelta:
    """Pre-integrated IMU terms between two frame timestamps.

    Built by integrate_segment: the mean (alpha, beta, gamma) is the endpoint
    of midpoint_path over the retained samples, the same path that IMU-rate
    forward propagation composes with; P and J follow that path. Treat as
    immutable once built.
    """

    def __init__(self, lin_bias: BiasState, noise: NoiseParams):
        self.lin_bias = lin_bias
        self.noise = noise
        self.alpha = np.zeros(3)
        self.beta = np.zeros(3)
        self.gamma = quat_identity()
        self.dt_total = 0.0
        self.P = np.zeros((15, 15))
        self.J = np.eye(15)
        self.samples: list[ImuSample] = []
        self._sqrt_info = None  # cached L^-1 of P

    def sqrt_information(self) -> np.ndarray:
        """Whitener L^-1 with L L^T = P (see covariance_sqrt), so that L^-1 r
        is the whitened residual. Computed once."""
        if self._sqrt_info is None:
            L = covariance_sqrt(self.P)
            self._sqrt_info = np.linalg.solve(L, _EYE15)
        return self._sqrt_info

    # Jacobian sub-blocks of Eq-style bias correction
    @property
    def j_alpha_ba(self) -> np.ndarray:
        return self.J[0:3, 9:12]

    @property
    def j_alpha_bw(self) -> np.ndarray:
        return self.J[0:3, 12:15]

    @property
    def j_beta_ba(self) -> np.ndarray:
        return self.J[3:6, 9:12]

    @property
    def j_beta_bw(self) -> np.ndarray:
        return self.J[3:6, 12:15]

    @property
    def j_gamma_bw(self) -> np.ndarray:
        return self.J[6:9, 12:15]

    def bias_delta(self, new_bias: BiasState) -> tuple[np.ndarray, np.ndarray]:
        return new_bias.accel - self.lin_bias.accel, new_bias.gyro - self.lin_bias.gyro

    def correct_for_bias(self, new_bias: BiasState):
        """First-order corrected (alpha, beta, gamma) at a nearby bias."""
        dba, dbw = self.bias_delta(new_bias)
        if not np.any(dba) and not np.any(dbw):
            return self.alpha, self.beta, self.gamma
        alpha = self.alpha + self.j_alpha_ba @ dba + self.j_alpha_bw @ dbw
        beta = self.beta + self.j_beta_ba @ dba + self.j_beta_bw @ dbw
        gamma = quat_mul(self.gamma, small_angle_quat(self.j_gamma_bw @ dbw))
        return alpha, beta, gamma

    def repropagate(self, new_bias: BiasState) -> "PreintegratedDelta":
        """Full re-integration of the retained sample buffer at a new bias."""
        if len(self.samples) < 2:
            raise PreintegrationError("no retained samples to re-propagate")
        return integrate_segment(self.samples, new_bias, self.noise)


def merge_deltas(first: PreintegratedDelta, second: PreintegratedDelta) -> PreintegratedDelta:
    """Pre-integrate the concatenated sample buffers at the first delta's bias.

    The mean path is integrated over the whole buffer, but the covariance
    and Jacobian recursion continues from first.P and first.J over the
    second delta's steps only: the first delta's steps are the same
    operations at the same bias, so the result equals integrate_segment over
    the concatenated buffer bit for bit.
    """
    if not first.samples:
        return second.repropagate(first.lin_bias)
    if not second.samples:
        return first.repropagate(first.lin_bias)
    if abs(first.samples[-1].t - second.samples[0].t) > 1e-9:
        raise PreintegrationError("deltas are not adjacent")
    samples = first.samples + second.samples[1:]
    return _integrate_from(samples, first.lin_bias, first.noise,
                           len(first.samples) - 1, first.P, first.J)


def so3_right_jacobian_batch(rotvecs: np.ndarray) -> np.ndarray:
    """Vectorized right Jacobian over (N, 3) rotation vectors."""
    th = np.linalg.norm(rotvecs, axis=-1)
    K = skew(rotvecs)
    KK = K @ K
    small = th < 1e-6
    ths = np.where(small, 1.0, th)
    c1 = np.where(small, 0.5, (1.0 - np.cos(ths)) / ths**2)
    c2 = np.where(small, 1.0 / 6.0, (ths - np.sin(ths)) / ths**3)
    return _EYE3 - c1[:, None, None] * K + c2[:, None, None] * KK


def _mv(M, x):
    return np.einsum("kij,kj->ki", M, x)


@dataclass
class MidpointPath:
    """Midpoint-rule mean path over N + 1 samples at a fixed bias.

    Row k of alpha, beta, gamma and R is the pre-integrated mean from the
    first sample to sample k (row 0 is the identity). The per-step arrays
    (N rows) and accel hold what the covariance recursion of
    integrate_segment needs.
    """

    t: np.ndarray  # (N + 1,) sample times
    accel: np.ndarray  # (N + 1, 3) bias-corrected specific force
    dt: np.ndarray  # (N,) step lengths
    rotvec: np.ndarray  # (N, 3) midpoint rotation of each step
    dq: np.ndarray  # (N, 4) exact step increment, quat_exp(rotvec)
    alpha: np.ndarray  # (N + 1, 3)
    beta: np.ndarray  # (N + 1, 3)
    gamma: np.ndarray  # (N + 1, 4)
    R: np.ndarray  # (N + 1, 3, 3) attitude matrices of gamma


def midpoint_path(samples: list[ImuSample], bias: BiasState) -> MidpointPath:
    """Validate a sample list and integrate its mean with the midpoint rule.

    The attitude chain gamma_{k+1} = gamma_k (x) exp(w_mid dt) is the only
    sequential part; the midpoint specific force and the cumulative sums for
    beta and alpha are vectorized over all steps.
    """
    ts = np.array([s.t for s in samples])
    dts = np.diff(ts)
    if np.any(dts <= 0.0):
        raise PreintegrationError("non-monotonic timestamps in segment")
    if np.any(dts > MAX_SAMPLE_GAP):
        raise PreintegrationError(f"sample gap exceeds {MAX_SAMPLE_GAP}s")
    acc = np.array([s.accel for s in samples]) - bias.accel
    gyr = np.array([s.gyro for s in samples])
    rotvecs = (0.5 * (gyr[:-1] + gyr[1:]) - bias.gyro) * dts[:, None]
    dqs = quat_exp(rotvecs)

    # Hamilton product on Python floats: per-step numpy calls would cost more
    # than the arithmetic
    gw, gx, gy, gz = 1.0, 0.0, 0.0, 0.0
    chain = [(gw, gx, gy, gz)]
    for dw, dx, dy, dz in dqs.tolist():
        w = gw * dw - gx * dx - gy * dy - gz * dz
        x = gw * dx + gx * dw + gy * dz - gz * dy
        y = gw * dy - gx * dz + gy * dw + gz * dx
        z = gw * dz + gx * dy - gy * dx + gz * dw
        n = math.sqrt(w * w + x * x + y * y + z * z)
        gw, gx, gy, gz = w / n, x / n, y / n, z / n
        chain.append((gw, gx, gy, gz))
    gammas = np.array(chain)
    Rs = quat_to_rot(gammas)

    dv = 0.5 * (_mv(Rs[:-1], acc[:-1]) + _mv(Rs[1:], acc[1:])) * dts[:, None]
    beta = np.zeros((len(ts), 3))
    np.cumsum(dv, axis=0, out=beta[1:])
    alpha = np.zeros((len(ts), 3))
    np.cumsum((beta[:-1] + 0.5 * dv) * dts[:, None], axis=0, out=alpha[1:])
    return MidpointPath(ts, acc, dts, rotvecs, dqs, alpha, beta, gammas, Rs)


def integrate_segment(
    samples: list[ImuSample], bias: BiasState, noise: NoiseParams
) -> PreintegratedDelta:
    """Pre-integrate a sample list at a linearization bias.

    The mean is the endpoint of midpoint_path. Covariance and bias Jacobian
    follow that path with the first-order transition
    P <- A P A^T + (G dt) Qd (G dt)^T, J <- A J, A = I + F dt. Qd is the
    discrete noise covariance Q/dt, so the injected term reduces to
    G Q G^T dt with Q the density matrix.

    Every step's A and injected term is built in one batch from the path's
    arrays (_transition_batch); only the recursion over P and J is a
    sequential loop, one product at a time in step order. A pairwise
    (parallel-prefix) product of the A's would be faster but rounds
    differently, so it is not used.
    """
    if len(samples) < 2:
        return PreintegratedDelta(bias, noise)
    return _integrate_from(samples, bias, noise, 0, np.zeros((15, 15)), np.eye(15))


def _integrate_from(samples, bias, noise, start: int, P, J) -> PreintegratedDelta:
    """integrate_segment with the covariance and Jacobian recursion started
    at step `start` from the P and J that its first `start` steps reach."""
    delta = PreintegratedDelta(bias, noise)
    path = midpoint_path(samples, bias)
    A, Q = _transition_batch(path, noise.q_diag(), start)
    dot = np.dot  # the same BLAS products as @, with less call overhead
    for A_i, Q_i in zip(A, Q):
        P = dot(dot(A_i, P), A_i.T)
        P += Q_i
        P = 0.5 * (P + P.T)  # keep symmetric PSD
        J = dot(A_i, J)

    delta.alpha = path.alpha[-1]
    delta.beta = path.beta[-1]
    delta.gamma = path.gamma[-1]
    delta.dt_total = float(path.t[-1] - path.t[0])
    delta.P = P
    delta.J = J
    delta.samples = list(samples)
    return delta


def _transition_batch(path: MidpointPath, qd: np.ndarray, start: int):
    """Per-step transitions A = I + F dt (N, 15, 15) and injected noise
    (G * (qd dt)) G^T (N, 15, 15) of a midpoint path's steps from `start`
    on, qd being the diagonal of the density matrix. Each step's pair is
    computed from that step's arrays alone, so it is the same whatever
    `start` is.

    F is the discrete transition of the midpoint step; its dt->0 limit is
    the continuous-time error dynamics (alpha row coupled only through
    beta). Exact attitude transport T = dR^T and the SO(3) right Jacobian
    keep the bias Jacobian consistent with finite differences of
    re-propagation at the 1e-4 level.
    """
    dt = path.dt[start:, None, None]
    R0, R1 = path.R[start:-1], path.R[start + 1 :]
    T = np.swapaxes(quat_to_rot(path.dq[start:]), 1, 2)
    Jr = so3_right_jacobian_batch(path.rotvec[start:])
    sk = skew(path.accel[start:])
    R1a1 = R1 @ sk[1:]
    m_theta = -0.5 * (R0 @ sk[:-1] + R1a1 @ T)
    bw_to_amid = (0.5 * dt) * (R1a1 @ Jr)
    R_sum = R0 + R1

    A = np.zeros((len(dt), 15, 15))
    A[:, 0:3, 3:6] = _EYE3
    A[:, 0:3, 6:9] = (0.5 * dt) * m_theta
    A[:, 0:3, 9:12] = (-0.25 * dt) * R_sum
    A[:, 0:3, 12:15] = (0.5 * dt) * bw_to_amid
    A[:, 3:6, 6:9] = m_theta
    A[:, 3:6, 9:12] = -0.5 * R_sum
    A[:, 3:6, 12:15] = bw_to_amid
    A[:, 6:9, 6:9] = (T - _EYE3) / dt
    A[:, 6:9, 12:15] = -Jr
    A *= dt  # F -> F dt
    A.reshape(-1, 225)[:, ::16] += 1.0  # + I

    G = np.zeros((len(dt), 15, 12))
    G[:, 3:6, 0:3] = -R0
    G[:, 6:9, 3:6] = -_EYE3
    G[:, 9:12, 6:9] = _EYE3
    G[:, 12:15, 9:12] = _EYE3
    Q = (G * (qd * dt)) @ np.swapaxes(G, 1, 2)
    return A, Q


def interpolate_sample(s0: ImuSample, s1: ImuSample, t: float) -> ImuSample:
    """Linear interpolation of both channels at a frame-boundary time."""
    if not (s0.t <= t <= s1.t):
        raise PreintegrationError("interpolation time outside sample interval")
    w = 0.0 if s1.t == s0.t else (t - s0.t) / (s1.t - s0.t)
    return ImuSample(t, (1 - w) * s0.accel + w * s1.accel, (1 - w) * s0.gyro + w * s1.gyro)


_sample_time = attrgetter("t")


def segment_samples(samples: list[ImuSample], t0: float, t1: float) -> list[ImuSample]:
    """Samples covering [t0, t1], with boundary samples interpolated at t0 and t1.

    Boundaries within 1e-9 s of a raw sample snap to it (matching the
    adjacency tolerance used when deltas are merged), so segments produced
    from the same boundary time share the identical junction sample.
    """
    if t1 <= t0:
        raise PreintegrationError("empty segment")
    # binary searches over the time-ordered stream: the last sample at or
    # before t0 (+ snap) and the first at or after t1 (- snap)
    i0 = bisect_right(samples, t0 + 1e-9, key=_sample_time) - 1
    i1 = bisect_left(samples, t1 - 1e-9, key=_sample_time)
    if i0 < 0 or i1 >= len(samples):
        raise PreintegrationError("segment extends beyond the sample stream")
    seg: list[ImuSample] = []
    if abs(samples[i0].t - t0) < 1e-9:
        seg.append(samples[i0])
    else:
        seg.append(interpolate_sample(samples[i0], samples[i0 + 1], t0))
    seg += samples[i0 + 1 : i1]
    if abs(samples[i1].t - t1) < 1e-9:
        seg.append(samples[i1])
    else:
        seg.append(interpolate_sample(samples[i1 - 1], samples[i1], t1))
    return seg


def _quat_mat(rows) -> np.ndarray:
    M = np.empty(np.shape(rows[0][0]) + (4, 4))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            M[..., i, j] = entry
    return M


def quat_left_mat(q) -> np.ndarray:
    """4x4 matrix L(q) with L(q) @ p == q (x) p; broadcasts over leading axes."""
    w, x, y, z = (np.asarray(q, dtype=float)[..., i] for i in range(4))
    return _quat_mat([[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x], [z, -y, x, w]])


def quat_right_mat(q) -> np.ndarray:
    """4x4 matrix R(q) with R(q) @ p == p (x) q; broadcasts over leading axes."""
    w, x, y, z = (np.asarray(q, dtype=float)[..., i] for i in range(4))
    return _quat_mat([[w, -x, -y, -z], [x, w, z, -y], [y, -z, w, x], [z, y, -x, w]])


class StackedDeltas:
    """Terms of consecutive deltas stacked along a leading factor axis, for
    imu_residuals_batch and imu_jacobians_batch. Factor k links window
    states k and k + 1."""

    def __init__(self, deltas: list[PreintegratedDelta]):
        self.dt = np.array([d.dt_total for d in deltas])
        self.alpha = np.array([d.alpha for d in deltas]).reshape(-1, 3)
        self.beta = np.array([d.beta for d in deltas]).reshape(-1, 3)
        self.gamma = np.array([d.gamma for d in deltas]).reshape(-1, 4)
        self.lin_ba = np.array([d.lin_bias.accel for d in deltas]).reshape(-1, 3)
        self.lin_bw = np.array([d.lin_bias.gyro for d in deltas]).reshape(-1, 3)
        self.J = np.array([d.J for d in deltas]).reshape(-1, 15, 15)
        self.sqrt_info = np.array([d.sqrt_information() for d in deltas]).reshape(-1, 15, 15)

    def __len__(self) -> int:
        return len(self.dt)


def imu_residuals_batch(st: StackedDeltas, p, q, v, ba, bw, gravity):
    """Residuals of the K factors of st against the window states they link.

    Residual k is the 15-vector (d_alpha, d_beta, d_theta, d_ba, d_bw) of
    factor k, its terms first corrected to state k's bias, against states k
    and k + 1. p, q, v, ba, bw stack the K + 1 window states. Returns the
    residuals (K, 15) and the intermediates that imu_jacobians_batch builds
    the Jacobians at this iterate from.
    """
    g = np.asarray(gravity, dtype=float)
    K = len(st)
    dt = st.dt[:, None]
    Rk_t = np.swapaxes(quat_to_rot(q[:-1]), 1, 2)
    J = st.J

    # first-order bias correction (PreintegratedDelta.correct_for_bias)
    dba = ba[:-1] - st.lin_ba
    dbw = bw[:-1] - st.lin_bw
    alpha_c = st.alpha + _mv(J[:, 0:3, 9:12], dba) + _mv(J[:, 0:3, 12:15], dbw)
    beta_c = st.beta + _mv(J[:, 3:6, 9:12], dba) + _mv(J[:, 3:6, 12:15], dbw)
    phi = _mv(J[:, 6:9, 12:15], dbw)
    gamma_c = quat_mul(st.gamma, small_angle_quat(phi))

    u = p[1:] - p[:-1] + 0.5 * g * dt * dt - v[:-1] * dt
    w = v[1:] + g * dt - v[:-1]
    q_rel = quat_mul(quat_inverse(q[:-1]), q[1:])
    e = quat_mul(q_rel, quat_inverse(gamma_c))

    r = np.empty((K, 15))
    r[:, 0:3] = _mv(Rk_t, u) - alpha_c
    r[:, 3:6] = _mv(Rk_t, w) - beta_c
    r[:, 6:9] = 2.0 * e[:, 1:]
    r[:, 9:12] = ba[1:] - ba[:-1]
    r[:, 12:15] = bw[1:] - bw[:-1]
    return r, (Rk_t, phi, u, w, q_rel, e)


def imu_jacobians_batch(st: StackedDeltas, aux):
    """Jacobians (K, 15, 15) of the residuals imu_residuals_batch returned aux
    with, w.r.t. states k and k + 1: of all of st's factors, or of its
    leading K when aux is cut to its first K rows.

    Per-frame tangent ordering is (dp, dtheta, dv, dba, dbw) with the attitude
    perturbed on the left in the world frame: q <- dq (x) q.
    """
    Rk_t, phi, u, w, q_rel, e = aux
    K = len(Rk_t)
    dt = st.dt[:K, None]
    J = st.J[:K]
    j_gamma_bw = J[:, 6:9, 12:15]
    L = e[:, 0, None, None] * _EYE3 - skew(e[:, 1:])
    LR = L @ Rk_t
    # theta-row bias Jacobian through the normalized correction quaternion
    s_un = np.concatenate([np.ones((K, 1)), 0.5 * phi], axis=1)
    n = np.linalg.norm(s_un, axis=1)
    s_hat = s_un / n[:, None]
    ds_un = np.zeros((K, 4, 3))
    ds_un[:, 1:, :] = 0.5 * j_gamma_bw
    proj = np.eye(4) - s_hat[:, :, None] * s_hat[:, None, :]
    ds = (proj @ ds_un) / n[:, None, None]
    ds[:, 1:, :] *= -1.0  # conjugation
    de_dbw = quat_left_mat(q_rel) @ (quat_right_mat(quat_inverse(st.gamma[:K])) @ ds)

    Jk = np.zeros((K, 15, 15))
    Jk1 = np.zeros((K, 15, 15))
    Jk[:, 0:3, 0:3] = -Rk_t
    Jk[:, 0:3, 3:6] = Rk_t @ skew(u)
    Jk[:, 0:3, 6:9] = -Rk_t * dt[:, :, None]
    Jk[:, 0:3, 9:15] = -J[:, 0:3, 9:15]
    Jk1[:, 0:3, 0:3] = Rk_t
    Jk[:, 3:6, 3:6] = Rk_t @ skew(w)
    Jk[:, 3:6, 6:9] = -Rk_t
    Jk[:, 3:6, 9:15] = -J[:, 3:6, 9:15]
    Jk1[:, 3:6, 6:9] = Rk_t
    Jk[:, 6:9, 3:6] = -LR
    Jk[:, 6:9, 12:15] = 2.0 * de_dbw[:, 1:, :]
    Jk1[:, 6:9, 3:6] = LR
    for a in (9, 12):
        Jk[:, a : a + 3, a : a + 3] = -_EYE3
        Jk1[:, a : a + 3, a : a + 3] = _EYE3
    return Jk, Jk1


def covariance_sqrt(P: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of P after +1e-12 I regularization."""
    P = 0.5 * (P + P.T) + 1e-12 * np.eye(P.shape[0])
    try:
        return np.linalg.cholesky(P)
    except np.linalg.LinAlgError as exc:
        raise PreintegrationError("covariance not positive definite") from exc
