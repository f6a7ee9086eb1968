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
from dataclasses import dataclass, field

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
_EYE6 = np.eye(6)
_EYE15 = np.eye(15)


@dataclass
class ImuSamples:
    """Inertial measurements as stacked rows: times t (N,) in s, specific
    force accel (N, 3) in m/s^2 and body rate gyro (N, 3) in rad/s. Nothing
    writes into the arrays once they are made, so slices and deltas share them.
    """

    t: np.ndarray
    accel: np.ndarray
    gyro: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float).reshape(-1)
        self.accel = np.asarray(self.accel, dtype=float).reshape(-1, 3)
        self.gyro = np.asarray(self.gyro, dtype=float).reshape(-1, 3)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, rows) -> "ImuSamples":
        """The rows that a slice or an index array selects (__post_init__ skipped)."""
        out = ImuSamples.__new__(ImuSamples)
        out.t, out.accel, out.gyro = self.t[rows], self.accel[rows], self.gyro[rows]
        return out


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
        inside the sanity bounds MAX_ACCEL_BIAS and MAX_GYRO_BIAS. The row
        norms take np.linalg.norm's own arithmetic without its per-call
        dispatch, so each bound decision is np.linalg.norm's. A NaN or an
        infinity fails a bound too; only then are the entries tested."""
        norm_a = np.sqrt(np.add.reduce(accel * accel, axis=-1))
        norm_w = np.sqrt(np.add.reduce(gyro * gyro, axis=-1))
        if ((norm_a < MAX_ACCEL_BIAS) & (norm_w < MAX_GYRO_BIAS)).all():
            return
        if not (np.isfinite(accel).all() and np.isfinite(gyro).all()):
            raise ValueError("bias must be finite")
        if not (norm_a < MAX_ACCEL_BIAS).all():
            raise ValueError("accelerometer bias exceeds sanity bound")
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
    of midpoint_path over the retained samples, whose mean rows the delta
    keeps as path: the rows that IMU-rate forward propagation composes with.
    P and J follow that path; P_end is P before its symmetrization, the
    state that a merge continues from. Treat as immutable once built.
    """

    def __init__(self, lin_bias: BiasState, noise: NoiseParams):
        self.lin_bias = lin_bias
        self.noise = noise
        self.alpha = np.zeros(3)
        self.beta = np.zeros(3)
        self.gamma = quat_identity()
        self.dt_total = 0.0
        self.P = np.zeros((15, 15))
        self.P_end = self.P
        self.J = np.eye(15)
        self.samples = ImuSamples((), (), ())
        self.path: MidpointPath | None = None  # mean rows only; None below two samples
        self._sqrt_info = None  # cached L^-1 of P
        self._stack_row = None  # cached row of StackedDeltas

    def sqrt_information(self) -> np.ndarray:
        """Whitener L^-1 with L L^T = P (see covariance_sqrt), so that L^-1 r
        is the whitened residual. Computed once."""
        if self._sqrt_info is None:
            L = covariance_sqrt(self.P)
            self._sqrt_info = np.linalg.solve(L, _EYE15)
        return self._sqrt_info

    def stack_row(self) -> np.ndarray:
        """This delta's row of StackedDeltas (a _STACK_ROW scalar), made once."""
        if self._stack_row is None:
            row = self._stack_row = np.zeros((), _STACK_ROW)
            row["dt"], row["ab"][:3], row["ab"][3:] = self.dt_total, self.alpha, self.beta
            row["lin_b"][:3], row["lin_b"][3:] = self.lin_bias.accel, self.lin_bias.gyro
            row["j_bias"], row["sqrt_info"] = self.J[0:9, 9:15], self.sqrt_information()
            row["gamma_inv_right"] = quat_right_mat(quat_inverse(self.gamma))
        return self._stack_row

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
    """The delta over the concatenated sample buffers, their junction sample
    once, at the first delta's bias: integrate_segment over the whole buffer,
    which continues first's integration over second's samples only. first
    keeps its end state as the recursion left it, and the recursion is
    sequential, so the result is the whole buffer's re-integration bit for
    bit."""
    if not first.samples:
        return second.repropagate(first.lin_bias)
    if not second.samples:
        return first.repropagate(first.lin_bias)
    a, b = first.samples, second.samples
    if abs(a.t[-1] - b.t[0]) > 1e-9:
        raise PreintegrationError("deltas are not adjacent")
    joined = ImuSamples(np.concatenate((a.t, b.t[1:])), np.concatenate((a.accel, b.accel[1:])),
                        np.concatenate((a.gyro, b.gyro[1:])))
    return integrate_segment(joined, first.lin_bias, first.noise, start=first)


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

    Row k of alpha, beta, gamma is the pre-integrated mean from the first
    sample to sample k (row 0 is the identity). The per-step arrays (N rows),
    accel and the attitude matrices R hold what the covariance recursion of
    integrate_segment needs; the path a delta keeps has only its mean rows,
    the others None.
    """

    t: np.ndarray  # (N + 1,) sample times
    alpha: np.ndarray  # (N + 1, 3)
    beta: np.ndarray  # (N + 1, 3)
    gamma: np.ndarray  # (N + 1, 4)
    accel: np.ndarray | None = None  # (N + 1, 3) bias-corrected specific force
    dt: np.ndarray | None = None  # (N,) step lengths
    rotvec: np.ndarray | None = None  # (N, 3) midpoint rotation of each step
    dq: np.ndarray | None = None  # (N, 4) exact step increment, quat_exp(rotvec)
    R: np.ndarray | None = None  # (N + 1, 3, 3) attitude matrices of gamma


def midpoint_path(samples: ImuSamples, bias: BiasState,
                  start: MidpointPath | None = None) -> MidpointPath:
    """Validate a sample stream and integrate its mean with the midpoint rule.

    The attitude chain gamma_{k+1} = gamma_k (x) exp(w_mid dt) is the only
    sequential part; the midpoint specific force and the cumulative sums for
    beta and alpha are vectorized over all steps. With start, a path at the
    same bias whose last sample is samples' first, the chain and the sums
    begin at start's last row instead of the identity, so they round as one
    path over both sample streams would.
    """
    ts = samples.t
    dts = np.diff(ts)
    if np.any(dts <= 0.0):
        raise PreintegrationError("non-monotonic timestamps in segment")
    if np.any(dts > MAX_SAMPLE_GAP):
        raise PreintegrationError(f"sample gap exceeds {MAX_SAMPLE_GAP}s")
    acc = samples.accel - bias.accel
    gyr = samples.gyro
    rotvecs = (0.5 * (gyr[:-1] + gyr[1:]) - bias.gyro) * dts[:, None]
    dqs = quat_exp(rotvecs)

    # Hamilton product on Python floats: per-step numpy calls would cost more
    # than the arithmetic
    gw, gx, gy, gz = (1.0, 0.0, 0.0, 0.0) if start is None else start.gamma[-1].tolist()
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
    beta = _running_sum(None if start is None else start.beta[-1], dv)
    alpha = _running_sum(None if start is None else start.alpha[-1],
                         (beta[:-1] + 0.5 * dv) * dts[:, None])
    return MidpointPath(ts, alpha, beta, gammas, acc, dts, rotvecs, dqs, Rs)


def _running_sum(x0, steps: np.ndarray) -> np.ndarray:
    """Rows x0, x0 + s_0, (x0 + s_0) + s_1, ... of steps (N, 3), summed in
    order; x0 None is zero, which the sums start at without adding it."""
    out = np.zeros((len(steps) + 1, 3))
    if x0 is not None:
        out[0] = x0
        steps = np.concatenate((x0 + steps[:1], steps[1:]))
    np.cumsum(steps, axis=0, out=out[1:])
    return out


def integrate_segment(
    samples: ImuSamples, bias: BiasState, noise: NoiseParams,
    start: PreintegratedDelta | None = None,
) -> PreintegratedDelta:
    """Pre-integrate a sample stream at a linearization bias.

    The mean is the endpoint of midpoint_path. Covariance and bias Jacobian
    follow that path with the first-order transition
    P <- A P A^T + (G dt) Qd (G dt)^T, J <- A J, A = I + F dt. Qd is the
    discrete noise covariance Q/dt, so the injected term reduces to
    G Q G^T dt with Q the density matrix.

    Every step's A and injected term is built in one batch from the path's
    arrays (_transition_batch); only the recursion over P and J is a
    sequential loop, one product at a time in step order. P is symmetrized
    once, after the last step: the recursion keeps it symmetric up to
    rounding, and each step's rounding stays at the 1e-16 relative level.
    A pairwise (parallel-prefix) product of the A's would round J
    differently, so it is not used.

    The delta keeps the end state as the loop left it: the path's last
    rows, J, and P before its symmetrization. start, a delta at this bias
    over the leading samples of samples, lets the integration continue from
    that state over the samples after start's instead of from the first
    sample. Each step depends only on the state before it, so the result
    has the bits of the whole buffer's integration (merge_deltas).
    """
    delta = PreintegratedDelta(bias, noise)
    if len(samples) < 2:
        return delta
    head = 0 if start is None else len(start.samples) - 1
    path = midpoint_path(samples[head:], bias, None if start is None else start.path)
    A, Q = _transition_batch(path, noise.q_diag())
    P, J = (np.zeros((15, 15)), _EYE15) if start is None else (start.P_end, start.J)
    dot = np.dot  # the same BLAS products as @, with less call overhead
    for A_i, Q_i in zip(A, Q):
        P = dot(dot(A_i, P), A_i.T)
        P += Q_i
        J = dot(A_i, J)
    rows = [path.t, path.alpha, path.beta, path.gamma]
    if start is not None:
        kept = start.path
        rows = [np.concatenate((a, b[1:])) for a, b in
                zip((kept.t, kept.alpha, kept.beta, kept.gamma), rows)]

    delta.alpha = rows[1][-1]
    delta.beta = rows[2][-1]
    delta.gamma = rows[3][-1]
    delta.dt_total = float(rows[0][-1] - rows[0][0])
    delta.P_end = P
    delta.P = 0.5 * (P + P.T)
    delta.J = J
    delta.samples = samples
    delta.path = MidpointPath(*rows)
    return delta


def _transition_batch(path: MidpointPath, qd: np.ndarray):
    """Per-step transitions A = I + F dt (N, 15, 15) and injected noise
    (G * (qd dt)) G^T (N, 15, 15) of a midpoint path's steps, qd being the
    diagonal of the density matrix.

    F is the discrete transition of the midpoint step; its dt->0 limit is
    the continuous-time error dynamics (alpha row coupled only through
    beta). Exact attitude transport T = dR^T and the SO(3) right Jacobian
    keep the bias Jacobian consistent with finite differences of
    re-propagation at the 1e-4 level.
    """
    dt = path.dt[:, None, None]
    R0, R1 = path.R[:-1], path.R[1:]
    T = np.swapaxes(quat_to_rot(path.dq), 1, 2)
    Jr = so3_right_jacobian_batch(path.rotvec)
    sk = skew(path.accel)
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


def segment_samples(samples: ImuSamples, t0: float, t1: float) -> ImuSamples:
    """Samples covering [t0, t1], with boundary samples interpolated at t0 and t1.

    Boundaries within 1e-9 s of a raw sample snap to it (matching the
    adjacency tolerance used when deltas are merged), so segments produced
    from the same boundary time share the identical junction sample. The
    segment has at least two rows, even when both ends snap to one sample.
    """
    if t1 <= t0:
        raise PreintegrationError("empty segment")
    # the last sample at or before t0 (+ snap) and the first at or after
    # t1 (- snap) of the time-ordered stream
    i0 = int(np.searchsorted(samples.t, t0 + 1e-9, side="right")) - 1
    i1 = int(np.searchsorted(samples.t, t1 - 1e-9, side="left"))
    if i0 < 0 or i1 >= len(samples):
        raise PreintegrationError("segment extends beyond the sample stream")
    # a copy of rows i0 to i1, which is two rows when both ends snap to one sample
    seg = samples[np.arange(i0, i1 + 1) if i1 > i0 else [i0, i1]]
    for row, ia, tb in ((0, i0, t0), (-1, i1 - 1, t1)):
        if abs(seg.t[row] - tb) >= 1e-9:  # both channels interpolated at tb
            ta, tc = samples.t[ia], samples.t[ia + 1]
            if not (ta <= tb <= tc):
                raise PreintegrationError("interpolation time outside sample interval")
            w = 0.0 if tc == ta else (tb - ta) / (tc - ta)
            seg.t[row] = tb
            seg.accel[row] = (1 - w) * samples.accel[ia] + w * samples.accel[ia + 1]
            seg.gyro[row] = (1 - w) * samples.gyro[ia] + w * samples.gyro[ia + 1]
    return seg


# L(q) and R(q) as entries of q: index table and signs per matrix entry
_QUAT_IDX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_LEFT_SIGN = np.array([[1.0, -1, -1, -1], [1, 1, -1, 1], [1, 1, 1, -1], [1, -1, 1, 1]])
_RIGHT_SIGN = np.array([[1.0, -1, -1, -1], [1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1]])


def quat_left_mat(q) -> np.ndarray:
    """4x4 matrix L(q) with L(q) @ p == q (x) p; broadcasts over leading axes."""
    return np.asarray(q, dtype=float)[..., _QUAT_IDX] * _LEFT_SIGN


def quat_right_mat(q) -> np.ndarray:
    """4x4 matrix R(q) with R(q) @ p == p (x) q; broadcasts over leading axes."""
    return np.asarray(q, dtype=float)[..., _QUAT_IDX] * _RIGHT_SIGN


# a delta's terms as StackedDeltas stacks them; j_bias is d(alpha, beta, theta) / d(b_a, b_w)
_STACK_ROW = np.dtype([("dt", float, (1,)), ("ab", float, (6,)), ("lin_b", float, (6,)),
                       ("j_bias", float, (9, 6)), ("gamma_inv_right", float, (4, 4)),
                       ("sqrt_info", float, (15, 15))])


class StackedDeltas:
    """Terms of consecutive deltas stacked along a leading factor axis, for
    imu_residuals_batch and imu_jacobians_batch, with every array those
    kernels need from the deltas alone built once. Factor k links window
    states k and k + 1."""

    def __init__(self, deltas: list[PreintegratedDelta]):
        K = len(deltas)
        rows = np.array([d.stack_row() for d in deltas], dtype=_STACK_ROW)
        # contiguous copies of the fields; gamma_inv_right maps p -> p (x) gamma^-1
        self.dt, self.ab, self.lin_b, self.j_bias, self.gamma_inv_right, self.sqrt_info = [
            rows[name].copy() for name in _STACK_ROW.names]
        # d[1, -theta/2] / d b_w of the correction quaternion's conjugate
        self.dc_dbw = np.zeros((K, 4, 3))
        self.dc_dbw[:, 1:] = -0.5 * self.j_bias[:, 6:9, 3:6]
        # the Jacobian entries that do not depend on the states: the bias
        # correction's blocks and the bias random walk's -I and I
        self.jacobian_constants = np.zeros((K, 15, 30))
        self.jacobian_constants[:, 0:6, 9:15] = -self.j_bias[:, 0:6]
        self.jacobian_constants[:, 9:15, 9:15] = -_EYE6
        self.jacobian_constants[:, 9:15, 24:30] = _EYE6

    def __len__(self) -> int:
        return len(self.dt)


def imu_residuals_batch(st: StackedDeltas, p, q, v, ba, bw, gravity):
    """Residuals of the K factors of st against the window states they link.

    Residual k is the 15-vector (d_alpha, d_beta, d_theta, d_ba, d_bw) of
    factor k, its terms first corrected to state k's bias, against states k
    and k + 1. p, q, v, ba, bw stack the K + 1 window states. Returns the
    residuals (K, 15) and the intermediates that imu_jacobians_batch builds
    the Jacobians at this iterate from.

    The corrected attitude is gamma (x) s with s the small-angle quaternion
    [1, phi/2] normalized (PreintegratedDelta.correct_for_bias), so the
    attitude error q_k^-1 (x) q_k+1 (x) (gamma (x) s)^-1 is M s^-1 with
    M = R(gamma^-1) L(q_k)^T L(q_k+1); L(q)^T is L(q^-1) for a unit q.
    """
    g = np.asarray(gravity, dtype=float)
    K = len(st)
    dt = st.dt
    Rk = quat_to_rot(q[:-1])
    b = np.concatenate((ba, bw), axis=1)
    # first-order bias correction of alpha, beta and the attitude, one product
    corr = _mv(st.j_bias, b[:-1] - st.lin_b)
    c = np.empty((K, 4))
    c[:, 0] = 1.0
    c[:, 1:] = -0.5 * corr[:, 6:9]
    n = np.sqrt(np.einsum("ki,ki->k", c, c))
    s_inv = c / n[:, None]
    Lq = quat_left_mat(q)
    M = st.gamma_inv_right @ (np.swapaxes(Lq[:-1], 1, 2) @ Lq[1:])
    e = _mv(M, s_inv)

    uw = np.empty((K, 2, 3))  # position and velocity changes, gravity's removed
    uw[:, 0] = p[1:] - p[:-1] + (0.5 * dt * dt) * g - v[:-1] * dt
    uw[:, 1] = v[1:] + g * dt - v[:-1]

    r = np.empty((K, 15))
    r[:, 0:6] = (uw @ Rk).reshape(K, 6) - st.ab - corr[:, 0:6]
    r[:, 6:9] = 2.0 * e[:, 1:]
    r[:, 9:15] = b[1:] - b[:-1]
    return r, (Rk, uw, s_inv, n, M, e)


def imu_jacobians_batch(st: StackedDeltas, aux) -> np.ndarray:
    """Jacobians (K, 15, 30) of the residuals imu_residuals_batch returned aux
    with, w.r.t. states k (columns 0:15) and k + 1 (columns 15:30): of all of
    st's factors, or of its leading K when aux is cut to its first K rows.

    Per-frame tangent ordering is (dp, dtheta, dv, dba, dbw) with the attitude
    perturbed on the left in the world frame: q <- dq (x) q.
    """
    Rk, uw, s_inv, n, M, e = aux
    K = len(Rk)
    Rk_t = np.swapaxes(Rk, 1, 2)
    neg_Rk_t = -Rk_t
    RS = Rk_t[:, None] @ skew(uw)  # R_k^T [u]x and R_k^T [w]x
    LR = (e[:, 0, None, None] * _EYE3 - skew(e[:, 1:])) @ Rk_t
    # theta-row bias Jacobian through the normalized correction quaternion:
    # d(c/|c|) = (I - s^-1 s^-T) dc / |c|
    dc = st.dc_dbw[:K]
    ds_inv = (dc - s_inv[:, :, None] * (s_inv[:, None, :] @ dc)) / n[:, None, None]

    J = st.jacobian_constants[:K].copy()
    J[:, 0:3, 0:3] = neg_Rk_t
    J[:, 0:3, 3:6] = RS[:, 0]
    J[:, 0:3, 6:9] = neg_Rk_t * st.dt[:K, :, None]
    J[:, 0:3, 15:18] = Rk_t
    J[:, 3:6, 3:6] = RS[:, 1]
    J[:, 3:6, 6:9] = neg_Rk_t
    J[:, 3:6, 21:24] = Rk_t
    J[:, 6:9, 3:6] = -LR
    J[:, 6:9, 12:15] = 2.0 * (M[:, 1:] @ ds_inv)
    J[:, 6:9, 18:21] = LR
    return J


def covariance_sqrt(P: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of P after +1e-12 I regularization."""
    P = 0.5 * (P + P.T) + 1e-12 * np.eye(P.shape[0])
    try:
        return np.linalg.cholesky(P)
    except np.linalg.LinAlgError as exc:
        raise PreintegrationError("covariance not positive definite") from exc
