"""Tightly-coupled sliding-window visual-inertial estimator.

Window states (poses, velocities, biases), camera-IMU extrinsic, and feature
inverse depths are jointly optimized by damped Gauss-Newton over prior, IMU,
visual, and loop-closure residuals. Old keyframes are marginalized into a
Gaussian prior with the Schur complement; non-keyframes are dropped with
their inertial data merged into the neighboring pre-integration.

Local parameterization: per frame (dp, dtheta, dv, dba, dbw) with attitude
perturbed on the left in the world frame; extrinsic (dp, dtheta); one inverse
depth per feature. Visual residuals live on the unit sphere, projected onto
the tangent plane of the observed ray.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    quat_angle_between,
    quat_canonical,
    quat_exp,
    quat_inverse,
    quat_mul,
    quat_rotate,
    quat_to_rot,
    skew,
    small_angle_quat,
    tangent_basis,
)
from .initialization import ExtrinsicCalib
from .preintegration import (
    BiasState,
    PreintegratedDelta,
    covariance_sqrt,
    imu_residual_jacobians,
    merge_deltas,
)


class EstimatorError(RuntimeError):
    pass


class TriangulationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# domain types


@dataclass
class ImuFrameState:
    """IMU state at one image time: world pose, velocity, and biases."""

    t: float
    p: np.ndarray
    q: np.ndarray
    v: np.ndarray
    bias: BiasState = field(default_factory=BiasState)

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.q = quat_canonical(np.asarray(self.q, dtype=float))
        self.v = np.asarray(self.v, dtype=float)

    def copy(self) -> "ImuFrameState":
        return ImuFrameState(self.t, self.p.copy(), self.q.copy(), self.v.copy(), self.bias.copy())


@dataclass
class FeatureTrack:
    """Unit-sphere observations of one feature across frames."""

    feature_id: int
    times: list[float] = field(default_factory=list)
    rays: list[np.ndarray] = field(default_factory=list)

    def add(self, t: float, ray) -> None:
        if self.times and t <= self.times[-1]:
            raise ValueError("track timestamps must be strictly increasing")
        ray = np.asarray(ray, dtype=float)
        self.rays.append(ray / np.linalg.norm(ray))
        self.times.append(float(t))

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class Feature:
    """Window-internal feature: per-frame rays plus optimized inverse depth."""

    fid: int
    obs: dict[int, np.ndarray] = field(default_factory=dict)  # frame id -> unit ray
    inv_depth: float | None = None

    def anchor_id(self) -> int:
        return min(self.obs)


@dataclass
class LoopObservationSet:
    """Feature observations made by a loop-closure frame whose pose is constant."""

    q_w_v: np.ndarray
    p_w_v: np.ndarray
    pairs: list[tuple[int, np.ndarray]]  # (feature id, unit ray in loop camera)
    loop_vertex_id: int = -1

    def __post_init__(self):
        self.q_w_v = quat_canonical(np.asarray(self.q_w_v, dtype=float))
        self.p_w_v = np.asarray(self.p_w_v, dtype=float)
        if not self.pairs:
            raise ValueError("loop observation set needs at least one correspondence")


@dataclass
class MarginalizationPrior:
    """Linearized Gaussian prior ||r + H d||^2 over retained states.

    Columns are 15 per frame id (dp, dtheta, dv, dba, dbw) followed by 6
    extrinsic columns; d is the local difference of the current states from
    the stored linearization points.
    """

    frame_ids: list[int]
    lin_frames: dict[int, ImuFrameState]
    lin_extrinsic: ExtrinsicCalib
    r: np.ndarray
    H: np.ndarray

    def dim(self) -> int:
        return self.H.shape[0]

    def columns(self) -> int:
        return self.H.shape[1]


@dataclass
class SolverConfig:
    max_iterations: int = 10
    initial_lambda: float = 1e-4
    lambda_up: float = 10.0
    lambda_down: float = 10.0
    max_damping_retries: int = 8
    rel_cost_tol: float = 1e-6
    abs_cost_tol: float = 1e-16  # already at a zero-residual fixed point
    # keep enough damping that cost-free null-space (gauge) directions cannot
    # wander on numerical noise in the gradient
    min_lambda: float = 1e-7


@dataclass
class SolveReport:
    costs: list[float] = field(default_factory=list)
    iterations: int = 0
    termination: str = ""

    @property
    def initial_cost(self) -> float:
        return self.costs[0] if self.costs else 0.0

    @property
    def final_cost(self) -> float:
        return self.costs[-1] if self.costs else 0.0


@dataclass
class EstimatorConfig:
    window_size: int = 10  # keyframes; the window holds window_size + 1 frames
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 9.81]))
    focal: float = 460.0
    pixel_sigma: float = 1.5  # px-equivalent on the tangent plane
    parallax_px: float = 20.0  # keyframe gate
    min_tracked: int = 30  # keyframe gate
    min_triangulation_parallax_deg: float = 1.0
    max_features: int = 100
    optimize_extrinsic: bool = True
    solver: SolverConfig = field(default_factory=SolverConfig)

    @property
    def obs_sigma(self) -> float:
        return self.pixel_sigma / self.focal


@dataclass
class FailureThresholds:
    min_tracked: int = 20
    position_jump: float = 1.0
    rotation_jump: float = np.deg2rad(30.0)
    bias_accel_jump: float = 0.5
    bias_gyro_jump: float = 0.1
    extrinsic_pos_jump: float = 0.05
    extrinsic_rot_jump: float = np.deg2rad(5.0)


# ---------------------------------------------------------------------------
# free operations


def huber(s: float) -> float:
    """Robust norm on a squared weighted residual: s below 1, 2*sqrt(s)-1 above."""
    if s < 0.0:
        raise ValueError("huber expects a squared norm")
    return s if s <= 1.0 else 2.0 * np.sqrt(s) - 1.0


def huber_weight(s):
    """Gauss-Newton reweighting d rho / d s, on the robust branch 1/sqrt(s)."""
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore"):
        w = np.where(s <= 1.0, 1.0, 1.0 / np.sqrt(np.maximum(s, 1e-300)))
    return w


def robust_cost(s):
    s = np.asarray(s, dtype=float)
    return np.where(s <= 1.0, s, 2.0 * np.sqrt(np.maximum(s, 0.0)) - 1.0)


def keyframe_decision(ray_pairs, q_rel_cam, parallax_px: float = 20.0,
                      min_tracked: int = 30, focal: float = 460.0) -> bool:
    """Keyframe if rotation-compensated average parallax exceeds the threshold
    or too few features are tracked.

    ray_pairs: (ray in last keyframe camera, ray in current camera) per shared
    feature; q_rel_cam rotates current-camera vectors into the keyframe camera
    (from short-term gyro integration), cancelling rotation-induced parallax.
    """
    if len(ray_pairs) < min_tracked:
        return True
    R = quat_to_rot(q_rel_cam)
    total = 0.0
    for u_kf, u_cur in ray_pairs:
        u_comp = R @ u_cur
        c = np.clip(u_kf @ u_comp / (np.linalg.norm(u_kf) * np.linalg.norm(u_comp)), -1, 1)
        total += np.arccos(c)
    avg_px = focal * total / len(ray_pairs)
    return avg_px > parallax_px


def triangulate_feature(rays, cam_q, cam_p, min_parallax_deg: float = 1.0) -> float:
    """Linear (DLT) triangulation; returns inverse depth along the first ray.

    rays are unit vectors in each observing camera; cam_q/cam_p are the
    camera-to-world poses of those cameras.
    """
    rays = np.asarray(rays, dtype=float)
    n = len(rays)
    if n < 2:
        raise TriangulationError("need at least two observations")
    Rs = quat_to_rot(np.asarray(cam_q, dtype=float))
    ps = np.asarray(cam_p, dtype=float)
    # rotation-compensated parallax against the anchor ray
    max_par = 0.0
    for k in range(1, n):
        uk = Rs[0].T @ (Rs[k] @ rays[k])
        max_par = max(max_par, np.arccos(np.clip(rays[0] @ uk, -1, 1)))
    if max_par < np.deg2rad(min_parallax_deg):
        raise TriangulationError("insufficient parallax")
    A = np.zeros((3 * n, 3))
    b = np.zeros(3 * n)
    for k in range(n):
        S = skew(rays[k]) @ Rs[k].T
        A[3 * k : 3 * k + 3] = S
        b[3 * k : 3 * k + 3] = S @ ps[k]
    X, *_ = np.linalg.lstsq(A, b, rcond=None)
    depth = rays[0] @ (Rs[0].T @ (X - ps[0]))
    if depth <= 0.0:
        raise TriangulationError("triangulated point behind the anchor camera")
    return 1.0 / depth


def visual_residual(
    q_i, p_i, q_j, p_j, extrinsic: ExtrinsicCalib, anchor_ray, inv_depth,
    observed_ray, with_jacobians: bool = True,
):
    """Unit-sphere reprojection residual of a feature anchored in camera i and
    observed in camera j, projected on the observed ray's tangent plane.

    Scalar reference for the batched kernel in _WindowProblem, which is what
    the solver and marginalization use.

    Returns (r, jac) where jac maps 'p_i', 'th_i', 'p_j', 'th_j', 'ext_p',
    'ext_th', 'lam' to (2, .) blocks (jac is None without Jacobians).
    """
    R_i = quat_to_rot(q_i)
    R_j = quat_to_rot(q_j)
    R_bc = quat_to_rot(extrinsic.q_b_c)
    p_bc = extrinsic.p_b_c
    u_i = np.asarray(anchor_ray, dtype=float)
    u_j = np.asarray(observed_ray, dtype=float)

    f_ci = u_i / inv_depth
    f_bi = R_bc @ f_ci + p_bc
    f_w = R_i @ f_bi + p_i
    d_j = f_w - np.asarray(p_j, dtype=float)
    f_bj = R_j.T @ d_j
    e_j = f_bj - p_bc
    P = R_bc.T @ e_j
    nP = np.linalg.norm(P)
    if nP < 1e-6:
        raise EstimatorError("feature collapses onto the observing camera center")
    nvec = P / nP
    b1, b2 = tangent_basis(u_j)
    B = np.stack([b1, b2], axis=1)  # (3, 2)
    r = B.T @ (u_j - nvec)
    if not with_jacobians:
        return r, None

    M = -B.T @ (np.eye(3) - np.outer(nvec, nvec)) / nP  # (2, 3): d r / d P
    A = R_bc.T @ R_j.T
    jac = {
        "p_i": M @ A,
        "th_i": -M @ A @ skew(R_i @ f_bi),
        "p_j": -M @ A,
        "th_j": M @ A @ skew(d_j),
        "lam": (M @ A @ R_i @ R_bc @ (-u_i / inv_depth**2)).reshape(2, 1),
        "ext_p": M @ R_bc.T @ (R_j.T @ R_i - np.eye(3)),
        "ext_th": M @ (R_bc.T @ skew(e_j) - A @ R_i @ skew(R_bc @ f_ci)),
    }
    return r, jac


def imu_forward_propagate(state: ImuFrameState, samples, gravity):
    """Dead-reckon IMU-rate states from the latest estimate (midpoint rule).

    Returns a list of (t, p, q, v); biases held at the state's estimates.
    """
    g = np.asarray(gravity, dtype=float)
    ba, bw = state.bias.accel, state.bias.gyro
    p, q, v = state.p.copy(), state.q.copy(), state.v.copy()
    t_prev = state.t
    out = []
    for s0, s1 in zip(samples[:-1], samples[1:]):
        dt = s1.t - s0.t
        if dt <= 0.0:
            raise EstimatorError("timestamp regression in forward propagation")
        if s0.t < t_prev - 1e-9:
            continue
        w_mid = 0.5 * (s0.gyro + s1.gyro) - bw
        q1 = quat_mul(q, quat_exp(w_mid * dt))
        a_w = 0.5 * (quat_rotate(q, s0.accel - ba) + quat_rotate(q1, s1.accel - ba)) - g
        p = p + v * dt + 0.5 * a_w * dt * dt
        v = v + a_w * dt
        q = q1
        out.append((s1.t, p.copy(), q.copy(), v.copy()))
    return out


def detect_failure(
    prev: ImuFrameState,
    cur: ImuFrameState,
    tracked_count: int,
    thresholds: FailureThresholds | None = None,
    prev_extrinsic: ExtrinsicCalib | None = None,
    cur_extrinsic: ExtrinsicCalib | None = None,
):
    """Sanity checks on consecutive estimator outputs; returns (failed, reason)."""
    th = thresholds or FailureThresholds()
    if tracked_count < th.min_tracked:
        return True, "tracking"
    if not (np.all(np.isfinite(cur.p)) and np.all(np.isfinite(cur.v))):
        return True, "numerical"
    if np.linalg.norm(cur.p - prev.p) > th.position_jump:
        return True, "discontinuity"
    if quat_angle_between(prev.q, cur.q) > th.rotation_jump:
        return True, "discontinuity"
    if np.linalg.norm(cur.bias.accel - prev.bias.accel) > th.bias_accel_jump:
        return True, "bias"
    if np.linalg.norm(cur.bias.gyro - prev.bias.gyro) > th.bias_gyro_jump:
        return True, "bias"
    if prev_extrinsic is not None and cur_extrinsic is not None:
        if np.linalg.norm(cur_extrinsic.p_b_c - prev_extrinsic.p_b_c) > th.extrinsic_pos_jump:
            return True, "extrinsic"
        if quat_angle_between(prev_extrinsic.q_b_c, cur_extrinsic.q_b_c) > th.extrinsic_rot_jump:
            return True, "extrinsic"
    return False, None


def schur_complement(H: np.ndarray, b: np.ndarray, n_marg: int):
    """Eliminate the leading n_marg variables of the normal equations.

    Returns (H', b') over the remaining variables such that minimizing the
    reduced quadratic equals minimizing the full one over the eliminated
    variables. Rank-deficient marginal blocks (gauge or zero-information
    directions) are handled by a pseudo-inverse.
    """
    Hmm = 0.5 * (H[:n_marg, :n_marg] + H[:n_marg, :n_marg].T)
    Hmr = H[:n_marg, n_marg:]
    Hrr = H[n_marg:, n_marg:]
    vals, vecs = np.linalg.eigh(Hmm)
    good = vals > max(float(vals.max(initial=0.0)) * 1e-12, 1e-14)
    inv_vals = np.where(good, 1.0 / np.where(good, vals, 1.0), 0.0)
    Hmm_inv = (vecs * inv_vals) @ vecs.T
    H_red = Hrr - Hmr.T @ Hmm_inv @ Hmr
    b_red = b[n_marg:] - Hmr.T @ (Hmm_inv @ b[:n_marg])
    return 0.5 * (H_red + H_red.T), b_red


def information_sqrt(H: np.ndarray, b: np.ndarray):
    """Square-root factorization of a reduced information pair.

    Returns (H_p, r_p) with H_p^T H_p = H and H_p^T r_p = b; near-null
    directions (gauge) are clipped so the prior stays PSD.
    """
    vals, vecs = np.linalg.eigh(0.5 * (H + H.T))
    vmax = max(float(vals.max(initial=0.0)), 0.0)
    keep = vals > max(vmax * 1e-10, 1e-12)
    if not np.any(keep):
        return np.zeros((0, H.shape[0])), np.zeros(0)
    s = np.sqrt(vals[keep])
    U = vecs[:, keep]
    H_p = (U * s).T
    r_p = (U / s).T @ b
    return H_p, r_p


def _theta_difference(q, q_lin):
    """2 vec(q (x) q_lin^-1) with its exact tangent Jacobian.

    For a left perturbation q <- dq (x) q the derivative of the difference is
    w_e I - skew(v_e) with e the error quaternion (identity only at e = 1).
    """
    e = quat_mul(q, quat_inverse(q_lin))
    if e[0] < 0:
        e = -e
    d = 2.0 * e[1:]
    J = e[0] * np.eye(3) - skew(e[1:])
    return d, J


def local_difference(state: ImuFrameState, lin: ImuFrameState, with_jacobian: bool = False):
    """15-vector local difference consistent with the solver parameterization.

    Optionally returns the 15x15 Jacobian of the difference w.r.t. the local
    perturbation of `state` (identity except the attitude block).
    """
    d = np.empty(15)
    d[0:3] = state.p - lin.p
    dth, Jth = _theta_difference(state.q, lin.q)
    d[3:6] = dth
    d[6:9] = state.v - lin.v
    d[9:12] = state.bias.accel - lin.bias.accel
    d[12:15] = state.bias.gyro - lin.bias.gyro
    if not with_jacobian:
        return d
    J = np.eye(15)
    J[3:6, 3:6] = Jth
    return d, J


def extrinsic_difference(ext: ExtrinsicCalib, lin: ExtrinsicCalib, with_jacobian: bool = False):
    d = np.empty(6)
    d[0:3] = ext.p_b_c - lin.p_b_c
    dth, Jth = _theta_difference(ext.q_b_c, lin.q_b_c)
    d[3:6] = dth
    if not with_jacobian:
        return d
    J = np.eye(6)
    J[3:6, 3:6] = Jth
    return d, J


def marginalize_prior_only(prior: MarginalizationPrior, drop_frame_id: int):
    """Remove one frame from a prior by Schur-eliminating its columns."""
    if prior is None or drop_frame_id not in prior.frame_ids:
        return prior
    idx = prior.frame_ids.index(drop_frame_id)
    n_cols = prior.columns()
    drop = np.zeros(n_cols, dtype=bool)
    drop[15 * idx : 15 * idx + 15] = True
    order = np.concatenate([np.where(drop)[0], np.where(~drop)[0]])
    H = prior.H.T @ prior.H
    b = prior.H.T @ prior.r
    H_red, b_red = schur_complement(H[np.ix_(order, order)], b[order], 15)
    Hs, rs = information_sqrt(H_red, b_red)
    if Hs.shape[0] == 0:
        return None
    ids = [fid for fid in prior.frame_ids if fid != drop_frame_id]
    lin = {fid: prior.lin_frames[fid] for fid in ids}
    return MarginalizationPrior(ids, lin, prior.lin_extrinsic, rs, Hs)


# ---------------------------------------------------------------------------
# sliding-window estimator


class SlidingWindowEstimator:
    """Single-writer window state machine: feed frames, solve, slide.

    Read-only snapshots (latest_snapshot) are plain value copies, safe to hand
    to the forward-propagation or pose-graph consumers.
    """

    def __init__(self, config: EstimatorConfig, extrinsic: ExtrinsicCalib):
        self.config = config
        self.extrinsic = extrinsic.copy()
        self.frames: list[ImuFrameState] = []
        self.frame_ids: list[int] = []
        self.keyframe_flags: list[bool] = []
        self.deltas: list[PreintegratedDelta] = []
        self.features: dict[int, Feature] = {}
        self.prior: MarginalizationPrior | None = None
        self._next_frame_id = 0
        self.marginalized_keyframes: list[tuple[int, ImuFrameState]] = []

    @property
    def capacity(self) -> int:
        return self.config.window_size + 1

    def latest(self) -> ImuFrameState:
        return self.frames[-1]

    def latest_snapshot(self) -> ImuFrameState:
        return self.frames[-1].copy()

    def seed(self, states: list[ImuFrameState], deltas: list[PreintegratedDelta]) -> None:
        """Initialize the window from alignment output (all frames keyframes)."""
        if len(states) != len(deltas) + 1:
            raise EstimatorError("seed needs one delta per adjacent pair")
        if len(states) > self.capacity:
            deltas = deltas[-(self.capacity - 1) :]
            states = states[-self.capacity :]
        start = self._next_frame_id
        self.frames = [s.copy() for s in states]
        self.frame_ids = list(range(start, start + len(states)))
        self._next_frame_id = start + len(states)
        self.keyframe_flags = [True] * len(states)
        self.deltas = list(deltas)
        self.features = {}
        self.prior = None

    def observe(self, observations: dict[int, np.ndarray], frame_idx: int = -1) -> None:
        """Attach feature rays observed at a window frame (default: latest)."""
        fid = self.frame_ids[frame_idx]
        for feat_id, ray in observations.items():
            feat = self.features.get(feat_id)
            if feat is None:
                feat = Feature(feat_id)
                self.features[feat_id] = feat
            ray = np.asarray(ray, dtype=float)
            feat.obs[fid] = ray / np.linalg.norm(ray)

    def predict_state(self, delta: PreintegratedDelta) -> ImuFrameState:
        """Propagate the latest state through a pre-integrated delta."""
        last = self.frames[-1]
        g = self.config.gravity
        dt = delta.dt_total
        alpha, beta, gamma = delta.correct_for_bias(last.bias)
        R = quat_to_rot(last.q)
        p = last.p + last.v * dt - 0.5 * g * dt * dt + R @ alpha
        v = last.v - g * dt + R @ beta
        q = quat_canonical(quat_mul(last.q, gamma))
        return ImuFrameState(last.t + dt, p, q, v, last.bias.copy())

    def add_frame(self, t: float, delta: PreintegratedDelta,
                  observations: dict[int, np.ndarray], is_keyframe: bool) -> None:
        """Insert a new frame, sliding the window first when at capacity."""
        if not self.frames:
            raise EstimatorError("seed the window before adding frames")
        if len(self.frames) == self.capacity:
            delta = self._slide(delta)
        state = self.predict_state(delta)
        state.t = t
        fid = self._next_frame_id
        self._next_frame_id += 1
        self.frames.append(state)
        self.frame_ids.append(fid)
        self.keyframe_flags.append(is_keyframe)
        self.deltas.append(delta)
        self.observe(observations)

    def _slide(self, incoming_delta: PreintegratedDelta) -> PreintegratedDelta:
        """Make room per the keyframe policy.

        Latest frame a keyframe: marginalize the oldest frame into the prior.
        Otherwise: drop the latest frame, discard its visual measurements, and
        merge its IMU samples into the incoming delta.
        """
        if self.keyframe_flags[-1]:
            self._marginalize_oldest()
            return incoming_delta
        dropped_id = self.frame_ids.pop()
        self.frames.pop()
        self.keyframe_flags.pop()
        tail_delta = self.deltas.pop()
        self._remove_frame_observations(dropped_id, old_cam_pose=None)
        self.prior = marginalize_prior_only(self.prior, dropped_id)
        return merge_deltas(tail_delta, incoming_delta)

    def _remove_frame_observations(self, frame_id: int, old_cam_pose) -> None:
        dead = []
        for feat_id, feat in self.features.items():
            if frame_id not in feat.obs:
                continue
            was_anchor = feat.anchor_id() == frame_id
            old_ray = feat.obs.pop(frame_id)
            if not feat.obs:
                dead.append(feat_id)
            elif was_anchor and feat.inv_depth is not None:
                if old_cam_pose is None:
                    feat.inv_depth = None
                else:
                    self._transfer_anchor(feat, old_ray, old_cam_pose)
        for feat_id in dead:
            del self.features[feat_id]

    def _transfer_anchor(self, feat: Feature, old_ray: np.ndarray, old_cam_pose) -> None:
        """Re-express an optimized depth in the feature's next observation frame."""
        q_ci, p_ci = old_cam_pose
        new_anchor = feat.anchor_id()
        if new_anchor not in self.frame_ids:
            feat.inv_depth = None
            return
        q_cn, p_cn = self._camera_pose(self.frame_ids.index(new_anchor))
        X = quat_rotate(q_ci, old_ray / feat.inv_depth) + p_ci
        depth = feat.obs[new_anchor] @ quat_rotate(quat_inverse(q_cn), X - p_cn)
        feat.inv_depth = 1.0 / depth if depth > 1e-3 else None

    def _camera_pose(self, idx: int):
        """Camera-to-world pose of window frame idx."""
        f = self.frames[idx]
        q_wc = quat_mul(f.q, self.extrinsic.q_b_c)
        p_wc = f.p + quat_rotate(f.q, self.extrinsic.p_b_c)
        return q_wc, p_wc

    def tracked_feature_count(self) -> int:
        last_id = self.frame_ids[-1]
        return sum(1 for f in self.features.values() if last_id in f.obs)

    # -- feature management ---------------------------------------------------

    def triangulate_new_features(self) -> int:
        """Assign inverse depths to features with enough parallax; returns count."""
        added = 0
        for feat_id in sorted(self.features):
            feat = self.features[feat_id]
            if feat.inv_depth is not None or len(feat.obs) < 2:
                continue
            keys = sorted(k for k in feat.obs if k in self.frame_ids)
            if len(keys) < 2:
                continue
            idxs = [self.frame_ids.index(k) for k in keys]
            rays = [feat.obs[k] for k in keys]
            poses = [self._camera_pose(i) for i in idxs]
            qs = np.array([p[0] for p in poses])
            ps = np.array([p[1] for p in poses])
            try:
                feat.inv_depth = triangulate_feature(
                    rays, qs, ps, self.config.min_triangulation_parallax_deg
                )
                added += 1
            except TriangulationError:
                continue
        return added

    def _optimized_features(self) -> list[Feature]:
        """Features entering the cost: valid depth and at least two window obs."""
        window_ids = set(self.frame_ids)
        feats = []
        for feat_id in sorted(self.features):
            f = self.features[feat_id]
            n_obs = sum(1 for k in f.obs if k in window_ids)
            if f.inv_depth is not None and n_obs >= 2:
                feats.append(f)
        if len(feats) > self.config.max_features:
            feats.sort(key=lambda f: (-len(f.obs), f.fid))
            feats = feats[: self.config.max_features]
            feats.sort(key=lambda f: f.fid)
        return feats

    def prune_bad_depths(self) -> int:
        """Drop depths that collapsed to the clamp or went non-finite."""
        n = 0
        for f in self.features.values():
            if f.inv_depth is not None and (not np.isfinite(f.inv_depth) or f.inv_depth <= 2e-4):
                f.inv_depth = None
                n += 1
        return n

    # -- solving ----------------------------------------------------------------

    def build_and_solve(self, loops=(), fix_extrinsic: bool = False) -> SolveReport:
        """Damped Gauss-Newton over the window; mutates the window state.

        The extrinsic is held constant when fix_extrinsic is set for this
        solve or when the configuration disables its refinement.
        """
        feats = self._optimized_features()
        problem = _WindowProblem(self, feats, list(loops))
        mask = np.ones(problem.dim, dtype=bool)
        if fix_extrinsic or not self.config.optimize_extrinsic:
            mask[problem.ext_col : problem.ext_col + 6] = False
        report = problem.solve(self.config.solver, mask)
        problem.write_back(self)
        self.prune_bad_depths()
        self._refresh_deltas()
        return report

    def _refresh_deltas(self) -> None:
        """Re-propagate deltas whose linearization bias drifted too far."""
        for k, delta in enumerate(self.deltas):
            bias = self.frames[k].bias
            if delta.needs_repropagation(bias):
                self.deltas[k] = delta.repropagate(bias)

    # -- marginalization ----------------------------------------------------------

    def _marginalize_oldest(self) -> None:
        """Schur-marginalize the oldest keyframe and its measurements.

        Every measurement pair of a feature anchored in the departing frame is
        consumed into the prior exactly once: the feature survives with its
        depth transferred to the next observation and only that anchor ray
        retained, so future solves use only not-yet-consumed pairs.
        """
        old_id = self.frame_ids[0]
        marg_feats = [f for f in self._optimized_features() if f.anchor_id() == old_id]
        self.prior = _WindowProblem(self, marg_feats, []).marginalize_frame()
        self.marginalized_keyframes.append((old_id, self.frames[0].copy()))
        old_cam_pose = self._camera_pose(0)
        self.frames.pop(0)
        self.frame_ids.pop(0)
        self.keyframe_flags.pop(0)
        self.deltas.pop(0)
        for feat in marg_feats:
            old_ray = feat.obs.pop(old_id)
            if not feat.obs:
                del self.features[feat.fid]
                continue
            self._transfer_anchor(feat, old_ray, old_cam_pose)
            if feat.inv_depth is None:
                del self.features[feat.fid]
                continue
            new_anchor = feat.anchor_id()
            feat.obs = {new_anchor: feat.obs[new_anchor]}
        self._remove_frame_observations(old_id, old_cam_pose)

    def pop_marginalized_keyframes(self) -> list[tuple[int, ImuFrameState]]:
        out = self.marginalized_keyframes
        self.marginalized_keyframes = []
        return out


# ---------------------------------------------------------------------------
# dense window problem


class _WindowProblem:
    """Dense normal-equation assembly over one window configuration.

    Variable layout: 15 per frame (dp, dtheta, dv, dba, dbw), then 6 extrinsic,
    then one inverse depth per optimized feature.
    """

    def __init__(self, est: SlidingWindowEstimator, feats: list[Feature],
                 loops: list[LoopObservationSet]):
        self.frame_ids = list(est.frame_ids)
        self.n_frames = len(est.frames)
        self.feats = feats
        self.prior = est.prior
        self.deltas = list(est.deltas)
        self.gravity = est.config.gravity
        self.sigma = est.config.obs_sigma

        self.frames = [f.copy() for f in est.frames]
        self.extrinsic = est.extrinsic.copy()
        self.lam = np.array([f.inv_depth for f in feats], dtype=float)

        self.dim = 15 * self.n_frames + 6 + len(feats)
        self.ext_col = 15 * self.n_frames
        self.feat_col = self.ext_col + 6

        self.whiteners = [covariance_sqrt(d.P) for d in self.deltas]

        id_to_idx = {fid: k for k, fid in enumerate(self.frame_ids)}
        self.id_to_idx = id_to_idx

        anchor_idx, obs_idx, feat_idx, u_anchor, u_obs = [], [], [], [], []
        for fi, feat in enumerate(feats):
            keys = sorted(k for k in feat.obs if k in id_to_idx)
            a = id_to_idx[keys[0]]
            ua = feat.obs[keys[0]]
            for k in keys[1:]:
                anchor_idx.append(a)
                obs_idx.append(id_to_idx[k])
                feat_idx.append(fi)
                u_anchor.append(ua)
                u_obs.append(feat.obs[k])
        self.v_anchor = np.array(anchor_idx, dtype=int)
        self.v_obs = np.array(obs_idx, dtype=int)
        self.v_feat = np.array(feat_idx, dtype=int)
        self.v_ua = np.array(u_anchor, dtype=float).reshape(-1, 3)
        self.v_uo = np.array(u_obs, dtype=float).reshape(-1, 3)

        feat_pos = {f.fid: i for i, f in enumerate(feats)}
        l_feat, l_anchor, l_ua, l_uo, l_R, l_p = [], [], [], [], [], []
        for loop in loops:
            R_v = quat_to_rot(loop.q_w_v)
            for fid, ray in loop.pairs:
                if fid not in feat_pos:
                    continue
                fi = feat_pos[fid]
                feat = feats[fi]
                keys = sorted(k for k in feat.obs if k in id_to_idx)
                l_feat.append(fi)
                l_anchor.append(id_to_idx[keys[0]])
                l_ua.append(feat.obs[keys[0]])
                ray = np.asarray(ray, dtype=float)
                l_uo.append(ray / np.linalg.norm(ray))
                l_R.append(R_v)
                l_p.append(loop.p_w_v)
        self.l_feat = np.array(l_feat, dtype=int)
        self.l_anchor = np.array(l_anchor, dtype=int)
        self.l_ua = np.array(l_ua, dtype=float).reshape(-1, 3)
        self.l_uo = np.array(l_uo, dtype=float).reshape(-1, 3)
        self.l_R = np.array(l_R, dtype=float).reshape(-1, 3, 3)
        self.l_p = np.array(l_p, dtype=float).reshape(-1, 3)

    # -- iterate management ----------------------------------------------------

    def snapshot(self):
        return ([f.copy() for f in self.frames], self.extrinsic.copy(), self.lam.copy())

    def restore(self, snap):
        frames, ext, lam = snap
        self.frames = [f.copy() for f in frames]
        self.extrinsic = ext.copy()
        self.lam = lam.copy()

    def retract(self, dx: np.ndarray) -> None:
        for k, f in enumerate(self.frames):
            base = 15 * k
            f.p = f.p + dx[base : base + 3]
            dth = dx[base + 3 : base + 6]
            if dth[0] or dth[1] or dth[2]:
                f.q = quat_canonical(quat_mul(small_angle_quat(dth), f.q))
            f.v = f.v + dx[base + 6 : base + 9]
            f.bias = BiasState(
                f.bias.accel + dx[base + 9 : base + 12],
                f.bias.gyro + dx[base + 12 : base + 15],
            )
        dpe = dx[self.ext_col : self.ext_col + 3]
        dte = dx[self.ext_col + 3 : self.ext_col + 6]
        if np.any(dpe) or np.any(dte):
            self.extrinsic = ExtrinsicCalib(
                self.extrinsic.p_b_c + dpe,
                quat_canonical(quat_mul(small_angle_quat(dte), self.extrinsic.q_b_c)),
            )
        if len(self.lam):
            self.lam = np.maximum(self.lam + dx[self.feat_col :], 1e-4)

    def write_back(self, est: SlidingWindowEstimator) -> None:
        for k in range(len(est.frames)):
            est.frames[k] = self.frames[k]
        est.extrinsic = self.extrinsic
        for fi, feat in enumerate(self.feats):
            feat.inv_depth = float(self.lam[fi])

    # -- residuals ---------------------------------------------------------------

    def _frame_arrays(self):
        qs = np.array([f.q for f in self.frames])
        return quat_to_rot(qs), np.array([f.p for f in self.frames])

    def _visual_terms(self, anchor, obs_R, obs_p, feat_idx, u_anchor, u_obs, Rw, pw):
        """Whitened tangent-plane residuals plus geometry intermediates."""
        R_bc = quat_to_rot(self.extrinsic.q_b_c)
        p_bc = self.extrinsic.p_b_c
        lam = self.lam[feat_idx]
        f_ci = u_anchor / lam[:, None]
        f_bi = f_ci @ R_bc.T + p_bc
        Ri = Rw[anchor]
        f_w = np.einsum("kab,kb->ka", Ri, f_bi) + pw[anchor]
        d_j = f_w - obs_p
        e_j = np.einsum("kba,kb->ka", obs_R, d_j) - p_bc
        P = e_j @ R_bc
        nP = np.linalg.norm(P, axis=1)
        if np.any(nP < 1e-6):
            raise EstimatorError("feature collapses onto an observing camera center")
        nvec = P / nP[:, None]
        b1, b2 = tangent_basis(u_obs)
        B = np.stack([b1, b2], axis=2)  # (K, 3, 2)
        r = np.einsum("kir,ki->kr", B, u_obs - nvec) / self.sigma
        aux = (R_bc, f_ci, f_bi, Ri, d_j, e_j, nP, nvec, B)
        return r, aux

    def _prior_residual(self, with_jacobian: bool = False):
        """Prior residual r_p + H_p d, optionally with the tangent map D such
        that the Jacobian w.r.t. the local perturbation is H_p @ D."""
        prior = self.prior
        cols = prior.columns()
        d = np.zeros(cols)
        D = np.eye(cols) if with_jacobian else None
        for blk, fid in enumerate(prior.frame_ids):
            if fid not in self.id_to_idx:
                raise EstimatorError("prior references a frame outside the window")
            sl = slice(15 * blk, 15 * blk + 15)
            if with_jacobian:
                d[sl], D[sl, sl] = local_difference(
                    self.frames[self.id_to_idx[fid]], prior.lin_frames[fid], True
                )
            else:
                d[sl] = local_difference(self.frames[self.id_to_idx[fid]], prior.lin_frames[fid])
        if with_jacobian:
            d[-6:], D[-6:, -6:] = extrinsic_difference(self.extrinsic, prior.lin_extrinsic, True)
        else:
            d[-6:] = extrinsic_difference(self.extrinsic, prior.lin_extrinsic)
        r = prior.r + prior.H @ d
        if with_jacobian:
            return r, D
        return r

    def _imu_whitened(self, k: int, with_jacobians: bool):
        r, Jk, Jk1 = imu_residual_jacobians(
            self.deltas[k], self.frames[k], self.frames[k + 1], self.gravity,
            with_jacobians=with_jacobians,
        )
        L = self.whiteners[k]
        rw = np.linalg.solve(L, r)
        if not with_jacobians:
            return rw, None, None
        return rw, np.linalg.solve(L, Jk), np.linalg.solve(L, Jk1)

    def evaluate_cost(self) -> float:
        cost = 0.0
        if self.prior is not None:
            rp = self._prior_residual()
            cost += float(rp @ rp)
        for k in range(len(self.deltas)):
            rw, _, _ = self._imu_whitened(k, with_jacobians=False)
            cost += float(rw @ rw)
        Rw, pw = self._frame_arrays()
        if len(self.v_feat):
            r, _ = self._visual_terms(
                self.v_anchor, Rw[self.v_obs], pw[self.v_obs], self.v_feat,
                self.v_ua, self.v_uo, Rw, pw,
            )
            cost += float(np.sum(robust_cost(np.sum(r * r, axis=1))))
        if len(self.l_feat):
            r, _ = self._visual_terms(
                self.l_anchor, self.l_R, self.l_p, self.l_feat, self.l_ua,
                self.l_uo, Rw, pw,
            )
            cost += float(np.sum(robust_cost(np.sum(r * r, axis=1))))
        return cost

    # -- assembly -----------------------------------------------------------------

    def _visual_jacobian(self, anchor, obs_idx, obs_R, obs_p, feat_idx,
                         u_anchor, u_obs, Rw, pw):
        """Whitened residuals, stacked Jacobian blocks, and column indices."""
        r, aux = self._visual_terms(anchor, obs_R, obs_p, feat_idx, u_anchor, u_obs, Rw, pw)
        R_bc, f_ci, f_bi, Ri, d_j, e_j, nP, nvec, B = aux
        K = len(feat_idx)
        I3 = np.eye(3)

        proj = I3[None, :, :] - nvec[:, :, None] * nvec[:, None, :]
        M = -np.einsum("kir,kij->krj", B, proj) / (nP[:, None, None] * self.sigma)
        # A = R_bc^T R_j^T per observation
        A = np.einsum("ab,kcb->kac", R_bc.T, obs_R)
        MA = np.einsum("krj,kja->kra", M, A)

        Ri_fbi = np.einsum("kab,kb->ka", Ri, f_bi)
        J_pi = MA
        J_thi = -np.einsum("kra,kab->krb", MA, skew(Ri_fbi))
        lam = self.lam[feat_idx]
        v_lam = np.einsum(
            "kab,kb->ka", Ri, (u_anchor @ R_bc.T) * (-1.0 / lam**2)[:, None]
        )
        J_lam = np.einsum("kra,ka->kr", MA, v_lam)[:, :, None]
        RjTRi = np.einsum("kba,kbc->kac", obs_R, Ri)
        J_extp = np.einsum(
            "krj,kja->kra", M, np.einsum("ab,kbc->kac", R_bc.T, RjTRi - I3[None])
        )
        term1 = np.einsum(
            "krj,kja->kra", M, np.einsum("ab,kbc->kac", R_bc.T, skew(e_j))
        )
        MARi = np.einsum("kra,kab->krb", MA, Ri)
        term2 = np.einsum("krb,kbc->krc", MARi, skew(f_ci @ R_bc.T))
        J_extth = term1 - term2

        if obs_idx is not None:
            J_pj = -MA
            J_thj = np.einsum("kra,kab->krb", MA, skew(d_j))
            Jfull = np.concatenate([J_pi, J_thi, J_pj, J_thj, J_extp, J_extth, J_lam], axis=2)
            cols = np.empty((K, 19), dtype=int)
            cols[:, 0:3] = 15 * anchor[:, None] + np.arange(3)
            cols[:, 3:6] = 15 * anchor[:, None] + 3 + np.arange(3)
            cols[:, 6:9] = 15 * obs_idx[:, None] + np.arange(3)
            cols[:, 9:12] = 15 * obs_idx[:, None] + 3 + np.arange(3)
            cols[:, 12:18] = self.ext_col + np.arange(6)
            cols[:, 18] = self.feat_col + feat_idx
        else:
            Jfull = np.concatenate([J_pi, J_thi, J_extp, J_extth, J_lam], axis=2)
            cols = np.empty((K, 13), dtype=int)
            cols[:, 0:3] = 15 * anchor[:, None] + np.arange(3)
            cols[:, 3:6] = 15 * anchor[:, None] + 3 + np.arange(3)
            cols[:, 6:12] = self.ext_col + np.arange(6)
            cols[:, 12] = self.feat_col + feat_idx
        return r, Jfull, cols

    def _scatter_visual(self, H, b, r, Jfull, cols) -> float:
        s = np.sum(r * r, axis=1)
        w = huber_weight(s)
        Hb = np.einsum("k,kri,krj->kij", w, Jfull, Jfull)
        bb = np.einsum("k,kri,kr->ki", w, Jfull, r)
        np.add.at(H, (cols[:, :, None], cols[:, None, :]), Hb)
        np.add.at(b, cols, bb)
        return float(np.sum(robust_cost(s)))

    def _add_prior(self, H, b) -> float:
        """Accumulate the marginalization prior; returns its cost."""
        if self.prior is None:
            return 0.0
        rp, D = self._prior_residual(with_jacobian=True)
        cols = []
        for fid in self.prior.frame_ids:
            base = 15 * self.id_to_idx[fid]
            cols.extend(range(base, base + 15))
        cols.extend(range(self.ext_col, self.ext_col + 6))
        cols = np.array(cols, dtype=int)
        Jp = self.prior.H @ D
        H[np.ix_(cols, cols)] += Jp.T @ Jp
        b[cols] += Jp.T @ rp
        return float(rp @ rp)

    def _add_imu(self, H, b, k: int) -> float:
        """Accumulate the IMU factor between frames k and k + 1; returns its cost."""
        rw, Jk, Jk1 = self._imu_whitened(k, with_jacobians=True)
        c0, c1 = 15 * k, 15 * (k + 1)
        H[c0 : c0 + 15, c0 : c0 + 15] += Jk.T @ Jk
        H[c0 : c0 + 15, c1 : c1 + 15] += Jk.T @ Jk1
        H[c1 : c1 + 15, c0 : c0 + 15] += Jk1.T @ Jk
        H[c1 : c1 + 15, c1 : c1 + 15] += Jk1.T @ Jk1
        b[c0 : c0 + 15] += Jk.T @ rw
        b[c1 : c1 + 15] += Jk1.T @ rw
        return float(rw @ rw)

    def _add_visual(self, H, b) -> float:
        """Accumulate the window and loop visual factors; returns their robust cost."""
        cost = 0.0
        Rw, pw = self._frame_arrays()
        if len(self.v_feat):
            r, J, cols = self._visual_jacobian(
                self.v_anchor, self.v_obs, Rw[self.v_obs], pw[self.v_obs],
                self.v_feat, self.v_ua, self.v_uo, Rw, pw,
            )
            cost += self._scatter_visual(H, b, r, J, cols)
        if len(self.l_feat):
            r, J, cols = self._visual_jacobian(
                self.l_anchor, None, self.l_R, self.l_p, self.l_feat,
                self.l_ua, self.l_uo, Rw, pw,
            )
            cost += self._scatter_visual(H, b, r, J, cols)
        return cost

    def assemble(self):
        """Normal equations (H, b) and robustified cost at the current iterate."""
        H = np.zeros((self.dim, self.dim))
        b = np.zeros(self.dim)
        cost = self._add_prior(H, b)
        for k in range(len(self.deltas)):
            cost += self._add_imu(H, b, k)
        cost += self._add_visual(H, b)
        return H, b, cost

    # -- damped Gauss-Newton ---------------------------------------------------

    def solve(self, config: SolverConfig, mask: np.ndarray) -> SolveReport:
        """Damped Gauss-Newton over the variables selected by the boolean mask."""
        report = SolveReport()
        cost = self.evaluate_cost()
        if not np.isfinite(cost):
            raise EstimatorError("non-finite cost at the initial iterate")
        report.costs.append(cost)
        if cost <= config.abs_cost_tol:
            report.termination = "converged"
            return report
        lam = config.initial_lambda
        for _ in range(config.max_iterations):
            H, b, _ = self.assemble()
            Hm = H[np.ix_(mask, mask)]
            bm = b[mask]
            diag = np.diag(Hm).copy()
            diag[diag < 1e-12] = 1e-12
            accepted = False
            rel = 0.0
            for _attempt in range(config.max_damping_retries):
                try:
                    step = np.linalg.solve(Hm + lam * np.diag(diag), -bm)
                except np.linalg.LinAlgError:
                    lam *= config.lambda_up
                    continue
                if not np.all(np.isfinite(step)):
                    raise EstimatorError("non-finite Gauss-Newton step")
                dx = np.zeros(self.dim)
                dx[mask] = step
                snap = self.snapshot()
                self.retract(dx)
                new_cost = self.evaluate_cost()
                if np.isfinite(new_cost) and new_cost <= cost:
                    rel = (cost - new_cost) / max(cost, 1e-30)
                    cost = new_cost
                    report.costs.append(cost)
                    lam = max(lam / config.lambda_down, config.min_lambda)
                    accepted = True
                    break
                self.restore(snap)
                lam *= config.lambda_up
            report.iterations += 1
            if not accepted:
                report.termination = "no_decrease_after_max_damping"
                return report
            if rel < config.rel_cost_tol or cost <= config.abs_cost_tol:
                report.termination = "converged"
                return report
        report.termination = "max_iterations"
        return report

    # -- marginalization ----------------------------------------------------------

    def marginalize_frame(self) -> MarginalizationPrior:
        """New prior from eliminating the oldest frame and the problem's
        features (those anchored in it), consuming the old prior, the oldest
        IMU factor, and those visual factors (robust weights frozen at the
        current estimate)."""
        H = np.zeros((self.dim, self.dim))
        b = np.zeros(self.dim)
        self._add_prior(H, b)
        self._add_imu(H, b, 0)
        self._add_visual(H, b)
        # eliminated block first: [frame 0, depths | frames 1.., extrinsic]
        order = np.r_[0:15, self.feat_col : self.dim, 15 : self.feat_col]
        H_red, b_red = schur_complement(H[np.ix_(order, order)], b[order], 15 + len(self.feats))
        Hp, rp = information_sqrt(H_red, b_red)
        retained_ids = self.frame_ids[1:]
        lin_frames = {fid: f.copy() for fid, f in zip(retained_ids, self.frames[1:])}
        return MarginalizationPrior(retained_ids, lin_frames, self.extrinsic.copy(), rp, Hp)
