"""Tightly-coupled sliding-window visual-inertial estimator.

Window states (poses, velocities, biases), camera-IMU extrinsic, and feature
inverse depths are jointly optimized by damped Gauss-Newton over prior, IMU,
and visual residuals. A loop-closure frame joins the solve as a frame held at
its past pose, whose feature observations are visual rows like the window's
own. Old keyframes are marginalized into a Gaussian prior with the Schur
complement; non-keyframes are dropped with their inertial data merged into
the neighboring pre-integration. Each damped step eliminates the inverse
depths, whose block of the normal equations is diagonal, and solves the
remaining pose system by Cholesky. Unless a held frame fixes the window's
global position and yaw, a step is taken less its component in those four
unobservable directions.

Local parameterization: per frame (dp, dtheta, dv, dba, dbw) with attitude
perturbed on the left in the world frame; extrinsic (dp, dtheta); one inverse
depth per feature. Visual residuals live on the unit sphere, projected onto
the tangent plane of the observed ray.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import lapack, solve_triangular

from .geometry import (
    quat_angle_between,
    quat_canonical,
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
    GRAVITY,
    REPROP_ACCEL_THRESHOLD,
    REPROP_GYRO_THRESHOLD,
    BiasState,
    FrameStates,
    MidpointPath,
    PreintegratedDelta,
    StackedDeltas,
    imu_jacobians_batch,
    imu_residuals_batch,
    merge_deltas,
    midpoint_path,
)


# damping schedule of the window solve (SolverConfig holds the rest)
INITIAL_LAMBDA = 1e-4
LAMBDA_UP = 10.0
LAMBDA_DOWN = 10.0
MAX_DAMPING_RETRIES = 8
ABS_COST_TOL = 1e-16  # already at a zero-residual fixed point
# keep enough damping that cost-free null-space (gauge) directions cannot
# wander on numerical noise in the gradient
MIN_LAMBDA = 1e-7

MIN_TRIANGULATION_PARALLAX_DEG = 1.0

# detect_failure thresholds on consecutive estimator outputs
FAILURE_MIN_TRACKED = 20
FAILURE_POSITION_JUMP = 1.0
FAILURE_ROTATION_JUMP = np.deg2rad(30.0)
FAILURE_BIAS_ACCEL_JUMP = 0.5
FAILURE_BIAS_GYRO_JUMP = 0.1
FAILURE_EXTRINSIC_POS_JUMP = 0.05
FAILURE_EXTRINSIC_ROT_JUMP = np.deg2rad(5.0)


class EstimatorError(RuntimeError):
    pass


class TriangulationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# domain types


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
    """Feature observations made by a loop-closure frame whose pose is
    constant; its rays are normalized once, here, for every solve it joins."""

    q_w_v: np.ndarray
    p_w_v: np.ndarray
    pairs: list[tuple[int, np.ndarray]]  # (feature id, unit ray in loop camera)

    def __post_init__(self):
        self.q_w_v = quat_canonical(np.asarray(self.q_w_v, dtype=float))
        self.p_w_v = np.asarray(self.p_w_v, dtype=float)
        if not self.pairs:
            raise ValueError("loop observation set needs at least one correspondence")
        rays = np.array([ray for _, ray in self.pairs], dtype=float)
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        self.pairs = [(fid, ray) for (fid, _), ray in zip(self.pairs, rays)]


@dataclass
class MarginalizationPrior:
    """Linearized Gaussian prior ||r + H d||^2 over retained states.

    Columns are 15 per frame id (dp, dtheta, dv, dba, dbw) followed by 6
    extrinsic columns; d is the local difference of the current states from
    the stored linearization points.
    """

    frame_ids: list[int]
    lin_states: FrameStates
    lin_extrinsic: ExtrinsicCalib
    r: np.ndarray
    H: np.ndarray


@dataclass
class SolverConfig:
    max_iterations: int = 10
    # a solve stops at the first accepted step that lowers the cost by less
    # than this fraction
    rel_cost_tol: float = 1e-2


@dataclass
class SolveReport:
    costs: list[float] = field(default_factory=list)
    iterations: int = 0
    termination: str = ""


@dataclass
class EstimatorConfig:
    window_size: int = 10  # keyframes; the window holds window_size + 1 frames
    focal: float = 460.0
    pixel_sigma: float = 1.5  # px-equivalent on the tangent plane
    parallax_px: float = 20.0  # keyframe gate
    min_tracked: int = 30  # keyframe gate
    max_features: int = 100
    optimize_extrinsic: bool = True
    solver: SolverConfig = field(default_factory=SolverConfig)

    @property
    def obs_sigma(self) -> float:
        return self.pixel_sigma / self.focal


# ---------------------------------------------------------------------------
# free operations


def huber_weight(s):
    """Gauss-Newton reweighting d rho / d s, on the robust branch 1/sqrt(s)."""
    s = np.asarray(s, dtype=float)
    return np.where(s <= 1.0, 1.0, 1.0 / np.sqrt(np.maximum(s, 1.0)))


def robust_cost(s):
    """Huber norm of a squared weighted residual: s below 1, 2*sqrt(s)-1 above."""
    s = np.asarray(s, dtype=float)
    return np.where(s <= 1.0, s, 2.0 * np.sqrt(np.maximum(s, 0.0)) - 1.0)


def keyframe_decision(ray_pairs, q_rel_cam, parallax_px: float, min_tracked: int,
                      focal: float) -> bool:
    """Keyframe if rotation-compensated average parallax exceeds the threshold
    or too few features are tracked (none at all is always too few).

    ray_pairs: (ray in last keyframe camera, ray in current camera) per shared
    feature; q_rel_cam rotates current-camera vectors into the keyframe camera
    (from short-term gyro integration), cancelling rotation-induced parallax.
    """
    if not ray_pairs or len(ray_pairs) < min_tracked:
        return True
    u_kf, u_cur = np.swapaxes(np.asarray(ray_pairs, dtype=float), 0, 1)
    u_comp = u_cur @ quat_to_rot(q_rel_cam).T
    c = np.einsum("ki,ki->k", u_kf, u_comp) / (
        np.linalg.norm(u_kf, axis=1) * np.linalg.norm(u_comp, axis=1))
    avg_px = focal * np.arccos(np.clip(c, -1, 1)).sum() / len(ray_pairs)
    return avg_px > parallax_px


def triangulate_feature(rays, cam_q, cam_p) -> float:
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
    if max_par < np.deg2rad(MIN_TRIANGULATION_PARALLAX_DEG):
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


def _compose_imu_state(state: FrameStates, dt, alpha, beta, gamma, gravity):
    """World (p, q, v) reached from the last row of state after pre-integrated
    terms spanning dt. Broadcasts over a leading axis of dt, alpha, beta and
    gamma."""
    g = np.asarray(gravity, dtype=float)
    dt = np.asarray(dt, dtype=float)[..., None]
    p0, q0, v0 = state.p[-1], state.q[-1], state.v[-1]
    R_t = quat_to_rot(q0).T
    p = p0 + v0 * dt - 0.5 * g * dt * dt + alpha @ R_t
    v = v0 - g * dt + beta @ R_t
    return p, quat_mul(q0, gamma), v


def imu_forward_propagate(state: FrameStates, samples, gravity, path: MidpointPath | None = None):
    """Dead-reckon IMU-rate states from the latest estimate, the last row of
    state: that state composed with the midpoint path of samples (which
    start at its time) at its biases. Returns the arrays (t, p, q, v), one
    row per sample after the first.

    path, when given, is that midpoint path already built, such as the
    path of a delta that integrate_segment made from samples at state's
    biases; its mean rows are composed with instead of integrating again.
    """
    if path is None:
        path = midpoint_path(samples, state.bias(-1))
    p, q, v = _compose_imu_state(
        state, path.t[1:] - path.t[0], path.alpha[1:], path.beta[1:], path.gamma[1:], gravity
    )
    return path.t[1:], p, q, v


def detect_failure(
    prev: FrameStates,
    cur: FrameStates,
    tracked_count: int,
    prev_extrinsic: ExtrinsicCalib | None = None,
    cur_extrinsic: ExtrinsicCalib | None = None,
):
    """Sanity checks on consecutive estimator outputs, the last rows of prev
    and cur; returns (failed, reason). The position and rotation jumps are
    checked last, so that a caller that excuses a jump (a relocalization
    moves the window) still sees a bias or extrinsic failure."""
    if tracked_count < FAILURE_MIN_TRACKED:
        return True, "tracking"
    if not (np.all(np.isfinite(cur.p[-1])) and np.all(np.isfinite(cur.v[-1]))):
        return True, "numerical"
    if np.linalg.norm(cur.ba[-1] - prev.ba[-1]) > FAILURE_BIAS_ACCEL_JUMP:
        return True, "bias"
    if np.linalg.norm(cur.bw[-1] - prev.bw[-1]) > FAILURE_BIAS_GYRO_JUMP:
        return True, "bias"
    if prev_extrinsic is not None and cur_extrinsic is not None:
        if np.linalg.norm(cur_extrinsic.p_b_c - prev_extrinsic.p_b_c) > FAILURE_EXTRINSIC_POS_JUMP:
            return True, "extrinsic"
        if quat_angle_between(prev_extrinsic.q_b_c, cur_extrinsic.q_b_c) > FAILURE_EXTRINSIC_ROT_JUMP:
            return True, "extrinsic"
    if np.linalg.norm(cur.p[-1] - prev.p[-1]) > FAILURE_POSITION_JUMP:
        return True, "discontinuity"
    if quat_angle_between(prev.q[-1], cur.q[-1]) > FAILURE_ROTATION_JUMP:
        return True, "discontinuity"
    return False, None


def schur_complement(H: np.ndarray, b: np.ndarray, n_marg: int):
    """Eliminate the leading n_marg variables of the normal equations.

    Returns (H', b') over the remaining variables such that minimizing the
    reduced quadratic equals minimizing the full one over the eliminated
    variables. Rank-deficient marginal blocks (gauge or zero-information
    directions) are handled by a pseudo-inverse. H' is symmetric, the one
    new array of its size.
    """
    Hmm = 0.5 * (H[:n_marg, :n_marg] + H[:n_marg, :n_marg].T)
    Hmr = H[:n_marg, n_marg:]
    vals, vecs = np.linalg.eigh(Hmm)
    good = vals > max(float(vals.max(initial=0.0)) * 1e-12, 1e-14)
    inv_vals = np.where(good, 1.0 / np.where(good, vals, 1.0), 0.0)
    Hmm_inv = (vecs * inv_vals) @ vecs.T
    H_red = Hmr.T @ (Hmm_inv @ Hmr)
    np.subtract(H[n_marg:, n_marg:], H_red, out=H_red)
    H_red += H_red.T
    H_red *= 0.5
    b_red = b[n_marg:] - Hmr.T @ (Hmm_inv @ b[:n_marg])
    return H_red, b_red


def information_sqrt(H: np.ndarray, b: np.ndarray):
    """Square-root factorization of a reduced information pair by pivoted
    Cholesky (LAPACK dpstrf), which reads H's lower triangle.

    dpstrf factors P^T H P = L L^T with symmetric pivoting and stops at the
    first pivot below 1e-10 of H's largest diagonal entry; its rank leading
    columns are L_r, whose top rank rows are the triangle L_rr. Returns
    (H_p, r_p) = ((P L_r)^T, L_rr^-1 (P^T b)_r): H_p^T H_p = H less the
    stopped pivots' remainder, H_p^T r_p = b for b in the range of H, and
    the prior's rank is H_p.shape[0]. The prior is PSD by construction; a
    zero H gives a (0, n) prior.
    """
    n = H.shape[0]
    top = float(np.max(np.diagonal(H), initial=0.0))
    if top <= 0.0:
        return np.zeros((0, n)), np.zeros(0)
    c, piv, rank, _ = lapack.dpstrf(H, tol=1e-10 * top, lower=1)
    piv = piv - 1
    L = np.tril(c[:, :rank])
    H_p = np.empty((rank, n))
    H_p[:, piv] = L.T
    r_p = solve_triangular(L[:rank], b[piv[:rank]], lower=True, check_finite=False)
    return H_p, r_p


def _theta_difference(q, q_lin):
    """2 vec(q (x) q_lin^-1) with its exact tangent Jacobian; broadcasts over
    leading axes.

    For a left perturbation q <- dq (x) q the derivative of the difference is
    w_e I - skew(v_e) with e the error quaternion (identity only at e = 1).
    """
    e = quat_mul(q, quat_inverse(q_lin))
    e = e * np.where(e[..., :1] < 0.0, -1.0, 1.0)
    d = 2.0 * e[..., 1:]
    J = e[..., 0, None, None] * np.eye(3) - skew(e[..., 1:])
    return d, J


def local_difference(x: FrameStates, lin: FrameStates):
    """Local differences (N, 15) of the leading N = len(lin) rows of x from
    lin, consistent with the solver parameterization, and the (N, 3, 3)
    attitude blocks of their Jacobians w.r.t. the local perturbation of x
    (the rest of each Jacobian is the identity)."""
    n = len(lin)
    dth, Jth = _theta_difference(x.q[:n], lin.q)
    d = np.concatenate([x.p[:n] - lin.p, dth, x.v[:n] - lin.v, x.ba[:n] - lin.ba,
                        x.bw[:n] - lin.bw], axis=1)
    return d, Jth


def extrinsic_difference(ext: ExtrinsicCalib, lin: ExtrinsicCalib):
    """6-vector counterpart of local_difference for the extrinsic."""
    dth, Jth = _theta_difference(ext.q_b_c, lin.q_b_c)
    return np.concatenate([ext.p_b_c - lin.p_b_c, dth]), Jth


# ---------------------------------------------------------------------------
# sliding-window estimator


class SlidingWindowEstimator:
    """Single-writer window state machine: feed frames, solve, slide.

    The window's frame states are one FrameStates. The states it hands out
    (latest and pop_marginalized_keyframes, one row each, and the prior's
    linearization point) are value copies, safe to hand to the
    forward-propagation or pose-graph consumers.
    """

    def __init__(self, config: EstimatorConfig, extrinsic: ExtrinsicCalib):
        self.config = config
        self.extrinsic = extrinsic  # replaced, never written into
        self.frames = FrameStates([], [], [], [], [], [])
        self.frame_ids: list[int] = []
        self.keyframe_flags: list[bool] = []
        self.deltas: list[PreintegratedDelta] = []
        self.features: dict[int, Feature] = {}
        self.prior: MarginalizationPrior | None = None
        self._pending_prior: tuple[MarginalizationPrior, list[Feature]] | None = None
        self._next_frame_id = 0
        self.marginalized_keyframes: list[tuple[int, FrameStates]] = []

    @property
    def capacity(self) -> int:
        return self.config.window_size + 1

    def latest(self) -> FrameStates:
        """The newest frame's state, one row."""
        return self.frames[-1:]

    def seed(self, states: FrameStates, deltas: list[PreintegratedDelta]) -> None:
        """Initialize the window from alignment output (all frames keyframes)."""
        if len(states) != len(deltas) + 1:
            raise EstimatorError("seed needs one delta per adjacent pair")
        frames = states[-self.capacity :]
        deltas = deltas[len(states) - len(frames) :]
        frames.q = quat_canonical(frames.q)
        BiasState.check(frames.ba, frames.bw)
        start = self._next_frame_id
        self.frames = frames
        self.frame_ids = list(range(start, start + len(frames)))
        self._next_frame_id = start + len(frames)
        self.keyframe_flags = [True] * len(frames)
        self.deltas = list(deltas)
        self.features = {}
        self.prior = self._pending_prior = None

    def observe(self, observations: dict[int, np.ndarray], frame_idx: int = -1) -> None:
        """Attach feature rays observed at a window frame (default: latest),
        normalized as one block."""
        fid = self.frame_ids[frame_idx]
        rays = np.array(list(observations.values()), dtype=float).reshape(-1, 3)
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        for feat_id, ray in zip(observations, rays):
            feat = self.features.get(feat_id)
            if feat is None:
                feat = Feature(feat_id)
                self.features[feat_id] = feat
            feat.obs[fid] = ray

    def add_frame(self, t: float, delta: PreintegratedDelta,
                  observations: dict[int, np.ndarray], is_keyframe: bool) -> None:
        """Insert a new frame at the latest state propagated through delta,
        sliding the window first when at capacity. A slide that marginalizes
        needs a solve since the last slide or seed() (EstimatorError)."""
        if not len(self.frames):
            raise EstimatorError("seed the window before adding frames")
        if len(self.frames) == self.capacity:
            delta = self._slide(delta)
        bias = self.frames.bias(-1)
        alpha, beta, gamma = delta.correct_for_bias(bias)
        p, q, v = _compose_imu_state(self.frames, delta.dt_total, alpha, beta, gamma, GRAVITY)
        self.frames = self.frames.append(
            FrameStates(t, p, quat_canonical(q), v, bias.accel, bias.gyro))
        fid = self._next_frame_id
        self._next_frame_id += 1
        self.frame_ids.append(fid)
        self.keyframe_flags.append(is_keyframe)
        self.deltas.append(delta)
        self.observe(observations)

    def _slide(self, incoming_delta: PreintegratedDelta) -> PreintegratedDelta:
        """Make room per the keyframe policy.

        Latest frame a keyframe: marginalize the oldest frame into the prior.
        Otherwise: drop the latest frame, discard its visual measurements, and
        merge its IMU samples into the incoming delta. The prior stays as it
        is: it never holds the latest frame.
        """
        pending, self._pending_prior = self._pending_prior, None
        if self.keyframe_flags[-1]:
            self._marginalize_oldest(pending)
            return incoming_delta
        dropped_id = self.frame_ids.pop()
        self.frames = self.frames[:-1]
        self.keyframe_flags.pop()
        tail_delta = self.deltas.pop()
        self._remove_frame_observations(dropped_id)
        return merge_deltas(tail_delta, incoming_delta)

    def _remove_frame_observations(self, frame_id: int, cam_poses=None) -> None:
        """Remove a frame's observations. A feature anchored in it keeps its
        depth, transferred to its next observation with cam_poses (see
        _transfer_anchor). Only the oldest frame can anchor a feature that
        other frames observe, so dropping the latest frame needs no poses."""
        dead = []
        for feat_id, feat in self.features.items():
            if frame_id not in feat.obs:
                continue
            was_anchor = feat.anchor_id() == frame_id
            old_ray = feat.obs.pop(frame_id)
            if not feat.obs:
                dead.append(feat_id)
            elif was_anchor and feat.inv_depth is not None:
                self._transfer_anchor(feat, old_ray, cam_poses)
        for feat_id in dead:
            del self.features[feat_id]

    def _transfer_anchor(self, feat: Feature, old_ray: np.ndarray, cam_poses) -> None:
        """Re-express an optimized depth in the feature's next observation
        frame. cam_poses holds the camera poses (q, p) of the frame that
        observed old_ray in row 0, then those of the window's frames."""
        cam_q, cam_p = cam_poses
        new_anchor = feat.anchor_id()
        k = 1 + self.frame_ids.index(new_anchor)
        X = quat_rotate(cam_q[0], old_ray / feat.inv_depth) + cam_p[0]
        depth = feat.obs[new_anchor] @ quat_rotate(quat_inverse(cam_q[k]), X - cam_p[k])
        feat.inv_depth = 1.0 / depth if depth > 1e-3 else None

    def camera_poses(self) -> tuple[np.ndarray, np.ndarray]:
        """Camera-to-world poses of the window's frames: attitudes (N, 4)
        and positions (N, 3), in window order."""
        q, p = self.frames.q, self.frames.p
        return quat_mul(q, self.extrinsic.q_b_c), p + quat_rotate(q, self.extrinsic.p_b_c)

    def tracked_feature_count(self) -> int:
        last_id = self.frame_ids[-1]
        return sum(1 for f in self.features.values() if last_id in f.obs)

    # -- feature management ---------------------------------------------------

    def triangulate_new_features(self) -> int:
        """Assign inverse depths to features with enough parallax; returns count."""
        added = 0
        cam_q, cam_p = self.camera_poses()
        index = {fid: k for k, fid in enumerate(self.frame_ids)}
        for feat_id in sorted(self.features):
            feat = self.features[feat_id]
            if feat.inv_depth is not None or len(feat.obs) < 2:
                continue
            keys = sorted(feat.obs)
            idxs = [index[k] for k in keys]
            rays = [feat.obs[k] for k in keys]
            try:
                feat.inv_depth = triangulate_feature(rays, cam_q[idxs], cam_p[idxs])
                added += 1
            except TriangulationError:
                continue
        return added

    def _optimized_features(self) -> list[Feature]:
        """Features entering the cost: valid depth and at least two window obs."""
        feats = [f for _, f in sorted(self.features.items())
                 if f.inv_depth is not None and len(f.obs) >= 2]
        if len(feats) > self.config.max_features:
            feats.sort(key=lambda f: (-len(f.obs), f.fid))
            feats = feats[: self.config.max_features]
            feats.sort(key=lambda f: f.fid)
        return feats

    def prune_bad_depths(self) -> None:
        """Drop depths that collapsed to the clamp or went non-finite."""
        for f in self.features.values():
            if f.inv_depth is not None and (not np.isfinite(f.inv_depth) or f.inv_depth <= 2e-4):
                f.inv_depth = None

    # -- solving ----------------------------------------------------------------

    def build_and_solve(self, loops=(), fix_extrinsic: bool = False) -> SolveReport:
        """Damped Gauss-Newton over the window; mutates the window state.

        Each loop observation set is a frame held at its constant pose. The
        extrinsic is held constant when fix_extrinsic is set for this solve,
        when the configuration disables its refinement, or when loop sets
        are given: relocalization measures drift, not calibration. A solve
        of a full window ending on a keyframe also takes, from its own
        problem, the prior that the next slide installs.
        """
        feats = self._optimized_features()
        loops = list(loops)
        problem = _WindowProblem(self, feats, loops)
        mask = np.ones(problem.dim, dtype=bool)
        if loops or fix_extrinsic or not self.config.optimize_extrinsic:
            # the held frames' and the extrinsic's columns: one trailing run
            mask[15 * problem.n_frames : problem.feat_col] = False
        report = problem.solve(self.config.solver, mask)
        problem.write_back(self)
        self.prune_bad_depths()
        self._refresh_deltas(problem.imu)
        marginalizes = len(self.frames) == self.capacity and self.keyframe_flags[-1]
        self._pending_prior = problem.marginalize_frame(problem.terms) if marginalizes else None
        return report

    def _refresh_deltas(self, imu: StackedDeltas) -> None:
        """Re-propagate the deltas whose linearization bias, stacked in imu,
        drifted too far from the bias of the frame each starts at."""
        n = len(self.deltas)
        ba, bw = self.frames.ba[:n], self.frames.bw[:n]
        drifted = ((np.linalg.norm(ba - imu.lin_b[:, :3], axis=1) > REPROP_ACCEL_THRESHOLD)
                   | (np.linalg.norm(bw - imu.lin_b[:, 3:], axis=1) > REPROP_GYRO_THRESHOLD))
        for k in np.flatnonzero(drifted):
            self.deltas[k] = self.deltas[k].repropagate(BiasState(ba[k], bw[k]))

    # -- marginalization ----------------------------------------------------------

    def _marginalize_oldest(self, pending) -> None:
        """Install the last solve's prior (build_and_solve); remove the oldest frame.

        Every measurement pair of a feature anchored in the departing frame is
        consumed into the prior exactly once: the feature survives with its
        depth transferred to the next observation and only that anchor ray
        retained, so future solves use only not-yet-consumed pairs.
        """
        if pending is None:
            raise EstimatorError("marginalizing needs a solve of the window since its last slide")
        self.prior, marg_feats = pending
        # the departing frame's camera pose, then the retained frames'
        cam_poses = self.camera_poses()
        old_id = self.frame_ids.pop(0)
        self.marginalized_keyframes.append((old_id, self.frames[:1]))
        self.frames = self.frames[1:]
        self.keyframe_flags.pop(0)
        self.deltas.pop(0)
        for feat in marg_feats:
            self._transfer_anchor(feat, feat.obs.pop(old_id), cam_poses)
            if feat.inv_depth is None:
                del self.features[feat.fid]
            else:  # only the new anchor's ray stays
                feat.obs = {feat.anchor_id(): feat.obs[feat.anchor_id()]}
        self._remove_frame_observations(old_id, cam_poses)

    def pop_marginalized_keyframes(self) -> list[tuple[int, FrameStates]]:
        out, self.marginalized_keyframes = self.marginalized_keyframes, []
        return out


# ---------------------------------------------------------------------------
# window problem on the reduced camera system


@dataclass
class NormalBlocks:
    """Gauss-Newton normal equations of a window, split at the depth columns.

    The full system is [[H_pp, W^T], [W, diag(v)]] with gradient (b_p, b_l):
    H_pp over the 15 per-frame and 6 extrinsic columns, W coupling each
    inverse depth to those columns, and v the depth block, which is diagonal
    because every visual row involves exactly one feature. The visual rows
    reach H_pp and b_p one frame-pair chunk at a time (see
    _WindowProblem._visual_layout), and W, v and b_l one row at a time. The
    blocks of a linearize over a subset of the terms (marginalize_frame's)
    hold those terms only: every other entry is zero.

    The blocks that _WindowProblem.linearize returns are buffers the problem
    owns and refills in place: they are valid until the next linearize on
    the same problem. Copy them to keep them longer.
    """

    H_pp: np.ndarray  # (P, P)
    W: np.ndarray  # (F, P)
    v: np.ndarray  # (F,)
    b_p: np.ndarray  # (P,)
    b_l: np.ndarray  # (F,)


def eliminate_depths(H_pp, b_p, W, b_l, inv_v, A=None, AtA=None):
    """Schur complement of a diagonal depth block given its inverse inv_v:
    the pose-and-extrinsic system (H_pp, b) left after minimizing over the
    depths. H_pp is reduced in place; A and AtA are work arrays of the shapes
    of W and H_pp, allocated when not given."""
    root = np.sqrt(inv_v)
    A = np.multiply(W, root[:, None], out=A)
    H_pp -= np.matmul(A.T, A, out=AtA)
    return H_pp, b_p - A.T @ (root * b_l)


def _free_run(pose_mask: np.ndarray) -> tuple[int, int]:
    """Bounds (lo, hi) of the free pose columns of pose_mask; raises
    ValueError unless they are one contiguous run."""
    free = np.flatnonzero(pose_mask)
    lo, hi = (int(free[0]), int(free[-1]) + 1) if len(free) else (0, 0)
    if hi - lo != len(free):
        raise ValueError("held pose columns must lead or trail the free ones")
    return lo, hi


# visual rows per chunk of the frame-pair layout (see _WindowProblem._visual_layout)
VISUAL_CHUNK_ROWS = 8
_BLOCK36 = np.arange(36).reshape(6, 6)


def _factor_bands(H: np.ndarray, b: np.ndarray, K: int):
    """Writable views of H (P, P) and b (P,) on the (30, 30) and (30,)
    blocks of frames (k, k + 1), k < K: (H_even, H_odd, b_even, b_odd), the
    blocks of the even k and those of the odd k, one per row. Frame k's 15
    columns start at 15 k, and 15 (K + 1) <= P."""
    sr, sc = H.strides
    (sb,) = b.strides
    H_step, b_step = (30 * (sr + sc), sr, sc), (30 * sb, sb)
    return (as_strided(H, ((K + 1) // 2, 30, 30), H_step),
            as_strided(H[15:, 15:], (K // 2, 30, 30), H_step),
            as_strided(b, ((K + 1) // 2, 30), b_step),
            as_strided(b[15:], (K // 2, 30), b_step))


class _WindowProblem:
    """Normal equations over one window configuration, kept as NormalBlocks.

    Variable layout: 15 per frame (dp, dtheta, dv, dba, dbw), first the
    window's frames, then one frame per loop observation set, then 6
    extrinsic (together the feat_col pose columns), then one inverse depth
    per optimized feature. A loop frame's state is its constant pose with
    zero velocity and biases: its correspondences are visual rows it
    observes, and the solve holds its columns.

    evaluate() returns the robust cost at the current iterate with the
    residual terms and geometry intermediates it computed; linearize() turns
    those terms into NormalBlocks without recomputing them, and solve()
    keeps those of its final iterate as terms. The prior's
    columns are the window's leading frames and the extrinsic, and its
    Jacobian is one product over them; all IMU factors go through one batched
    kernel whitened by each delta's cached sqrt_information, its residual
    half in evaluate() and its Jacobian half in linearize(). The visual rows
    are assembled per frame pair: a layout fixed at construction
    (_visual_layout) packs the rows of one pair into chunks whose products are
    summed into H_pp and b_p, while the depth column goes into W, v and b_l
    row by row. The observed rays, and so their tangent bases, are fixed at
    construction too.

    Every iteration writes into buffers that the problem allocates once: the
    NormalBlocks that linearize() zeroes and refills (valid until its next
    call), the visual rows' Jacobian, chunk and product buffers, and
    damped_step's masked system, depth couplings and elimination products.
    """

    def __init__(self, est: SlidingWindowEstimator, feats: list[Feature],
                 loops: list[LoopObservationSet]):
        self.frame_ids = list(est.frame_ids)
        self.n_frames = len(est.frames)
        self.feats = feats
        self.prior = est.prior
        self.deltas = list(est.deltas)
        self.imu = StackedDeltas(self.deltas)
        self.sigma = est.config.obs_sigma

        zeros = np.zeros((len(loops), 3))
        held = FrameStates(np.full(len(loops), np.nan), [loop.p_w_v for loop in loops],
                           [loop.q_w_v for loop in loops], zeros, zeros, zeros)
        self.states = est.frames.append(held)  # the iterate; retract replaces it
        self.extrinsic = est.extrinsic
        self.lam = np.array([f.inv_depth for f in feats], dtype=float)

        self.ext_col = 15 * len(self.states)
        self.feat_col = self.ext_col + 6
        self.dim = self.feat_col + len(feats)

        self.id_to_idx = id_to_idx = {fid: k for k, fid in enumerate(self.frame_ids)}
        feat_pos = {f.fid: i for i, f in enumerate(feats)}
        # visual rows (feature, observer, observed ray): a feature's window
        # observations after its anchor's, then the loop correspondences,
        # each observed by its loop set's frame
        rows = [(fi, id_to_idx[k], feat.obs[k]) for fi, feat in enumerate(feats)
                for k in sorted(feat.obs)[1:]]
        rows += [(feat_pos[fid], self.n_frames + i, ray)
                 for i, loop in enumerate(loops) for fid, ray in loop.pairs if fid in feat_pos]
        anchor_ids = [f.anchor_id() for f in feats]
        self.v_feat = np.array([row[0] for row in rows], dtype=int)
        self.v_obs = np.array([row[1] for row in rows], dtype=int)
        self.v_uo = np.array([row[2] for row in rows], dtype=float).reshape(-1, 3)
        self.v_anchor = np.array([id_to_idx[anchor_ids[fi]] for fi in self.v_feat], dtype=int)
        self.v_ua = np.array([feats[fi].obs[anchor_ids[fi]] for fi in self.v_feat],
                             dtype=float).reshape(-1, 3)
        self.v_B = np.stack(tangent_basis(self.v_uo), axis=2)  # (K, 3, 2)
        self._visual_layout()

        P, F = self.feat_col, len(feats)
        # zeroed by linearize
        self.blocks = NormalBlocks(np.empty((P, P)), np.empty((F, P)), np.empty(F),
                                   np.empty(P), np.empty(F))
        self.imu_bands = _factor_bands(self.blocks.H_pp, self.blocks.b_p, len(self.imu))
        self._step_work = None  # damped_step's buffers, sized by its free columns

        if self.prior is not None:
            # marginalization keeps every frame after the oldest, so the
            # prior's frames lead the window
            ids = self.prior.frame_ids
            if ids != self.frame_ids[: len(ids)]:
                raise EstimatorError("prior frames are not the window's leading frames")

    # -- iterate management ----------------------------------------------------

    # retract replaces the states, the extrinsic and the depths instead of
    # writing into them, so a snapshot shares them
    def snapshot(self):
        return (self.states, self.extrinsic, self.lam)

    def restore(self, snap):
        self.states, self.extrinsic, self.lam = snap

    def retract(self, dx: np.ndarray) -> None:
        """Apply a local step. Raises ValueError, leaving the iterate
        unchanged, when the step takes a bias past BiasState's sanity bound."""
        s = self.states
        d = dx[: self.ext_col].reshape(-1, 15)
        ba = s.ba + d[:, 9:12]
        bw = s.bw + d[:, 12:15]
        BiasState.check(ba, bw)
        q = s.q
        dth = d[:, 3:6]
        turned = np.any(dth != 0.0, axis=1)
        if np.any(turned):
            q = np.where(turned[:, None], quat_canonical(quat_mul(small_angle_quat(dth), q)), q)
        self.states = FrameStates(s.t, s.p + d[:, 0:3], q, s.v + d[:, 6:9], ba, bw)
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
        est.frames = self.states[: self.n_frames]
        est.extrinsic = self.extrinsic
        for fi, feat in enumerate(self.feats):
            feat.inv_depth = float(self.lam[fi])

    # -- evaluation ---------------------------------------------------------------

    def _visual_terms(self, Rw, pw):
        """Whitened tangent-plane residuals of the visual rows plus geometry
        intermediates, given every frame's rotation and position."""
        R_bc = quat_to_rot(self.extrinsic.q_b_c)
        p_bc = self.extrinsic.p_b_c
        lam = self.lam[self.v_feat]
        f_ci = self.v_ua / lam[:, None]
        f_bi = f_ci @ R_bc.T + p_bc
        Ri = Rw[self.v_anchor]
        f_w = np.einsum("kab,kb->ka", Ri, f_bi) + pw[self.v_anchor]
        obs_R = Rw[self.v_obs]
        d_j = f_w - pw[self.v_obs]
        e_j = np.einsum("kba,kb->ka", obs_R, d_j) - p_bc
        P = e_j @ R_bc
        nP = np.linalg.norm(P, axis=1)
        if np.any(nP < 1e-6):
            raise EstimatorError("feature collapses onto an observing camera center")
        nvec = P / nP[:, None]
        r = np.einsum("kir,ki->kr", self.v_B, self.v_uo - nvec) / self.sigma
        aux = (R_bc, lam, f_ci, f_bi, Ri, obs_R, d_j, e_j, nP, nvec)
        return r, aux

    def _prior_residual(self):
        """Prior residual r_p + H_p d and the attitude blocks of the tangent
        map D (identity elsewhere) such that its Jacobian is H_p D: (N, 3, 3)
        for the prior's frames and (3, 3) for the extrinsic."""
        d, Jth = local_difference(self.states, self.prior.lin_states)
        d_ext, J_ext = extrinsic_difference(self.extrinsic, self.prior.lin_extrinsic)
        r = self.prior.r + self.prior.H @ np.concatenate([d.ravel(), d_ext])
        return r, Jth, J_ext

    def _imu_terms(self):
        """Whitened residuals of all IMU factors, and the intermediates that
        their Jacobians w.r.t. frames k and k + 1 are built from."""
        n, s = len(self.imu) + 1, self.states
        r, aux = imu_residuals_batch(
            self.imu, s.p[:n], s.q[:n], s.v[:n], s.ba[:n], s.bw[:n], GRAVITY,
        )
        return np.einsum("kij,kj->ki", self.imu.sqrt_info, r), aux

    def evaluate(self):
        """Robustified cost at the current iterate, and the terms that
        linearize() builds this iterate's normal equations from."""
        prior = None if self.prior is None else self._prior_residual()
        imu = self._imu_terms() if len(self.imu) else None
        visual = None
        if len(self.v_feat):
            r, aux = self._visual_terms(quat_to_rot(self.states.q), self.states.p)
            visual = (r, np.sum(r * r, axis=1), aux)
        cost = (
            (0.0 if prior is None else float(prior[0] @ prior[0]))
            + (0.0 if imu is None else float(np.sum(imu[0] * imu[0])))
            + (0.0 if visual is None else float(np.sum(robust_cost(visual[1]))))
        )
        return cost, (prior, imu, visual)

    # -- linearization --------------------------------------------------------------

    def _visual_layout(self) -> None:
        """Fix where the visual rows go in the normal equations.

        A row's C = 18 pose columns are the 6-column groups of its anchor,
        its observer and the extrinsic, so all rows of one frame pair share
        them; group g starts at column 15 g, the extrinsic counting as the
        frame after the last. The rows of a pair fill chunks of
        VISUAL_CHUNK_ROWS rows in the zero-padded v_chunks, whose padding
        slots are never written. Row k's two residual rows sit at v_slot[k]
        of that buffer seen as (chunks * VISUAL_CHUNK_ROWS, 2, C + 1): the
        whitened pose Jacobian, then the whitened residual. Each chunk's
        product with itself (v_products) gives its Hessian block and
        gradient, and one np.bincount over v_target sums them per entry of
        the distinct 6 x 6 blocks of H_pp that the chunks touch and of the
        groups' 6-segments of b_p (v_h_entries, flat, then v_b_entries); its
        rows are the chunks. The depth column stays per row: v_w_target, one
        row per visual row, sums W per entry (v_w_entries, flat), and the
        rows' features sum v and b_l.
        """
        K, G = len(self.v_feat), len(self.states) + 1
        groups = np.stack([self.v_anchor, self.v_obs, np.full(K, G - 1)], axis=1)  # (K, B)
        B = groups.shape[1]
        C, P, six = 6 * B, self.feat_col, np.arange(6)

        # rows in pair order; each pair starts a new chunk
        pair = groups[:, 0] * G + groups[:, 1]
        order = np.argsort(pair, kind="stable")
        count = np.bincount(pair, minlength=G * G)
        n_chunks = -(-count // VISUAL_CHUNK_ROWS)
        chunk0 = np.cumsum(n_chunks) - n_chunks
        first = np.cumsum(count) - count
        sorted_pair = pair[order]
        slot = np.empty(K, dtype=int)
        slot[order] = (chunk0[sorted_pair] * VISUAL_CHUNK_ROWS
                       + np.arange(K) - first[sorted_pair])
        n = int(n_chunks.sum())
        chunk_groups = np.empty((n, B), dtype=int)
        chunk_groups[slot // VISUAL_CHUNK_ROWS] = groups

        # entry (c, i, j) of the products: H_pp for i, j < C, b_p for the
        # residual column (j = C), nothing for the rest; the sums hold the
        # distinct 6 x 6 blocks of group pairs, then a 6-segment per group
        block_pairs = chunk_groups[:, :, None] * G + chunk_groups[:, None, :]
        blocks, at = np.unique(block_pairs.ravel(), return_inverse=True)
        nh = 36 * len(blocks)
        target = np.full((n, C + 1, C + 1), nh + 6 * G)
        at = (36 * at).reshape(n, B, 1, B, 1) + _BLOCK36[:, None, :]
        target[:, :C, :C] = at.reshape(n, C, C)
        target[:, :C, C] = (nh + 6 * chunk_groups[:, :, None] + six).reshape(n, C)
        bi, bj = np.divmod(blocks, G)
        h_entries = (15 * P * bi + 15 * bj)[:, None] + (six[:, None] * P + six).ravel()

        # W entries: distinct (feature, group) pairs
        fg, w_at = np.unique((self.v_feat[:, None] * G + groups).ravel(), return_inverse=True)
        fi, g = np.divmod(fg, G)
        w_entries = (fi * P + 15 * g)[:, None] + six

        self.v_slot = slot
        self.v_jac = np.empty((K, 2, C + 1))  # the depth column last
        self.v_chunks = np.zeros((n, 2 * VISUAL_CHUNK_ROWS, C + 1))
        self.v_products = np.empty((n, C + 1, C + 1))
        self.v_target = target.reshape(n, -1)
        self.v_h_entries = h_entries.ravel()
        self.v_b_entries = (15 * np.arange(G)[:, None] + six).ravel()
        self.v_w_entries = w_entries.ravel()
        self.v_w_target = (w_at[:, None] * 6 + six).reshape(K, -1)

    def _visual_jacobian(self, aux, J: np.ndarray, rows=None) -> np.ndarray:
        """Whitened Jacobian blocks in the column order of _visual_layout,
        then the feature's depth, of every visual row or of those the index
        rows selects, written into the leading rows of J and returned."""
        R_bc, *per_row = aux
        ua, B = self.v_ua, self.v_B
        if rows is not None:
            per_row, ua, B = [a[rows] for a in per_row], ua[rows], B[rows]
            J = J[: len(rows)]
        lam, f_ci, f_bi, Ri, obs_R, d_j, e_j, nP, nvec = per_row
        # M = d r / d P = -B^T (I - n n^T) / |P|, whitened
        Bt = np.swapaxes(B, 1, 2)
        Btn = np.einsum("kri,ki->kr", Bt, nvec)
        M = (Btn[:, :, None] * nvec[:, None, :] - Bt) / (nP[:, None, None] * self.sigma)
        MRbc = M @ R_bc.T  # d r / d e_j
        MA = MRbc @ np.swapaxes(obs_R, 1, 2)  # d r / d f_w
        MARi = MA @ Ri

        J[:, :, 0:3] = MA
        J[:, :, 3:6] = -MA @ skew(np.einsum("kab,kb->ka", Ri, f_bi))
        J[:, :, 6:9] = -MA
        J[:, :, 9:12] = MA @ skew(d_j)
        J[:, :, 12:15] = MARi - MRbc
        J[:, :, 15:18] = MRbc @ skew(e_j) - MARi @ skew(f_ci @ R_bc.T)
        J[:, :, 18] = np.einsum(
            "krb,kb->kr", MARi, (ua @ R_bc.T) * (-1.0 / lam**2)[:, None]
        )
        return J

    def _add_visual(self, blocks: NormalBlocks, r, s, aux, rows=None) -> None:
        """Accumulate Huber-reweighted visual rows, or those the index rows
        selects: their pose columns chunk by chunk, their depth column row by
        row. A subset zeroes, refills and multiplies only the chunks its rows
        sit in, so the other rows of those chunks hold zeros until the next
        linearize of every row writes them again."""
        J = self._visual_jacobian(aux, self.v_jac, rows)
        slot, feat, w_target = self.v_slot, self.v_feat, self.v_w_target
        at = slice(None)  # the chunks that the rows sit in
        if rows is not None:
            r, s = r[rows], s[rows]
            slot, feat, w_target = slot[rows], feat[rows], w_target[rows]
            at = np.unique(slot // VISUAL_CHUNK_ROWS)
            self.v_chunks[at] = 0.0
        sw = np.sqrt(huber_weight(s))
        J *= sw[:, None, None]
        rw = r * sw[:, None]
        C = J.shape[2] - 1
        Jp, Jl = J[:, :, :C], J[:, :, C]
        chunk_rows = self.v_chunks.reshape(-1, 2, C + 1)
        chunk_rows[slot, :, :C] = Jp
        chunk_rows[slot, :, C] = rw
        chunks = self.v_chunks[at]  # a view of every chunk, or a copy of a subset
        products = np.matmul(np.swapaxes(chunks, 1, 2), chunks,
                             out=self.v_products[: len(chunks)])
        nh, nb = len(self.v_h_entries), len(self.v_b_entries)
        # the last sum collects the entries that neither H_pp nor b_p takes
        sums = np.bincount(self.v_target[at].ravel(), products.ravel(), nh + nb + 1)
        blocks.H_pp.reshape(-1)[self.v_h_entries] += sums[:nh]
        blocks.b_p[self.v_b_entries] += sums[nh : nh + nb]
        Wb = np.einsum("kri,kr->ki", Jp, Jl)
        blocks.W.reshape(-1)[self.v_w_entries] += np.bincount(
            w_target.ravel(), Wb.ravel(), len(self.v_w_entries))
        F = len(blocks.b_l)
        blocks.v += np.bincount(feat, np.einsum("kr,kr->k", Jl, Jl), F)
        blocks.b_l += np.bincount(feat, np.einsum("kr,kr->k", Jl, rw), F)

    def _add_prior(self, blocks: NormalBlocks, rp, Jth, J_ext) -> None:
        """Accumulate the marginalization prior, whose Jacobian is H_p D with
        D the identity except on attitude blocks."""
        JT = self.prior.H.T.copy()  # (H_p D)^T, mapped in place below
        n = 15 * len(Jth)
        att = JT[:n].reshape(len(Jth), 15, -1)[:, 3:6]
        att[...] = np.swapaxes(Jth, 1, 2) @ att
        JT[-3:] = J_ext.T @ JT[-3:]
        JtJ = JT @ JT.T
        g = JT @ rp
        H, e = blocks.H_pp, self.ext_col
        H[:n, :n] += JtJ[:n, :n]
        H[:n, e:] += JtJ[:n, n:]
        H[e:, :n] += JtJ[n:, :n]
        H[e:, e:] += JtJ[n:, n:]
        blocks.b_p[:n] += g[:n]
        blocks.b_p[e:] += g[n:]

    def _add_imu(self, rw, aux, leading=None) -> None:
        """Accumulate the IMU factors, or only the leading ones, into the
        problem's own blocks. Factor k fills the (30, 30) block of frames
        (k, k + 1); the blocks of the even factors do not overlap, nor do
        those of the odd ones, so each set is added in one strided pass
        (imu_bands, see _factor_bands)."""
        if leading is not None:
            rw, aux = rw[:leading], [a[:leading] for a in aux]
        K = len(rw)
        J = self.imu.sqrt_info[:K] @ imu_jacobians_batch(self.imu, aux)  # (K, 15, 30)
        JT = np.swapaxes(J, 1, 2)
        Hb = JT @ J
        bb = np.einsum("kir,kr->ki", JT, rw)
        H_even, H_odd, b_even, b_odd = self.imu_bands
        H_even[: (K + 1) // 2] += Hb[0::2]
        H_odd[: K // 2] += Hb[1::2]
        b_even[: (K + 1) // 2] += bb[0::2]
        b_odd[: K // 2] += bb[1::2]

    def linearize(self, terms, rows=None) -> NormalBlocks:
        """Normal equations at the iterate evaluate() returned terms for, in
        the problem's own NormalBlocks: valid until the next linearize.

        rows = (n_imu, visual), when given, keeps the prior, the leading
        n_imu IMU factors and the visual rows whose indices the array visual
        holds, and builds the Jacobians of those terms only."""
        prior, imu, visual = terms
        n_imu, visual_rows = (None, None) if rows is None else rows
        blocks = self.blocks
        for a in (blocks.H_pp, blocks.W, blocks.v, blocks.b_p, blocks.b_l):
            a.fill(0.0)
        if prior is not None:
            self._add_prior(blocks, *prior)
        if imu is not None:
            self._add_imu(*imu, n_imu)
        if visual is not None:
            self._add_visual(blocks, *visual, visual_rows)
        return blocks

    # -- damped Gauss-Newton ---------------------------------------------------

    def damped_step(self, blocks: NormalBlocks, pose_mask: np.ndarray, lam: float) -> np.ndarray:
        """Solution dx of (H_m + lam diag(max(diag H_m, 1e-12))) dx_m = -b_m
        over the masked pose columns and every depth, zero elsewhere. The
        masked pose columns must be one run (see _free_run).

        The damped depth block stays diagonal, so the depths are eliminated
        first and the reduced pose system is solved by Cholesky; raises
        LinAlgError when that system is not positive definite.
        """
        lo, hi = _free_run(pose_mask)
        m = hi - lo
        H, W, A, AtA = self._step_buffers(m)
        np.copyto(H, blocks.H_pp[lo:hi, lo:hi])
        np.copyto(W, blocks.W[:, lo:hi])
        H.flat[:: m + 1] += lam * np.maximum(np.diagonal(H), 1e-12)
        v_lam = blocks.v + lam * np.maximum(blocks.v, 1e-12)
        S, g = eliminate_depths(H, blocks.b_p[lo:hi], W, blocks.b_l, 1.0 / v_lam, A, AtA)
        # numpy factors: scipy may link a BLAS of its own, whose thread pool,
        # woken by a factorization of this size, contends with numpy's when
        # the thread count is not pinned; its triangular solves stay serial
        L = np.linalg.cholesky(S)
        y = solve_triangular(L, -g, lower=True, check_finite=False)
        dp = solve_triangular(L, y, trans="T", lower=True, check_finite=False)
        dx = np.zeros(self.dim)
        dx[lo:hi] = dp
        dx[self.feat_col :] = -(blocks.b_l + W @ dp) / v_lam
        return dx

    def _step_buffers(self, m: int):
        """damped_step's (H, W, A, AtA) for m free pose columns, allocated
        again only when m changes."""
        if self._step_work is None or len(self._step_work[0]) != m:
            F = len(self.feats)
            self._step_work = (np.empty((m, m)), np.empty((F, m)), np.empty((F, m)),
                               np.empty((m, m)))
        return self._step_work

    def gauge_basis(self) -> np.ndarray:
        """(15 n_frames, 4) basis of the window frames' columns that spans
        the four unobservable directions at the current iterate: a common
        translation of every frame's position, then a yaw about world z,
        which adds z to every frame's attitude (a left perturbation) and
        z x p, z x v to its position and velocity. Biases, the extrinsic and
        the inverse depths do not move."""
        n = self.n_frames
        N = np.zeros((n, 15, 4))
        N[:, 0:3, 0:3] = np.eye(3)
        p, v = self.states.p, self.states.v
        N[:, 0, 3], N[:, 1, 3] = -p[:n, 1], p[:n, 0]
        N[:, 5, 3] = 1.0
        N[:, 6, 3], N[:, 7, 3] = -v[:n, 1], v[:n, 0]
        return N.reshape(15 * n, 4)

    def _remove_gauge(self, dx: np.ndarray) -> None:
        """Subtract from dx, in place, its least-squares component in the
        span of gauge_basis: the minimum-norm step of a free gauge."""
        N = self.gauge_basis()
        m = len(N)
        dx[:m] -= N @ np.linalg.solve(N.T @ N, N.T @ dx[:m])

    def solve(self, config: SolverConfig, mask: np.ndarray) -> SolveReport:
        """Damped Gauss-Newton over the variables selected by the boolean
        mask, which may hold pose and extrinsic columns constant but no depth.
        The held pose columns must lead (the oldest frames) or trail (loop
        frames and the extrinsic) the free ones, which damped_step solves for as one block.

        The window's position and yaw are unobservable unless a held frame
        fixes them: a loop frame, or window frame 0 held by the mask. Without
        one, each damped step loses its component in that 4-DOF gauge
        (gauge_basis) before it is taken, so no iteration is spent moving the
        whole window rigidly.

        Every trial iterate is evaluated for its cost. It is linearized only
        when it is accepted and another iteration will step from it, so a
        solve builds one system per iteration. A trial whose cost rises, or
        whose step pushes a bias past BiasState's sanity bound, is rejected:
        the iterate is restored and the damping raised, as it is when the
        damped system is not positive definite.
        """
        if not np.all(mask[self.feat_col :]):
            raise ValueError("inverse depths cannot be held constant")
        pose_mask = mask[: self.feat_col]
        _free_run(pose_mask)  # raises before any step
        free_gauge = len(self.states) == self.n_frames and bool(np.all(pose_mask[:15]))
        report = SolveReport()
        cost, self.terms = self.evaluate()
        if not np.isfinite(cost):
            raise EstimatorError("non-finite cost at the initial iterate")
        report.costs.append(cost)
        if cost <= ABS_COST_TOL:
            report.termination = "converged"
            return report
        blocks = self.linearize(self.terms)
        lam = INITIAL_LAMBDA
        for it in range(config.max_iterations):
            accepted = False
            rel = 0.0
            for _attempt in range(MAX_DAMPING_RETRIES):
                try:
                    dx = self.damped_step(blocks, pose_mask, lam)
                except np.linalg.LinAlgError:
                    lam *= LAMBDA_UP
                    continue
                if not np.all(np.isfinite(dx)):
                    raise EstimatorError("non-finite Gauss-Newton step")
                if free_gauge:
                    self._remove_gauge(dx)
                snap = self.snapshot()
                try:
                    self.retract(dx)
                except ValueError:  # a bias left its bound; iterate unchanged
                    lam *= LAMBDA_UP
                    continue
                new_cost, new_terms = self.evaluate()
                if np.isfinite(new_cost) and new_cost <= cost:
                    rel = (cost - new_cost) / max(cost, 1e-30)
                    cost, self.terms = new_cost, new_terms
                    report.costs.append(cost)
                    lam = max(lam / LAMBDA_DOWN, MIN_LAMBDA)
                    accepted = True
                    break
                self.restore(snap)
                lam *= LAMBDA_UP
            report.iterations += 1
            if not accepted:
                report.termination = "no_decrease_after_max_damping"
                return report
            if rel < config.rel_cost_tol or cost <= ABS_COST_TOL:
                report.termination = "converged"
                return report
            if it + 1 < config.max_iterations:
                blocks = self.linearize(self.terms)
        report.termination = "max_iterations"
        return report

    # -- marginalization ----------------------------------------------------------

    def marginalize_frame(self, terms) -> tuple[MarginalizationPrior, list[Feature]]:
        """The prior left by eliminating the oldest frame at the iterate of
        evaluate()'s terms, and the features whose depths it eliminates: those
        anchored in that frame that still have one. It consumes the old prior,
        the oldest IMU factor and those features' rows that window frames
        observe, robust weights frozen: only these terms are linearized. The
        depths go first, by their diagonal Schur complement, then frame 0,
        without the loop frames' columns. Raises EstimatorError when the
        system left after the depths is not finite."""
        old = self.frame_ids[0]
        consumed = np.array([f.anchor_id() == old and f.inv_depth is not None
                             for f in self.feats], dtype=bool)
        rows = np.flatnonzero(consumed[self.v_feat] & (self.v_obs < self.n_frames))
        blocks = self.linearize(terms, (1, rows))
        fi = np.flatnonzero(consumed)
        v = blocks.v[fi]
        # like schur_complement's pseudo-inverse, a depth without information
        # (no baseline to any observer) is dropped instead of inverted
        keep = v > max(float(v.max(initial=0.0)) * 1e-12, 1e-14)
        inv_v = np.where(keep, 1.0 / np.where(keep, v, 1.0), 0.0)
        # the problem ends here, so its blocks are reduced in place
        H, b = eliminate_depths(blocks.H_pp, blocks.b_p, blocks.W[fi], blocks.b_l[fi], inv_v)
        if len(self.states) > self.n_frames:
            cols = np.r_[: 15 * self.n_frames, self.ext_col : self.feat_col]
            H, b = H[np.ix_(cols, cols)], b[cols]
        if not (np.isfinite(H).all() and np.isfinite(b).all()):
            raise EstimatorError("non-finite marginalization system")
        H_red, b_red = schur_complement(H, b, 15)
        Hp, rp = information_sqrt(H_red, b_red)
        prior = MarginalizationPrior(self.frame_ids[1:], self.states[1 : self.n_frames],
                                     self.extrinsic, rp, Hp)
        return prior, [f for f, c in zip(self.feats, consumed) if c]
