"""Synthetic scenario generation: analytic trajectories, IMU streams,
unit-ray observations by camera time, up-to-scale camera poses, and loop
candidates.

Every stream is a deterministic function of the scenario configuration
(including its seed), so identical configs produce bit-identical data. The
accelerometer convention matches the estimator: a resting sensor at identity
attitude reads +g on body z.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimator import Observations
from .geometry import (
    quat_canonical,
    quat_exp,
    quat_inverse,
    quat_mul,
    quat_rotate,
    quat_to_rot,
    skew,
    tangent_basis,
)
from .initialization import ExtrinsicCalib, UpToScaleFrame
from .preintegration import GRAVITY, BiasState, ImuSamples, NoiseParams


def default_extrinsic() -> ExtrinsicCalib:
    # camera optical axis along body x, image right along -y, image down along -z
    q = np.array([0.5, -0.5, 0.5, -0.5])
    return ExtrinsicCalib(np.array([0.05, 0.02, -0.01]), q)


@dataclass
class ScenarioConfig:
    trajectory: str = "figure_eight"
    duration: float = 60.0
    imu_rate: float = 200.0
    cam_rate: float = 5.0
    seed: int = 0
    traj: dict = field(default_factory=dict)
    # orientation excitation on top of heading-following yaw
    roll_amp: float = 0.12
    pitch_amp: float = 0.10
    roll_cycles: float = 3.0  # cycles per trajectory period
    pitch_cycles: float = 2.0
    # sensors
    noise: NoiseParams = field(default_factory=lambda: NoiseParams(0.0, 0.0, 0.0, 0.0))
    bias0: BiasState = field(default_factory=BiasState)
    extrinsic: ExtrinsicCalib = field(default_factory=default_extrinsic)
    # vision
    n_landmarks: int = 120
    landmark_r_min: float = 2.5
    landmark_r_max: float = 5.0
    landmark_z_min: float = -1.0
    landmark_z_max: float = 2.5
    fov_deg: float = 190.0
    pixel_sigma_px: float = 0.0
    focal: float = 460.0
    min_range: float = 0.3
    # up-to-scale pose stream
    scale_hidden: float = 1.0
    sfm_rot_sigma: float = 0.0
    sfm_pos_sigma: float = 0.0
    # loops
    loop_radius: float = 0.6
    loop_min_gap: float = 8.0
    loop_outlier_frac: float = 0.0
    loop_max_per_query: int = 1
    # feature blackout window (failure injection)
    blackout_start: float | None = None
    blackout_duration: float = 0.0

    def __post_init__(self):
        # each message names the field it rejects
        for name in ("duration", "imu_rate", "cam_rate"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.imu_rate < self.cam_rate:
            raise ValueError("imu_rate must be at least cam_rate")
        if not self.pixel_sigma_px >= 0.0:
            raise ValueError("pixel_sigma_px must be non-negative")
        _traj_params(self)  # the trajectory model is known

    @property
    def pixel_sigma_rad(self) -> float:
        return self.pixel_sigma_px / self.focal


@dataclass
class TrajectorySample:
    t: np.ndarray
    p: np.ndarray
    v: np.ndarray
    a_world: np.ndarray
    q: np.ndarray
    omega_body: np.ndarray


@dataclass
class GroundTruth:
    """IMU-rate samples of the true motion plus the landmark map."""

    config: ScenarioConfig
    t: np.ndarray
    p: np.ndarray
    v: np.ndarray
    a_world: np.ndarray
    q: np.ndarray
    omega_body: np.ndarray
    landmarks: np.ndarray


# ---------------------------------------------------------------------------
# analytic trajectory models


def _traj_params(config: ScenarioConfig) -> dict:
    defaults = {
        "figure_eight": {"width": 2.0, "period": 12.0, "z0": 0.0, "z_amp": 0.15},
        "circle": {"radius": 1.5, "period": 10.0, "z0": 0.0},
        "line": {"speed": 0.5, "amp_y": 0.4, "freq_y": 0.3, "amp_z": 0.25, "freq_z": 0.23},
        "stationary_excited": {
            "start": 2.0,
            "amp": 0.4,
            "freq": 0.5,
            "ramp": 1.5,
        },
    }
    if config.trajectory not in defaults:
        raise ValueError(f"unknown trajectory model '{config.trajectory}'")
    params = dict(defaults[config.trajectory])
    params.update(config.traj)
    return params


def _position_derivatives(config: ScenarioConfig, t: np.ndarray):
    """Closed-form position, velocity, and acceleration for each model."""
    m = _traj_params(config)
    name = config.trajectory
    if name == "figure_eight":
        A = m["width"]
        B = A / 2.0
        w = 2.0 * np.pi / m["period"]
        th = w * t
        p = np.stack([A * np.sin(th), B * np.sin(2 * th), m["z0"] + m["z_amp"] * np.sin(th)], axis=1)
        v = np.stack(
            [A * w * np.cos(th), 2 * B * w * np.cos(2 * th), m["z_amp"] * w * np.cos(th)], axis=1
        )
        a = np.stack(
            [
                -A * w * w * np.sin(th),
                -4 * B * w * w * np.sin(2 * th),
                -m["z_amp"] * w * w * np.sin(th),
            ],
            axis=1,
        )
    elif name == "circle":
        r = m["radius"]
        w = 2.0 * np.pi / m["period"]
        th = w * t
        p = np.stack([r * np.cos(th), r * np.sin(th), np.full_like(t, m["z0"])], axis=1)
        v = np.stack([-r * w * np.sin(th), r * w * np.cos(th), np.zeros_like(t)], axis=1)
        a = np.stack([-r * w * w * np.cos(th), -r * w * w * np.sin(th), np.zeros_like(t)], axis=1)
    elif name == "line":
        wy = 2.0 * np.pi * m["freq_y"]
        wz = 2.0 * np.pi * m["freq_z"]
        p = np.stack(
            [m["speed"] * t, m["amp_y"] * np.sin(wy * t), m["amp_z"] * np.sin(wz * t)], axis=1
        )
        v = np.stack(
            [
                np.full_like(t, m["speed"]),
                m["amp_y"] * wy * np.cos(wy * t),
                m["amp_z"] * wz * np.cos(wz * t),
            ],
            axis=1,
        )
        a = np.stack(
            [
                np.zeros_like(t),
                -m["amp_y"] * wy * wy * np.sin(wy * t),
                -m["amp_z"] * wz * wz * np.sin(wz * t),
            ],
            axis=1,
        )
    elif name == "stationary_excited":
        E, Ed, Edd = _quintic_ramp(t, m["start"], m["ramp"])
        w = 2.0 * np.pi * m["freq"]
        amp = m["amp"]
        ph = np.array([0.0, 2.1, 4.2])
        p = np.empty((len(t), 3))
        v = np.empty((len(t), 3))
        a = np.empty((len(t), 3))
        for ax in range(3):
            s = np.sin(w * t + ph[ax])
            c = np.cos(w * t + ph[ax])
            f = amp * s
            fd = amp * w * c
            fdd = -amp * w * w * s
            p[:, ax] = E * f
            v[:, ax] = Ed * f + E * fd
            a[:, ax] = Edd * f + 2 * Ed * fd + E * fdd
    else:  # pragma: no cover
        raise ValueError(name)
    return p, v, a


def _quintic_ramp(t, start, width):
    """C2 smoothstep envelope rising 0 -> 1 over [start, start+width]."""
    s = np.clip((t - start) / width, 0.0, 1.0)
    E = s**3 * (10.0 - 15.0 * s + 6.0 * s * s)
    Ed = (30.0 * s**2 - 60.0 * s**3 + 30.0 * s**4) / width
    Edd = (60.0 * s - 180.0 * s**2 + 120.0 * s**3) / width**2
    inside = (t > start) & (t < start + width)
    Ed = np.where(inside, Ed, 0.0)
    Edd = np.where(inside, Edd, 0.0)
    return E, Ed, Edd


def _euler_angles(config: ScenarioConfig, t, v, a):
    """Yaw follows the horizontal heading; roll/pitch are sinusoidal excitation."""
    m = _traj_params(config)
    period = m.get("period", config.duration if config.duration > 0 else 1.0)
    wr = 2.0 * np.pi * config.roll_cycles / period
    wp = 2.0 * np.pi * config.pitch_cycles / period
    roll = config.roll_amp * np.sin(wr * t)
    roll_d = config.roll_amp * wr * np.cos(wr * t)
    pitch = config.pitch_amp * np.sin(wp * t + 1.0)
    pitch_d = config.pitch_amp * wp * np.cos(wp * t + 1.0)
    vxy2 = v[:, 0] ** 2 + v[:, 1] ** 2
    if config.trajectory == "stationary_excited" or np.any(vxy2 < 1e-10):
        yaw = np.zeros_like(t)
        yaw_d = np.zeros_like(t)
    else:
        yaw = np.arctan2(v[:, 1], v[:, 0])
        yaw_d = (v[:, 0] * a[:, 1] - v[:, 1] * a[:, 0]) / vxy2
    return roll, pitch, yaw, roll_d, pitch_d, yaw_d


def eval_trajectory(config: ScenarioConfig, t: np.ndarray) -> TrajectorySample:
    """Analytic pose, velocity, world acceleration, and body rate at times t."""
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12) or np.any(t > config.duration + 1e-9):
        raise ValueError("time outside the scenario duration")
    p, v, a = _position_derivatives(config, t)
    roll, pitch, yaw, roll_d, pitch_d, yaw_d = _euler_angles(config, t, v, a)

    half_r, half_p, half_y = 0.5 * roll, 0.5 * pitch, 0.5 * yaw
    qx = np.stack([np.cos(half_r), np.sin(half_r), np.zeros_like(t), np.zeros_like(t)], axis=1)
    qy = np.stack([np.cos(half_p), np.zeros_like(t), np.sin(half_p), np.zeros_like(t)], axis=1)
    qz = np.stack([np.cos(half_y), np.zeros_like(t), np.zeros_like(t), np.sin(half_y)], axis=1)
    q = quat_canonical(quat_mul(qz, quat_mul(qy, qx)))

    sr, cr = np.sin(roll), np.cos(roll)
    sp, cp = np.sin(pitch), np.cos(pitch)
    omega = np.stack(
        [
            roll_d - yaw_d * sp,
            pitch_d * cr + yaw_d * sr * cp,
            -pitch_d * sr + yaw_d * cr * cp,
        ],
        axis=1,
    )
    return TrajectorySample(t, p, v, a, q, omega)


def make_ground_truth(config: ScenarioConfig) -> GroundTruth:
    n = int(round(config.imu_rate * config.duration))
    t = np.arange(n + 1) / config.imu_rate
    sample = eval_trajectory(config, t)
    landmarks = _sample_landmarks(config)
    return GroundTruth(
        config, t, sample.p, sample.v, sample.a_world, sample.q, sample.omega_body, landmarks
    )


def _sample_landmarks(config: ScenarioConfig) -> np.ndarray:
    rng = np.random.default_rng(config.seed + 1)
    n = config.n_landmarks
    r = np.sqrt(rng.uniform(config.landmark_r_min**2, config.landmark_r_max**2, n))
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    z = rng.uniform(config.landmark_z_min, config.landmark_z_max, n)
    return np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)


# ---------------------------------------------------------------------------
# sensor synthesis


def synthesize_imu(gt: GroundTruth, noise: NoiseParams, bias0: BiasState, seed: int):
    """IMU stream with white noise and random-walk biases at the ground-truth
    times; returns (ImuSamples, bias trace). Noise scales as density/sqrt(dt),
    walk increments as density*sqrt(dt)."""
    rng = np.random.default_rng(seed)
    n = len(gt.t)
    dt = 1.0 / gt.config.imu_rate
    sq = np.sqrt(dt)
    bias_a = np.empty((n, 3))
    bias_w = np.empty((n, 3))
    bias_a[0] = bias0.accel
    bias_w[0] = bias0.gyro
    walk_a = rng.standard_normal((n - 1, 3)) * (noise.sigma_ba * sq)
    walk_w = rng.standard_normal((n - 1, 3)) * (noise.sigma_bw * sq)
    np.cumsum(walk_a, axis=0, out=walk_a)
    np.cumsum(walk_w, axis=0, out=walk_w)
    bias_a[1:] = bias0.accel + walk_a
    bias_w[1:] = bias0.gyro + walk_w

    n_a = rng.standard_normal((n, 3)) * (noise.sigma_a / sq)
    n_w = rng.standard_normal((n, 3)) * (noise.sigma_w / sq)

    specific_force = gt.a_world + GRAVITY
    q_inv = quat_inverse(gt.q)
    accel_body = quat_rotate(q_inv, specific_force)
    accel = accel_body + bias_a + n_a
    gyro = gt.omega_body + bias_w + n_w
    return ImuSamples(gt.t, accel, gyro), (bias_a, bias_w)


def camera_times(config: ScenarioConfig) -> np.ndarray:
    n = int(round(config.cam_rate * config.duration))
    return np.arange(n + 1) / config.cam_rate


def camera_poses(config: ScenarioConfig, times) -> tuple[np.ndarray, np.ndarray]:
    """Camera-to-world poses at times, from one evaluation of the
    trajectory: q_wc (N, 4) and p_wc (N, 3)."""
    s = eval_trajectory(config, times)
    q_wc = quat_mul(s.q, config.extrinsic.q_b_c)
    p_wc = s.p + quat_rotate(s.q, config.extrinsic.p_b_c)
    return q_wc, p_wc


def _visible_mask(config: ScenarioConfig, q_wc, p_wc, landmarks):
    X_c = quat_rotate(quat_inverse(q_wc), landmarks - p_wc)
    rng_ok = np.linalg.norm(X_c, axis=1) > config.min_range
    cos_half_fov = np.cos(np.deg2rad(config.fov_deg) / 2.0)
    u = X_c / np.linalg.norm(X_c, axis=1, keepdims=True)
    in_fov = u[:, 2] > cos_half_fov
    return rng_ok & in_fov, u


def synthesize_observations(gt: GroundTruth, seed: int) -> Observations:
    """Project landmarks to unit-sphere observations with tangent-plane noise.

    Camera times inside the configured blackout window observe nothing.
    """
    config = gt.config
    rng = np.random.default_rng(seed + 2)
    sigma = config.pixel_sigma_rad
    times = camera_times(config)
    if config.blackout_start is not None:
        end = config.blackout_start + config.blackout_duration
        times = times[(times < config.blackout_start) | (times >= end)]
    by_time: dict[float, dict[int, np.ndarray]] = {}
    for t, q_wc, p_wc in zip(times, *camera_poses(config, times)):
        mask, rays = _visible_mask(config, q_wc, p_wc, gt.landmarks)
        idxs = np.where(mask)[0]
        if sigma > 0 and len(idxs):
            b1, b2 = tangent_basis(rays[idxs])
            n12 = rng.standard_normal((len(idxs), 2)) * sigma
            noisy = rays[idxs] + n12[:, :1] * b1 + n12[:, 1:] * b2
            noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
        else:
            noisy = rays[idxs]
        if len(idxs):
            by_time[t] = dict(zip(idxs.tolist(), noisy))
    return Observations(by_time)


def synthesize_sfm(gt: GroundTruth, seed: int) -> list[UpToScaleFrame]:
    """Up-to-scale camera poses in the first camera frame (stand-in for a
    vision-only reconstruction)."""
    config = gt.config
    if config.scale_hidden <= 0:
        raise ValueError("scale_hidden must be positive")
    rng = np.random.default_rng(seed + 3)
    frames = []
    times = camera_times(config)
    q_wc, p_wc = camera_poses(config, times)
    q0_inv = quat_inverse(q_wc[0])
    q_rels = quat_mul(q0_inv, q_wc)
    p_rels = quat_rotate(q0_inv, p_wc - p_wc[0]) / config.scale_hidden
    for t, q_rel, p_rel in zip(times, q_rels, p_rels):
        if config.sfm_rot_sigma > 0:
            q_rel = quat_mul(q_rel, quat_exp(rng.standard_normal(3) * config.sfm_rot_sigma))
        if config.sfm_pos_sigma > 0:
            p_rel = p_rel + rng.standard_normal(3) * config.sfm_pos_sigma
        frames.append(UpToScaleFrame(float(t), q_rel, p_rel))
    return frames


# ---------------------------------------------------------------------------
# loop candidates


@dataclass
class LoopCandidate:
    """A simulated place-recognition hit with labeled correspondences. Its
    rays are unit: synthesize_loops and dataio.read_loops make them so, and
    loop verification reads them as they are."""

    query_t: float
    candidate_t: float
    feature_ids: np.ndarray  # landmark ids with known window depth
    rays_query: np.ndarray  # (K, 3) unit rays in the query camera
    rays_candidate: np.ndarray  # (K, 3) unit rays in the candidate camera
    inlier_mask: np.ndarray  # ground-truth labels (False = injected outlier)


def synthesize_loops(gt: GroundTruth, keyframe_times, seed: int) -> list[LoopCandidate]:
    """Loop candidates between frames that revisit the same place after a time
    gap, with co-visible landmarks as correspondences and a configurable
    fraction of injected (labeled) mismatches."""
    config = gt.config
    rng = np.random.default_rng(seed + 4)
    times = np.asarray(sorted(keyframe_times), dtype=float)
    if len(times) < 2:
        return []
    # places are near by body position; candidates are built at camera poses
    p_wb = eval_trajectory(config, times).p
    poses = list(zip(*camera_poses(config, times)))
    out: list[LoopCandidate] = []
    for qi, tq in enumerate(times):
        gaps = tq - times
        near = np.linalg.norm(p_wb - p_wb[qi], axis=1)
        cand_idx = np.where((gaps >= config.loop_min_gap) & (near <= config.loop_radius))[0]
        if not len(cand_idx):
            continue
        cand_idx = cand_idx[np.argsort(near[cand_idx])][: config.loop_max_per_query]
        for ci in cand_idx:
            cand = _build_candidate(gt, float(tq), float(times[ci]), poses[qi], poses[ci], rng)
            if cand is not None:
                out.append(cand)
    return out


def _build_candidate(gt: GroundTruth, tq: float, tc: float, pose_q, pose_c,
                     rng) -> LoopCandidate | None:
    """pose_q and pose_c: the (q_wc, p_wc) camera poses at tq and tc."""
    config = gt.config
    (qwc_q, pwc_q), (qwc_c, pwc_c) = pose_q, pose_c
    mask_q, rays_q = _visible_mask(config, qwc_q, pwc_q, gt.landmarks)
    mask_c, rays_c = _visible_mask(config, qwc_c, pwc_c, gt.landmarks)
    both = np.where(mask_q & mask_c)[0]
    if len(both) < 12:
        return None
    sigma = config.pixel_sigma_rad
    uq = rays_q[both]
    uc = rays_c[both]
    if sigma > 0:
        for u in (uq, uc):
            b1, b2 = tangent_basis(u)
            n12 = rng.standard_normal((len(u), 2)) * sigma
            u += n12[:, :1] * b1 + n12[:, 1:] * b2
            u /= np.linalg.norm(u, axis=1, keepdims=True)
    inlier = np.ones(len(both), dtype=bool)
    n_out = int(round(config.loop_outlier_frac * len(both)))
    if n_out:
        out_rows = rng.choice(len(both), size=n_out, replace=False)
        E_gt = _essential_between(qwc_q, pwc_q, qwc_c, pwc_c)
        for row in out_rows:
            uc[row] = _sample_outlier_ray(
                rng, rays_c[mask_c], uq[row], E_gt, qwc_c, pwc_c, gt.landmarks[both[row]]
            )
            inlier[row] = False
    return LoopCandidate(tq, tc, both.astype(int), uq, uc, inlier)


def _essential_between(q_wc_a, p_wc_a, q_wc_b, p_wc_b):
    """Essential matrix with rays_a' E rays_b = 0 for cameras a and b."""
    q_ab = quat_mul(quat_inverse(q_wc_a), q_wc_b)
    t_ab = quat_rotate(quat_inverse(q_wc_a), p_wc_b - p_wc_a)
    return skew(t_ab) @ quat_to_rot(q_ab)


def _sample_outlier_ray(rng, rays_c, u_query, E_gt, qwc_c, pwc_c, true_point):
    """A mismatched candidate-frame ray that verifiably violates both geometric
    models (so labeled outliers are meaningfully wrong)."""
    pred = quat_rotate(quat_inverse(qwc_c), true_point - pwc_c)
    pred = pred / np.linalg.norm(pred)
    for _ in range(100):
        ray = rays_c[rng.integers(0, len(rays_c))]
        line = E_gt @ ray
        denom = np.linalg.norm(line)
        if denom < 1e-12:
            continue
        epi = abs(u_query @ line) / denom
        ang = np.arccos(np.clip(pred @ ray, -1.0, 1.0))
        # margins sit well past even noise-widened verification gates
        if epi > 2.5e-2 and ang > 5e-2:
            return ray
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# bundled scenario


@dataclass
class ScenarioData:
    config: ScenarioConfig
    ground_truth: GroundTruth
    imu: ImuSamples
    observations: Observations
    sfm: list[UpToScaleFrame]


def build_scenario(config: ScenarioConfig) -> ScenarioData:
    gt = make_ground_truth(config)
    imu, _ = synthesize_imu(gt, config.noise, config.bias0, config.seed)
    observations = synthesize_observations(gt, config.seed)
    sfm = synthesize_sfm(gt, config.seed)
    return ScenarioData(config, gt, imu, observations, sfm)
