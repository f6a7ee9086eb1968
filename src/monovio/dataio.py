"""File formats: IMU / observation CSV, trajectory text, loop candidates,
and the line-oriented run configuration."""

from __future__ import annotations

import math
import re

import numpy as np

from .estimator import Observations
from .geometry import quat_canonical, rot_to_quat, rot_zyx
from .initialization import ExtrinsicCalib, UpToScaleFrame
from .preintegration import BiasState, ImuSamples, NoiseParams
from .simulator import LoopCandidate, ScenarioConfig


class FormatError(ValueError):
    """Malformed input file; message carries the offending line number."""


# ---------------------------------------------------------------------------
# IMU CSV: timestamp_ns, wx, wy, wz, ax, ay, az


def write_imu_csv(path, samples: ImuSamples) -> None:
    with open(path, "w") as f:
        f.write("#timestamp_ns,wx,wy,wz,ax,ay,az\n")
        for t, gyro, accel in zip(samples.t.tolist(), samples.gyro.tolist(), samples.accel.tolist()):
            f.write("%d,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g\n" % (round(t * 1e9), *gyro, *accel))


def read_imu_csv(path) -> ImuSamples:
    rows, prev_ns = [], -math.inf  # timestamps ascend strictly
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise FormatError(f"{path}:{lineno}: expected 7 columns, got {len(parts)}")
            try:
                ns = int(parts[0])
                vals = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            if not all(map(math.isfinite, vals)):
                raise FormatError(f"{path}:{lineno}: non-finite value")
            if ns <= prev_ns:
                raise FormatError(f"{path}:{lineno}: timestamp not after the previous sample's")
            prev_ns = ns
            rows.append([ns * 1e-9, *vals])
    if len(rows) < 2:
        raise FormatError(f"{path}: needs at least two IMU samples")
    rows = np.array(rows)
    return ImuSamples(rows[:, 0], rows[:, 4:7], rows[:, 1:4])


def _rescaled_norm(ray) -> float:
    """The norm of a ray whose squares overflow np.linalg.norm, taken of the
    ray divided by its largest component; for a zero or non-finite ray, that
    component (0, inf or nan)."""
    s = float(np.abs(ray).max())
    return s * float(np.linalg.norm(ray / s)) if 0.0 < s < math.inf else s


# ---------------------------------------------------------------------------
# observations by camera time, CSV: timestamp_ns, feature_id, ux, uy, uz


def write_tracks_csv(path, observations: Observations) -> None:
    with open(path, "w") as f:
        f.write("#timestamp_ns,feature_id,ux,uy,uz\n")
        for t in observations.times():
            ts = round(t * 1e9)
            for fid, ray in observations(t).items():
                f.write("%d,%d,%.9g,%.9g,%.9g\n" % (ts, fid, ray[0], ray[1], ray[2]))


def read_tracks_csv(path) -> Observations:
    """The observations of a CSV, each ray made unit where it is read; rows
    may come in any order, but a feature is seen at most once per time."""
    by_time: dict[float, dict[int, np.ndarray]] = {}
    with open(path) as f, np.errstate(over="ignore"):
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise FormatError(f"{path}:{lineno}: expected 5 columns, got {len(parts)}")
            try:
                t = int(parts[0]) * 1e-9
                fid = int(parts[1])
                ray = np.array([float(x) for x in parts[2:5]])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            n = np.linalg.norm(ray)
            if n == math.inf:
                n = _rescaled_norm(ray)
            if not (math.isfinite(n) and n > 0.0):
                raise FormatError(f"{path}:{lineno}: zero or non-finite ray")
            frame = by_time.setdefault(t, {})
            if fid in frame:
                raise FormatError(f"{path}:{lineno}: feature {fid} seen twice at one time")
            frame[fid] = ray / n
    return Observations({t: dict(sorted(frame.items())) for t, frame in by_time.items()})


# ---------------------------------------------------------------------------
# trajectories: "timestamp_s tx ty tz qx qy qz qw", one pose per line


def write_trajectory(path, times, positions, quaternions) -> None:
    with open(path, "w") as f:
        for t, p, q in zip(times, positions, quaternions):
            f.write(
                "%.9f %.9f %.9f %.9f %.9g %.9g %.9g %.9g\n"
                % (t, p[0], p[1], p[2], q[1], q[2], q[3], q[0])
            )


def read_trajectory(path):
    times, ps, qs = [], [], []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 8:
                raise FormatError(f"{path}:{lineno}: expected 8 columns, got {len(parts)}")
            try:
                vals = [float(x) for x in parts]
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            if not all(map(math.isfinite, vals)):
                raise FormatError(f"{path}:{lineno}: non-finite value")
            q = [vals[7], vals[4], vals[5], vals[6]]  # wxyz internal
            # quat_canonical's norm, summed in its order, must be in [1e-12, inf)
            if not 1e-12 <= math.sqrt(sum(c * c for c in q)) < math.inf:
                raise FormatError(f"{path}:{lineno}: zero or overflowing quaternion")
            times.append(vals[0])
            ps.append(vals[1:4])
            qs.append(q)
    if not times:
        raise FormatError(f"{path}: empty trajectory")
    return np.array(times), np.array(ps), quat_canonical(np.array(qs))


def read_sfm_poses(path) -> list[UpToScaleFrame]:
    """Up-to-scale pose stream in trajectory format (scale is arbitrary)."""
    times, ps, qs = read_trajectory(path)
    return [UpToScaleFrame(t, q, p) for t, p, q in zip(times, ps, qs)]


def write_sfm_poses(path, frames: list[UpToScaleFrame]) -> None:
    write_trajectory(
        path, [f.t for f in frames], [f.p_bar for f in frames], [f.q_c0_ck for f in frames]
    )


# ---------------------------------------------------------------------------
# loop candidates: header "LOOP query_t candidate_t" then correspondence rows
# "feature_id cux cuy cuz qux quy quz"; rays are made unit where they are read


def write_loops(path, candidates: list[LoopCandidate]) -> None:
    with open(path, "w") as f:
        for c in candidates:
            f.write("LOOP %.9f %.9f\n" % (c.query_t, c.candidate_t))
            for fid, rc, rq in zip(c.feature_ids, c.rays_candidate, c.rays_query):
                f.write(
                    "%d %.9g %.9g %.9g %.9g %.9g %.9g\n"
                    % (fid, rc[0], rc[1], rc[2], rq[0], rq[1], rq[2])
                )


def read_loops(path) -> list[LoopCandidate]:
    loops = []  # per LOOP header: query_t, candidate_t, [(feature id, unit rays)]
    with open(path) as f, np.errstate(over="ignore"):
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            header = parts[0] == "LOOP"
            if header and len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: malformed LOOP header")
            if not (header or loops):
                raise FormatError(f"{path}:{lineno}: correspondence before LOOP header")
            if not header and len(parts) != 7:
                raise FormatError(f"{path}:{lineno}: expected 7 columns, got {len(parts)}")
            try:
                fid = None if header else int(parts[0])
                vals = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            if header:
                loops.append((*vals, []))
                continue
            rays = np.reshape(vals, (2, 3))  # candidate, query
            n = np.linalg.norm(rays, axis=1, keepdims=True)
            if np.isinf(n).any():
                n = np.array([[_rescaled_norm(r)] for r in rays])
            if not np.all(np.isfinite(n) & (n > 0.0)):
                raise FormatError(f"{path}:{lineno}: zero or non-finite ray")
            loops[-1][2].append((fid, rays / n))
    return [
        LoopCandidate(query_t, candidate_t, np.array([fid for fid, _ in rows], dtype=int),
                      np.array([r[1] for _, r in rows]), np.array([r[0] for _, r in rows]),
                      np.ones(len(rows), dtype=bool))
        for query_t, candidate_t, rows in loops if rows
    ]


# ---------------------------------------------------------------------------
# run configuration: line-oriented "key = value"; unknown keys are hard errors


_SCALAR_KEYS = {
    "duration", "imu_rate", "cam_rate", "sigma_a", "sigma_w", "sigma_ba", "sigma_bw",
    "roll_amp", "pitch_amp", "roll_cycles", "pitch_cycles",
    "landmark_r_min", "landmark_r_max", "landmark_z_min", "landmark_z_max",
    "fov_deg", "pixel_sigma_px", "focal", "min_range",
    "scale_hidden", "sfm_rot_sigma", "sfm_pos_sigma",
    "loop_radius", "loop_min_gap", "loop_outliers",
    "blackout_start", "blackout_duration",
    "period", "width", "z0", "z_amp", "radius", "speed", "amp_y", "freq_y",
    "amp_z", "freq_z", "start", "amp", "freq", "ramp",
    "est_sigma_a", "est_sigma_w", "est_sigma_ba", "est_sigma_bw",
    "parallax_px",
}
_INT_KEYS = {
    "seed", "landmarks", "loop_max_per_query", "window_size", "max_features",
    "min_tracked", "min_loop_inliers", "edge_fanout",
    "graph_capacity", "init_window", "solver_max_iterations", "align_count",
}
_BOOL_KEYS = {"optimize_extrinsic", "disable_loop", "test_mode"}
_BOOL_WORDS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(
    ("0", "false", "no", "off"), False)
_VEC_KEYS = {"bias_a", "bias_w", "extrinsic_p", "extrinsic_rpy_deg"}
_STR_KEYS = {"trajectory"}

_TRAJ_PARAM_KEYS = {
    "period", "width", "z0", "z_amp", "radius", "speed", "amp_y", "freq_y",
    "amp_z", "freq_z", "start", "amp", "freq", "ramp",
}


class ConfigValues(dict):
    """A config file's typed values by key; where[key] is the 'path:line'
    that the key was read from."""

    def __init__(self, path):
        super().__init__()
        self.path, self.where = str(path), {}


def parse_config(path) -> ConfigValues:
    """Read key = value lines into a typed dict; unknown keys are errors."""
    out = ConfigValues(path)
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            try:
                if key in _STR_KEYS:
                    out[key] = val
                elif key in _INT_KEYS:
                    out[key] = int(val)
                elif key in _BOOL_KEYS:
                    if val.lower() not in _BOOL_WORDS:
                        raise ValueError("expected 1/true/yes/on or 0/false/no/off")
                    out[key] = _BOOL_WORDS[val.lower()]
                elif key in _VEC_KEYS:
                    vec = np.array([float(x) for x in val.replace(",", " ").split()])
                    if vec.shape != (3,):
                        raise ValueError("expected three components")
                    out[key] = vec
                elif key in _SCALAR_KEYS:
                    out[key] = float(val)
                else:
                    raise FormatError(f"{path}:{lineno}: unknown key '{key}'")
            except FormatError:
                raise
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad value for '{key}': {exc}") from None
            out.where[key] = f"{path}:{lineno}"
    return out


def scenario_from_config(cfg: dict) -> ScenarioConfig:
    """The scenario that a parsed config describes. A value that the
    scenario's own checks reject raises FormatError at the line of the
    first key that the check's message names (ConfigValues.where)."""
    try:
        return _scenario(cfg)
    except ValueError as exc:
        where = getattr(cfg, "where", {})
        at = next((where[w] for w in re.findall(r"\w+", str(exc)) if w in where),
                  getattr(cfg, "path", "config"))
        raise FormatError(f"{at}: {exc}") from None


def _scenario(cfg: dict) -> ScenarioConfig:
    traj = {k: cfg[k] for k in _TRAJ_PARAM_KEYS if k in cfg}
    noise = NoiseParams(
        cfg.get("sigma_a", 0.0), cfg.get("sigma_w", 0.0),
        cfg.get("sigma_ba", 0.0), cfg.get("sigma_bw", 0.0),
    )
    bias0 = BiasState(cfg.get("bias_a", np.zeros(3)), cfg.get("bias_w", np.zeros(3)))
    kwargs = dict(
        trajectory=cfg.get("trajectory", "figure_eight"),
        duration=cfg.get("duration", 60.0),
        imu_rate=cfg.get("imu_rate", 200.0),
        cam_rate=cfg.get("cam_rate", 5.0),
        seed=cfg.get("seed", 0),
        traj=traj,
        noise=noise,
        bias0=bias0,
    )
    if "extrinsic_p" in cfg or "extrinsic_rpy_deg" in cfg:
        rpy = np.deg2rad(cfg.get("extrinsic_rpy_deg", np.array([-90.0, 0.0, -90.0])))
        q = quat_canonical(rot_to_quat(rot_zyx(rpy[0], rpy[1], rpy[2])))
        kwargs["extrinsic"] = ExtrinsicCalib(cfg.get("extrinsic_p", np.zeros(3)), q)
    for name in (
        "roll_amp", "pitch_amp", "roll_cycles", "pitch_cycles",
        "fov_deg", "pixel_sigma_px", "focal", "min_range",
        "scale_hidden", "sfm_rot_sigma", "sfm_pos_sigma",
        "loop_radius", "loop_min_gap", "loop_max_per_query",
        "landmark_r_min", "landmark_r_max", "landmark_z_min", "landmark_z_max",
        "blackout_start", "blackout_duration",
    ):
        if name in cfg:
            kwargs[name] = cfg[name]
    if "landmarks" in cfg:
        kwargs["n_landmarks"] = cfg["landmarks"]
    if "loop_outliers" in cfg:
        kwargs["loop_outlier_frac"] = cfg["loop_outliers"]
    return ScenarioConfig(**kwargs)
