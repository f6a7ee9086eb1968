"""Workload inputs, the timed passes, and the output checks.

Every call into the program goes through a module attribute
(``simulator.build_scenario``, ``pipeline.pipeline_from_scenario``, ...), so
the wrappers that ``layers.py`` installs for a traced pass see it.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from monovio import geometry, pipeline, posegraph, simulator
from monovio.preintegration import BiasState, NoiseParams

import hostspeed
from tracing import FRAME

# -- VIO workloads -------------------------------------------------------------

# Scenario seed of both VIO workloads: the noisy loop scenario of ROADMAP's
# Baseline. Accuracy differs a lot between seeds (ATE 0.07-0.12 m over seeds
# 1-5), so the seed is part of the workload, not a run-to-run draw.
PINNED_SCENARIO_SEED = 3
# ATE and drift align the estimate on the first ALIGN_POSES matched poses
# (ROADMAP's Baseline). `monovio run` aligns on 150; never compare the two.
ALIGN_POSES = 50
BLACKOUT = (12.0, 2.0)  # start, duration in seconds

def scenario_config(workload: str, scenario_seed: int) -> simulator.ScenarioConfig:
    extra = {}
    if workload == "blackout-reinit":
        extra = dict(blackout_start=BLACKOUT[0], blackout_duration=BLACKOUT[1])
    return simulator.ScenarioConfig(
        duration=30.0, cam_rate=5.0, imu_rate=200.0, seed=scenario_seed,
        traj={"period": 12.0},
        noise=NoiseParams(0.02, 2e-4, 1e-4, 1e-5), pixel_sigma_px=1.5,
        bias0=BiasState(accel=[0.02, -0.01, 0.015], gyro=[0.003, -0.002, 0.004]),
        **extra,
    )


# -- graph session ---------------------------------------------------------------

# Drifting keyframe odometry along a long figure-eight, replayed into the pose
# graph in the calls VioPipeline makes. Each revisit closes a loop, no more
# often than the pipeline's own loop_edge_cooldown, and every loop edge
# triggers a full optimize. 1050 keyframes give at least 100 closures, so 10
# lie beyond p90. The session's noise draw is pinned for the same reason as
# the scenario seed: in a 280-keyframe prototype, graph ATE over draws 1-3
# spanned 0.021-0.037 m.
SESSION_SEED = 1
SESSION_KEYFRAMES = 1050
SESSION_SPACING_S = 0.4
SESSION_STEP_SIGMA = (0.01, 0.003)  # odometry noise per step: m, rad
SESSION_LOOP_SIGMA = (0.005, 0.001)  # loop measurement noise: m, rad
SESSION_LOOP_RADIUS = 0.6
SESSION_LOOP_MIN_GAP = 8.0
SESSION_LOOP_INLIERS = 60
SESSION_MIN_CLOSURES = 100
SESSION_CAPACITY = int(0.8 * SESSION_KEYFRAMES)


@dataclass
class SessionInputs:
    t: np.ndarray
    p_gt: np.ndarray
    rpy: np.ndarray  # true roll, pitch, yaw
    p_odo: np.ndarray  # drifting odometry
    yaw_odo: np.ndarray
    loops: dict  # query keyframe -> (earlier keyframe, rel_p, rel_yaw)


def make_session_inputs(seed: int = SESSION_SEED) -> SessionInputs:
    n = SESSION_KEYFRAMES
    t = np.arange(n) * SESSION_SPACING_S
    cfg = simulator.ScenarioConfig(duration=float(t[-1]), traj={"period": 12.0})
    truth = simulator.eval_trajectory(cfg, t)
    rpy = np.array([geometry.yaw_roll_pitch_decompose(q) for q in truth.q])
    rng = np.random.default_rng(seed)
    p_odo = [truth.p[0].copy()]
    yaw_odo = [rpy[0, 2]]
    for k in range(1, n):
        R_prev = geometry.rot_zyx(*rpy[k - 1])
        rel_p = R_prev.T @ (truth.p[k] - truth.p[k - 1]) + rng.normal(0.0, SESSION_STEP_SIGMA[0], 3)
        rel_yaw = geometry.wrap_angle(rpy[k, 2] - rpy[k - 1, 2]) + rng.normal(0.0, SESSION_STEP_SIGMA[1])
        R_odo = geometry.rot_zyx(rpy[k - 1, 0], rpy[k - 1, 1], yaw_odo[-1])
        p_odo.append(p_odo[-1] + R_odo @ rel_p)
        yaw_odo.append(geometry.wrap_angle(yaw_odo[-1] + rel_yaw))
    loops = {}
    last = -np.inf
    cooldown = pipeline.PipelineConfig().loop_edge_cooldown
    for k in range(n):
        if t[k] - last < cooldown:
            continue
        near = np.linalg.norm(truth.p[:k] - truth.p[k], axis=1)
        cand = np.where((t[k] - t[:k] >= SESSION_LOOP_MIN_GAP) & (near <= SESSION_LOOP_RADIUS))[0]
        if not len(cand):
            continue
        j = int(cand[np.argmin(near[cand])])
        R_j = geometry.rot_zyx(*rpy[j])
        rel_p = R_j.T @ (truth.p[k] - truth.p[j]) + rng.normal(0.0, SESSION_LOOP_SIGMA[0], 3)
        rel_yaw = geometry.wrap_angle(rpy[k, 2] - rpy[j, 2]) + rng.normal(0.0, SESSION_LOOP_SIGMA[1])
        loops[k] = (j, rel_p, rel_yaw)
        last = t[k]
    return SessionInputs(t, truth.p, rpy, np.array(p_odo), np.array(yaw_odo), loops)


# -- set-up ------------------------------------------------------------------------


@dataclass
class Setup:
    data: simulator.ScenarioData
    pipe: pipeline.VioPipeline
    session: SessionInputs
    seconds: float


def set_up(workload: str, scenario_seed: int) -> Setup:
    t0 = time.perf_counter()
    data = simulator.build_scenario(scenario_config(workload, scenario_seed))
    pipe = pipeline.pipeline_from_scenario(data, pipeline.PipelineConfig(enable_loops=True))
    session = make_session_inputs()
    return Setup(data, pipe, session, time.perf_counter() - t0)


# -- VIO pass ----------------------------------------------------------------------


class FrameClock:
    """Stands in for the pipeline's observation callback. At each camera frame
    it ends the previous frame, runs the host-speed probe if asked, and starts
    the frame. When traced, frame spans cover the frames only, and the probe
    has a span of its own, so no layer's self time includes it."""

    def __init__(self, observations, tracer=None, probe=None):
        self.observations = observations
        self.tracer = tracer
        self.probe = probe
        if tracer is not None and probe is not None:
            self.probe = tracer.wrap(probe, "hostspeed.probe")
        self.ends: list[float] = []  # callback entry: the previous frame ends
        self.stamps: list[float] = []  # the frame starts
        self.probe_ms: list[float] = []

    def __call__(self, t):
        self.ends.append(time.perf_counter())
        if self.tracer is not None:
            self.tracer.end_frame()
        if self.probe is not None:
            self.probe_ms.append(self.probe())
        self.stamps.append(time.perf_counter())
        if self.tracer is not None:
            self.tracer.open(FRAME, {"t": float(t)})
        return self.observations(t)


@dataclass
class VioResult:
    frames: int
    wall_s: float  # run() wall time less probe time
    frame_ms_raw: np.ndarray
    frame_ms: np.ndarray  # host-speed normalized when probed, else raw
    probe_ms: list
    report: pipeline.RunReport | None
    error: str | None
    lost: int  # camera frames without a published window pose
    accuracy: dict = field(default_factory=dict)
    digest: str = ""


def vio_pass(setup: Setup, tracer=None, normalize=False) -> VioResult:
    pipe = setup.pipe
    cam_times = pipe.cam_times
    clock = FrameClock(pipe.obs_by_time, tracer, hostspeed.probe if normalize else None)
    pipe.obs_by_time = clock
    error = None
    report = None
    t0 = time.perf_counter()
    try:
        report = pipe.run()
    except Exception as exc:  # a raise is a recorded failure, not a crash
        error = type(exc).__name__
    end = time.perf_counter()
    starts = np.array(clock.stamps)
    raw = (np.array(clock.ends[1:] + [end]) - starts) * 1e3
    wall = end - t0 - float(np.sum(starts - np.array(clock.ends)))
    scaled = raw * hostspeed.factors(clock.probe_ms) if normalize else raw
    n = len(cam_times)
    if report is None:
        # the raising frame and every frame after it are lost
        return VioResult(n, wall, raw, scaled, clock.probe_ms, None, error, n - len(starts) + 1)
    if report.window_times is None or report.rate_times is None:
        return VioResult(n, wall, raw, scaled, clock.probe_ms, report, None, n)
    published = np.intersect1d(np.round(report.window_times, 9), np.round(cam_times, 9))
    result = VioResult(n, wall, raw, scaled, clock.probe_ms, report, None, n - len(published))
    gt = setup.data.ground_truth
    win = pipeline.evaluate_ate(report.window_times, report.window_p, gt.t, gt.p, "4dof", ALIGN_POSES)
    rate = pipeline.evaluate_ate(report.rate_times, report.rate_p, gt.t, gt.p, "4dof", ALIGN_POSES)
    result.accuracy = {
        "ate_m": win["rmse"],
        "drift_pct": win["drift_pct"],
        "rate_ate_m": rate["rmse"],
    }
    h = hashlib.sha256()
    for arr in (report.window_times, report.window_p, report.window_q,
                report.rate_times, report.rate_p, report.rate_q):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    h.update(repr(run_counts(report)).encode())
    result.digest = h.hexdigest()
    return result


def run_counts(report: pipeline.RunReport) -> dict:
    return {
        "failures": len(report.failure_events),
        "segments": report.segments,
        "loop_candidates": report.loop_candidates,
        "loop_verified": report.loop_verified,
        "loop_edges": report.loop_edges,
        "solves": report.n_solves,
        "keyframes": report.n_keyframes,
    }


def vio_checks(workload: str, res: VioResult) -> list[tuple[str, bool, str]]:
    if res.report is None:
        return [("run() returns a report", False, f"raised {res.error}")]
    if not res.accuracy:
        return [("run() publishes poses", False, "no window or IMU-rate output")]
    rep = res.report
    checks = []
    finite = all(np.all(np.isfinite(a)) for a in (rep.window_p, rep.window_q, rep.rate_p, rep.rate_q))
    checks.append(("published poses are finite", bool(finite), ""))
    for label, ts in (("window", rep.window_times), ("IMU-rate", rep.rate_times)):
        ok = bool(np.all(np.diff(ts) > 0))
        checks.append((f"{label} timestamps strictly increase", ok, ""))
    events = ", ".join(f"{reason}@{t:.1f}s" for t, reason in rep.failure_events) or "none"
    if workload == "loop-noisy":
        ok = rep.segments == 1 and not rep.failure_events
        checks.append(("one segment, no failure", ok, f"segments={rep.segments} failures={events}"))
    else:
        start, dur = BLACKOUT
        inside = any(r == "tracking" and start <= t <= start + dur for t, r in rep.failure_events)
        ok = inside and rep.segments >= 2
        checks.append(("tracking failure in blackout, >= 2 segments", ok,
                       f"segments={rep.segments} failures={events}"))
    return checks


# -- graph session ------------------------------------------------------------------


@dataclass
class SessionResult:
    wall_s: float  # less probe time
    wall_s_scaled: float  # host-speed normalized when probed, else raw
    loop_ms_raw: np.ndarray
    loop_ms: np.ndarray  # host-speed normalized when probed, else raw
    probe_ms: list  # one probe before each loop closure, when probed
    calls: int
    failed: int
    errors: dict
    graph_ate_m: float
    odometry_ate_m: float
    roundtrip_ok: bool
    digest: str


def graph_session(inputs: SessionInputs, workdir: str, downsample_seed: int,
                  normalize=False) -> SessionResult:
    driver = pipeline.GraphDriver(posegraph.PoseGraph(posegraph.PoseGraphConfig()))
    calls = 0
    errors: dict[str, int] = {}
    loop_ms, probe_ms = [], []
    probe_total_ms = 0.0

    def call(fn, *args):
        nonlocal calls
        calls += 1
        try:
            return fn(*args), True
        except Exception as exc:  # a raise counts as a failed call
            errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
            return None, False

    # 4-DOF odometry -> graph correction, refreshed after every loop closure
    # so new keyframes land next to the optimized graph (as VioPipeline does)
    corr_yaw, corr_t = 0.0, np.zeros(3)
    t0 = time.perf_counter()
    for k, t in enumerate(inputs.t):
        roll, pitch, _ = inputs.rpy[k]
        Rz = geometry.rot_zyx(0.0, 0.0, corr_yaw)
        vertex = posegraph.PoseGraphVertex(
            k, float(t), Rz @ inputs.p_odo[k] + corr_t,
            geometry.wrap_angle(inputs.yaw_odo[k] + corr_yaw), roll, pitch, 0,
            vio_p=inputs.p_odo[k].copy(), vio_yaw=float(inputs.yaw_odo[k]),
        )
        call(driver.submit_vertex, vertex)
        if k not in inputs.loops:
            continue
        j, rel_p, rel_yaw = inputs.loops[k]
        vid = driver.vertex_at_time(float(inputs.t[j]))
        if vid is None:
            continue
        edge = posegraph.LoopEdge(vid, k, rel_p, rel_yaw, inliers=SESSION_LOOP_INLIERS)
        probed = hostspeed.graph_probe() if normalize else 0.0
        probe_total_ms += probed
        s = time.perf_counter()
        _, ok = call(driver.submit_loop_edge, edge)
        if ok:
            loop_ms.append((time.perf_counter() - s) * 1e3)
            probe_ms.append(probed)
        pose = driver.vertex_pose(k)
        if pose is None:
            continue
        _, _, yaw_graph = geometry.yaw_roll_pitch_decompose(pose[0])
        corr_yaw = geometry.wrap_angle(yaw_graph - inputs.yaw_odo[k])
        corr_t = pose[1] - geometry.rot_zyx(0.0, 0.0, corr_yaw) @ inputs.p_odo[k]
    graph, _ = call(driver.finish)
    graph = graph or driver.graph
    # accuracy of the optimized graph, before downsampling drops vertices
    # (it moves none): the --seed draw must not move the accuracy figures
    ids = np.array(graph.order)
    est = np.array([graph.vertices[v].p for v in graph.order])
    graph_ate = float(np.sqrt(np.mean(np.sum((est - inputs.p_gt[ids]) ** 2, axis=1))))
    call(graph.downsample, SESSION_CAPACITY, downsample_seed)
    path = os.path.join(workdir, "graph.txt")
    call(graph.save, path)
    loaded, _ = call(posegraph.PoseGraph.load, path)
    wall = time.perf_counter() - t0 - probe_total_ms / 1e3
    loop_raw = np.array(loop_ms)
    if normalize and probe_ms:
        # loop closures scale by their local speed, the rest by the median
        loop_scaled = loop_raw * hostspeed.factors(probe_ms, hostspeed.REFERENCE_GRAPH_PROBE_MS)
        rest = wall - float(np.sum(loop_raw)) / 1e3
        wall_scaled = (float(np.sum(loop_scaled)) / 1e3
                       + rest * hostspeed.REFERENCE_GRAPH_PROBE_MS / float(np.median(probe_ms)))
    else:
        loop_scaled, wall_scaled = loop_raw, wall
    odo_ate = float(np.sqrt(np.mean(np.sum((inputs.p_odo - inputs.p_gt) ** 2, axis=1))))
    return SessionResult(
        wall, wall_scaled, loop_raw, loop_scaled, probe_ms, calls, sum(errors.values()), errors, graph_ate, odo_ate,
        loaded is not None and same_graph(graph, loaded),
        hashlib.sha256(est.tobytes()).hexdigest(),
    )


def same_graph(a: posegraph.PoseGraph, b: posegraph.PoseGraph) -> bool:
    """Vertices and edges agree to the precision of the text format."""
    def close(x, y):
        return np.allclose(x, y, rtol=1e-8, atol=1e-9)

    if a.order != b.order:
        return False
    for vid in a.order:
        va, vb = a.vertices[vid], b.vertices[vid]
        if va.segment != vb.segment or not close(
            [va.t, *va.p, va.roll, va.pitch, va.yaw], [vb.t, *vb.p, vb.roll, vb.pitch, vb.yaw]
        ):
            return False
    for ea_list, eb_list in ((a.sequential_edges, b.sequential_edges), (a.loop_edges, b.loop_edges)):
        if len(ea_list) != len(eb_list):
            return False
        for ea, eb in zip(ea_list, eb_list):
            if (ea.from_id, ea.to_id) != (eb.from_id, eb.to_id):
                return False
            if not close([*ea.rel_p, ea.rel_yaw], [*eb.rel_p, eb.rel_yaw]):
                return False
            if getattr(ea, "inliers", 0) != getattr(eb, "inliers", 0):
                return False
    return True


def session_checks(res: SessionResult) -> list[tuple[str, bool, str]]:
    return [
        ("graph ATE below odometry ATE", res.graph_ate_m < res.odometry_ate_m,
         f"{res.graph_ate_m:.4f} m vs {res.odometry_ate_m:.4f} m"),
        ("save -> load reproduces vertices and edges", res.roundtrip_ok, ""),
        ("no graph call raised", res.failed == 0, repr(res.errors) if res.errors else ""),
        (f"at least {SESSION_MIN_CLOSURES} loop closures", len(res.loop_ms) >= SESSION_MIN_CLOSURES,
         f"{len(res.loop_ms)}"),
    ]
