"""End-to-end batch runner: initialization, sliding-window odometry,
relocalization, and 4-DOF pose-graph optimization, plus trajectory metrics.

The pose graph goes through one driver. Test mode applies its updates inline,
so outputs are bit-reproducible; live mode applies them in one worker thread
beside the odometry. In both modes the odometry reads the graph only through
the vertex values the driver publishes after each update.
"""

from __future__ import annotations

import queue
import threading
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .estimator import (
    EstimatorConfig,
    EstimatorError,
    LoopObservationSet,
    SlidingWindowEstimator,
    detect_failure,
    imu_forward_propagate,
    keyframe_decision,
)
from .geometry import (
    quat_canonical,
    quat_inverse,
    quat_mul,
    quat_rotate,
    rot_to_quat,
    rot_zyx,
    wrap_angle,
    yaw_roll_pitch_decompose,
)
from .initialization import (
    ExtrinsicCalib,
    InitializationError,
    UpToScaleFrame,
    excitation_gates,
    run_alignment,
)
from .posegraph import (
    LoopEdge,
    PoseGraph,
    PoseGraphConfig,
    PoseGraphVertex,
    relative_4dof,
    verify_loop_candidate,
    vertex_from_state,
)
from .preintegration import (
    GRAVITY,
    BiasState,
    FrameStates,
    NoiseParams,
    PreintegrationError,
    integrate_segment,
    segment_samples,
)
from .simulator import LoopCandidate, ScenarioData, camera_times, synthesize_loops

MIN_INIT_TRACKED = 20
# extrinsic refinement is weakly observable until the window has cycled;
# keep it frozen (and exempt from failure checks) for this many frames
EXTRINSIC_WARMUP_FRAMES = 15
# keyframes marginalized during the settling phase carry transient error
# (bias and scale still converging); keep them out of the pose graph so
# loops never anchor to them
GRAPH_ADMISSION_DELAY = 60
# evaluation pairs an estimate with the ground-truth sample within this time
ATE_MATCH_TOL = 0.005  # seconds
# a loop candidate's frame is the published vertex within this time
VERTEX_TIME_TOL = 1e-6  # seconds
# verified loops refresh the odometry->graph correction at most once per
# crossing event: once in this time
CORRECTION_INTERVAL = 5.0  # seconds


@dataclass
class PipelineConfig:
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    # estimator's assumed IMU densities (floored: never zero even for
    # noise-free simulation, otherwise whitening degenerates)
    model_noise: NoiseParams = field(default_factory=lambda: NoiseParams(0.02, 2e-4, 1e-4, 1e-5))
    graph: PoseGraphConfig = field(default_factory=PoseGraphConfig)
    init_window: int = 10
    enable_loops: bool = True
    test_mode: bool = True
    graph_capacity: int = 2000
    align_count: int = 150
    # one 4-DOF graph edge per crossing event: verified relocalizations inside
    # the cooldown keep feeding the estimator's loop terms but the redundant
    # edges (mutual scatter at the window-structure noise level) are not added
    loop_edge_cooldown: float = 4.0


@dataclass
class RunReport:
    n_frames: int = 0
    n_keyframes: int = 0
    n_solves: int = 0
    # Gauss-Newton iterations of those solves, and how many stopped at
    # max_iterations
    n_iterations: int = 0
    n_capped_solves: int = 0
    init_events: list = field(default_factory=list)  # (t, "init"/"reinit")
    failure_events: list = field(default_factory=list)  # (t, reason)
    loop_candidates: int = 0
    loop_verified: int = 0
    loop_edges: int = 0
    loop_mean_inliers: float = 0.0
    segments: int = 0
    ate_rmse: float | None = None
    final_drift: np.ndarray | None = None
    drift_pct: float | None = None
    path_length: float | None = None
    timings: dict = field(default_factory=dict)
    window_times: np.ndarray | None = None
    window_p: np.ndarray | None = None
    window_q: np.ndarray | None = None
    rate_times: np.ndarray | None = None
    rate_p: np.ndarray | None = None
    rate_q: np.ndarray | None = None

    def lines(self, include_timings: bool) -> list[str]:
        out = [
            "frames = %d" % self.n_frames,
            "keyframes = %d" % self.n_keyframes,
            "solves = %d" % self.n_solves,
            "iterations = %d" % self.n_iterations,
            "capped_solves = %d" % self.n_capped_solves,
            "segments = %d" % self.segments,
        ]
        for t, kind in self.init_events:
            out.append("init %.9g %s" % (t, kind))
        for t, reason in self.failure_events:
            out.append("failure %.9g %s" % (t, reason))
        out.append("loop_candidates = %d" % self.loop_candidates)
        out.append("loop_verified = %d" % self.loop_verified)
        out.append("loop_edges = %d" % self.loop_edges)
        out.append("loop_mean_inliers = %.9g" % self.loop_mean_inliers)
        if self.ate_rmse is not None:
            out.append("ate_rmse = %.9g" % self.ate_rmse)
            out.append(
                "final_drift = %.9g %.9g %.9g" % tuple(self.final_drift)
            )
            out.append("drift_pct = %.9g" % self.drift_pct)
            out.append("path_length = %.9g" % self.path_length)
        if include_timings:
            for k in sorted(self.timings):
                out.append("timing_%s = %.3f" % (k, self.timings[k]))
        return out


# ---------------------------------------------------------------------------
# trajectory evaluation


class EvaluationError(ValueError):
    pass


def _match_timestamps(t_est, t_gt):
    j = np.searchsorted(t_gt, t_est)
    pairs = []
    for i, tj in enumerate(t_est):
        for cand in (j[i] - 1, j[i]):
            if 0 <= cand < len(t_gt) and abs(t_gt[cand] - tj) <= ATE_MATCH_TOL:
                pairs.append((i, cand))
                break
    return pairs


def align_4dof(p_est, p_gt):
    """Closed-form yaw + translation minimizing the position RMS."""
    ce = p_est.mean(axis=0)
    cg = p_gt.mean(axis=0)
    de = p_est - ce
    dg = p_gt - cg
    num = np.sum(de[:, 0] * dg[:, 1] - de[:, 1] * dg[:, 0])
    den = np.sum(de[:, 0] * dg[:, 0] + de[:, 1] * dg[:, 1])
    yaw = np.arctan2(num, den)
    R = rot_zyx(0.0, 0.0, yaw)
    T = cg - R @ ce
    return R, T


def align_6dof(p_est, p_gt):
    ce = p_est.mean(axis=0)
    cg = p_gt.mean(axis=0)
    H = (p_est - ce).T @ (p_gt - cg)
    U, _, Vt = np.linalg.svd(H)
    D = np.diag([1.0, 1.0, np.sign(np.linalg.det(Vt.T @ U.T))])
    R = Vt.T @ D @ U.T
    T = cg - R @ ce
    return R, T


def evaluate_ate(t_est, p_est, t_gt, p_gt, mode: str = "4dof", align_count: int = 150):
    """Trajectory error after least-squares alignment on the leading outputs.

    Returns a dict with rmse, final drift vector, drift percentage of the
    matched ground-truth path length, and that path length.
    """
    pairs = _match_timestamps(np.asarray(t_est, dtype=float), np.asarray(t_gt, dtype=float))
    if len(pairs) < 3:
        raise EvaluationError("fewer than 3 timestamp-matched pose pairs")
    ei = np.array([i for i, _ in pairs])
    gi = np.array([j for _, j in pairs])
    pe = np.asarray(p_est, dtype=float)[ei]
    pg = np.asarray(p_gt, dtype=float)[gi]
    n_align = min(align_count, len(pairs))
    if mode == "4dof":
        R, T = align_4dof(pe[:n_align], pg[:n_align])
    elif mode == "6dof":
        R, T = align_6dof(pe[:n_align], pg[:n_align])
    else:
        raise ValueError(f"unknown alignment mode '{mode}'")
    err = pe @ R.T + T - pg
    rmse = float(np.sqrt(np.mean(np.sum(err**2, axis=1))))
    final_drift = err[-1]
    path = float(np.sum(np.linalg.norm(np.diff(pg, axis=0), axis=1)))
    drift_pct = float(np.linalg.norm(final_drift) / max(path, 1e-12) * 100.0)
    return {
        "rmse": rmse,
        "final_drift": final_drift,
        "drift_pct": drift_pct,
        "path_length": path,
    }


# ---------------------------------------------------------------------------
# pose-graph driver: one apply step, one published read path


class GraphDriver:
    """Applies keyframes and loop edges to the pose graph and publishes the
    vertex values each update changes; readers see only published values.

    A keyframe is published as a copy of its values. A loop closure
    publishes every vertex and shares each position array that optimize
    wrote into it: optimize writes new arrays and never writes into them, so
    readers can hold them under the lock without a copy. An update is
    published under one hold of the lock, so a reader sees all of a closure
    or none of it. A vertex id names one vertex, whose time never changes.

    With ``threaded=False`` (test mode) the caller applies each update inline.
    With ``threaded=True`` (live mode) one worker thread applies them from a
    queue, beside the odometry; a worker that raises stops applying, and
    ``finish`` re-raises its exception.
    """

    def __init__(self, graph: PoseGraph, threaded: bool = False):
        self.graph = graph
        self._lock = threading.Lock()
        self._published: dict[int, tuple] = {}  # vid -> (t, p, roll, pitch, yaw)
        # the published times, sorted, each with (publication rank, vid)
        self._times: list[float] = []
        self._ranked: list[tuple[int, int]] = []
        self._error: Exception | None = None
        self._queue: queue.Queue | None = None
        self._thread: threading.Thread | None = None
        if threaded:
            self._queue = queue.Queue()
            self._thread = threading.Thread(target=self._work, daemon=True)
            self._thread.start()

    def _apply(self, item: PoseGraphVertex | LoopEdge) -> None:
        if isinstance(item, LoopEdge):
            self.graph.add_loop_edge(item)
            self.graph.optimize()
            self._publish_graph()
        else:
            self.graph.add_keyframe(item)
            self._publish({item.vid: (item.t, item.p.copy(), item.roll, item.pitch, item.yaw)})

    def _publish_graph(self) -> None:
        verts = map(self.graph.vertices.__getitem__, self.graph.order)
        self._publish({v.vid: (v.t, v.p, v.roll, v.pitch, v.yaw) for v in verts})

    def _publish(self, values: dict) -> None:
        with self._lock:
            n = len(self._published)
            self._published.update(values)
            # a vertex's time is indexed at its first publication; a NaN
            # time is within no tolerance of any time
            for rank, vid in enumerate(islice(self._published, n, None), n):
                t = self._published[vid][0]
                if not np.isnan(t):
                    i = bisect_right(self._times, t)
                    self._times.insert(i, t)
                    self._ranked.insert(i, (rank, vid))

    def _work(self) -> None:
        try:
            while (item := self._queue.get()) is not None:
                self._apply(item)
        except Exception as exc:  # handed to the caller by finish()
            self._error = exc

    def _submit(self, item) -> None:
        if self._queue is None:
            self._apply(item)
        else:
            self._queue.put(item)

    def submit_vertex(self, vertex: PoseGraphVertex) -> None:
        self._submit(vertex)

    def submit_loop_edge(self, edge: LoopEdge) -> None:
        self._submit(edge)

    def vertex_pose(self, vid: int):
        """Published (quaternion, position) of a vertex, or None."""
        with self._lock:
            entry = self._published.get(vid)
        if entry is None:
            return None
        _, p, roll, pitch, yaw = entry
        return rot_to_quat(rot_zyx(roll, pitch, yaw)), p.copy()

    def vertex_at_time(self, t: float):
        """Id of the first published vertex within VERTEX_TIME_TOL of time t,
        or None."""
        # the bisection's margin of twice the tolerance covers rounding in
        # t -/+ VERTEX_TIME_TOL; the test on each time in it is the exact one
        with self._lock:
            lo = bisect_left(self._times, t - 2 * VERTEX_TIME_TOL)
            hi = bisect_right(self._times, t + 2 * VERTEX_TIME_TOL, lo)
            hits = [ranked for t_v, ranked in zip(self._times[lo:hi], self._ranked[lo:hi])
                    if abs(t_v - t) <= VERTEX_TIME_TOL]
        return min(hits)[1] if hits else None

    def close(self) -> None:
        """Stop the worker once it has applied every update already
        submitted. Inline, or once the worker has stopped, it does nothing."""
        if self._thread is not None and self._thread.is_alive():
            self._queue.put(None)
            self._thread.join()

    def finish(self) -> PoseGraph:
        """Apply every submitted update, optimize once more and return the
        graph; re-raises the exception that stopped a worker."""
        self.close()
        if self._error is not None:
            raise self._error
        self.graph.optimize()
        self._publish_graph()
        return self.graph


# ---------------------------------------------------------------------------
# the pipeline


@dataclass
class _PendingLoop:
    query_frame_id: int
    loop_vertex_id: int
    observations: LoopObservationSet
    inliers: int
    # 4-DOF relative measurement (rel_p, rel_yaw) frozen right after the
    # query's relocalization solve; invariant to later window-frame drift
    edge_rel: tuple


class VioPipeline:
    """Batch pipeline over prepared input streams, run once. The window
    normalizes the observed rays; loop_candidates' rays must be unit."""

    def __init__(
        self,
        imu_samples,
        cam_times,
        observations_by_time,
        sfm_frames: list[UpToScaleFrame],
        extrinsic: ExtrinsicCalib,
        config: PipelineConfig,
        loop_candidates: list[LoopCandidate] | None = None,
        seed: int = 0,
    ):
        self.imu = imu_samples
        self.cam_times = np.asarray(cam_times, dtype=float)
        self.obs_by_time = observations_by_time
        self.sfm_by_time = {round(f.t, 9): f for f in (sfm_frames or [])}
        self.extrinsic = extrinsic
        self.config = config
        self.seed = seed
        self.loops_by_query: dict[float, list[LoopCandidate]] = {}
        for cand in loop_candidates or []:
            self.loops_by_query.setdefault(round(cand.query_t, 9), []).append(cand)

        self.report = RunReport()
        self.graph = PoseGraph(config.graph)
        self.driver: GraphDriver | None = None  # lives for one run()
        self.est = SlidingWindowEstimator(config.estimator, extrinsic)

        self._segment = -1
        self._init_buffer: list[tuple[float, UpToScaleFrame, dict]] = []
        self._last_output: FrameStates | None = None
        self._last_extrinsic = extrinsic
        self._kf_reference: dict[int, np.ndarray] = {}  # the last keyframe's observations
        self._gamma_since_kf = np.array([1.0, 0.0, 0.0, 0.0])
        self._active_loops: list[_PendingLoop] = []
        # published poses (t, p, q) in the graph frame, as arrays per frame
        self._window_out: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._rate_out: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._timers: dict[str, float] = {}
        self._frames_since_init = 0
        # 4-DOF correction mapping the drifting odometry frame into the graph
        # frame: p_graph = Rz(yaw) p_vio + t. Updated once per crossing event
        # from verified relocalizations.
        self._set_correction(0.0, np.zeros(3))
        self._corr_update_time = -np.inf
        self._last_edge_time = -np.inf
        self._raw_vio_pose: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # -- timing helpers -------------------------------------------------------

    def _tic(self):
        return time.perf_counter()

    def _toc(self, key, t0):
        self._timers[key] = self._timers.get(key, 0.0) + (time.perf_counter() - t0)

    # -- main loop ---------------------------------------------------------------

    def run(self) -> RunReport:
        """Run over the streams and return the report; a second call raises."""
        if self.driver is not None:
            raise RuntimeError("VioPipeline.run() runs once; build a new pipeline")
        # live mode's graph worker starts here and is stopped on every exit,
        # so a run that raises leaves no thread behind
        self.driver = GraphDriver(self.graph, threaded=not self.config.test_mode)
        try:
            initialized = False
            t_prev = None
            for t in self.cam_times:
                obs = self.obs_by_time(t)
                self.report.n_frames += 1
                if not initialized:
                    initialized = self._try_initialize(t, obs)
                    t_prev = t
                    continue
                ok = self._process_frame(t_prev, t, obs)
                if not ok:
                    initialized = False
                    self._init_buffer.clear()
                t_prev = t
            self._finish()
        finally:
            self.driver.close()
        return self.report

    # -- initialization ------------------------------------------------------------

    def _try_initialize(self, t, obs) -> bool:
        cfg = self.config
        sfm = self.sfm_by_time.get(round(t, 9))
        if sfm is None or len(obs) < MIN_INIT_TRACKED:
            self._init_buffer.clear()
            return False
        self._init_buffer.append((t, sfm, obs))
        if len(self._init_buffer) > cfg.init_window:
            self._init_buffer.pop(0)
        if len(self._init_buffer) < cfg.init_window:
            return False
        t0 = self._tic()
        times = [b[0] for b in self._init_buffer]
        frames = [b[1] for b in self._init_buffer]
        deltas = []
        try:
            for ta, tb in zip(times[:-1], times[1:]):
                seg = segment_samples(self.imu, ta, tb)
                deltas.append(integrate_segment(seg, BiasState(), cfg.model_noise))
            window_samples = segment_samples(self.imu, times[0], times[-1])
            if not excitation_gates(deltas, window_samples):
                self._toc("init", t0)
                return False
            states, deltas = run_alignment(frames, deltas, self.extrinsic)
        except PreintegrationError:
            # the window's IMU stream has a gap: start collecting after it
            self._init_buffer.clear()
            self._toc("init", t0)
            return False
        except InitializationError:
            self._toc("init", t0)
            return False

        self._frames_since_init = 0
        # a new pose-graph segment starts with no odometry->graph correction
        self._set_correction(0.0, np.zeros(3))
        self._corr_update_time = -np.inf
        self.est.seed(states, deltas)
        for k, (_, _, frame_obs) in enumerate(self._init_buffer):
            self.est.observe(frame_obs, frame_idx=k)
        self.est.triangulate_new_features()
        try:
            self.est.build_and_solve(fix_extrinsic=True)  # released after warm-up
        except EstimatorError:
            self._toc("init", t0)
            return False
        self._segment += 1
        self.report.segments = self._segment + 1
        kind = "init" if self._segment == 0 else "reinit"
        self.report.init_events.append((float(t), kind))
        self._kf_reference = dict(self._init_buffer[-1][2])
        self._gamma_since_kf = np.array([1.0, 0.0, 0.0, 0.0])
        self._active_loops = []
        self._publish_output()
        self._toc("init", t0)
        return True

    # -- steady-state frame processing ---------------------------------------------

    def _process_frame(self, t_prev, t, obs) -> bool:
        cfg = self.config
        self._frames_since_init += 1
        warmed_up = self._frames_since_init > EXTRINSIC_WARMUP_FRAMES
        t0 = self._tic()
        bias = self.est.frames.bias(-1)
        try:
            seg = segment_samples(self.imu, t_prev, t)
            delta = integrate_segment(seg, bias, cfg.model_noise)
        except PreintegrationError:
            # no usable IMU stream over the frame interval (a gap longer than
            # MAX_SAMPLE_GAP, samples out of order, or a stream that ends
            # before t): nothing to propagate the window with
            self._toc("preintegration", t0)
            return self._fail(t, "imu_gap")
        self._toc("preintegration", t0)

        # keyframe decision against the last keyframe reference
        _, _, gamma_c = delta.correct_for_bias(bias)
        # a product over any number of frames: normalized where it is stored
        self._gamma_since_kf = quat_canonical(quat_mul(self._gamma_since_kf, gamma_c))
        is_kf = self._decide_keyframe(obs)
        if is_kf:
            self._kf_reference = dict(obs)
            self._gamma_since_kf = np.array([1.0, 0.0, 0.0, 0.0])

        t0 = self._tic()
        self.est.add_frame(t, delta, obs, is_kf)
        self.est.triangulate_new_features()
        self._toc("window", t0)

        self._flush_marginalized()

        new_loops = []
        if cfg.enable_loops:
            t0 = self._tic()
            new_loops = self._gather_loops(t)
            self._toc("loops", t0)

        t0 = self._tic()
        loops = [pl.observations for pl in self._active_loops] + [obs for _, obs, _, _ in new_loops]
        try:
            solve = self.est.build_and_solve(loops=loops, fix_extrinsic=not warmed_up)
        except EstimatorError:
            self._toc("solve", t0)
            return self._fail(t, "numerical")
        self.report.n_solves += 1
        self.report.n_iterations += solve.iterations
        self.report.n_capped_solves += solve.termination == "max_iterations"
        self._toc("solve", t0)
        self._resolve_loops(t, new_loops)

        settling = self._frames_since_init <= EXTRINSIC_WARMUP_FRAMES + 2
        failed, reason = detect_failure(
            self._last_output, self.est.latest(), self.est.tracked_feature_count(),
            None if settling else self._last_extrinsic,
            None if settling else self.est.extrinsic,
        )
        if failed and loops and reason == "discontinuity":
            # the window legitimately shifts onto the loop frames during
            # relocalization; a jump here is the correction, not a failure
            failed, reason = False, None
        if failed:
            return self._fail(t, reason)

        t0 = self._tic()
        # delta was integrated over seg at the last output's biases: its
        # path is the one forward propagation composes with
        ts, p, q, _ = imu_forward_propagate(self._last_output, seg, GRAVITY, delta.path)
        self._rate_out.append((ts, *self._corrected_pose(p, q)))
        self._publish_output()
        self._toc("propagation", t0)
        return True

    def _fail(self, t, reason) -> bool:
        """Record a failure event; the caller re-initializes."""
        self.report.failure_events.append((float(t), reason))
        self._last_output = None
        self._active_loops = []
        return False

    # -- odometry -> graph drift correction ---------------------------------------

    def _set_correction(self, yaw: float, t: np.ndarray) -> None:
        """Set the correction p_graph = Rz(yaw) p_vio + t. Rz and its
        quaternion are kept: every output pose is corrected."""
        Rz = rot_zyx(0.0, 0.0, yaw)
        self._corr_R, self._corr_q, self._corr_t = Rz, rot_to_quat(Rz), t

    def _corrected_pose(self, p, q):
        """Odometry positions (N, 3) and attitudes (N, 4) in the graph frame."""
        return p @ self._corr_R.T + self._corr_t, quat_canonical(quat_mul(self._corr_q, q))

    def _decide_keyframe(self, obs) -> bool:
        ref_obs = self._kf_reference
        shared = [(ref_obs[fid], ray) for fid, ray in obs.items() if fid in ref_obs]
        q_bc = self.extrinsic.q_b_c
        q_rel_cam = quat_mul(quat_inverse(q_bc), quat_mul(self._gamma_since_kf, q_bc))
        cfg = self.config.estimator
        return keyframe_decision(
            shared, q_rel_cam, cfg.parallax_px, cfg.min_tracked, cfg.focal
        )

    def _publish_output(self):
        """Keep the window's newest state and extrinsic as the last output,
        which the next frame checks and propagates, and publish its pose."""
        self._last_output = s = self.est.latest()
        self._last_extrinsic = self.est.extrinsic
        self._window_out.append((s.t, *self._corrected_pose(s.p, s.q)))

    # -- pose graph and relocalization ------------------------------------------------

    def _flush_marginalized(self):
        t0 = self._tic()
        for fid, state in self.est.pop_marginalized_keyframes():
            self.report.n_keyframes += 1
            if self._frames_since_init <= GRAPH_ADMISSION_DELAY:
                continue  # settling-phase pose, keep it out of the graph
            t, p, q = float(state.t[0]), state.p[0], state.q[0]
            p_g, q_g = self._corrected_pose(state.p, state.q)
            try:
                # sequential-edge values come from the raw odometry relatives
                # (vio_* fields); the optimization state starts at the
                # drift-corrected pose so it lands consistent with the graph
                vertex = vertex_from_state(fid, t, p, q, self._segment)
                _, _, yaw_g = yaw_roll_pitch_decompose(q_g[0])
            except ValueError:
                continue
            vertex.p = p_g[0]
            vertex.yaw = float(wrap_angle(yaw_g))
            self.driver.submit_vertex(vertex)
            self._raw_vio_pose[fid] = (q, p)
            for pl in (a for a in self._active_loops if a.query_frame_id == fid):
                if t - self._last_edge_time < self.config.loop_edge_cooldown:
                    continue
                self._last_edge_time = t
                edge = LoopEdge(
                    pl.loop_vertex_id, fid, pl.edge_rel[0], pl.edge_rel[1],
                    inliers=pl.inliers,
                )
                self.driver.submit_loop_edge(edge)
                self.report.loop_edges += 1
        # drop loop sets whose query frame left the window without reaching the graph
        window = set(self.est.frame_ids)
        self._active_loops = [p for p in self._active_loops if p.query_frame_id in window]
        self._toc("graph", t0)

    def _gather_loops(self, t) -> list[tuple]:
        """Verify this frame's loop candidates; returns the verified ones as
        (loop vertex id, LoopObservationSet, inliers, (q, p) the loop frame's
        body pose in the window frame)."""
        cands = self.loops_by_query.get(round(t, 9), [])
        if not cands or not self.est.keyframe_flags[-1]:
            return []
        verified = []
        for cand in cands:
            self.report.loop_candidates += 1
            vid = self.driver.vertex_at_time(cand.candidate_t)
            if vid is None:
                continue
            points = self._window_points(cand.feature_ids)
            # verification gates widen with the assumed observation noise so
            # genuine matches survive; the tight defaults hold noise-free
            sigma = self.config.estimator.obs_sigma
            result = verify_loop_candidate(
                cand.feature_ids, cand.rays_query, cand.rays_candidate, points,
                epipolar_threshold=max(1e-3, 4.0 * sigma),
                pnp_threshold=max(3.0 / self.config.estimator.focal, 4.0 * sigma),
                min_inliers=self.config.graph.min_inliers,
                seed=self.seed + 1000 + 31 * self.report.loop_candidates,
            )
            if result is None:
                continue
            mask, (R_cw, t_cw) = result
            pairs = [
                (int(fid), ray)
                for fid, ray, keep in zip(cand.feature_ids, cand.rays_candidate, mask)
                if keep
            ]
            self.report.loop_verified += 1
            n_prev = self.report.loop_verified - 1
            self.report.loop_mean_inliers = (
                self.report.loop_mean_inliers * n_prev + len(pairs)
            ) / self.report.loop_verified
            # the estimator's constant loop pose comes from past odometry
            # output, keeping the Eq-style loop terms in the window's own
            # frame; the graph correction is handled separately
            obs_set = LoopObservationSet(*self._raw_vio_pose[vid], pairs)
            # loop camera pose in the window frame from the absolute-pose stage;
            # the 4-DOF edge's body pose takes the extrinsic _window_points used
            q_wc = rot_to_quat(R_cw.T)
            p_wc = -R_cw.T @ t_cw
            q_wb = quat_canonical(quat_mul(q_wc, quat_inverse(self.est.extrinsic.q_b_c)))
            p_wb = p_wc - quat_rotate(q_wb, self.est.extrinsic.p_b_c)
            verified.append((vid, obs_set, len(pairs), (q_wb, p_wb)))
        return verified

    def _resolve_loops(self, t, new_loops) -> None:
        """Resolve the loops verified in this frame, right after the query's
        relocalization solve. Each one's 4-DOF relative pose of the query in
        the loop frame is frozen (the PnP pose and the query pose share the
        window frame, so it is drift-invariant) and stays pending until the
        query frame reaches the graph or leaves the window. At most once per
        CORRECTION_INTERVAL, a loop refreshes the odometry->graph correction:
        the query's graph pose is the loop vertex's published pose composed
        with that relative."""
        query = self.est.latest()
        p_q, q_q = query.p[0], query.q[0]
        try:
            _, _, yaw_q = yaw_roll_pitch_decompose(q_q)
        except ValueError:
            return
        for vid, observations, inliers, (q_wb, p_wb) in new_loops:
            try:
                roll_v, pitch_v, yaw_v = yaw_roll_pitch_decompose(q_wb)
            except ValueError:
                continue
            rel_p, rel_yaw = relative_4dof(rot_zyx(roll_v, pitch_v, yaw_v), p_wb, yaw_v, p_q, yaw_q)
            self._active_loops.append(_PendingLoop(
                self.est.frame_ids[-1], vid, observations, inliers, (rel_p, rel_yaw)))
            if t - self._corr_update_time <= CORRECTION_INTERVAL:
                continue
            q_vg, p_vg = self.driver.vertex_pose(vid)
            try:
                roll_vg, pitch_vg, yaw_vg = yaw_roll_pitch_decompose(q_vg)
            except ValueError:
                continue
            p_q_graph = p_vg + rot_zyx(roll_vg, pitch_vg, yaw_vg) @ rel_p
            corr_yaw = wrap_angle(wrap_angle(yaw_vg + rel_yaw) - yaw_q)
            self._set_correction(corr_yaw, p_q_graph - rot_zyx(0.0, 0.0, corr_yaw) @ p_q)
            self._corr_update_time = t

    def _window_points(self, feature_ids) -> dict[int, np.ndarray]:
        """Current world positions of window features with optimized depth."""
        pts = {}
        wanted = set(int(f) for f in feature_ids)
        cam_q, cam_p = self.est.camera_poses()
        index = {fid: k for k, fid in enumerate(self.est.frame_ids)}
        for fid, feat in self.est.features.items():
            if fid not in wanted or feat.inv_depth is None:
                continue
            anchor = feat.anchor_id()
            k = index[anchor]
            pts[fid] = quat_rotate(cam_q[k], feat.obs[anchor] / feat.inv_depth) + cam_p[k]
        return pts

    # -- wrap-up --------------------------------------------------------------------

    def _finish(self):
        t0 = self._tic()
        graph = self.driver.finish()
        if len(graph) > self.config.graph_capacity:
            graph.downsample(self.config.graph_capacity, seed=self.seed)
        self._toc("graph", t0)
        r = self.report
        r.timings = dict(self._timers)
        # a run may end or fail before its first steady frame: no IMU-rate output
        if self._window_out:
            r.window_times, r.window_p, r.window_q = map(np.concatenate, zip(*self._window_out))
        if self._rate_out:
            r.rate_times, r.rate_p, r.rate_q = map(np.concatenate, zip(*self._rate_out))


def pipeline_from_scenario(data: ScenarioData, config: PipelineConfig) -> VioPipeline:
    """Wire a pipeline onto simulator output."""
    cfg = data.config
    cam = camera_times(cfg)
    loops = synthesize_loops(data.ground_truth, cam, cfg.seed) if config.enable_loops else None
    obs_index = TrackObservationIndex(data.tracks)
    return VioPipeline(
        data.imu, cam, obs_index, data.sfm, cfg.extrinsic, config,
        loop_candidates=loops, seed=cfg.seed,
    )


class TrackObservationIndex:
    """Track observations bucketed by rounded timestamp."""

    def __init__(self, tracks):
        self._by_time: dict[float, dict[int, np.ndarray]] = {}
        for track in tracks:
            for tt, ray in zip(track.times, track.rays):
                self._by_time.setdefault(round(tt, 9), {})[track.feature_id] = ray

    def times(self):
        return np.array(sorted(self._by_time))

    def __call__(self, t: float) -> dict[int, np.ndarray]:
        return dict(self._by_time.get(round(t, 9), {}))
