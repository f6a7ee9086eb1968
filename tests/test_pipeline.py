import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import monovio
from monovio import dataio, pipeline
from monovio.cli import main as cli_main
from monovio.estimator import (
    EstimatorConfig,
    EstimatorError,
    Observations,
    SlidingWindowEstimator,
    SolverConfig,
    _WindowProblem,
)
from monovio.pipeline import (
    CORRECTION_INTERVAL,
    EXTRINSIC_WARMUP_FRAMES,
    VERTEX_TIME_TOL,
    GraphDriver,
    PipelineConfig,
    VioPipeline,
    align_4dof,
    evaluate_ate,
    EvaluationError,
    pipeline_from_scenario,
)
from monovio.initialization import UpToScaleFrame
from monovio.posegraph import LoopEdge, PoseGraph, PoseGraphError, vertex_from_state
from monovio.preintegration import BiasState, ImuSamples, NoiseParams
from monovio.simulator import ScenarioConfig, build_scenario, camera_times
from monovio import geometry as geo
from reference import imu_forward_propagate_reintegrated, vertex_at_time_scan

MODEL = NoiseParams(2e-3, 2e-5, 1e-6, 1e-7)


def tilt_errors(q_est, q_gt):
    """Roll/pitch (gravity-direction) error angle per pose, yaw-invariant."""
    z = np.array([0.0, 0.0, 1.0])
    out = []
    for qe, qg in zip(q_est, q_gt):
        ze = geo.quat_rotate(geo.quat_inverse(qe), z)
        zg = geo.quat_rotate(geo.quat_inverse(qg), z)
        out.append(np.arccos(np.clip(ze @ zg, -1.0, 1.0)))
    return np.array(out)


def quick_config(**kw):
    base = dict(duration=16.0, cam_rate=5.0, seed=3, traj={"period": 12.0})
    base.update(kw)
    return ScenarioConfig(**base)


def noisy_config(**kw):
    """The noisy loop scenario: sensor noise, pixel noise and IMU biases."""
    return quick_config(
        noise=NoiseParams(0.02, 2e-4, 1e-4, 1e-5), pixel_sigma_px=1.5,
        bias0=BiasState(accel=[0.02, -0.01, 0.015], gyro=[0.003, -0.002, 0.004]), **kw,
    )


class TestEvaluateAte:
    def test_zero_for_identical(self):
        t = np.linspace(0, 10, 51)
        p = np.stack([np.cos(t), np.sin(t), 0.1 * t], axis=1)
        res = evaluate_ate(t, p, t, p)
        assert res["rmse"] == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(res["final_drift"]) < 1e-12

    def test_alignment_absorbs_yaw_and_translation(self):
        t = np.linspace(0, 10, 51)
        p_gt = np.stack([np.cos(t), np.sin(t), 0.1 * t], axis=1)
        R = geo.rot_zyx(0.0, 0.0, np.deg2rad(15.0))
        p_est = p_gt @ R.T + np.array([2.0, -1.0, 0.5])
        res = evaluate_ate(t, p_est, t, p_gt)
        assert res["rmse"] < 1e-10
        assert np.linalg.norm(res["final_drift"]) < 1e-10

    def test_constructed_drift_percentage(self):
        t = np.linspace(0, 100, 501)
        p_gt = np.stack([0.5 * t, np.zeros_like(t), np.zeros_like(t)], axis=1)
        # inject drift growing linearly after the alignment window
        drift = np.zeros_like(p_gt)
        drift[150:, 1] = np.linspace(0, 0.5, len(t) - 150)
        res = evaluate_ate(t, p_gt + drift, t, p_gt, align_count=150)
        expected_pct = 0.5 / res["path_length"] * 100
        assert res["drift_pct"] == pytest.approx(expected_pct, rel=0.01)

    def test_too_few_matches(self):
        with pytest.raises(EvaluationError):
            evaluate_ate([0.0], [[0, 0, 0]], [10.0], [[0, 0, 0]])

    def test_6dof_mode(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0, 5, 26)
        p_gt = rng.standard_normal((26, 3)).cumsum(axis=0) * 0.1
        R = geo.quat_to_rot(geo.quat_exp([0.2, -0.1, 0.4]))
        p_est = p_gt @ R.T + np.array([1.0, 2.0, 3.0])
        res = evaluate_ate(t, p_est, t, p_gt, mode="6dof")
        assert res["rmse"] < 1e-10


class TestDataIO:
    def test_imu_round_trip(self, tmp_path):
        k = np.arange(10)
        samples = ImuSamples(
            k * 0.005,
            np.stack([0.1 * k, np.full(10, -0.2), np.full(10, 9.8)], axis=1),
            np.stack([np.full(10, 0.01), 0.02 * k, np.full(10, -0.03)], axis=1),
        )
        path = tmp_path / "imu.csv"
        dataio.write_imu_csv(path, samples)
        back = dataio.read_imu_csv(path)
        assert len(back) == 10
        np.testing.assert_allclose(back.t, samples.t, rtol=0, atol=1e-9)
        np.testing.assert_allclose(back.accel, samples.accel, rtol=1e-8)
        np.testing.assert_allclose(back.gyro, samples.gyro, rtol=1e-8)

    def test_imu_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1000,0.1,0.2\n")
        with pytest.raises(dataio.FormatError, match="bad.csv:1"):
            dataio.read_imu_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_imu_rejects_non_finite(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,0,0,0,0,9.81\n"
                        f"5000000,0,0,0,0,{value},9.81\n"
                        "10000000,0,0,0,0,0,9.81\n")
        with pytest.raises(dataio.FormatError, match="bad.csv:2: non-finite"):
            dataio.read_imu_csv(path)

    @pytest.mark.parametrize("stamps", [(0, 10000000, 5000000, 15000000),
                                        (0, 5000000, 5000000, 10000000)],
                             ids=["swapped", "repeated"])
    def test_imu_rejects_time_not_ascending(self, tmp_path, stamps):
        # the third line's timestamp is not after the second's: two rows
        # swapped, or one timestamp repeated
        path = tmp_path / "bad.csv"
        path.write_text("".join(f"{ns},0,0,0,0,0,9.81\n" for ns in stamps))
        with pytest.raises(dataio.FormatError, match="bad.csv:3: timestamp not after"):
            dataio.read_imu_csv(path)

    def test_tracks_round_trip(self, tmp_path):
        u = np.array([[0.1, 0.2, 0.97], [0.15, 0.18, 0.97], [-0.3, 0.1, 0.9]])
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        obs = Observations({0.2: {3: u[2], 7: u[0]}, 0.4: {7: u[1]}})
        path = tmp_path / "tracks.csv"
        dataio.write_tracks_csv(path, obs)
        back = dataio.read_tracks_csv(path)
        np.testing.assert_array_equal(back.times(), [0.2, 0.4])
        assert list(back(0.2)) == [3, 7] and list(back(0.4)) == [7]
        np.testing.assert_allclose(back(0.2)[7], u[0], atol=1e-8)
        np.testing.assert_allclose(back(0.4)[7], u[1], atol=1e-8)
        # rays written scaled by 2 read back unit
        path.write_text("".join("200000000,%d,%.9g,%.9g,%.9g\n" % (fid, *(2.0 * ray))
                                for fid, ray in ((3, u[2]), (7, u[0]))))
        back = dataio.read_tracks_csv(path)
        for fid, ray in ((3, u[2]), (7, u[0])):
            assert np.linalg.norm(back(0.2)[fid]) == pytest.approx(1.0, abs=1e-15)
            np.testing.assert_allclose(back(0.2)[fid], ray, atol=1e-8)

    @pytest.mark.parametrize("ray", ["0,0,0", "nan,0,1", "0,inf,1"])
    def test_tracks_reject_zero_or_non_finite_rays(self, tmp_path, ray):
        path = tmp_path / "tracks.csv"
        path.write_text(f"#timestamp_ns,feature_id,ux,uy,uz\n0,1,0,0,1\n0,2,{ray}\n")
        with pytest.raises(dataio.FormatError, match="tracks.csv:3: zero or non-finite ray"):
            dataio.read_tracks_csv(path)

    def test_tracks_read_rays_whose_squares_overflow(self, tmp_path):
        # a finite ray past about 1e154 overflows np.linalg.norm's squares:
        # it is measured rescaled, and every ordinary ray reads the same bits
        rays = {1: [0.3, -0.2, 0.9], 2: [1e200, 1e200, 1e200], 3: [-1e300, 0.0, 2e299]}
        path = tmp_path / "tracks.csv"
        path.write_text("".join("0,%d,%r,%r,%r\n" % (fid, *r) for fid, r in rays.items()))
        back = dataio.read_tracks_csv(path)(0.0)
        plain = np.array(rays[1])
        assert back[1].tobytes() == (plain / np.linalg.norm(plain)).tobytes()
        np.testing.assert_allclose(back[2], np.full(3, 3**-0.5), rtol=0, atol=1e-15)
        np.testing.assert_allclose(back[3], np.array([-5.0, 0.0, 1.0]) / 26**0.5, rtol=0, atol=1e-15)

    def test_tracks_rows_in_any_order_but_one_ray_per_feature_and_time(self, tmp_path):
        path = tmp_path / "tracks.csv"
        path.write_text("400000000,7,0,0,1\n200000000,9,0,1,1\n200000000,7,1,0,1\n")
        back = dataio.read_tracks_csv(path)
        np.testing.assert_array_equal(back.times(), [0.2, 0.4])
        assert list(back(0.2)) == [7, 9] and list(back(0.4)) == [7]
        np.testing.assert_allclose(back(0.2)[7], [2**-0.5, 0.0, 2**-0.5])
        path.write_text("200000000,7,0,0,1\n400000000,7,0,0,1\n200000000,7,1,0,1\n")
        with pytest.raises(dataio.FormatError, match="tracks.csv:3: feature 7 seen twice"):
            dataio.read_tracks_csv(path)

    def test_trajectory_round_trip(self, tmp_path):
        t = np.array([0.0, 0.1])
        p = np.array([[1, 2, 3], [4, 5, 6.0]])
        q = np.array([geo.quat_exp([0.1, 0, 0.2]), geo.quat_exp([0, 0.3, 0])])
        path = tmp_path / "traj.txt"
        dataio.write_trajectory(path, t, p, q)
        t2, p2, q2 = dataio.read_trajectory(path)
        np.testing.assert_allclose(t2, t, atol=1e-9)
        np.testing.assert_allclose(p2, p, atol=1e-8)
        for a, b in zip(q, q2):
            assert geo.quat_angle_between(a, b) < 1e-7

    @pytest.mark.parametrize("line", ["0.1 nan 0 0 0 0 0 1", "0.1 0 0 0 0 0 0 inf",
                                      "inf 0 0 0 0 0 0 1", "0.1 0 -inf 0 0 0 0 1"])
    def test_trajectory_rejects_non_finite_fields(self, tmp_path, line):
        path = tmp_path / "traj.txt"
        path.write_text(f"0.0 0 0 0 0 0 0 1\n{line}\n")
        with pytest.raises(dataio.FormatError, match="traj.txt:2: non-finite value"):
            dataio.read_trajectory(path)

    @pytest.mark.parametrize("quat", ["0 0 0 0", "1e-13 0 0 0", "0 1e200 0 1e200"])
    def test_trajectory_rejects_quaternions_it_cannot_normalize(self, tmp_path, quat):
        # too small for quat_canonical to normalize, or with squares that overflow
        path = tmp_path / "sfm.txt"
        path.write_text(f"0.0 0 0 0 0 0 0 1\n\n0.2 1 2 3 {quat}\n")
        with pytest.raises(dataio.FormatError, match="sfm.txt:3: zero or overflowing quaternion"):
            dataio.read_sfm_poses(path)

    def test_config_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        # the last three are retired keys that nothing reads
        for key in ("not_a_key", "pnp_threshold", "epipolar_threshold", "motion_ba_depth"):
            path.write_text(f"duration = 10\n{key} = 5\n")
            with pytest.raises(dataio.FormatError, match=f"unknown key '{key}'"):
                dataio.parse_config(path)

    def test_config_parses_vectors_and_comments(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("duration = 12.5  # comment\nbias_w = 0.01, -0.02, 0.03\nseed = 4\n")
        cfg = dataio.parse_config(path)
        assert cfg["duration"] == 12.5
        np.testing.assert_allclose(cfg["bias_w"], [0.01, -0.02, 0.03])
        assert cfg["seed"] == 4

    def test_config_bool_spellings(self, tmp_path):
        path = tmp_path / "cfg.txt"
        for word, value in (("1", True), ("TRUE", True), ("Yes", True), ("on", True),
                            ("0", False), ("False", False), ("NO", False), ("off", False)):
            path.write_text(f"duration = 10\noptimize_extrinsic = {word}\n")
            assert dataio.parse_config(path)["optimize_extrinsic"] is value
        for word in ("ture", "2", "enabled", ""):
            path.write_text(f"duration = 10\noptimize_extrinsic = {word}\n")
            with pytest.raises(dataio.FormatError, match=r"cfg.txt:2: bad value for 'optimize_extrinsic'"):
                dataio.parse_config(path)

    def test_loops_round_trip(self, tmp_path):
        from monovio.simulator import synthesize_loops, make_ground_truth

        cfg = quick_config(duration=26.0, loop_min_gap=8.0, loop_radius=0.8)
        gt = make_ground_truth(cfg)
        loops = synthesize_loops(gt, camera_times(cfg), seed=1)
        assert loops
        path = tmp_path / "loops.txt"
        dataio.write_loops(path, loops)
        back = dataio.read_loops(path)
        assert len(back) == len(loops)
        assert back[0].query_t == pytest.approx(loops[0].query_t, abs=1e-6)
        np.testing.assert_allclose(back[0].rays_candidate, loops[0].rays_candidate, atol=1e-8)

    @staticmethod
    def _rewrite_rays(src, dst, scale=None, row=None, ray=None):
        """Copy a loops file, scaling every ray by scale or replacing the
        candidate ray of correspondence row `row` by `ray`."""
        lines, k = [], 0
        for line in src.read_text().splitlines():
            parts = line.split()
            if parts[0] != "LOOP":
                vals = [float(x) for x in parts[1:]]
                if scale is not None:
                    vals = [scale * x for x in vals]
                elif k == row:
                    vals[0:3] = ray
                k += 1
                line = " ".join([parts[0]] + [repr(x) for x in vals])
            lines.append(line)
        dst.write_text("\n".join(lines) + "\n")

    def test_loop_rays_become_unit_where_read(self, tmp_path):
        from monovio.simulator import synthesize_loops, make_ground_truth

        cfg = quick_config(duration=26.0, loop_min_gap=8.0, loop_radius=0.8)
        loops = synthesize_loops(make_ground_truth(cfg), camera_times(cfg), seed=1)
        unit, scaled = tmp_path / "unit.txt", tmp_path / "scaled.txt"
        dataio.write_loops(unit, loops)
        self._rewrite_rays(unit, scaled, scale=2.0)
        a, b = dataio.read_loops(unit), dataio.read_loops(scaled)
        assert len(a) == len(b) == len(loops)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(cb.rays_query, ca.rays_query)
            np.testing.assert_array_equal(cb.rays_candidate, ca.rays_candidate)
            for rays in (ca.rays_query, ca.rays_candidate):
                np.testing.assert_allclose(np.linalg.norm(rays, axis=1), 1.0, rtol=0, atol=1e-15)

    def test_loops_read_rays_whose_squares_overflow(self, tmp_path):
        from monovio.simulator import synthesize_loops, make_ground_truth

        cfg = quick_config(duration=26.0, loop_min_gap=8.0, loop_radius=0.8)
        loops = synthesize_loops(make_ground_truth(cfg), camera_times(cfg), seed=1)
        unit, big = tmp_path / "unit.txt", tmp_path / "big.txt"
        dataio.write_loops(unit, loops)
        self._rewrite_rays(unit, big, row=2, ray=[1e200, -1e200, 1e200])
        a, b = dataio.read_loops(unit), dataio.read_loops(big)
        np.testing.assert_allclose(b[0].rays_candidate[2], [3**-0.5, -(3**-0.5), 3**-0.5],
                                   rtol=0, atol=1e-15)
        # every other ray reads the same bits
        b[0].rays_candidate[2] = a[0].rays_candidate[2]
        for ca, cb in zip(a, b):
            assert cb.rays_query.tobytes() == ca.rays_query.tobytes()
            assert cb.rays_candidate.tobytes() == ca.rays_candidate.tobytes()

    def test_loops_reject_a_header_time_that_is_not_a_number(self, tmp_path):
        path = tmp_path / "loops.txt"
        path.write_text("LOOP 10.0 2.0\n1 0 0 1 0 0 1\n\nLOOP 12.0 abc\n2 0 0 1 0 0 1\n")
        with pytest.raises(dataio.FormatError, match="loops.txt:4: could not convert"):
            dataio.read_loops(path)

    def test_loops_reject_zero_and_non_finite_rays(self, tmp_path):
        from monovio.simulator import synthesize_loops, make_ground_truth

        cfg = quick_config(duration=26.0, loop_min_gap=8.0, loop_radius=0.8)
        loops = synthesize_loops(make_ground_truth(cfg), camera_times(cfg), seed=1)
        unit, bad = tmp_path / "unit.txt", tmp_path / "bad.txt"
        dataio.write_loops(unit, loops)
        # the third correspondence row is on line 4, after the first header
        for ray in ([0.0, 0.0, 0.0], [np.nan, 0.0, 1.0], [0.0, np.inf, 1.0]):
            self._rewrite_rays(unit, bad, row=2, ray=ray)
            with pytest.raises(dataio.FormatError, match=r"bad.txt:4: zero or non-finite ray"):
                dataio.read_loops(bad)


class TestPipeline:
    def test_noise_free_short_run(self):
        cfg = quick_config()
        data = build_scenario(cfg)
        pc = PipelineConfig(enable_loops=False, model_noise=MODEL)
        pipe = pipeline_from_scenario(data, pc)
        rep = pipe.run()
        assert rep.failure_events == []
        assert rep.init_events and rep.init_events[0][1] == "init"
        gt = data.ground_truth
        res = evaluate_ate(rep.window_times, rep.window_p, gt.t, gt.p, "4dof", 50)
        assert res["drift_pct"] < 0.1
        idx = [int(round(t * cfg.imu_rate)) for t in rep.window_times]
        assert np.rad2deg(tilt_errors(rep.window_q, gt.q[idx]).max()) < 0.2

    def test_imu_rate_output_dense(self):
        cfg = quick_config(duration=10.0)
        data = build_scenario(cfg)
        pipe = pipeline_from_scenario(data, PipelineConfig(enable_loops=False, model_noise=MODEL))
        rep = pipe.run()
        assert rep.rate_times is not None
        # IMU-rate stream is much denser than the window stream
        assert len(rep.rate_times) > 5 * len(rep.window_times)
        assert np.all(np.diff(rep.rate_times) > 0)

    def test_stream_ending_at_its_initializing_frame(self):
        # a run whose camera stream ends at the frame that initializes it
        # publishes that frame's window pose and no IMU-rate output
        data = build_scenario(quick_config(duration=4.0))
        config = PipelineConfig(enable_loops=False, model_noise=MODEL)
        t_init = pipeline_from_scenario(data, config).run().init_events[0][0]
        pipe = pipeline_from_scenario(data, config)
        pipe.cam_times = pipe.cam_times[pipe.cam_times <= t_init]
        rep = pipe.run()
        assert rep.init_events == [(t_init, "init")] and rep.failure_events == []
        np.testing.assert_array_equal(rep.window_times, [t_init])
        assert rep.window_p.shape == (1, 3) and rep.window_q.shape == (1, 4)
        assert rep.rate_times is None and rep.rate_p is None and rep.rate_q is None

    def test_run_leaves_caller_config_unchanged(self):
        cfg = quick_config(duration=4.0)
        pc = PipelineConfig(enable_loops=False, model_noise=MODEL)
        rep = pipeline_from_scenario(build_scenario(cfg), pc).run()
        assert rep.init_events
        # the run ends while extrinsic refinement is still held back
        assert rep.n_frames < pc.init_window + EXTRINSIC_WARMUP_FRAMES
        assert pc.estimator.optimize_extrinsic is True

    def test_each_solve_linearizes_once_per_iteration(self, monkeypatch):
        # an iterate is linearized only when a step is taken from it: the
        # starting one and each accepted trial but the last
        linearize, solve = _WindowProblem.linearize, _WindowProblem.solve
        built, per_solve = [], []

        def counted_linearize(problem, terms, *args):
            built.append(problem)
            return linearize(problem, terms, *args)

        def counted_solve(problem, config, mask):
            start = len(built)
            report = solve(problem, config, mask)
            per_solve.append((len(built) - start, report.iterations, report.termination))
            return report

        monkeypatch.setattr(_WindowProblem, "linearize", counted_linearize)
        monkeypatch.setattr(_WindowProblem, "solve", counted_solve)
        # a cap of 2 iterations, which 7 of this run's 32 solves reach, so
        # that both terminations occur
        capped = EstimatorConfig(solver=SolverConfig(max_iterations=2))
        rep = pipeline_from_scenario(build_scenario(noisy_config(duration=8.0)),
                                     PipelineConfig(enable_loops=False, estimator=capped)).run()
        assert rep.n_frames and len(per_solve) > 10
        assert {"converged", "max_iterations"} <= {term for *_, term in per_solve}
        assert all(n == iterations for n, iterations, _ in per_solve)
        # the report counts the steady-state solves, which follow the
        # initialization's solve in a run without failures
        assert not rep.failure_events
        steady = per_solve[-rep.n_solves:]
        assert rep.n_iterations == sum(iterations for _, iterations, _ in steady)
        assert rep.n_capped_solves == sum(term == "max_iterations" for *_, term in steady) > 0
        lines = rep.lines(include_timings=False)
        assert f"iterations = {rep.n_iterations}" in lines
        assert f"capped_solves = {rep.n_capped_solves}" in lines

    def test_each_frame_builds_one_window_problem(self, monkeypatch):
        # a keyframe's solve also yields the prior that the next slide
        # installs, so marginalizing builds no problem of its own
        init, build_and_solve = _WindowProblem.__init__, SlidingWindowEstimator.build_and_solve
        built, solves = [], []

        def counted_init(problem, *args, **kwargs):
            built.append(problem)
            init(problem, *args, **kwargs)

        def counted_build_and_solve(est, *args, **kwargs):
            solves.append(est)
            return build_and_solve(est, *args, **kwargs)

        monkeypatch.setattr(_WindowProblem, "__init__", counted_init)
        monkeypatch.setattr(SlidingWindowEstimator, "build_and_solve", counted_build_and_solve)
        rep = pipeline_from_scenario(build_scenario(noisy_config(duration=8.0)),
                                     PipelineConfig(enable_loops=False)).run()
        assert rep.n_keyframes >= 5  # marginalized keyframes
        assert len(solves) > rep.n_keyframes
        assert len(built) == len(solves)

    def test_dropping_a_non_keyframe_keeps_the_prior(self, monkeypatch):
        # the dropped frame is the newest, which a prior never holds, so a
        # slide that drops it leaves the prior the very same object
        add_frame = SlidingWindowEstimator.add_frame
        drops = []

        def checked_add_frame(est, *args):
            prior = est.prior
            drop = len(est.frames) == est.capacity and not est.keyframe_flags[-1]
            add_frame(est, *args)
            if drop:
                drops.append((prior, est.prior))

        monkeypatch.setattr(SlidingWindowEstimator, "add_frame", checked_add_frame)
        pipeline_from_scenario(build_scenario(noisy_config(duration=8.0)),
                               PipelineConfig(enable_loops=False)).run()
        assert sum(before is not None for before, _ in drops) >= 5
        assert all(after is before for before, after in drops)

    def test_feature_keys_ascend_after_every_frame(self, monkeypatch):
        # each frame's slide and observations, and each (re-)initialization's
        # seeding, keep every feature's keys ascending window frame ids, so
        # that its first key is its anchor
        checks = []

        def check(est):
            window = est.frame_ids
            for f in est.features.values():
                keys = list(f.obs)
                assert keys == sorted(keys) and set(keys) <= set(window)
                assert f.anchor_id() == keys[0] == min(keys)
            checks.append(len(est.features))

        def checked(method):
            def run(est, *args, **kwargs):
                out = method(est, *args, **kwargs)
                check(est)
                return out
            return run

        for name in ("add_frame", "triangulate_new_features"):
            monkeypatch.setattr(SlidingWindowEstimator, name,
                                checked(getattr(SlidingWindowEstimator, name)))
        cfg = noisy_config(duration=16.0, blackout_start=6.0, blackout_duration=2.0)
        rep = pipeline_from_scenario(build_scenario(cfg), PipelineConfig(enable_loops=False)).run()
        assert any(kind == "reinit" for _, kind in rep.init_events)
        assert rep.n_keyframes >= 5 and len(checks) > len(camera_times(cfg)) and max(checks) > 0

    def test_blackout_triggers_failure_and_new_segment(self):
        cfg = noisy_config(duration=30.0, blackout_start=12.0, blackout_duration=2.0)
        data = build_scenario(cfg)
        pipe = pipeline_from_scenario(data, PipelineConfig(enable_loops=True))
        rep = pipe.run()
        assert any(reason == "tracking" for _, reason in rep.failure_events)
        assert any(kind == "reinit" for _, kind in rep.init_events)
        assert rep.segments == 2
        graph = pipe.graph
        for e in graph.sequential_edges:
            assert graph.vertices[e.from_id].segment == graph.vertices[e.to_id].segment

    def test_file_driven_matches_formats(self, tmp_path):
        cfg = quick_config(duration=8.0)
        data = build_scenario(cfg)
        dataio.write_imu_csv(tmp_path / "imu.csv", data.imu)
        dataio.write_tracks_csv(tmp_path / "tracks.csv", data.observations)
        dataio.write_sfm_poses(tmp_path / "sfm.txt", data.sfm)
        imu = dataio.read_imu_csv(tmp_path / "imu.csv")
        obs = dataio.read_tracks_csv(tmp_path / "tracks.csv")
        sfm = dataio.read_sfm_poses(tmp_path / "sfm.txt")
        pipe = VioPipeline(
            imu, obs.times(), obs, sfm, cfg.extrinsic,
            PipelineConfig(enable_loops=False, model_noise=MODEL), seed=3,
        )
        rep = pipe.run()
        assert rep.failure_events == []
        gt = data.ground_truth
        res = evaluate_ate(rep.window_times, rep.window_p, gt.t, gt.p, "4dof", 50)
        assert res["drift_pct"] < 0.5


class TestForwardPropagationPath:
    """Forward propagation composes with the midpoint path of the frame's
    own delta, which integrate_segment built over the frame's samples at the
    biases of the last output: the path it would integrate again."""

    @pytest.mark.parametrize("blackout", [None, 6.0])
    def test_rate_output_equals_reintegrated_path(self, monkeypatch, blackout):
        kw = {} if blackout is None else dict(blackout_start=blackout, blackout_duration=2.0)
        data = build_scenario(noisy_config(duration=18.0, **kw))
        config = PipelineConfig(enable_loops=True)
        integrate, propagate = pipeline.integrate_segment, pipeline.imu_forward_propagate
        deltas, checked = [], []

        def recording_integrate(seg, bias, noise):
            deltas.append(integrate(seg, bias, noise))
            return deltas[-1]

        def checked_propagate(state, seg, gravity, path):
            # the frame's delta is the last one the pipeline integrated
            delta = deltas[-1]
            assert path is delta.path and delta.samples is seg
            assert np.array_equal(delta.lin_bias.accel, state.ba[-1])
            assert np.array_equal(delta.lin_bias.gyro, state.bw[-1])
            checked.append(float(state.t[-1]))
            return propagate(state, seg, gravity, path)

        monkeypatch.setattr(pipeline, "integrate_segment", recording_integrate)
        monkeypatch.setattr(pipeline, "imu_forward_propagate", checked_propagate)
        rep = pipeline_from_scenario(data, config).run()
        monkeypatch.setattr(pipeline, "imu_forward_propagate", imu_forward_propagate_reintegrated)
        ref = pipeline_from_scenario(data, config).run()

        # every published frame but the (re-)initializing ones propagated,
        # the first one after each of those included
        inits = [t for t, _ in rep.init_events]
        assert len(inits) == (1 if blackout is None else 2)
        assert set(inits) <= set(checked)
        assert len(checked) == len(rep.window_times) - len(inits)
        for name in ("rate_times", "rate_p", "rate_q", "window_times", "window_p", "window_q"):
            assert getattr(rep, name).tobytes() == getattr(ref, name).tobytes(), name


def assert_unit_quaternions(q):
    """Every quaternion row of q has unit norm to 1e-12."""
    n = np.linalg.norm(np.reshape(q, (-1, 4)), axis=1)
    np.testing.assert_allclose(n, 1.0, rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def noisy_loop_run():
    """A noisy run with loops, long enough to refine the extrinsic. Returns
    the pipeline, its report, the attitudes of every window iterate the
    solves wrote back (held loop frames included), of the window, its prior
    and its extrinsic after each solve, and the caller's extrinsic with
    copies of its arrays from before the run."""
    held = []
    write_back, build_and_solve = _WindowProblem.write_back, SlidingWindowEstimator.build_and_solve

    def recording_write_back(problem, est):
        held.append(problem.states.q)
        return write_back(problem, est)

    def recording_solve(est, *args, **kwargs):
        report = build_and_solve(est, *args, **kwargs)
        held.extend([est.frames.q, est.extrinsic.q_b_c]
                    + ([est.prior.lin_states.q] if est.prior is not None else []))
        return report

    data = build_scenario(noisy_config(duration=25.0))
    ext = data.config.extrinsic
    before = (ext.p_b_c.copy(), ext.q_b_c.copy())
    pipe = pipeline_from_scenario(data, PipelineConfig(enable_loops=True))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_WindowProblem, "write_back", recording_write_back)
        mp.setattr(SlidingWindowEstimator, "build_and_solve", recording_solve)
        rep = pipe.run()
    return pipe, rep, held, ext, before


class TestValidWhereMade:
    def test_states_and_published_attitudes_are_unit(self, noisy_loop_run):
        pipe, rep, held, _, _ = noisy_loop_run
        assert rep.loop_verified > 0  # held loop frames joined solves
        assert len(held) > 2 * rep.n_solves
        for q in held:
            assert_unit_quaternions(q)
        assert_unit_quaternions(pipe.est.frames.q)
        assert_unit_quaternions(rep.window_q)
        assert_unit_quaternions(rep.rate_q)

    def test_run_leaves_caller_extrinsic_unchanged(self, noisy_loop_run):
        pipe, rep, _, ext, (p_before, q_before) = noisy_loop_run
        assert rep.failure_events == []
        assert rep.n_frames > PipelineConfig().init_window + EXTRINSIC_WARMUP_FRAMES
        assert pipe.config.estimator.optimize_extrinsic
        # the window refined its own extrinsic...
        assert not np.array_equal(pipe.est.extrinsic.p_b_c, p_before)
        assert not np.array_equal(pipe.est.extrinsic.q_b_c, q_before)
        # ...and the caller's is the object it passed, bit for bit
        assert pipe.extrinsic is ext
        np.testing.assert_array_equal(ext.p_b_c, p_before)
        np.testing.assert_array_equal(ext.q_b_c, q_before)

    def test_second_run_raises_and_leaves_the_first_report(self, noisy_loop_run):
        pipe, rep, *_ = noisy_loop_run
        before = {k: (v.copy() if isinstance(v, np.ndarray) else repr(v))
                  for k, v in vars(rep).items()}
        with pytest.raises(RuntimeError, match="runs once"):
            pipe.run()
        assert pipe.report is rep
        assert vars(rep).keys() == before.keys()
        for k, v in vars(rep).items():
            if isinstance(v, np.ndarray):
                np.testing.assert_array_equal(v, before[k])
            else:
                assert repr(v) == before[k], k


class TestRelocalization:
    def test_verified_loop_sets_the_graph_correction(self, monkeypatch):
        # a verified loop's frozen relative is the query's 4-DOF pose in the
        # frame of the loop's PnP body pose, both taken right after the
        # query's solve; the query's corrected pose is then the loop vertex's
        # published pose composed with that relative, and further loops within
        # CORRECTION_INTERVAL leave the correction alone. The PnP body pose is
        # the PnP camera pose through the window's extrinsic, which placed the
        # PnP points, not through the initial calibration
        from monovio.posegraph import verify_loop_candidate

        gather, resolve = VioPipeline._gather_loops, VioPipeline._resolve_loops
        pnp_poses, calls, accepted, body_poses = {}, [], [], []

        def verified_candidate(*args, **kwargs):
            result = verify_loop_candidate(*args, **kwargs)
            if result is not None:
                accepted.append(result[1])
            return result

        def gathered(pipe, t):
            n_accepted = len(accepted)
            verified = gather(pipe, t)
            pnp_poses[t] = [(vid, q_wb.copy(), p_wb.copy())
                            for vid, _, _, (q_wb, p_wb) in verified]
            body_poses.extend((q_wb, p_wb, R_cw, t_cw, pipe.est.extrinsic, pipe.extrinsic)
                              for (_, _, _, (q_wb, p_wb)), (R_cw, t_cw)
                              in zip(verified, accepted[n_accepted:]))
            return verified

        def resolved(pipe, t, new_loops):
            query = pipe.est.latest()
            p_q, q_q = query.p[0], query.q[0]
            before = [a[0] for a in pipe._corrected_pose(query.p, query.q)]
            n_pending = len(pipe._active_loops)
            resolve(pipe, t, new_loops)
            if new_loops:
                calls.append((t, p_q, q_q, pipe.est.frame_ids[-1], before,
                              [a[0] for a in pipe._corrected_pose(query.p, query.q)],
                              pipe._active_loops[n_pending:],
                              [pipe.driver.vertex_pose(vid) for vid, _, _ in pnp_poses[t]]))

        monkeypatch.setattr("monovio.pipeline.verify_loop_candidate", verified_candidate)
        monkeypatch.setattr(VioPipeline, "_gather_loops", gathered)
        monkeypatch.setattr(VioPipeline, "_resolve_loops", resolved)
        rep = pipeline_from_scenario(build_scenario(noisy_config(duration=25.0)),
                                     PipelineConfig(enable_loops=True)).run()
        assert rep.loop_verified == sum(len(pnp_poses[t]) for t, *_ in calls) == len(body_poses)
        for q_wb, p_wb, R_cw, t_cw, ext, initial in body_poses:
            assert np.linalg.norm(ext.p_b_c - initial.p_b_c) > 1e-3  # the two differ
            np.testing.assert_allclose(geo.quat_to_rot(geo.quat_mul(q_wb, ext.q_b_c)), R_cw.T,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(p_wb + geo.quat_rotate(q_wb, ext.p_b_c), -R_cw.T @ t_cw,
                                       rtol=0, atol=1e-12)
        updated, unchanged = [], []
        for t, p_q, q_q, query_fid, before, (p_c, q_c), pending, vertex_poses in calls:
            _, _, yaw_q = geo.yaw_roll_pitch_decompose(q_q)
            assert len(pending) == len(pnp_poses[t])
            expected = []
            for pl, (vid, q_wb, p_wb) in zip(pending, pnp_poses[t]):
                roll_v, pitch_v, yaw_v = geo.yaw_roll_pitch_decompose(q_wb)
                rel_p = geo.rot_zyx(roll_v, pitch_v, yaw_v).T @ (p_q - p_wb)
                rel_yaw = geo.wrap_angle(yaw_q - yaw_v)
                assert (pl.query_frame_id, pl.loop_vertex_id) == (query_fid, vid)
                np.testing.assert_allclose(pl.edge_rel[0], rel_p, rtol=0, atol=1e-12)
                assert abs(geo.wrap_angle(pl.edge_rel[1] - rel_yaw)) < 1e-12
                expected.append((rel_p, rel_yaw))
            if updated and t - updated[-1] <= CORRECTION_INTERVAL:
                assert np.array_equal(p_c, before[0]) and np.array_equal(q_c, before[1])
                unchanged.append(t)
                continue
            (q_vg, p_vg), (rel_p, rel_yaw) = vertex_poses[0], expected[0]
            roll_g, pitch_g, yaw_g = geo.yaw_roll_pitch_decompose(q_vg)
            np.testing.assert_allclose(p_c, p_vg + geo.rot_zyx(roll_g, pitch_g, yaw_g) @ rel_p,
                                       rtol=0, atol=1e-9)
            yaw_c = geo.yaw_roll_pitch_decompose(q_c)[2]
            assert abs(geo.wrap_angle(yaw_c - (yaw_g + rel_yaw))) < 1e-9
            updated.append(t)
        assert updated and unchanged


def driver_script(n=24):
    """Two laps of a circle with drifting vertex values; from the second lap,
    every fifth keyframe closes a loop to its twin on the first."""
    items = []
    for k in range(2 * n):
        th = 2 * np.pi * k / n
        p = np.array([np.cos(th), np.sin(th), 0.1 * np.sin(2 * th)]) + 0.004 * k
        q = geo.rot_to_quat(geo.rot_zyx(0.05 * np.sin(th), 0.04 * np.cos(th), th + 0.003 * k))
        items.append(vertex_from_state(k, 0.4 * k, p, q))
        if k >= n and k % 5 == 0:
            items.append(LoopEdge(k - n, k, np.zeros(3), 0.0, inliers=40))
    return items


def drive(driver, items, threaded):
    """Submit a script, reading back each submitted keyframe after every
    item (in threaded mode, while the worker applies updates)."""
    times = []
    for item in items:
        if isinstance(item, LoopEdge):
            driver.submit_loop_edge(item)
        else:
            driver.submit_vertex(item)
            times.append(item.t)
        for t in times:
            vid = driver.vertex_at_time(t)
            if vid is None:
                assert threaded
                continue
            q, p = driver.vertex_pose(vid)
            if not threaded:  # an inline update is published before submit returns
                v = driver.graph.vertices[vid]
                assert np.array_equal(p, v.p) and np.array_equal(q, geo.rot_to_quat(geo.rot_zyx(v.roll, v.pitch, v.yaw)))
    return driver.finish()


class TestGraphDriver:
    def test_inline_and_threaded_give_identical_graphs(self):
        before = threading.active_count()
        inline = GraphDriver(PoseGraph())
        threaded = GraphDriver(PoseGraph(), threaded=True)
        a = drive(inline, driver_script(), threaded=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the reader and the worker often
        try:
            b = drive(threaded, driver_script(), threaded=True)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert len(a.loop_edges) == 5
        assert a.order == b.order
        for vid in a.order:
            va, vb = a.vertices[vid], b.vertices[vid]
            assert np.array_equal(va.p, vb.p) and va.yaw == vb.yaw
            assert (va.roll, va.pitch, va.t) == (vb.roll, vb.pitch, vb.t)
        assert len(a.sequential_edges) == len(b.sequential_edges)
        for ea, eb in zip(a.sequential_edges + a.loop_edges, b.sequential_edges + b.loop_edges):
            assert (ea.from_id, ea.to_id, ea.rel_yaw) == (eb.from_id, eb.to_id, eb.rel_yaw)
            assert np.array_equal(ea.rel_p, eb.rel_p)
        for vid in a.order:
            v = a.vertices[vid]
            assert inline.vertex_at_time(v.t) == threaded.vertex_at_time(v.t) == vid
            (qa, pa), (qb, pb) = inline.vertex_pose(vid), threaded.vertex_pose(vid)
            assert np.array_equal(qa, qb) and np.array_equal(pa, pb)
            assert np.array_equal(pa, v.p)
            assert np.array_equal(qa, geo.rot_to_quat(geo.rot_zyx(v.roll, v.pitch, v.yaw)))
        assert inline.vertex_pose(999) is None and threaded.vertex_pose(999) is None
        assert inline.vertex_at_time(-1.0) is None and threaded.vertex_at_time(-1.0) is None

    @pytest.mark.parametrize("threaded", [False, True], ids=["inline", "threaded"])
    def test_vertex_at_time_matches_a_scan(self, threaded):
        # times out of order, vertices within the tolerance of each other (the
        # later-published one first in time), a repeated time and a NaN
        tol = VERTEX_TIME_TOL
        times = [0.0, 2.0, 1.0 + 0.6 * tol, 1.0, 3.0, 1.0 - 0.9 * tol, 2.0, np.nan, 4.0, 2.0 + 1.5 * tol]
        driver = GraphDriver(PoseGraph(), threaded=threaded)
        for k, t in enumerate(times):
            th = 0.5 * k
            driver.submit_vertex(vertex_from_state(k, t, np.array([np.cos(th), np.sin(th), 0.0]),
                                                   geo.rot_to_quat(geo.rot_zyx(0.0, 0.0, th))))
            if k in (4, 8):  # closures republish every vertex
                driver.submit_loop_edge(LoopEdge(0, k, np.zeros(3), 0.0, inliers=40))
        driver.finish()
        offsets = [0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 2.5, -2.5]
        queries = [t + f * tol for t in times for f in offsets] + [np.nan, np.inf, -np.inf, -1.0, 1e9]
        found = [driver.vertex_at_time(t) for t in queries]
        assert found == [vertex_at_time_scan(driver, t) for t in queries]
        assert found[:: len(offsets)][:4] == [0, 1, 2, 2]  # 3 and 5 lie within 2's reach
        # 6 shares 1's time, and a NaN time matches nothing
        assert {vid for vid in found if vid is not None} == set(range(len(times))) - {6, 7}

    def test_reader_never_sees_a_closure_half_published(self):
        def published(driver):
            return {vid: (p.tobytes(), yaw) for vid, (_, p, _, _, yaw) in driver._published.items()}

        class RecordingLock:
            """The driver's lock, recording the published values at each
            release: every state that a reader can see."""

            def __init__(self, driver):
                self.lock, self.driver, self.states = threading.Lock(), driver, []

            def __enter__(self):
                self.lock.acquire()

            def __exit__(self, *exc):
                self.states.append(published(self.driver))
                self.lock.release()

        inline = GraphDriver(PoseGraph())
        states = [published(inline)]
        for item in driver_script():
            (inline.submit_loop_edge if isinstance(item, LoopEdge) else inline.submit_vertex)(item)
            states.append(published(inline))
        inline.finish()
        states.append(published(inline))

        threaded = GraphDriver(PoseGraph(), threaded=True)
        threaded._lock = recorder = RecordingLock(threaded)  # before any update is submitted
        done, unpublished = threading.Event(), []

        def read():  # a reader beside the worker, as the odometry is
            while not done.is_set():
                for k in range(0, 48, 7):
                    vid = threaded.vertex_at_time(0.4 * k)
                    if vid is not None and threaded.vertex_pose(vid) is None:
                        unpublished.append(vid)

        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the reader and the worker often
        try:
            reader.start()
            for item in driver_script():
                (threaded.submit_loop_edge if isinstance(item, LoopEdge) else threaded.submit_vertex)(item)
            threaded.finish()
        finally:
            done.set()
            reader.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not reader.is_alive() and unpublished == []
        assert published(threaded) == states[-1]
        # every update was published whole: each state a reader could see
        # is one the inline driver held between two updates
        assert len(recorder.states) >= len(states) - 1
        assert all(state in states for state in recorder.states)

    def test_threaded_worker_error_raised_by_finish(self):
        def vertex(k):
            return vertex_from_state(k, float(k), np.array([k, 0.0, 0.0]), geo.quat_identity())

        unknown = LoopEdge(0, 99, np.zeros(3), 0.0)
        inline = GraphDriver(PoseGraph())
        inline.submit_vertex(vertex(0))
        with pytest.raises(PoseGraphError):
            inline.submit_loop_edge(unknown)

        before = threading.active_count()
        threaded = GraphDriver(PoseGraph(), threaded=True)
        threaded.submit_vertex(vertex(0))
        threaded.submit_loop_edge(unknown)
        threaded.submit_vertex(vertex(1))  # after the failure: never applied
        with pytest.raises(PoseGraphError):
            threaded.finish()
        assert threading.active_count() == before
        assert threaded.graph.order == [0]


class TestLiveMode:
    def test_live_mode_matches_test_mode(self):
        data = build_scenario(noisy_config(duration=28.0))
        gt = data.ground_truth
        reports = {}
        for test_mode in (True, False):
            before = threading.active_count()
            pc = PipelineConfig(enable_loops=True, test_mode=test_mode)
            reports[test_mode] = pipeline_from_scenario(data, pc).run()
            assert threading.active_count() == before
        ref, live = reports[True], reports[False]
        assert ref.loop_edges >= 1
        assert live.segments == ref.segments
        assert live.failure_events == ref.failure_events
        ate = {
            mode: evaluate_ate(rep.window_times, rep.window_p, gt.t, gt.p, "4dof", 50)["rmse"]
            for mode, rep in reports.items()
        }
        # live mode reads graph values that may lag the worker by a few
        # updates; the window trajectory must still agree to within 2 cm
        assert abs(ate[False] - ate[True]) <= 0.02

    def test_interrupted_run_leaves_no_worker(self):
        before = threading.active_count()
        pipe = pipeline_from_scenario(build_scenario(quick_config(duration=6.0)),
                                      PipelineConfig(enable_loops=False, test_mode=False))
        index, frames = pipe.obs_by_time, []

        def interrupted(t):
            frames.append(t)
            if len(frames) == 20:
                raise KeyboardInterrupt
            return index(t)

        pipe.obs_by_time = interrupted
        with pytest.raises(KeyboardInterrupt):
            pipe.run()
        assert len(frames) == 20
        assert threading.active_count() == before


class TestFailureRecovery:
    """Errors inside a frame become failure events followed by
    re-initialization; none escapes VioPipeline.run()."""

    @pytest.mark.parametrize(
        "gap, steady", [((6.05, 6.3), True), ((1.05, 1.3), False)], ids=["steady", "init"]
    )
    def test_imu_gap(self, gap, steady):
        data = build_scenario(quick_config(duration=12.0))
        data = replace(data, imu=data.imu[~((gap[0] < data.imu.t) & (data.imu.t < gap[1]))])
        rep = pipeline_from_scenario(data, PipelineConfig(enable_loops=False, model_noise=MODEL)).run()
        kinds = [kind for _, kind in rep.init_events]
        if steady:
            assert [reason for _, reason in rep.failure_events] == ["imu_gap"]
            t_fail = rep.failure_events[0][0]
            assert gap[0] < t_fail < gap[1] + 0.2
            assert kinds == ["init", "reinit"] and rep.init_events[1][0] > t_fail
        else:
            assert rep.failure_events == []
            assert kinds == ["init"] and rep.init_events[0][0] > gap[1]

    def test_frame_sharing_no_feature_with_last_keyframe(self):
        # without the keyframe track gate, the first blackout frame shares no
        # feature with the last keyframe: it is a keyframe, and the blackout
        # a tracking failure
        data = build_scenario(quick_config(duration=8.0, blackout_start=5.0, blackout_duration=1.0))
        config = PipelineConfig(estimator=EstimatorConfig(min_tracked=0), enable_loops=False,
                                model_noise=MODEL)
        rep = pipeline_from_scenario(data, config).run()
        assert [reason for _, reason in rep.failure_events][:1] == ["tracking"]
        assert 5.0 <= rep.failure_events[0][0] < 6.0

    def test_solver_error(self, monkeypatch):
        solve = SlidingWindowEstimator.build_and_solve
        steady_calls = []

        def flaky(est, loops=None, **kwargs):
            if loops is not None:  # steady state passes its loop terms
                steady_calls.append(est.frames.t[-1])
                if len(steady_calls) == 4:
                    raise EstimatorError("non-finite Gauss-Newton step")
                return solve(est, loops, **kwargs)
            return solve(est, **kwargs)

        monkeypatch.setattr(SlidingWindowEstimator, "build_and_solve", flaky)
        data = build_scenario(quick_config(duration=10.0))
        rep = pipeline_from_scenario(data, PipelineConfig(enable_loops=False, model_noise=MODEL)).run()
        assert rep.failure_events == [(steady_calls[3], "numerical")]
        assert [kind for _, kind in rep.init_events] == ["init", "reinit"]
        assert rep.init_events[1][0] > steady_calls[3]

    def test_sfm_poses_implying_a_gyro_bias_past_its_bound(self):
        # SfM attitudes that turn 1.5 rad/s faster than the gyroscope: every
        # alignment attempt fails, and the run ends without initializing
        data = build_scenario(quick_config(duration=6.0))
        spun = [UpToScaleFrame(f.t, geo.quat_mul(geo.quat_exp([0.0, 0.0, 1.5 * f.t]), f.q_c0_ck),
                               f.p_bar) for f in data.sfm]
        config = PipelineConfig(enable_loops=False, model_noise=MODEL)
        rep = pipeline_from_scenario(replace(data, sfm=spun), config).run()
        assert rep.n_frames == len(camera_times(data.config))
        assert rep.init_events == [] and rep.failure_events == []

    @pytest.mark.parametrize("noisy", [False, True], ids=["noise-free", "noisy"])
    @pytest.mark.parametrize("planar", [False, True], ids=["excited", "planar"])
    @pytest.mark.parametrize("trajectory", ["figure_eight", "circle", "line", "stationary_excited"])
    def test_every_motion_model_returns_a_report(self, trajectory, planar, noisy):
        # each trajectory model, with its default roll and pitch excitation
        # and without it, noise-free and noisy: whatever the motion does to
        # initialization and tracking, run() returns a report
        kw = dict(roll_amp=0.0, pitch_amp=0.0) if planar else {}
        if noisy:
            kw.update(noise=NoiseParams(0.02, 2e-4, 1e-4, 1e-5), pixel_sigma_px=1.5)
        data = build_scenario(ScenarioConfig(trajectory=trajectory, duration=10.0, seed=1, **kw))
        rep = pipeline_from_scenario(data, PipelineConfig()).run()
        assert isinstance(rep, pipeline.RunReport)
        assert rep.n_frames == len(camera_times(data.config))


class TestCli:
    def _write_cfg(self, tmp_path, duration=10.0):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "trajectory = figure_eight\n"
            f"duration = {duration}\n"
            "period = 12\n"
            "seed = 5\n"
            "cam_rate = 5\n"
            "imu_rate = 200\n"
        )
        return path

    def test_simulate_and_run(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out_sim = tmp_path / "sim"
        assert cli_main(["simulate", "--scenario", str(cfg), "--out-dir", str(out_sim)]) == 0
        for name in ("imu.csv", "tracks.csv", "sfm.txt", "ground_truth.txt", "loops.txt"):
            assert (out_sim / name).exists()
        out_run = tmp_path / "run"
        assert cli_main([
            "run", "--scenario", str(cfg), "--out-dir", str(out_run), "--disable-loop",
        ]) == 0
        assert (out_run / "traj_window.txt").exists()
        assert (out_run / "report.txt").exists()

    def test_determinism_bit_identical(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["run", "--scenario", str(cfg), "--out-dir", str(a)]) == 0
        assert cli_main(["run", "--scenario", str(cfg), "--out-dir", str(b)]) == 0
        for name in ("traj_window.txt", "traj_imu_rate.txt", "report.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # a 14 s run of the benchmark's noisy scenario, in a child process
        # whose environment leaves the thread variables unset, sets them to
        # 1 and sets them to 2 (no higher count: that starts more threads
        # than the check needs); the package's own pin makes every run's
        # arithmetic the same
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            "duration = 14\nperiod = 12\nseed = 3\ncam_rate = 5\nimu_rate = 200\n"
            "sigma_a = 0.02\nsigma_w = 2e-4\nsigma_ba = 1e-4\nsigma_bw = 1e-5\n"
            "pixel_sigma_px = 1.5\nbias_a = 0.02 -0.01 0.015\nbias_w = 0.003 -0.002 0.004\n"
        )
        src = str(Path(monovio.__file__).resolve().parent.parent)
        outputs = []
        for threads in (None, "1", "2"):
            env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": src}
            if threads is not None:
                env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                           MKL_NUM_THREADS=threads)
            out = tmp_path / f"threads-{threads}"
            subprocess.run([sys.executable, "-m", "monovio.cli", "run", "--scenario", str(cfg),
                            "--out-dir", str(out)], env=env, check=True, capture_output=True)
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert sorted(outputs[0]) == ["report.txt", "traj_imu_rate.txt", "traj_window.txt"]
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("code, threads, warned", [
        ("import numpy, monovio", None, True),
        ("import numpy, monovio", "2", True),
        ("import numpy, monovio", "1", False),
        ("import monovio, numpy", None, False),
        ("import monovio, numpy", "2", False),
    ])
    def test_warns_a_caller_that_loaded_numpy_unpinned(self, code, threads, warned):
        # a child process whose BLAS pools started before the package's pin,
        # at a thread count other than 1, is warned at import; one that
        # imported monovio first, or pinned the count itself, is not
        env = {"PATH": os.environ.get("PATH", ""),
               "PYTHONPATH": str(Path(monovio.__file__).resolve().parent.parent)}
        if threads is not None:
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert ("UserWarning: numpy was imported before monovio" in run.stderr) == warned

    def test_file_driven_run_seed(self, tmp_path, monkeypatch):
        # an explicit --seed, 0 included, overrides the config file's seed
        import monovio.cli

        class Seen(Exception):
            pass

        def capture(*args, seed, **kwargs):
            raise Seen(seed)

        monkeypatch.setattr(monovio.cli, "VioPipeline", capture)
        imu = ImuSamples(0.005 * np.arange(5), np.zeros((5, 3)), np.tile([0.0, 0.0, 9.81], (5, 1)))
        dataio.write_imu_csv(tmp_path / "imu.csv", imu)
        (tmp_path / "tracks.csv").write_text("0,1,0,0,1\n")
        (tmp_path / "run.cfg").write_text("seed = 7\n")
        base = ["run", "--imu", str(tmp_path / "imu.csv"), "--tracks", str(tmp_path / "tracks.csv"),
                "--config", str(tmp_path / "run.cfg"), "--out-dir", str(tmp_path / "out")]
        for extra, want in (([], 7), (["--seed", "0"], 0), (["--seed", "2"], 2)):
            with pytest.raises(Seen) as seen:
                cli_main(base + extra)
            assert seen.value.args == (want,)

    def test_eval_subcommand(self, tmp_path, capsys):
        t = np.linspace(0, 5, 26)
        p = np.stack([t, np.zeros_like(t), np.zeros_like(t)], axis=1)
        q = np.tile(geo.quat_identity(), (26, 1))
        dataio.write_trajectory(tmp_path / "est.txt", t, p, q)
        dataio.write_trajectory(tmp_path / "gt.txt", t, p, q)
        assert cli_main([
            "eval", "--estimate", str(tmp_path / "est.txt"), "--gt", str(tmp_path / "gt.txt"),
        ]) == 0
        out = capsys.readouterr().out
        assert "rmse = 0" in out

    def test_eval_reports_a_bad_trajectory_line(self, tmp_path, capsys):
        t = np.linspace(0, 5, 26)
        p = np.stack([t, np.zeros_like(t), np.zeros_like(t)], axis=1)
        dataio.write_trajectory(tmp_path / "gt.txt", t, p, np.tile(geo.quat_identity(), (26, 1)))
        lines = (tmp_path / "gt.txt").read_text().splitlines()
        for bad, message in (("0 0 0 0", "zero or overflowing quaternion"),
                             ("0 nan 0 1", "non-finite value")):
            lines[4] = " ".join(lines[4].split()[:4] + bad.split())
            (tmp_path / "est.txt").write_text("\n".join(lines) + "\n")
            assert cli_main([
                "eval", "--estimate", str(tmp_path / "est.txt"), "--gt", str(tmp_path / "gt.txt"),
            ]) == 1
            assert f"est.txt:5: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["cam_rate = 0", "duration = nan", "sigma_a = -0.1",
                                      "trajectory = nope", "pixel_sigma_px = -1"])
    def test_scenario_value_out_of_range_names_its_line(self, tmp_path, capsys, line):
        # rejected by the scenario's own checks, not by the parser
        path = tmp_path / "scenario.cfg"
        path.write_text(f"seed = 2\n{line}\n")
        for command in ("simulate", "run"):
            assert cli_main([command, "--scenario", str(path), "--out-dir", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}:2: ") and "Traceback" not in err

    def test_corrupt_csv_row_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "imu.csv"
        bad.write_text("100,0.1,0.2,0.3,0.4,0.5,oops\n" )
        tracks = tmp_path / "tracks.csv"
        tracks.write_text("100,1,0,0,1\n")
        rc = cli_main([
            "run", "--imu", str(bad), "--tracks", str(tracks),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "imu.csv:1" in err

    def test_posegraph_subcommand(self, tmp_path):
        g = PoseGraph()
        for k in range(5):
            g.add_keyframe(vertex_from_state(k, float(k), np.array([0.5 * k, 0, 0]), geo.quat_identity()))
        src = tmp_path / "g.txt"
        g.save(src)
        dst = tmp_path / "g2.txt"
        assert cli_main([
            "posegraph", "--input", str(src), "--output", str(dst), "--optimize",
        ]) == 0
        g2 = PoseGraph.load(dst)
        assert len(g2) == 5


class TestAlignment4Dof:
    def test_recovers_injected_transform(self):
        rng = np.random.default_rng(1)
        p = rng.standard_normal((40, 3)).cumsum(axis=0)
        yaw = 0.7
        R = geo.rot_zyx(0.0, 0.0, yaw)
        T = np.array([1.5, -2.0, 0.3])
        p_est = (p - T) @ R  # inverse transform: R^T (p - T) applied rowwise
        R_fit, T_fit = align_4dof(p_est, p)
        np.testing.assert_allclose(R_fit, R, atol=1e-10)
        np.testing.assert_allclose(T_fit, T, atol=1e-10)
