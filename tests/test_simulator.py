import numpy as np
import pytest

from monovio import geometry as geo
from monovio.estimator import triangulate_features
from monovio.preintegration import GRAVITY, BiasState, NoiseParams, integrate_segment, segment_samples
from monovio.simulator import (
    ScenarioConfig,
    build_scenario,
    camera_poses,
    camera_times,
    eval_trajectory,
    make_ground_truth,
    synthesize_imu,
    synthesize_loops,
    synthesize_observations,
    synthesize_sfm,
)

NO_NOISE = NoiseParams(0.0, 0.0, 0.0, 0.0)


def stationary_config(**kw):
    return ScenarioConfig(
        trajectory="stationary_excited",
        duration=3.0,
        traj={"start": 100.0},  # never excited
        roll_amp=0.0,
        pitch_amp=0.0,
        **kw,
    )


class TestTrajectories:
    def test_circle_centripetal(self):
        cfg = ScenarioConfig(trajectory="circle", duration=10, traj={"radius": 2.0, "period": 10.0})
        s = eval_trajectory(cfg, np.array([1.0, 4.2, 7.7]))
        exp = 2.0 * (2 * np.pi / 10.0) ** 2
        np.testing.assert_allclose(np.linalg.norm(s.a_world, axis=1), exp, rtol=1e-12)

    def test_figure_eight_period_closure(self):
        cfg = ScenarioConfig(duration=12.0, traj={"period": 12.0})
        s0 = eval_trajectory(cfg, np.array([0.0]))
        sT = eval_trajectory(cfg, np.array([12.0]))
        assert np.abs(s0.p - sT.p).max() < 1e-12
        assert geo.quat_angle_between(s0.q[0], sT.q[0]) < 1e-12

    def test_velocity_is_position_derivative(self):
        cfg = ScenarioConfig(duration=12.0)
        t = np.linspace(0.1, 11.9, 40)
        h = 1e-6
        s = eval_trajectory(cfg, t)
        fd = (eval_trajectory(cfg, t + h).p - eval_trajectory(cfg, t - h).p) / (2 * h)
        assert np.abs(fd - s.v).max() < 1e-6

    def test_omega_consistent_with_attitude(self):
        cfg = ScenarioConfig(duration=12.0, seed=2)
        t = np.linspace(0.1, 11.9, 25)
        h = 1e-6
        s = eval_trajectory(cfg, t)
        qp = eval_trajectory(cfg, t + h).q
        qm = eval_trajectory(cfg, t - h).q
        qdot = (qp - qm) / (2 * h)
        for k in range(len(t)):
            qi = geo.quat_inverse(s.q[k])
            w_fd = 2.0 * np.array(
                [
                    qi[0] * qdot[k, 1] + qi[1] * qdot[k, 0] + qi[2] * qdot[k, 3] - qi[3] * qdot[k, 2],
                    qi[0] * qdot[k, 2] - qi[1] * qdot[k, 3] + qi[2] * qdot[k, 0] + qi[3] * qdot[k, 1],
                    qi[0] * qdot[k, 3] + qi[1] * qdot[k, 2] - qi[2] * qdot[k, 1] + qi[3] * qdot[k, 0],
                ]
            )
            np.testing.assert_allclose(w_fd, s.omega_body[k], atol=1e-6)

    def test_all_models_evaluate(self):
        for name in ("figure_eight", "circle", "line", "stationary_excited"):
            cfg = ScenarioConfig(trajectory=name, duration=5.0)
            s = eval_trajectory(cfg, np.linspace(0, 5, 11))
            assert np.all(np.isfinite(s.p)) and np.all(np.isfinite(s.omega_body))

    def test_out_of_range_rejected(self):
        cfg = ScenarioConfig(duration=5.0)
        with pytest.raises(ValueError):
            eval_trajectory(cfg, np.array([5.5]))


class TestImuSynthesis:
    def test_stationary_specific_force(self):
        cfg = stationary_config()
        gt = make_ground_truth(cfg)
        samples, _ = synthesize_imu(gt, NO_NOISE, BiasState(), seed=0)
        np.testing.assert_allclose(samples.accel[10], [0, 0, 9.81], atol=1e-12)
        np.testing.assert_allclose(samples.gyro[10], [0, 0, 0], atol=1e-12)

    def test_zero_walk_keeps_bias_constant(self):
        cfg = ScenarioConfig(duration=2.0, noise=NoiseParams(0.01, 0.001, 0.0, 0.0))
        gt = make_ground_truth(cfg)
        b0 = BiasState(accel=[0.05, -0.02, 0.01], gyro=[0.004, 0.002, -0.003])
        _, (ba, bw) = synthesize_imu(gt, cfg.noise, b0, seed=1)
        assert np.all(ba == ba[0]) and np.all(bw == bw[0])

    def test_noise_free_roundtrip_against_ground_truth(self):
        # pre-integrating the synthesized stream reproduces the true relative
        # motion between camera frames; gentle excitation keeps the 200 Hz
        # integration error below the asserted 1e-6
        cfg = ScenarioConfig(duration=3.0, seed=4, bias0=BiasState(gyro=[0.01, -0.02, 0.005]),
                             traj={"period": 16.0}, roll_amp=0.05, pitch_amp=0.04,
                             roll_cycles=2.0, pitch_cycles=1.5)
        gt = make_ground_truth(cfg)
        samples, _ = synthesize_imu(gt, NO_NOISE, cfg.bias0, seed=4)
        cam = camera_times(cfg)
        g = GRAVITY
        for k in range(4, 10):
            t0, t1 = cam[k], cam[k + 1]
            seg = segment_samples(samples, t0, t1)
            d = integrate_segment(seg, cfg.bias0, NO_NOISE)
            i0 = int(round(t0 * cfg.imu_rate))
            i1 = int(round(t1 * cfg.imu_rate))
            dt = t1 - t0
            R0t = geo.quat_to_rot(gt.q[i0]).T
            alpha_gt = R0t @ (gt.p[i1] - gt.p[i0] + 0.5 * g * dt * dt - gt.v[i0] * dt)
            beta_gt = R0t @ (gt.v[i1] + g * dt - gt.v[i0])
            gamma_gt = geo.quat_mul(geo.quat_inverse(gt.q[i0]), gt.q[i1])
            assert np.linalg.norm(d.alpha - alpha_gt) < 1e-6
            assert np.linalg.norm(d.beta - beta_gt) < 1e-6
            assert geo.quat_angle_between(d.gamma, gamma_gt) < 1e-6

    def test_bias_walk_variance_grows_linearly(self):
        cfg = ScenarioConfig(duration=1.0, imu_rate=100.0)
        gt = make_ground_truth(cfg)
        noise = NoiseParams(0.0, 0.0, 0.02, 0.01)
        finals = []
        for seed in range(1000):
            _, (ba, _) = synthesize_imu(gt, noise, BiasState(), seed=seed)
            finals.append(ba[-1])
        var = np.var(np.array(finals), axis=0).mean()
        # Var(b(T)) = sigma_ba^2 * T
        assert var == pytest.approx(0.02**2 * 1.0, rel=0.1)


class TestTracks:
    def test_on_axis_landmark(self):
        cfg = stationary_config(n_landmarks=1)
        gt = make_ground_truth(cfg)
        (q_wc,), (p_wc,) = camera_poses(cfg, [0.0])
        gt.landmarks = (p_wc + geo.quat_rotate(q_wc, np.array([0, 0, 3.0])))[None, :]
        obs = synthesize_observations(gt, seed=0)
        np.testing.assert_allclose(obs(0.0)[0], [0, 0, 1], atol=1e-12)

    def test_behind_camera_absent(self):
        cfg = stationary_config(n_landmarks=1, fov_deg=120.0)
        gt = make_ground_truth(cfg)
        (q_wc,), (p_wc,) = camera_poses(cfg, [0.0])
        gt.landmarks = (p_wc + geo.quat_rotate(q_wc, np.array([0, 0, -3.0])))[None, :]
        obs = synthesize_observations(gt, seed=0)
        assert len(obs.times()) == 0
        assert obs(0.0) == {}

    def test_camera_poses_equal_one_time_evaluations(self):
        # one batch over a noisy scenario's camera times, row for row and bit
        # for bit equal to evaluating each time alone
        cfg = ScenarioConfig(duration=30.0, seed=3, traj={"period": 12.0},
                             noise=NoiseParams(0.02, 2e-4, 1e-4, 1e-5), pixel_sigma_px=1.5)
        cam = camera_times(cfg)
        q_wc, p_wc = camera_poses(cfg, cam)
        assert q_wc.shape == (len(cam), 4) and p_wc.shape == (len(cam), 3)
        for k, t in enumerate(cam):
            (q,), (p,) = camera_poses(cfg, [t])
            np.testing.assert_array_equal(q_wc[k], q)
            np.testing.assert_array_equal(p_wc[k], p)

    def test_triangulation_roundtrip(self):
        cfg = ScenarioConfig(duration=2.0, seed=9, n_landmarks=40)
        data = build_scenario(cfg)
        cam = camera_times(cfg)
        poses = dict(zip(cam, zip(*camera_poses(cfg, cam))))
        # regrouped by feature id: the times and rays of each feature
        tracks: dict[int, tuple[list, list]] = {}
        for t in data.observations.times():
            for fid, ray in data.observations(t).items():
                times, rays = tracks.setdefault(fid, ([], []))
                times.append(t)
                rays.append(ray)
        checked = 0
        for fid, (times, rays) in sorted(tracks.items()):
            if len(times) < 4:
                continue
            qs = np.array([poses[t][0] for t in times])
            ps = np.array([poses[t][1] for t in times])
            lam = triangulate_features(np.array(rays), np.arange(len(times)), [len(times)], qs, ps)[0]
            if np.isnan(lam):
                continue
            q0, p0 = poses[times[0]]
            X = geo.quat_rotate(q0, rays[0] / lam) + p0
            assert np.linalg.norm(X - data.ground_truth.landmarks[fid]) < 1e-9
            checked += 1
        assert checked > 10

    def test_blackout_removes_observations(self):
        cfg = ScenarioConfig(duration=4.0, blackout_start=1.0, blackout_duration=1.0)
        data = build_scenario(cfg)
        times = data.observations.times()
        assert len(times) > 0
        for t in times:
            assert not (1.0 <= t < 2.0)
        for t in camera_times(cfg):
            if 1.0 <= t < 2.0:
                assert data.observations(t) == {}


class TestSfm:
    def test_exact_at_unit_scale(self):
        cfg = ScenarioConfig(duration=2.0, scale_hidden=1.0)
        gt = make_ground_truth(cfg)
        frames = synthesize_sfm(gt, seed=0)
        (q0,), (p0,) = camera_poses(cfg, [0.0])
        for f in frames[:5]:
            (q_wc,), (p_wc,) = camera_poses(cfg, [f.t])
            np.testing.assert_allclose(
                f.p_bar, geo.quat_rotate(geo.quat_inverse(q0), p_wc - p0), atol=1e-12
            )

    def test_rotations_scale_independent(self):
        cfg1 = ScenarioConfig(duration=2.0, scale_hidden=1.0)
        cfg2 = ScenarioConfig(duration=2.0, scale_hidden=3.3)
        f1 = synthesize_sfm(make_ground_truth(cfg1), seed=0)
        f2 = synthesize_sfm(make_ground_truth(cfg2), seed=0)
        for a, b in zip(f1, f2):
            np.testing.assert_array_equal(a.q_c0_ck, b.q_c0_ck)

    def test_hidden_scale_divides_translation(self):
        cfg1 = ScenarioConfig(duration=2.0, scale_hidden=1.0)
        cfg2 = ScenarioConfig(duration=2.0, scale_hidden=2.5)
        f1 = synthesize_sfm(make_ground_truth(cfg1), seed=0)
        f2 = synthesize_sfm(make_ground_truth(cfg2), seed=0)
        for a, b in zip(f1, f2):
            np.testing.assert_allclose(a.p_bar, b.p_bar * 2.5, atol=1e-12)


class TestLoops:
    def test_straight_line_has_no_candidates(self):
        cfg = ScenarioConfig(trajectory="line", duration=20.0, traj={"speed": 0.5})
        gt = make_ground_truth(cfg)
        cands = synthesize_loops(gt, camera_times(cfg), seed=0)
        assert cands == []

    def test_figure_eight_produces_revisits(self):
        cfg = ScenarioConfig(duration=36.0, traj={"period": 12.0}, loop_min_gap=8.0, loop_radius=0.6)
        gt = make_ground_truth(cfg)
        cands = synthesize_loops(gt, camera_times(cfg), seed=0)
        assert len(cands) > 0
        for c in cands:
            assert c.query_t - c.candidate_t >= 8.0
            assert len(c.feature_ids) >= 12

    def test_outlier_labels(self):
        cfg = ScenarioConfig(duration=36.0, traj={"period": 12.0}, loop_outlier_frac=0.3)
        gt = make_ground_truth(cfg)
        cands = synthesize_loops(gt, camera_times(cfg), seed=1)
        assert len(cands) > 0
        c = cands[0]
        frac = 1.0 - c.inlier_mask.mean()
        assert frac == pytest.approx(0.3, abs=0.05)


class TestDeterminism:
    def test_identical_config_bitwise_identical(self):
        cfg = ScenarioConfig(
            duration=3.0, seed=11, noise=NoiseParams(0.02, 2e-4, 1e-4, 1e-5), pixel_sigma_px=1.5
        )
        d1 = build_scenario(cfg)
        d2 = build_scenario(
            ScenarioConfig(
                duration=3.0, seed=11, noise=NoiseParams(0.02, 2e-4, 1e-4, 1e-5), pixel_sigma_px=1.5
            )
        )
        for name in ("t", "accel", "gyro"):
            np.testing.assert_array_equal(getattr(d1.imu, name), getattr(d2.imu, name))
        times = d1.observations.times()
        np.testing.assert_array_equal(times, d2.observations.times())
        assert len(times) > 0
        for t in times:
            a, b = d1.observations(t), d2.observations(t)
            assert list(a) == list(b)
            np.testing.assert_array_equal(np.array(list(a.values())), np.array(list(b.values())))

    def test_kinematic_consistency_of_ground_truth(self):
        cfg = ScenarioConfig(duration=4.0)
        gt = make_ground_truth(cfg)
        dt = 1.0 / cfg.imu_rate
        v_fd = (gt.p[2:] - gt.p[:-2]) / (2 * dt)
        assert np.abs(v_fd - gt.v[1:-1]).max() < 0.5 * dt**2 * 50  # bounded by discretization
