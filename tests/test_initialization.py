import numpy as np
import pytest

from monovio import geometry as geo
from monovio.initialization import (
    ExtrinsicCalib,
    InitializationError,
    UpToScaleFrame,
    calibrate_gyro_bias,
    camera_to_body_poses,
    excitation_gates,
    gravity_aligning_rotation,
    refine_gravity,
    run_alignment,
    solve_velocity_gravity_scale,
)
from monovio.preintegration import GRAVITY, BiasState, NoiseParams, integrate_segment, segment_samples
from monovio.simulator import (
    ScenarioConfig,
    camera_poses,
    camera_times,
    make_ground_truth,
    synthesize_imu,
    synthesize_sfm,
)

NO_NOISE = NoiseParams(0.0, 0.0, 0.0, 0.0)

# gentle excitation keeps the 200 Hz integration error of the deltas below the
# tolerances the alignment examples assert
GENTLE = dict(traj={"period": 16.0}, roll_amp=0.05, pitch_amp=0.04, roll_cycles=2.0, pitch_cycles=1.5)


def make_window(cfg, n_frames=11, lin_bias=None, model_noise=NO_NOISE):
    """SfM frames plus per-pair deltas for the first n_frames camera frames."""
    gt = make_ground_truth(cfg)
    samples, _ = synthesize_imu(gt, cfg.noise, cfg.bias0, cfg.seed)
    frames = synthesize_sfm(gt, cfg.seed)[:n_frames]
    cam = camera_times(cfg)[:n_frames]
    bias = lin_bias or BiasState()
    deltas = [
        integrate_segment(segment_samples(samples, cam[k], cam[k + 1]), bias, model_noise)
        for k in range(n_frames - 1)
    ]
    return gt, frames, deltas, samples


def alignment_steps(frames, deltas, extrinsic):
    """The gyro bias, c0-frame gravity, scale and q_w_c0 of run_alignment,
    from the public steps it runs."""
    body = camera_to_body_poses(frames, extrinsic)
    gyro_bias = calibrate_gyro_bias(body.q_c0_bk, deltas)
    deltas = [d.repropagate(BiasState(np.zeros(3), gyro_bias)) for d in deltas]
    _, g_c0, _ = solve_velocity_gravity_scale(body, deltas, extrinsic)
    g_c0, _, scale = refine_gravity(g_c0, body, deltas, extrinsic)
    return gyro_bias, g_c0, scale, gravity_aligning_rotation(g_c0)


class TestCameraToBody:
    def test_identity_extrinsic_unchanged(self):
        cfg = ScenarioConfig(duration=3.0, extrinsic=ExtrinsicCalib(np.zeros(3), geo.quat_identity()))
        _, frames, _, _ = make_window(cfg, 5)
        body = camera_to_body_poses(frames, cfg.extrinsic)
        for k, f in enumerate(frames):
            assert geo.quat_angle_between(body.q_c0_bk[k], f.q_c0_ck) < 1e-12
            np.testing.assert_array_equal(body.p_bar_ck[k], f.p_bar)
            np.testing.assert_allclose(body.lever[k], np.zeros(3), atol=1e-15)

    def test_pure_lever_arm(self):
        ext = ExtrinsicCalib(np.array([0.1, 0.0, 0.0]), geo.quat_identity())
        frames = [
            UpToScaleFrame(0.0, geo.quat_identity(), np.zeros(3)),
            UpToScaleFrame(0.2, geo.quat_identity(), np.array([1.0, 0.0, 0.0])),
        ]
        body = camera_to_body_poses(frames, ext)
        # metric body position = s * p_bar - R p_b_c, so the lever term is -0.1 x
        np.testing.assert_allclose(body.lever, [[-0.1, 0, 0], [-0.1, 0, 0]], atol=1e-15)
        np.testing.assert_allclose(body.position(2.0)[1], [1.9, 0.0, 0.0], atol=1e-12)

    def test_recovers_ground_truth_body_poses(self):
        cfg = ScenarioConfig(duration=3.0, scale_hidden=2.0, seed=3)
        gt, frames, _, _ = make_window(cfg, 8)
        body = camera_to_body_poses(frames, cfg.extrinsic)
        (q0,), (p0,) = camera_poses(cfg, [0.0])
        for k in range(8):
            i = int(round(body.t[k] * cfg.imu_rate))
            # body rotation in c0 frame vs ground truth
            q_gt = geo.quat_mul(geo.quat_inverse(q0), gt.q[i])
            assert geo.quat_angle_between(body.q_c0_bk[k], q_gt) < 1e-10
            p_gt = geo.quat_rotate(geo.quat_inverse(q0), gt.p[i] - p0)
            np.testing.assert_allclose(body.position(cfg.scale_hidden)[k], p_gt, atol=1e-9)


class TestGyroBiasCalibration:
    def test_zero_bias_recovered_as_zero(self):
        cfg = ScenarioConfig(duration=3.0, seed=5, **GENTLE)
        _, frames, deltas, _ = make_window(cfg)
        body = camera_to_body_poses(frames, cfg.extrinsic)
        bw = calibrate_gyro_bias(body.q_c0_bk, deltas)
        assert np.linalg.norm(bw) < 1e-6

    def test_injected_bias_recovered(self):
        cfg = ScenarioConfig(duration=3.0, seed=5, bias0=BiasState(gyro=[0.02, -0.01, 0.03]))
        _, frames, deltas, _ = make_window(cfg)
        body = camera_to_body_poses(frames, cfg.extrinsic)
        bw = calibrate_gyro_bias(body.q_c0_bk, deltas)
        assert np.linalg.norm(bw - [0.02, -0.01, 0.03]) < 1e-4

    def test_noisy_recovery_within_ten_percent(self):
        true_bw = np.array([0.02, -0.01, 0.03])
        errs = []
        for seed in range(5):
            cfg = ScenarioConfig(
                duration=2.0,
                seed=seed,
                bias0=BiasState(gyro=true_bw),
                noise=NoiseParams(0.0, 1e-3, 0.0, 0.0),
            )
            _, frames, deltas, _ = make_window(cfg)
            body = camera_to_body_poses(frames, cfg.extrinsic)
            bw = calibrate_gyro_bias(body.q_c0_bk, deltas)
            errs.append(np.linalg.norm(bw - true_bw))
        assert np.mean(errs) < 0.1 * np.linalg.norm(true_bw)

    def test_invariant_to_global_rotation(self):
        cfg = ScenarioConfig(duration=3.0, seed=6, bias0=BiasState(gyro=[0.01, 0.02, -0.01]))
        _, frames, deltas, _ = make_window(cfg)
        body = camera_to_body_poses(frames, cfg.extrinsic)
        bw1 = calibrate_gyro_bias(body.q_c0_bk, deltas)
        q_glob = geo.quat_exp([0.4, -0.7, 1.1])
        rotated = np.array([geo.quat_mul(q_glob, q) for q in body.q_c0_bk])
        bw2 = calibrate_gyro_bias(rotated, deltas)
        np.testing.assert_allclose(bw1, bw2, atol=1e-12)

    def test_too_few_pairs_rejected(self):
        cfg = ScenarioConfig(duration=3.0, seed=5)
        _, frames, deltas, _ = make_window(cfg, 3)
        body = camera_to_body_poses(frames, cfg.extrinsic)
        with pytest.raises(InitializationError):
            calibrate_gyro_bias(body.q_c0_bk, deltas[:2])


class TestLinearAlignment:
    def test_noise_free_scale_and_gravity(self):
        cfg = ScenarioConfig(duration=3.0, seed=7, scale_hidden=3.3)
        _, frames, deltas, _ = make_window(cfg)
        body = camera_to_body_poses(frames, cfg.extrinsic)
        vel, g_c0, s = solve_velocity_gravity_scale(body, deltas, cfg.extrinsic)
        assert abs(s - 3.3) / 3.3 < 1e-3
        (q0,), _ = camera_poses(cfg, [0.0])
        g_true = geo.quat_rotate(geo.quat_inverse(q0), GRAVITY)
        ang = np.arccos(np.clip(g_c0 @ g_true / (np.linalg.norm(g_c0) * 9.81), -1, 1))
        assert np.rad2deg(ang) < 0.1

    def test_constant_velocity_unobservable(self):
        # zero acceleration and zero rotation: the scale column is exactly a
        # combination of the velocity columns
        cfg = ScenarioConfig(
            trajectory="line",
            duration=3.0,
            traj={"speed": 0.5, "amp_y": 0.0, "amp_z": 0.0},
            roll_amp=0.0,
            pitch_amp=0.0,
        )
        _, frames, deltas, _ = make_window(cfg)
        body = camera_to_body_poses(frames, cfg.extrinsic)
        with pytest.raises(InitializationError):
            solve_velocity_gravity_scale(body, deltas, cfg.extrinsic)

    def test_noisy_gravity_magnitude(self):
        mags = []
        for seed in range(5):
            cfg = ScenarioConfig(duration=3.0, seed=seed, noise=NoiseParams(0.02, 0.0, 0.0, 0.0))
            _, frames, deltas, _ = make_window(cfg)
            body = camera_to_body_poses(frames, cfg.extrinsic)
            _, g_c0, _ = solve_velocity_gravity_scale(body, deltas, cfg.extrinsic)
            mags.append(np.linalg.norm(g_c0))
        assert abs(np.mean(mags) - 9.81) / 9.81 < 0.05


class TestGravityRefinement:
    def _window(self, seed=8, imu_rate=200.0):
        cfg = ScenarioConfig(duration=3.0, seed=seed, scale_hidden=2.0, imu_rate=imu_rate, **GENTLE)
        _, frames, deltas, _ = make_window(cfg)
        body = camera_to_body_poses(frames, cfg.extrinsic)
        (q0,), _ = camera_poses(cfg, [0.0])
        g_true = geo.quat_rotate(geo.quat_inverse(q0), GRAVITY)
        return cfg, body, deltas, g_true

    def test_magnitude_constrained_exactly(self):
        # fine IMU rate so integration error does not disturb the direction;
        # cross-product angle metric stays linear near zero
        cfg, body, deltas, g_true = self._window(imu_rate=2000.0)
        g0 = 9.5 * g_true / np.linalg.norm(g_true)
        g_ref, _, _ = refine_gravity(g0, body, deltas, cfg.extrinsic)
        assert np.linalg.norm(g_ref) == pytest.approx(9.81, abs=1e-12)
        ang = np.linalg.norm(np.cross(g_ref / 9.81, g_true / np.linalg.norm(g_true)))
        assert ang < 1e-8

    def test_direction_perturbation_converges(self):
        cfg, body, deltas, g_true = self._window()
        axis = np.cross(g_true, [1.0, 0.0, 0.0])
        axis /= np.linalg.norm(axis)
        q_pert = geo.quat_exp(axis * np.deg2rad(5.0))
        g0 = geo.quat_rotate(q_pert, g_true)
        g_ref, _, _ = refine_gravity(g0, body, deltas, cfg.extrinsic, max_iterations=4)
        ang = np.arccos(np.clip(g_ref @ g_true / (9.81 * np.linalg.norm(g_true)), -1, 1))
        assert np.rad2deg(ang) < 0.2

    def test_refinement_improves_scale_under_noise(self):
        wins = 0
        total = 0
        for seed in range(20):
            cfg = ScenarioConfig(
                duration=3.0, seed=seed, scale_hidden=2.0,
                noise=NoiseParams(0.05, 1e-3, 0.0, 0.0),
            )
            _, frames, deltas, _ = make_window(cfg)
            body = camera_to_body_poses(frames, cfg.extrinsic)
            try:
                _, g_c0, s_lin = solve_velocity_gravity_scale(body, deltas, cfg.extrinsic)
                _, _, s_ref = refine_gravity(g_c0, body, deltas, cfg.extrinsic)
            except InitializationError:
                continue
            total += 1
            if abs(s_ref - 2.0) <= abs(s_lin - 2.0):
                wins += 1
        assert total >= 15
        assert wins >= total // 2


class TestCompletion:
    def test_gravity_rotated_to_z(self):
        cfg = ScenarioConfig(duration=3.0, seed=9)
        _, frames, deltas, _ = make_window(cfg)
        _, g_c0, _, q_w_c0 = alignment_steps(frames, deltas, cfg.extrinsic)
        # the seed's attitudes are the c0-frame body attitudes rotated by q_w_c0
        world, _ = run_alignment(frames, deltas, cfg.extrinsic)
        body = camera_to_body_poses(frames, cfg.extrinsic)
        np.testing.assert_array_equal(
            world.q, [geo.quat_canonical(geo.quat_mul(q_w_c0, q)) for q in body.q_c0_bk])
        g_w = geo.quat_rotate(q_w_c0, g_c0)
        np.testing.assert_allclose(g_w, [0, 0, 9.81], atol=1e-9)
        # yaw pinned to zero
        _, _, yaw = geo.yaw_roll_pitch_decompose(q_w_c0)
        assert abs(yaw) < 1e-10

    def test_trajectory_matches_up_to_yaw_and_translation(self):
        cfg = ScenarioConfig(duration=3.0, seed=10, scale_hidden=2.5)
        gt, frames, deltas, _ = make_window(cfg)
        world, _ = run_alignment(frames, deltas, cfg.extrinsic)
        idx = [int(round(t * cfg.imu_rate)) for t in world.t]
        p_gt = gt.p[idx]
        # 4-DOF alignment: fit yaw + translation from the first/last horizontal displacement
        d_est = world.p[-1] - world.p[0]
        d_gt = p_gt[-1] - p_gt[0]
        yaw = np.arctan2(d_gt[1], d_gt[0]) - np.arctan2(d_est[1], d_est[0])
        Rz = geo.rot_zyx(0.0, 0.0, yaw)
        aligned = (Rz @ world.p.T).T
        aligned += p_gt[0] - aligned[0]
        assert np.abs(aligned - p_gt).max() < 2e-3

    def test_velocities_consistent_with_positions(self):
        cfg = ScenarioConfig(duration=3.0, seed=11)
        _, frames, deltas, _ = make_window(cfg)
        world, _ = run_alignment(frames, deltas, cfg.extrinsic)
        dt = world.t[1] - world.t[0]
        v_fd = (world.p[2:] - world.p[:-2]) / (2 * dt)
        err = np.abs(v_fd - world.v[1:-1]).max()
        assert err < 0.05  # bounded by a * dt^2 / 6 at the camera rate


class TestEndToEnd:
    def test_noise_free_recovery(self):
        true_bw = np.array([0.015, -0.008, 0.02])
        cfg = ScenarioConfig(duration=3.0, seed=12, scale_hidden=3.3, bias0=BiasState(gyro=true_bw))
        gt, frames, deltas, samples = make_window(cfg)
        world, deltas2 = run_alignment(frames, deltas, cfg.extrinsic)
        _, g_c0, scale, _ = alignment_steps(frames, deltas, cfg.extrinsic)
        assert np.linalg.norm(world.bw[0] - true_bw) < 1e-3
        assert abs(scale - 3.3) / 3.3 < 1e-3
        (q0,), _ = camera_poses(cfg, [0.0])
        g_true = geo.quat_rotate(geo.quat_inverse(q0), GRAVITY)
        ang = np.arccos(np.clip(g_c0 @ g_true / (9.81 * 9.81), -1, 1))
        assert ang < 1e-3
        # velocities against ground truth (norms are frame-invariant)
        idx = [int(round(t * cfg.imu_rate)) for t in world.t]
        v_err = np.abs(np.linalg.norm(world.v, axis=1) - np.linalg.norm(gt.v[idx], axis=1))
        assert v_err.max() < 1e-3

    def test_returns_the_estimator_seed(self):
        # one state per frame at the frame's time, zero accelerometer bias
        # and the calibrated gyro bias in every row, with the deltas
        # re-propagated at that bias
        cfg = ScenarioConfig(duration=3.0, seed=12, bias0=BiasState(gyro=[0.015, -0.008, 0.02]))
        _, frames, deltas, _ = make_window(cfg)
        states, deltas2 = run_alignment(frames, deltas, cfg.extrinsic)
        gyro_bias, *_ = alignment_steps(frames, deltas, cfg.extrinsic)
        n = len(frames)
        assert len(states) == n == len(deltas2) + 1
        np.testing.assert_array_equal(states.t, [f.t for f in frames])
        np.testing.assert_array_equal(states.ba, np.zeros((n, 3)))
        np.testing.assert_array_equal(states.bw, np.tile(gyro_bias, (n, 1)))
        for d in deltas2:
            np.testing.assert_array_equal(d.lin_bias.gyro, gyro_bias)

    def test_excitation_gates(self):
        cfg = ScenarioConfig(duration=3.0, seed=13)
        _, _, deltas, samples = make_window(cfg)
        assert excitation_gates(deltas, samples[:600])
        cfg2 = ScenarioConfig(
            trajectory="line", duration=3.0,
            traj={"speed": 0.4, "amp_y": 0.0, "amp_z": 0.0},
            roll_amp=0.0, pitch_amp=0.0,
        )
        _, _, deltas2, samples2 = make_window(cfg2)
        assert not excitation_gates(deltas2, samples2[:600])
