from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from monovio import geometry as geo
from monovio.estimator import (
    EstimatorConfig,
    EstimatorError,
    LoopObservationSet,
    SlidingWindowEstimator,
    SolveReport,
    detect_failure,
    huber_weight,
    imu_forward_propagate,
    information_sqrt,
    keyframe_decision,
    robust_cost,
    schur_complement,
    triangulate_features,
)
from monovio.initialization import ExtrinsicCalib
from monovio.preintegration import (
    GRAVITY,
    MAX_ACCEL_BIAS,
    MAX_GYRO_BIAS,
    BiasState,
    FrameStates,
    ImuSamples,
    NoiseParams,
    PreintegrationError,
    integrate_segment,
    segment_samples,
)
from monovio.simulator import (
    ScenarioConfig,
    build_scenario,
    camera_times,
    default_extrinsic,
)
from reference import (
    TriangulationError,
    add_visual_ranked,
    imu_residual_jacobians,
    keyframe_decision_per_pair,
    linearize_per_row,
    marginal_masks,
    marginalize_frame_masked,
    triangulate_feature,
    transferred_inv_depth,
    triangulate_new_features_per_feature,
    visual_layout_per_chunk,
    visual_residual,
    visual_rows_per_row,
    window_rows_gathered,
)

MODEL_NOISE = NoiseParams(2e-3, 2e-5, 1e-6, 1e-7)
# bounds on the tracemalloc peaks, above their start, of one linearize and
# one damped_step of loop_window_problem: 455 and 67 KB read with the
# per-problem buffers and the step's reductions in place on one triangle
# (linearize's peak is the prior's Jacobian and product, allocated per call;
# the step read 279 KB with a product buffer and a new Cholesky factor), 818
# and 905 KB with the per-row assembly; one more array of the free pose
# block's size (186 x 186, 270 KB) would cross either
LINEARIZE_PEAK_KB = 600
STEP_PEAK_KB = 250
# bound on the tracemalloc peak, above its start, of one marginalize_frame
# of the warmed loop-free loop_window() problem: 576 KB read with the
# consumed rows' linearization and the pivoted Cholesky prior, 813 KB with
# the masked full linearization and the eigendecomposition; one more array
# of the prior's size (156 x 156, 195 KB) would cross it
MARGINALIZE_PEAK_KB = 700


def seeded_estimator(cfg, data, n_frames=11, config=None):
    """Window seeded with ground-truth states, deltas, and observations."""
    gt, imu = data.ground_truth, data.imu
    cam = camera_times(cfg)[:n_frames]
    est = SlidingWindowEstimator(config or EstimatorConfig(), cfg.extrinsic)
    i = np.round(cam * cfg.imu_rate).astype(int)
    zeros = np.zeros((len(cam), 3))
    states = FrameStates(cam, gt.p[i], gt.q[i], gt.v[i], zeros, zeros)
    deltas = [
        integrate_segment(segment_samples(imu, cam[k], cam[k + 1]), BiasState(), MODEL_NOISE)
        for k in range(len(cam) - 1)
    ]
    est.seed(states, deltas)
    for k, t in enumerate(cam):
        est.observe(data.observations(t), frame_idx=k)
    est.triangulate_new_features()
    return est, cam


def fixed_point_estimator(cfg, data, n_frames=11):
    """Window whose states and observations are exactly consistent with the
    deltas (dead-reckoned chain, features projected through it)."""
    gt, imu = data.ground_truth, data.imu
    cam = camera_times(cfg)[:n_frames]
    est = SlidingWindowEstimator(EstimatorConfig(), cfg.extrinsic)
    est.seed(FrameStates(cam[0], gt.p[0], gt.q[0], gt.v[0], np.zeros(3), np.zeros(3)), [])
    for k in range(1, len(cam)):
        delta = integrate_segment(segment_samples(imu, cam[k - 1], cam[k]), BiasState(), MODEL_NOISE)
        est.add_frame(cam[k], delta, {}, is_keyframe=True)
    for k, (q_wc, p_wc) in enumerate(zip(*est.camera_poses())):
        X_c = geo.quat_rotate(geo.quat_inverse(q_wc), gt.landmarks - p_wc)
        d = np.linalg.norm(X_c, axis=1)
        rays = X_c / d[:, None]
        keep = (rays[:, 2] > np.cos(np.deg2rad(95.0))) & (d > 0.3)
        est.observe({int(lid): rays[lid] for lid in np.flatnonzero(keep)}, frame_idx=k)
    est.triangulate_new_features()
    return est


class TestHuber:
    def test_values(self):
        assert robust_cost(0.25) == 0.25
        assert float(robust_cost(4.0)) == pytest.approx(3.0)

    def test_continuity_at_one(self):
        assert robust_cost(1.0) == 1.0
        assert 2 * np.sqrt(1.0) - 1 == 1.0
        eps = 1e-9
        assert abs(robust_cost(1 + eps) - robust_cost(1 - eps)) < 3 * eps

    def test_weight_matches_derivative(self):
        for s in [0.2, 0.9, 1.5, 9.0]:
            h = 1e-7
            fd = (robust_cost(s + h) - robust_cost(s - h)) / (2 * h)
            assert float(huber_weight(s)) == pytest.approx(float(fd), rel=1e-5)


def decide(pairs, *args) -> bool:
    """keyframe_decision over a list of (keyframe ray, current ray) pairs."""
    u_kf, u_cur = (np.array([pair[i] for pair in pairs], dtype=float).reshape(-1, 3) for i in (0, 1))
    return keyframe_decision(u_kf, u_cur, *args)


class TestKeyframeDecision:
    def test_parallax_above_threshold(self):
        # rays 25/460 rad apart with identity compensation
        ang = 25.0 / 460.0
        pairs = [(np.array([0, 0, 1.0]), np.array([np.sin(ang), 0, np.cos(ang)]))] * 40
        assert decide(pairs, geo.quat_identity(), 20.0, 30, 460.0)

    def test_pure_rotation_compensated_away(self):
        rng = np.random.default_rng(0)
        q_rel = geo.quat_exp([0.05, -0.1, 0.2])  # current -> keyframe camera
        R = geo.quat_to_rot(q_rel)
        pairs = []
        for _ in range(50):
            u_cur = rng.standard_normal(3)
            u_cur[2] = abs(u_cur[2]) + 1
            u_cur /= np.linalg.norm(u_cur)
            pairs.append((R @ u_cur, u_cur))  # raw parallax large, compensated zero
        assert not decide(pairs, q_rel, 20.0, 30, 460.0)
        assert decide(pairs, geo.quat_identity(), 20.0, 30, 460.0)

    def test_low_track_count(self):
        pairs = [(np.array([0, 0, 1.0]), np.array([0, 0, 1.0]))] * 15
        assert decide(pairs, geo.quat_identity(), 20.0, 30, 460.0)
        # with no track gate, a frame sharing nothing with the last keyframe
        # has no parallax to average and is a keyframe
        assert decide([], geo.quat_identity(), 20.0, 0, 460.0)

    @pytest.mark.parametrize("rotated", [False, True])
    def test_matches_per_pair_reference(self, rotated):
        # shared rays with a spread of parallax, compensated by a rotation or
        # not, at track counts below and above min_tracked = 30
        rng = np.random.default_rng(7 + rotated)
        q_rel = geo.quat_exp([0.04, -0.08, 0.15]) if rotated else geo.quat_identity()
        R = geo.quat_to_rot(q_rel)
        decisions = set()
        for _ in range(40):
            n = int(rng.integers(10, 120))
            u_cur = rng.standard_normal((n, 3)) + [0.0, 0.0, 3.0]
            u_cur /= np.linalg.norm(u_cur, axis=1, keepdims=True)
            shift = rng.uniform(0.0, 0.12) * rng.standard_normal((n, 3))
            u_kf = u_cur @ R.T + shift
            u_kf /= np.linalg.norm(u_kf, axis=1, keepdims=True)
            pairs = list(zip(u_kf, u_cur))
            for parallax_px in (5.0, 20.0, 40.0):
                got = keyframe_decision(u_kf, u_cur, q_rel, parallax_px, 30, 460.0)
                assert got == keyframe_decision_per_pair(pairs, q_rel, parallax_px, 30, 460.0)
                decisions.add((n < 30, got))
        assert decisions == {(True, True), (False, True), (False, False)}


def triangulate_one(rays, cam_q, cam_p) -> float:
    """triangulate_features over a batch of one feature."""
    return triangulate_features(rays, np.arange(len(rays)), [len(rays)], cam_q, cam_p)[0]


class TestTriangulation:
    def test_two_view_exact(self):
        # baseline 1 m, landmark 5 m ahead of the first camera
        X = np.array([0.0, 0.0, 5.0])
        p0 = np.zeros(3)
        p1 = np.array([1.0, 0.0, 0.0])
        q = geo.quat_identity()
        u0 = X / np.linalg.norm(X)
        u1 = (X - p1) / np.linalg.norm(X - p1)
        lam = triangulate_one([u0, u1], [q, q], [p0, p1])
        assert lam == pytest.approx(0.2, abs=1e-9)

    def test_behind_camera_rejected(self):
        # rays intersect at (0, 0, -2): negative depth along the anchor ray
        p1 = np.array([1.0, 0.0, 0.0])
        u0 = np.array([0.0, 0.0, 1.0])
        u1 = np.array([-1.0, 0.0, -2.0])
        u1 = u1 / np.linalg.norm(u1)
        poses = [geo.quat_identity()] * 2, [np.zeros(3), p1]
        assert np.isnan(triangulate_one([u0, u1], *poses))
        with pytest.raises(TriangulationError, match="behind"):
            triangulate_feature([u0, u1], *poses)

    def test_insufficient_parallax_rejected(self):
        X = np.array([0.0, 0.0, 500.0])
        p1 = np.array([0.01, 0.0, 0.0])
        u0 = X / np.linalg.norm(X)
        u1 = (X - p1) / np.linalg.norm(X - p1)
        poses = [geo.quat_identity()] * 2, [np.zeros(3), p1]
        assert np.isnan(triangulate_one([u0, u1], *poses))
        with pytest.raises(TriangulationError, match="parallax"):
            triangulate_feature([u0, u1], *poses)

    def test_noisy_reprojection_rms(self):
        rng = np.random.default_rng(1)
        sigma = 1.5 / 460.0
        rms_list = []
        for _ in range(20):
            X = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(3, 6)])
            ps = [np.array([0.3 * k, 0.1 * k, 0.0]) for k in range(6)]
            qs = [geo.quat_identity()] * 6
            rays = []
            for p in ps:
                u = X - p
                u /= np.linalg.norm(u)
                b1, b2 = geo.tangent_basis(u)
                n = rng.normal(0, sigma, 2)
                u = u + n[0] * b1 + n[1] * b2
                rays.append(u / np.linalg.norm(u))
            lam = triangulate_one(rays, qs, ps)
            Xh = rays[0] / lam
            errs = []
            for p, u in zip(ps, rays):
                pred = Xh - p
                pred /= np.linalg.norm(pred)
                errs.append(np.arccos(np.clip(pred @ u, -1, 1)))
            rms_list.append(np.sqrt(np.mean(np.square(errs))))
        assert np.mean(rms_list) < 2 * sigma

    def test_batch_matches_per_feature_reference(self):
        # one batch of two-ray and many-ray features, some with too little
        # parallax and some behind their anchor camera, observed by rotated
        # cameras in any order: the same decisions as the per-feature DLT,
        # and the same depths to 1e-12 relative
        rng = np.random.default_rng(4)
        cam_q = np.array([geo.quat_exp(rng.normal(0.0, 0.3, 3)) for _ in range(11)])
        cam_p = rng.normal(0.0, 0.4, (11, 3))
        rays, frames, counts, kinds = [], [], [], []
        for i in range(60):
            n = (2, 3, 7, 11)[i % 4]
            cams = rng.choice(11, n, replace=False)
            kind = ("near", "far", "behind")[i % 3]
            X = cam_p[cams[0]] + geo.quat_rotate(cam_q[cams[0]], [0.0, 0.0, 1.0]) * 3.0
            X += rng.normal(0.0, 0.5, 3)
            if kind == "far":  # a baseline of well under a degree
                X = cam_p[cams[0]] + 500.0 * (X - cam_p[cams[0]])
            u = geo.quat_rotate(geo.quat_inverse(cam_q[cams]), X - cam_p[cams])
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            u += rng.normal(0.0, 1e-3, u.shape)
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            if kind == "behind":
                u[0] = -u[0]
            rays.append(u)
            frames.append(cams)
            counts.append(n)
            kinds.append(kind)
        got = triangulate_features(np.concatenate(rays), np.concatenate(frames), counts, cam_q, cam_p)
        decisions = set()
        for u, cams, kind, lam in zip(rays, frames, kinds, got):
            try:
                ref = triangulate_feature(u, cam_q[cams], cam_p[cams])
            except TriangulationError as err:
                assert np.isnan(lam), err
                decisions.add((kind, str(err)))
                continue
            assert lam == pytest.approx(ref, rel=1e-12, abs=0.0)
            decisions.add((kind, "accepted"))
        assert {("near", "accepted"), ("far", "insufficient parallax"),
                ("behind", "triangulated point behind the anchor camera")} <= decisions

    def test_window_batches_match_per_feature_reference(self):
        # every frame's candidates of a noisy sliding window: the same
        # decisions as triangulate_feature feature by feature, and the same
        # depths to 1e-12 relative
        noise = NoiseParams(0.02, 2e-4, 1e-4, 1e-5)
        cfg = ScenarioConfig(duration=6.0, cam_rate=5.0, seed=12, pixel_sigma_px=1.5, noise=noise)
        data = build_scenario(cfg)
        est, _ = seeded_estimator(cfg, data)
        est.build_and_solve()
        all_cam = camera_times(cfg)
        accepted = rejected = 0
        for k in range(11, 26):
            seg = segment_samples(data.imu, all_cam[k - 1], all_cam[k])
            delta = integrate_segment(seg, est.frames.bias(-1), noise)
            est.add_frame(all_cam[k], delta, data.observations(all_cam[k]), is_keyframe=k % 3 != 0)
            ref = triangulate_new_features_per_feature(est)
            added = est.triangulate_new_features()
            assert added == sum(lam is not None for lam in ref.values())
            for fid, lam in ref.items():
                got = est.features[fid].inv_depth
                if lam is None:
                    assert got is None
                    rejected += 1
                else:
                    assert got == pytest.approx(lam, rel=1e-12, abs=0.0)
                    accepted += 1
            est.build_and_solve()
        assert accepted > 50 and rejected > 0


class TestVisualResidual:
    def test_zero_at_prediction(self):
        ext = default_extrinsic()
        q_i = geo.quat_exp([0.1, -0.2, 0.3])
        p_i = np.array([1.0, 2.0, 3.0])
        q_j = geo.quat_exp([-0.2, 0.1, 0.5])
        p_j = np.array([1.5, 2.2, 2.8])
        u_i = np.array([0.1, -0.2, 1.0])
        u_i /= np.linalg.norm(u_i)
        lam = 0.25
        # predicted ray in camera j
        R_i, R_j, R_bc = geo.quat_to_rot(q_i), geo.quat_to_rot(q_j), geo.quat_to_rot(ext.q_b_c)
        f_w = R_i @ (R_bc @ (u_i / lam) + ext.p_b_c) + p_i
        P = R_bc.T @ (R_j.T @ (f_w - p_j) - ext.p_b_c)
        u_j = P / np.linalg.norm(P)
        r, _ = visual_residual(q_i, p_i, q_j, p_j, ext, u_i, lam, u_j, with_jacobians=False)
        np.testing.assert_allclose(r, np.zeros(2), atol=1e-14)

    def test_constructed_toy_matches_direct_evaluation(self):
        # identity extrinsic, pure x-translation of 1 m, landmark 5 m ahead
        ext = ExtrinsicCalib(np.zeros(3), geo.quat_identity())
        X = np.array([0.0, 0.0, 5.0])
        u_i = X / np.linalg.norm(X)
        lam = 1.0 / 5.0
        p_j = np.array([1.0, 0.0, 0.0])
        obs = np.array([0.0, 0.1, 1.0])
        obs /= np.linalg.norm(obs)
        r, _ = visual_residual(
            geo.quat_identity(), np.zeros(3), geo.quat_identity(), p_j, ext, u_i, lam, obs,
            with_jacobians=False,
        )
        # independent evaluation of the same model
        pred = X - p_j
        pred /= np.linalg.norm(pred)
        b1, b2 = geo.tangent_basis(obs)
        expected = np.array([b1 @ (obs - pred), b2 @ (obs - pred)])
        np.testing.assert_allclose(r, expected, atol=1e-14)

    def test_residual_orthogonal_to_observed_ray(self):
        rng = np.random.default_rng(2)
        ext = default_extrinsic()
        for _ in range(20):
            q_i = geo.quat_normalize(rng.standard_normal(4))
            q_j = geo.quat_normalize(rng.standard_normal(4))
            p_i = rng.standard_normal(3)
            p_j = p_i + rng.normal(0, 0.3, 3)
            u_i = rng.standard_normal(3)
            u_i[2] = abs(u_i[2]) + 1
            u_i /= np.linalg.norm(u_i)
            u_j = rng.standard_normal(3)
            u_j /= np.linalg.norm(u_j)
            try:
                r, _ = visual_residual(q_i, p_i, q_j, p_j, ext, u_i, 0.5, u_j, with_jacobians=False)
            except EstimatorError:
                continue
            b1, b2 = geo.tangent_basis(u_j)
            r3d = r[0] * b1 + r[1] * b2
            assert abs(r3d @ u_j) < 1e-12

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(3)
        ext0 = default_extrinsic()
        h = 1e-6
        worst = 0.0
        trials = 0
        while trials < 100:
            q_i = geo.quat_normalize(rng.standard_normal(4))
            p_i = rng.standard_normal(3)
            q_j = geo.quat_normalize(rng.standard_normal(4))
            p_j = p_i + rng.normal(0, 0.5, 3)
            lam = rng.uniform(0.1, 1.0)
            u_i = rng.standard_normal(3)
            u_i[2] = abs(u_i[2]) + 1.0
            u_i /= np.linalg.norm(u_i)
            R_i, R_j, R_bc = geo.quat_to_rot(q_i), geo.quat_to_rot(q_j), geo.quat_to_rot(ext0.q_b_c)
            f_w = R_i @ (R_bc @ (u_i / lam) + ext0.p_b_c) + p_i
            P = R_bc.T @ (R_j.T @ (f_w - p_j) - ext0.p_b_c)
            if np.linalg.norm(P) < 0.2:
                continue
            u_j = P / np.linalg.norm(P) + rng.normal(0, 0.01, 3)
            u_j /= np.linalg.norm(u_j)
            trials += 1
            _, jac = visual_residual(q_i, p_i, q_j, p_j, ext0, u_i, lam, u_j)

            def res(qi=q_i, pi=p_i, qj=q_j, pj=p_j, e=ext0, lm=lam):
                r, _ = visual_residual(qi, pi, qj, pj, e, u_i, lm, u_j, with_jacobians=False)
                return r

            fd = {k: np.zeros((2, 3)) for k in ("p_i", "th_i", "p_j", "th_j", "ext_p", "ext_th")}
            for c in range(3):
                d = np.zeros(3)
                d[c] = h
                dq = geo.small_angle_quat(d)
                dqm = geo.small_angle_quat(-d)
                fd["p_i"][:, c] = (res(pi=p_i + d) - res(pi=p_i - d)) / (2 * h)
                fd["th_i"][:, c] = (res(qi=geo.quat_mul(dq, q_i)) - res(qi=geo.quat_mul(dqm, q_i))) / (2 * h)
                fd["p_j"][:, c] = (res(pj=p_j + d) - res(pj=p_j - d)) / (2 * h)
                fd["th_j"][:, c] = (res(qj=geo.quat_mul(dq, q_j)) - res(qj=geo.quat_mul(dqm, q_j))) / (2 * h)
                fd["ext_p"][:, c] = (
                    res(e=ExtrinsicCalib(ext0.p_b_c + d, ext0.q_b_c))
                    - res(e=ExtrinsicCalib(ext0.p_b_c - d, ext0.q_b_c))
                ) / (2 * h)
                fd["ext_th"][:, c] = (
                    res(e=ExtrinsicCalib(ext0.p_b_c, geo.quat_mul(dq, ext0.q_b_c)))
                    - res(e=ExtrinsicCalib(ext0.p_b_c, geo.quat_mul(dqm, ext0.q_b_c)))
                ) / (2 * h)
            fd_lam = ((res(lm=lam + h) - res(lm=lam - h)) / (2 * h)).reshape(2, 1)
            for key, mat in fd.items():
                rel = np.linalg.norm(mat - jac[key]) / max(np.linalg.norm(jac[key]), 1.0)
                worst = max(worst, rel)
            worst = max(worst, np.linalg.norm(fd_lam - jac["lam"]) / max(np.linalg.norm(jac["lam"]), 1.0))
        assert worst < 1e-4


class TestSolver:
    def test_fixed_point_converges_immediately(self):
        cfg = ScenarioConfig(duration=4.0, cam_rate=5.0, seed=7)
        data = build_scenario(cfg)
        est = fixed_point_estimator(cfg, data)
        rep = est.build_and_solve()
        assert rep.iterations <= 2
        assert rep.costs[-1] < 1e-12
        assert rep.termination == "converged"

    def test_accepted_steps_never_increase_cost(self):
        cfg = ScenarioConfig(
            duration=4.0, cam_rate=5.0, seed=8, pixel_sigma_px=1.5,
            noise=NoiseParams(0.02, 2e-4, 1e-4, 1e-5),
        )
        data = build_scenario(cfg)
        est, _ = seeded_estimator(cfg, data)
        rep = est.build_and_solve()
        assert all(b <= a for a, b in zip(rep.costs, rep.costs[1:]))
        assert rep.costs[-1] <= rep.costs[0]

    def test_window_without_visual_rows_solves_over_imu_and_prior(self):
        # no feature has a depth, so the window problem has no visual row:
        # the solve runs over the IMU factors (and then the prior) alone, and
        # a keyframe's solve still leaves the prior that the next slide takes
        cfg = ScenarioConfig(duration=6.0, cam_rate=5.0, seed=20, pixel_sigma_px=1.5,
                             noise=NoiseParams(0.02, 2e-4, 1e-4, 1e-5))
        data = build_scenario(cfg)
        est, cam = seeded_estimator(cfg, data)
        t_new = camera_times(cfg)[11]
        for step in range(2):
            for f in est.features.values():
                f.inv_depth = None
            assert est._optimized_features() == []
            rep = est.build_and_solve()
            assert isinstance(rep, SolveReport) and rep.termination == "converged"
            assert np.all(np.isfinite(est.frames.p)) and est._pending_prior is not None
            if step == 0:
                delta = integrate_segment(segment_samples(data.imu, cam[-1], t_new), BiasState(),
                                          MODEL_NOISE)
                est.add_frame(t_new, delta, data.observations(t_new), is_keyframe=True)
                assert est.prior is not None and est.prior.H.shape[0] > 0

    def test_bias_step_past_bound_is_rejected(self):
        # window seeded at a gyro bias of 0.95 rad/s (bound 1.0) while the
        # samples carry 1.15 rad/s: the undamped step leaves the bound
        near = BiasState(gyro=[0.0, 0.0, 0.95])
        cfg = ScenarioConfig(duration=4.0, cam_rate=5.0, seed=18, bias0=near)
        data = build_scenario(cfg)
        imu = data.imu
        data = replace(data, imu=ImuSamples(imu.t, imu.accel, imu.gyro + np.array([0.0, 0.0, 0.2])))
        est, _ = seeded_estimator(cfg, data)
        est.frames.ba[:], est.frames.bw[:] = near.accel, near.gyro
        est.deltas = [d.repropagate(near) for d in est.deltas]
        rep = est.build_and_solve()
        assert isinstance(rep, SolveReport) and rep.iterations >= 1
        assert rep.costs[-1] < rep.costs[0]
        assert np.all(np.linalg.norm(est.frames.bw, axis=1) < MAX_GYRO_BIAS)
        assert np.all(np.linalg.norm(est.frames.ba, axis=1) < MAX_ACCEL_BIAS)

    def test_matches_independent_solver_on_small_problem(self):
        # 3-frame window, ground truth start, frame 0 and extrinsic frozen to
        # pin the gauge; compare against a generic numeric-Jacobian solver
        cfg = ScenarioConfig(duration=1.0, cam_rate=4.0, seed=9, n_landmarks=25)
        data = build_scenario(cfg)
        # pixel sigma widened so the robust kernel stays inactive and both
        # solvers minimize the identical quadratic cost
        config = EstimatorConfig(max_features=8, pixel_sigma=4.0)
        est, _ = seeded_estimator(cfg, data, n_frames=3, config=config)
        feats = est._optimized_features()

        rng = np.random.default_rng(4)
        for k in (1, 2):
            est.frames.p[k] += rng.normal(0, 0.002, 3)
            est.frames.v[k] += rng.normal(0, 0.002, 3)

        from monovio.estimator import _WindowProblem

        problem = _WindowProblem(est, feats, [])
        mask = np.ones(problem.dim, dtype=bool)
        mask[0:15] = False  # freeze frame 0
        mask[problem.ext_col : problem.ext_col + 6] = False  # freeze extrinsic

        def free_states():
            s = problem.states[1:]
            return np.concatenate([np.hstack([s.p, s.v, s.ba, s.bw]).ravel(), problem.lam]), s.q

        start = problem.snapshot()
        tight = type(est.config.solver)(max_iterations=60, rel_cost_tol=1e-14)
        rep = problem.solve(tight, mask)
        ours, our_qs = free_states()

        problem.restore(start)
        x_ind = _independent_minimize(problem, mask)
        problem.retract(_embed(problem, mask, x_ind))
        ind, ind_qs = free_states()
        assert np.abs(ours - ind).max() < 1e-6
        for qa, qb in zip(our_qs, ind_qs):
            assert geo.quat_angle_between(qa, qb) < 1e-6

    def test_loop_frame_and_extrinsic_stay_held(self, monkeypatch):
        # relocalization moves the window onto the loop frame, whose state
        # and the extrinsic stay bit for bit as they were, even when the
        # caller leaves the extrinsic free
        from monovio.estimator import _WindowProblem

        est, _, loop = loop_window()
        solve, solved = _WindowProblem.solve, []

        def recording_solve(problem, config, mask):
            n, s = problem.n_frames, problem.states
            held = [a[n:].copy() for a in (s.p, s.q, s.v, s.ba, s.bw)]
            solved.append((problem, held))
            return solve(problem, config, mask)

        monkeypatch.setattr(_WindowProblem, "solve", recording_solve)
        ext = est.extrinsic
        window_p = est.frames.p
        rep = est.build_and_solve(loops=[loop], fix_extrinsic=False)
        (problem, held), = solved
        assert rep.iterations >= 1 and rep.costs[-1] < rep.costs[0]
        assert len(problem.states) == problem.n_frames + 1
        np.testing.assert_array_equal(held[0], [loop.p_w_v])
        np.testing.assert_allclose(held[1], [loop.q_w_v], rtol=0, atol=1e-15)
        assert not np.any(np.concatenate(held[2:]))
        n, s = problem.n_frames, problem.states
        for now, before in zip((s.p, s.q, s.v, s.ba, s.bw), held):
            np.testing.assert_array_equal(now[n:], before)
        np.testing.assert_array_equal(est.extrinsic.p_b_c, ext.p_b_c)
        np.testing.assert_array_equal(est.extrinsic.q_b_c, ext.q_b_c)
        assert not np.array_equal(est.frames.p, window_p)

    def test_rejects_masks_it_cannot_solve(self):
        # a held depth, or held pose columns inside the free ones (frame 1
        # between free frames 0 and 2), is refused before any step
        problem, _ = loop_window_problem()
        s0 = problem.states
        held_depth = np.ones(problem.dim, dtype=bool)
        held_depth[-1] = False
        held_frame = np.ones(problem.dim, dtype=bool)
        held_frame[15:30] = False
        for mask in (held_depth, held_frame):
            with pytest.raises(ValueError):
                problem.solve(EstimatorConfig().solver, mask)
        with pytest.raises(ValueError):
            problem.damped_step(problem.linearize(problem.evaluate()[1]),
                                held_frame[: problem.feat_col], 1e-4)
        assert problem.states is s0  # retract replaces the iterate


# bound on the share of a taken step in the gauge span when nothing holds
# the gauge: removing the gauge component leaves only rounding (about 1e-16)
GAUGE_STEP_TOL = 1e-10


def _gauge_share(problem, dx):
    """Norm of the least-squares component of dx's window frame columns in
    the span of the gauge basis at the problem's iterate, relative to their
    norm."""
    N = problem.gauge_basis()
    d = dx[: len(N)]
    c, *_ = np.linalg.lstsq(N, d, rcond=None)
    return float(np.linalg.norm(N @ c) / np.linalg.norm(d))


def recorded_steps(monkeypatch):
    """Patch _WindowProblem so that each step a solve retracts is recorded as
    (the step damped_step returned, the step retract took), both with their
    gauge shares at the iterate the step is taken from."""
    from monovio.estimator import _WindowProblem

    damped_step, retract = _WindowProblem.damped_step, _WindowProblem.retract
    steps, returned = [], []

    def recording_step(problem, *args):
        dx = damped_step(problem, *args)
        returned[:] = [dx.copy()]
        return dx

    def recording_retract(problem, dx):
        raw = returned[0]
        steps.append((raw, dx.copy(), _gauge_share(problem, raw), _gauge_share(problem, dx)))
        return retract(problem, dx)

    monkeypatch.setattr(_WindowProblem, "damped_step", recording_step)
    monkeypatch.setattr(_WindowProblem, "retract", recording_retract)
    return steps


class TestGauge:
    def test_basis_spans_null_directions_of_the_window(self):
        # without a prior, the window's cost does not change under a common
        # translation or a yaw about gravity, so its normal equations map
        # every gauge vector to zero; a yaw that turns the attitudes the
        # other way is not a null direction
        from monovio.estimator import _WindowProblem

        cfg = ScenarioConfig(duration=4.0, cam_rate=5.0, seed=8, pixel_sigma_px=1.5,
                             noise=NoiseParams(0.02, 2e-4, 1e-4, 1e-5))
        est, _ = seeded_estimator(cfg, build_scenario(cfg))
        assert est.prior is None
        problem = _WindowProblem(est, est._optimized_features(), [])
        H, b = dense_system(problem.linearize(problem.evaluate()[1]))
        N = np.zeros((problem.dim, 4))
        N[: 15 * problem.n_frames] = problem.gauge_basis()
        # relative to the largest gain of H, which its IMU blocks set: the
        # gauge vectors read about 1e-20, the wrong yaw about 7e-7
        scale = np.linalg.norm(H, 2)
        for n in N.T:
            assert np.linalg.norm(H @ n) < 1e-12 * scale * np.linalg.norm(n)
            assert abs(b @ n) < 1e-12 * np.linalg.norm(b) * np.linalg.norm(n)
        wrong = N[:, 3].copy()
        wrong[5 : 15 * problem.n_frames : 15] = -1.0
        assert np.linalg.norm(H @ wrong) > 1e-9 * scale * np.linalg.norm(wrong)

    def test_steps_leave_the_gauge_of_a_window_without_loop_frames(self, monkeypatch):
        # nothing holds the gauge, so each step loses its gauge component,
        # which damped_step's steps do have
        est, _, _ = loop_window()
        steps = recorded_steps(monkeypatch)
        rep = est.build_and_solve()
        assert rep.iterations >= 2 and len(steps) >= rep.iterations
        assert max(taken for *_, taken in steps) < GAUGE_STEP_TOL
        assert max(raw for _, _, raw, _ in steps) > 1e3 * GAUGE_STEP_TOL

    def test_held_gauge_keeps_the_damped_steps(self, monkeypatch):
        # a loop frame, or window frame 0 held by the mask, fixes the gauge:
        # the solve takes damped_step's steps bit for bit
        from monovio.estimator import SolverConfig, _WindowProblem

        est, _, loop = loop_window()
        steps = recorded_steps(monkeypatch)
        est.build_and_solve(loops=[loop])
        n_loop = len(steps)

        cfg = ScenarioConfig(duration=1.0, cam_rate=4.0, seed=9, n_landmarks=25)
        est, _ = seeded_estimator(cfg, build_scenario(cfg), n_frames=3,
                                  config=EstimatorConfig(max_features=8, pixel_sigma=4.0))
        est.frames.p[2] += 0.002
        problem = _WindowProblem(est, est._optimized_features(), [])
        mask = np.ones(problem.dim, dtype=bool)
        mask[0:15] = False
        problem.solve(SolverConfig(), mask)
        assert n_loop >= 1 and len(steps) > n_loop
        for raw, taken, *_ in steps:
            np.testing.assert_array_equal(taken, raw)


def _embed(problem, mask, x):
    dx = np.zeros(problem.dim)
    dx[mask] = x
    return dx


def _residual_stack(problem):
    """Stacked whitened residuals built from the scalar residual references
    (no assembly machinery)."""
    out = []
    s = problem.states
    for k, delta in enumerate(problem.deltas):
        r, _, _ = imu_residual_jacobians(delta, s, k, GRAVITY)
        out.append(delta.sqrt_information() @ r)
    for k in range(len(problem.v_feat)):
        fi = problem.v_feat[k]
        ai = problem.v_anchor[k]
        oi = problem.v_obs[k]
        r, _ = visual_residual(
            s.q[ai], s.p[ai], s.q[oi], s.p[oi],
            problem.extrinsic, problem.v_ua[k], problem.lam[fi], problem.v_uo[k],
            with_jacobians=False,
        )
        rw = r / problem.sigma
        # this comparison is only valid while the robust kernel is inactive
        assert rw @ rw < 1.0
        out.append(rw)
    return np.concatenate(out)


def _independent_minimize(problem, mask, iters=80):
    """Generic Levenberg-Marquardt with numeric Jacobians over the stacked
    residuals; independent of the production solver and analytic Jacobians."""
    n = int(mask.sum())
    x = np.zeros(n)
    base = problem.snapshot()

    def residuals_at(xv):
        problem.restore(base)
        problem.retract(_embed(problem, mask, xv))
        return _residual_stack(problem)

    r = residuals_at(x)
    c = float(r @ r)
    lam = 1e-8
    h = 1e-7
    for _ in range(iters):
        m = len(r)
        J = np.zeros((m, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            J[:, i] = (residuals_at(x + e) - residuals_at(x - e)) / (2 * h)
        g = J.T @ r
        H = J.T @ J
        improved = False
        for _try in range(30):
            step = np.linalg.solve(H + lam * np.diag(np.maximum(np.diag(H), 1e-12)), -g)
            rn = residuals_at(x + step)
            cn = float(rn @ rn)
            if cn <= c:
                x = x + step
                r, cprev, c = rn, c, cn
                lam = max(lam / 10, 1e-14)
                improved = True
                break
            lam *= 10
        if not improved or (cprev - c) / max(cprev, 1e-30) < 1e-14:
            break
    problem.restore(base)
    return x


class TestMarginalization:
    def test_linear_gaussian_chain_equals_batch(self):
        rng = np.random.default_rng(5)
        d, N = 3, 5
        z0 = rng.standard_normal(d)
        A = [rng.standard_normal((d, d)) + 2 * np.eye(d) for _ in range(N - 1)]
        m = [rng.standard_normal(d) for _ in range(N - 1)]
        W0 = np.linalg.cholesky(4.0 * np.eye(d))
        Wi = [np.linalg.cholesky((1.5 + i) * np.eye(d)) for i in range(N - 1)]

        Jb = np.zeros((d * N, d * N))
        rb = np.zeros(d * N)
        Jb[0:d, 0:d] = W0.T
        rb[0:d] = W0.T @ z0
        row = d
        for i in range(N - 1):
            Jb[row : row + d, d * i : d * i + d] = -Wi[i].T @ A[i]
            Jb[row : row + d, d * (i + 1) : d * (i + 2)] = Wi[i].T
            rb[row : row + d] = Wi[i].T @ m[i]
            row += d
        x_batch = np.linalg.lstsq(Jb, rb, rcond=None)[0].reshape(N, d)

        # marginalize x0 through the production Schur path
        H = np.zeros((2 * d, 2 * d))
        b = np.zeros(2 * d)
        J0 = np.zeros((d, 2 * d))
        J0[:, 0:d] = W0.T
        H += J0.T @ J0
        b += J0.T @ (-W0.T @ z0)
        J1 = np.zeros((d, 2 * d))
        J1[:, 0:d] = -Wi[0].T @ A[0]
        J1[:, d:] = Wi[0].T
        H += J1.T @ J1
        b += J1.T @ (-Wi[0].T @ m[0])
        Hr, br = schur_complement(H, b, d)
        Hp, rp = information_sqrt(Hr, br)

        M = d * (N - 1)
        Jr = np.zeros((Hp.shape[0] + d * (N - 2), M))
        rr = np.zeros(Jr.shape[0])
        Jr[: Hp.shape[0], 0:d] = Hp
        rr[: Hp.shape[0]] = -rp
        row = Hp.shape[0]
        for i in range(1, N - 1):
            Jr[row : row + d, d * (i - 1) : d * i] = -Wi[i].T @ A[i]
            Jr[row : row + d, d * i : d * (i + 1)] = Wi[i].T
            rr[row : row + d] = Wi[i].T @ m[i]
            row += d
        x_red = np.linalg.lstsq(Jr, rr, rcond=None)[0].reshape(N - 1, d)
        assert np.abs(x_red - x_batch[1:]).max() < 1e-8

    def test_prior_dimensions_after_marginalization(self):
        cfg = ScenarioConfig(duration=4.0, cam_rate=5.0, seed=10)
        data = build_scenario(cfg)
        est, cam = seeded_estimator(cfg, data)  # 11 frames = capacity
        est.build_and_solve()
        # inserting one more frame marginalizes the oldest keyframe
        t_new = camera_times(cfg)[11]
        seg = segment_samples(data.imu, cam[-1], t_new)
        delta = integrate_segment(seg, BiasState(), MODEL_NOISE)
        est.add_frame(t_new, delta, data.observations(t_new), is_keyframe=True)
        assert est.prior is not None
        n = est.config.window_size
        assert est.prior.H.shape[1] == 15 * n + 6
        assert len(est.frames) == est.capacity

    def test_prior_equals_schur_of_consumed_factors(self):
        # reference: dense Jacobian of the factors the first marginalization
        # consumes (oldest IMU factor, visual pairs of features anchored in the
        # oldest frame), built from the scalar residual primitives, with frame
        # 0 and those depths eliminated by a plain dense Schur complement
        cfg = ScenarioConfig(duration=4.0, cam_rate=5.0, seed=10, pixel_sigma_px=1.5)
        data = build_scenario(cfg)
        est, cam = seeded_estimator(cfg, data)
        est.build_and_solve()
        frames = est.frames
        ids = list(est.frame_ids)
        ext = est.extrinsic
        sigma = est.config.obs_sigma
        marg = [
            (f.inv_depth, list(est.rays([f.obs[k] for k in sorted(f.obs)])),
             [ids.index(k) for k in sorted(f.obs)])
            for f in est._optimized_features() if f.anchor_id() == ids[0]
        ]
        assert marg
        r0, J0, J1 = imu_residual_jacobians(est.deltas[0], frames, 0, GRAVITY)
        W0 = est.deltas[0].sqrt_information()

        # columns: [frame 0, marginalized depths | frames 1.., extrinsic]
        n_m = 15 + len(marg)
        ext0 = n_m + 15 * (len(frames) - 1)
        n = ext0 + 6

        def col(idx):
            return 0 if idx == 0 else n_m + 15 * (idx - 1)

        J = np.zeros((15, n))
        J[:, 0:15] = W0 @ J0
        J[:, col(1) : col(1) + 15] = W0 @ J1
        rows, res = [J], [W0 @ r0]
        for m, (lam, rays, idxs) in enumerate(marg):
            for ray, idx in zip(rays[1:], idxs[1:]):
                r, jac = visual_residual(frames.q[0], frames.p[0], frames.q[idx], frames.p[idx],
                                         ext, rays[0], lam, ray)
                r = r / sigma
                w = np.sqrt(float(huber_weight(r @ r)))
                J = np.zeros((2, n))
                J[:, 0:3], J[:, 3:6] = jac["p_i"], jac["th_i"]
                J[:, col(idx) : col(idx) + 3], J[:, col(idx) + 3 : col(idx) + 6] = jac["p_j"], jac["th_j"]
                J[:, ext0 : ext0 + 3], J[:, ext0 + 3 :] = jac["ext_p"], jac["ext_th"]
                J[:, 15 + m] = jac["lam"][:, 0]
                rows.append(w * J / sigma)
                res.append(w * r)
        J, r = np.vstack(rows), np.concatenate(res)
        H, b = J.T @ J, J.T @ r
        K = np.linalg.solve(H[:n_m, :n_m], H[:n_m, n_m:])
        H_ref = H[n_m:, n_m:] - H[n_m:, :n_m] @ K
        b_ref = b[n_m:] - K.T @ b[:n_m]

        t_new = camera_times(cfg)[11]
        delta = integrate_segment(segment_samples(data.imu, cam[-1], t_new), BiasState(), MODEL_NOISE)
        est.add_frame(t_new, delta, data.observations(t_new), is_keyframe=True)
        prior = est.prior
        assert prior.frame_ids == ids[1:]
        tol = 1e-8 * np.abs(H_ref).max()
        np.testing.assert_allclose(prior.H.T @ prior.H, H_ref, rtol=0, atol=tol)
        np.testing.assert_allclose(prior.H.T @ prior.r, b_ref, rtol=0, atol=tol)

    def test_marginalizing_needs_a_solve_since_the_last_slide(self):
        # the prior comes from the last solve's problem: a slide that
        # marginalizes with no solve since seed() or the last slide raises
        # and leaves the window as it is, and seed() drops a pending prior
        cfg = ScenarioConfig(duration=4.0, cam_rate=5.0, seed=10)
        data = build_scenario(cfg)
        est, _ = seeded_estimator(cfg, data)  # a full window of keyframes
        all_cam = camera_times(cfg)

        def add_keyframe(k):
            seg = segment_samples(data.imu, all_cam[k - 1], all_cam[k])
            est.add_frame(all_cam[k], integrate_segment(seg, est.frames.bias(-1), MODEL_NOISE),
                          data.observations(all_cam[k]), is_keyframe=True)

        frames, ids = est.frames, list(est.frame_ids)
        with pytest.raises(EstimatorError):
            add_keyframe(11)
        assert est.frames is frames and est.frame_ids == ids and est.prior is None
        est.build_and_solve()
        add_keyframe(11)
        assert est.prior is not None and est.frame_ids == ids[1:] + [ids[-1] + 1]
        with pytest.raises(EstimatorError):
            add_keyframe(12)
        est.build_and_solve()
        est.seed(est.frames, est.deltas)
        with pytest.raises(EstimatorError):
            add_keyframe(12)

    def test_loop_rows_do_not_reach_the_prior(self):
        # a held loop frame observes features anchored in the oldest frame,
        # yet the prior equals the loop-free problem's at the same states:
        # its rows are not consumed and its columns are dropped
        from monovio.estimator import _WindowProblem

        est, feats, loop = loop_window()
        with_loop, loop_free = _WindowProblem(est, feats, [loop]), _WindowProblem(est, feats, [])
        held, consumed = with_loop.marginalize_frame(with_loop.evaluate()[1])
        ref, ref_consumed = loop_free.marginalize_frame(loop_free.evaluate()[1])
        fids = [f.fid for f in consumed]
        assert fids == [f.fid for f in ref_consumed]
        loop_rows = with_loop.v_obs >= with_loop.n_frames
        loop_fids = [feats[fi].fid for fi in with_loop.v_feat[loop_rows]]
        assert set(fids) & set(loop_fids)
        assert held.frame_ids == ref.frame_ids == est.frame_ids[1:]
        for name in ("t", "p", "q", "v", "ba", "bw"):
            np.testing.assert_array_equal(getattr(held.lin_states, name),
                                          getattr(ref.lin_states, name))
        info, ref_info = held.H.T @ held.H, ref.H.T @ ref.H
        np.testing.assert_allclose(info, ref_info, rtol=0, atol=1e-12 * np.abs(ref_info).max())
        grad, ref_grad = held.H.T @ held.r, ref.H.T @ ref.r
        np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12 * np.abs(ref_grad).max())

    def test_nonkeyframe_drop_merges_deltas(self):
        cfg = ScenarioConfig(duration=4.0, cam_rate=5.0, seed=11)
        data = build_scenario(cfg)
        est, cam = seeded_estimator(cfg, data)
        est.keyframe_flags[-1] = False  # latest becomes a non-keyframe
        all_cam = camera_times(cfg)
        t_new = all_cam[11]
        seg = segment_samples(data.imu, cam[-1], t_new)
        delta = integrate_segment(seg, BiasState(), MODEL_NOISE)
        samples_before = est.deltas[-1].samples
        est.add_frame(t_new, delta, data.observations(t_new), is_keyframe=True)
        # merged delta covers the union of the two sample buffers
        merged = est.deltas[-1]
        assert len(merged.samples) == len(samples_before) + len(seg) - 1
        assert merged.samples.t[0] == samples_before.t[0]
        assert merged.samples.t[-1] == pytest.approx(t_new)
        reference = integrate_segment(merged.samples, merged.lin_bias, MODEL_NOISE)
        np.testing.assert_allclose(merged.alpha, reference.alpha, atol=1e-12)
        np.testing.assert_allclose(merged.gamma, reference.gamma, atol=1e-12)

    def test_sliding_window_tracks_ground_truth(self):
        # run several slides at ground truth with noise-free data: the window
        # solution must stay glued to the truth
        cfg = ScenarioConfig(duration=8.0, cam_rate=5.0, seed=12)
        data = build_scenario(cfg)
        est, cam = seeded_estimator(cfg, data)
        est.build_and_solve()
        gt = data.ground_truth
        all_cam = camera_times(cfg)
        for k in range(11, 21):
            t_prev, t_new = all_cam[k - 1], all_cam[k]
            seg = segment_samples(data.imu, t_prev, t_new)
            delta = integrate_segment(seg, BiasState(), MODEL_NOISE)
            est.add_frame(t_new, delta, data.observations(t_new), is_keyframe=True)
            est.triangulate_new_features()
            est.build_and_solve()
            i = int(round(t_new * cfg.imu_rate))
            assert np.linalg.norm(est.latest().p[0] - gt.p[i]) < 0.02
        assert est.prior is not None

    def test_feature_observations_stay_in_the_window(self):
        # observe adds only window frame ids, and both a marginalization and
        # a drop remove the departing id from every feature: every
        # observation belongs to a window frame
        noise = NoiseParams(0.02, 2e-4, 1e-4, 1e-5)
        cfg = ScenarioConfig(duration=8.0, cam_rate=5.0, seed=12, pixel_sigma_px=1.5, noise=noise)
        data = build_scenario(cfg)
        est, cam = seeded_estimator(cfg, data)
        est.build_and_solve()
        all_cam = camera_times(cfg)
        marginalized = dropped = 0
        for k in range(11, 35):
            dropped += not est.keyframe_flags[-1]
            seg = segment_samples(data.imu, all_cam[k - 1], all_cam[k])
            delta = integrate_segment(seg, est.frames.bias(-1), noise)
            est.add_frame(all_cam[k], delta, data.observations(all_cam[k]), is_keyframe=k % 3 != 0)
            marginalized += len(est.pop_marginalized_keyframes())
            window = set(est.frame_ids)
            assert all(set(f.obs) <= window for f in est.features.values())
            est.triangulate_new_features()
            est.build_and_solve()
        assert marginalized >= 5 and dropped >= 5

    def test_anchor_transfer_matches_per_feature_reference(self):
        # a marginalizing slide re-expresses, in one batch, the depth of each
        # feature that the departing frame anchors in its next observation,
        # bit for bit as the per-feature transfer; the features the prior
        # consumes keep only that ray, and are dropped with their depth; a
        # cap on the optimized features leaves depths that are not consumed,
        # and points moved next to the departing camera lose theirs
        noise = NoiseParams(0.02, 2e-4, 1e-4, 1e-5)
        cfg = ScenarioConfig(duration=8.0, cam_rate=5.0, seed=12, pixel_sigma_px=1.5, noise=noise)
        data = build_scenario(cfg)
        est, _ = seeded_estimator(cfg, data, config=EstimatorConfig(max_features=40))
        est.build_and_solve()
        all_cam = camera_times(cfg)
        seen = set()
        for k in range(11, 30):
            expected = {}
            if est.keyframe_flags[-1]:
                consumed = {f.fid for f in est._pending_prior[1]}
                if not seen:  # points 1 um ahead of the departing camera
                    for f in est._pending_prior[1][::2]:
                        f.inv_depth = 1e6
                cam_q, cam_p = est.camera_poses()
                ids = est.frame_ids
                for f in est.features.values():
                    keys = list(f.obs)
                    if keys[0] != ids[0]:
                        continue
                    if len(keys) == 1:
                        expected[f.fid] = None
                        seen.add("gone")
                        continue
                    lam = None
                    if f.inv_depth is not None:
                        j = ids.index(keys[1])
                        ray0, ray1 = est.rays([f.obs[keys[0]], f.obs[keys[1]]])
                        lam = transferred_inv_depth(f.inv_depth, ray0, ray1,
                                                    cam_q[0], cam_p[0], cam_q[j], cam_p[j])
                    if f.fid in consumed:
                        expected[f.fid] = None if lam is None else (lam, keys[1:2])
                        seen.add("consumed" if lam is not None else "dropped")
                    else:
                        expected[f.fid] = (lam, keys[1:])
                        seen.add("kept" if f.inv_depth is None else "moved")
            seg = segment_samples(data.imu, all_cam[k - 1], all_cam[k])
            delta = integrate_segment(seg, est.frames.bias(-1), noise)
            est.add_frame(all_cam[k], delta, data.observations(all_cam[k]), is_keyframe=k % 3 != 0)
            for fid, exp in expected.items():
                if exp is None:  # gone, or back with the new frame's observation alone
                    f = est.features.get(fid)
                    assert f is None or (list(f.obs) == est.frame_ids[-1:] and f.inv_depth is None)
                    continue
                lam, keys = exp
                f = est.features[fid]
                assert f.inv_depth == lam  # bit for bit, or both None
                # the new frame's observation may follow the kept keys
                assert list(f.obs)[: len(keys)] == keys
                assert set(f.obs) - set(keys) <= {est.frame_ids[-1]}
            est.triangulate_new_features()
            est.build_and_solve()
        assert {"gone", "consumed", "dropped", "moved"} <= seen

    def test_handed_out_states_are_value_copies(self):
        # the latest state, a marginalized keyframe and a prior's
        # linearization point stay as they were handed out while the window
        # moves on, and writing into them leaves the window as it is
        cfg = ScenarioConfig(duration=4.0, cam_rate=5.0, seed=10)
        data = build_scenario(cfg)
        est, _ = seeded_estimator(cfg, data)
        est.build_and_solve()
        all_cam = camera_times(cfg)

        def add_keyframe(k):
            seg = segment_samples(data.imu, all_cam[k - 1], all_cam[k])
            delta = integrate_segment(seg, est.frames.bias(-1), MODEL_NOISE)
            est.add_frame(all_cam[k], delta, data.observations(all_cam[k]), is_keyframe=True)
            est.triangulate_new_features()
            est.build_and_solve()

        def arrays(states):
            return [states.t, states.p, states.q, states.v, states.ba, states.bw]

        add_keyframe(11)
        latest = est.latest()
        (_, marg), = est.pop_marginalized_keyframes()
        lin = est.prior.lin_states
        handed = arrays(latest) + arrays(marg) + arrays(lin)
        before = [a.copy() for a in handed]

        add_keyframe(12)
        assert est.prior.lin_states is not lin
        assert not np.array_equal(est.latest().p, latest.p)
        for a, b in zip(handed, before):
            np.testing.assert_array_equal(a, b)

        window = est.frames[:]
        lin = est.prior.lin_states
        for a in handed + arrays(est.latest()) + arrays(lin):
            a.fill(np.nan)
        for name in ("t", "p", "q", "v", "ba", "bw"):
            np.testing.assert_array_equal(getattr(est.frames, name), getattr(window, name))


def one_state(t, p, q, v, bias=None):
    """A single frame state: one row of FrameStates, zero biases by default."""
    bias = BiasState() if bias is None else bias
    return FrameStates(t, p, q, v, bias.accel, bias.gyro)


class TestForwardPropagation:
    def test_hover(self):
        q = geo.quat_exp([0.2, -0.1, 0.4])
        g = np.array([0.0, 0.0, 9.81])
        state = one_state(0.0, [1, 2, 3], q, [0, 0, 0])
        a_body = geo.quat_rotate(geo.quat_inverse(q), g)
        samples = ImuSamples(0.01 * np.arange(21), np.tile(a_body, (21, 1)), np.zeros((21, 3)))
        _, p, _, v = imu_forward_propagate(state, samples, g)
        np.testing.assert_allclose(p[-1], [1, 2, 3], atol=1e-12)
        np.testing.assert_allclose(v[-1], [0, 0, 0], atol=1e-12)

    def test_free_fall(self):
        g = np.array([0.0, 0.0, 9.81])
        v0 = np.array([0.5, 0.0, 0.2])
        state = one_state(0.0, np.zeros(3), geo.quat_identity(), v0)
        samples = ImuSamples(0.01 * np.arange(51), np.zeros((51, 3)), np.zeros((51, 3)))
        _, p, _, v = imu_forward_propagate(state, samples, g)
        T = 0.5
        np.testing.assert_allclose(p[-1], v0 * T - 0.5 * g * T**2, atol=1e-12)
        np.testing.assert_allclose(v[-1], v0 - g * T, atol=1e-12)

    def test_against_simulator(self):
        cfg = ScenarioConfig(duration=2.0, seed=15)
        data = build_scenario(cfg)
        gt = data.ground_truth
        i0 = 100
        state = one_state(gt.t[i0], gt.p[i0], gt.q[i0], gt.v[i0])
        i1 = i0 + 100  # 0.5 s at 200 Hz
        t, p, q, _ = imu_forward_propagate(state, data.imu[i0 : i1 + 1], np.array([0, 0, 9.81]))
        assert abs(t[-1] - gt.t[i1]) < 1e-9
        assert np.linalg.norm(p[-1] - gt.p[i1]) < 1e-5
        assert geo.quat_angle_between(q[-1], gt.q[i1]) < 1e-5

    def test_timestamp_regression_rejected(self):
        state = one_state(0.0, np.zeros(3), geo.quat_identity(), np.zeros(3))
        samples = ImuSamples([0.0, -0.01], np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(PreintegrationError):
            imu_forward_propagate(state, samples, np.array([0, 0, 9.81]))

    def test_every_sample_equals_state_composed_with_prefix_delta(self):
        # the IMU-rate output and the window's deltas come from one midpoint
        # path, so only the summation order of the composition may differ
        cfg = ScenarioConfig(
            duration=2.0, seed=15, noise=NoiseParams(0.02, 2e-4, 1e-4, 1e-5),
            bias0=BiasState(accel=[0.02, -0.01, 0.015], gyro=[0.003, -0.002, 0.004]),
        )
        data = build_scenario(cfg)
        gt = data.ground_truth
        g = np.array([0.0, 0.0, 9.81])
        i0 = 100
        samples = data.imu[i0 : i0 + 101]
        bias = BiasState(accel=[0.03, 0.01, -0.02], gyro=[0.004, -0.003, 0.002])
        state = one_state(gt.t[i0], gt.p[i0], gt.q[i0], gt.v[i0], bias)
        assert np.linalg.norm(gt.omega_body[i0 : i0 + 101], axis=1).min() > 0.1
        out = imu_forward_propagate(state, samples, g)
        assert all(len(a) == len(samples) - 1 for a in out)
        p0, q0, v0 = state.p[0], state.q[0], state.v[0]
        R0 = geo.quat_to_rot(q0)
        for k, (t, p, q, v) in enumerate(zip(*out), start=1):
            d = integrate_segment(samples[: k + 1], bias, MODEL_NOISE)
            dt = d.dt_total
            assert t == samples[k].t
            np.testing.assert_allclose(
                p, p0 + v0 * dt - 0.5 * g * dt**2 + R0 @ d.alpha, rtol=0, atol=1e-12)
            np.testing.assert_allclose(v, v0 - g * dt + R0 @ d.beta, rtol=0, atol=1e-12)
            np.testing.assert_allclose(q, geo.quat_mul(q0, d.gamma), rtol=0, atol=1e-12)


class TestFailureDetection:
    def _state(self, **kw):
        base = dict(t=0.0, p=np.zeros(3), q=geo.quat_identity(), v=np.zeros(3),
                    ba=np.zeros(3), bw=np.zeros(3))
        base.update(kw)
        return FrameStates(**base)

    def test_tracking_loss(self):
        failed, reason = detect_failure(self._state(), self._state(), tracked_count=5)
        assert failed and reason == "tracking"

    def test_position_jump(self):
        cur = self._state(p=np.array([2.0, 0, 0]))
        failed, reason = detect_failure(self._state(), cur, tracked_count=50)
        assert failed and reason == "discontinuity"

    def test_rotation_jump(self):
        cur = self._state(q=geo.quat_exp([0, 0, np.deg2rad(45)]))
        failed, reason = detect_failure(self._state(), cur, tracked_count=50)
        assert failed and reason == "discontinuity"

    def test_bias_jump(self):
        cur = self._state(ba=np.array([0.6, 0, 0]))
        failed, reason = detect_failure(self._state(), cur, tracked_count=50)
        assert failed and reason == "bias"

    def test_bias_jump_under_a_position_jump(self):
        # a relocalization excuses a jump, so the jump checks come last and
        # leave a bias jump on the same frame visible
        cur = self._state(p=np.array([2.0, 0, 0]), ba=np.array([0.6, 0, 0]))
        failed, reason = detect_failure(self._state(), cur, tracked_count=50)
        assert failed and reason == "bias"

    def test_extrinsic_jump(self):
        a = default_extrinsic()
        b = ExtrinsicCalib(a.p_b_c + [0.1, 0, 0], a.q_b_c)
        failed, reason = detect_failure(
            self._state(), self._state(), 50, prev_extrinsic=a, cur_extrinsic=b
        )
        assert failed and reason == "extrinsic"

    def test_nominal_passes(self):
        cur = self._state(p=np.array([0.05, 0.01, 0.0]))
        failed, reason = detect_failure(self._state(), cur, tracked_count=80)
        assert not failed and reason is None


def loop_window():
    """Window with a prior, every state moved off its linearization point,
    and one loop set, one of whose correspondences is an outlier on the
    Huber branch. Returns (estimator, optimized features, loop)."""
    cfg = ScenarioConfig(duration=6.0, cam_rate=5.0, seed=20, pixel_sigma_px=1.5,
                         noise=NoiseParams(0.02, 2e-4, 1e-4, 1e-5))
    data = build_scenario(cfg)
    est, cam = seeded_estimator(cfg, data)
    est.build_and_solve()
    t_new = camera_times(cfg)[11]
    delta = integrate_segment(segment_samples(data.imu, cam[-1], t_new), BiasState(), MODEL_NOISE)
    est.add_frame(t_new, delta, data.observations(t_new), is_keyframe=True)
    est.triangulate_new_features()
    assert est.prior is not None
    # move every state off the prior's and the deltas' linearization points
    rng = np.random.default_rng(7)
    f = est.frames
    for k in range(len(f)):
        f.p[k] += rng.normal(0.0, 0.003, 3)
        f.q[k] = geo.quat_mul(geo.quat_exp(rng.normal(0.0, 0.002, 3)), f.q[k])
        f.v[k] += rng.normal(0.0, 0.01, 3)
        f.ba[k], f.bw[k] = rng.normal(0.0, 0.02, 3), rng.normal(0.0, 0.005, 3)
    est.extrinsic = ExtrinsicCalib(
        est.extrinsic.p_b_c + rng.normal(0.0, 0.003, 3),
        geo.quat_mul(geo.quat_exp(rng.normal(0.0, 0.002, 3)), est.extrinsic.q_b_c),
    )
    feats = est._optimized_features()

    # loop frame: the ground-truth body pose at t = 0.1 s, between the
    # first two camera frames; one correspondence is turned 3 deg to make
    # an outlier
    ext = est.extrinsic
    gt = data.ground_truth
    i = int(round(0.1 * cfg.imu_rate))
    q_wc = geo.quat_mul(gt.q[i], ext.q_b_c)
    p_wc = gt.p[i] + geo.quat_rotate(gt.q[i], ext.p_b_c)
    pairs = []
    for f in feats[:12]:
        ray = geo.quat_rotate(geo.quat_inverse(q_wc), gt.landmarks[f.fid] - p_wc)
        pairs.append((f.fid, ray / np.linalg.norm(ray)))
    pairs[0] = (pairs[0][0], geo.quat_rotate(geo.quat_exp([0.0, np.deg2rad(3.0), 0.0]), pairs[0][1]))
    return est, feats, LoopObservationSet(gt.q[i], gt.p[i], pairs)


def loop_window_problem():
    """Window problem over loop_window() with every IMU factor and the loop
    set. Returns (problem, loop)."""
    from monovio.estimator import _WindowProblem

    est, feats, loop = loop_window()
    return _WindowProblem(est, feats, [loop]), loop


def dense_system(blocks):
    """NormalBlocks as one dense (H, b) over [poses, extrinsic | depths]."""
    H = np.block([[blocks.H_pp, blocks.W.T], [blocks.W, np.diag(blocks.v)]])
    return H, np.concatenate([blocks.b_p, blocks.b_l])


class TestImuResidualJacobiansInWindow:
    def test_analytic_jacobians_in_assembled_problem(self):
        # cross-check: batched assembly equals the scalar reference residual
        cfg = ScenarioConfig(duration=2.0, cam_rate=5.0, seed=16, pixel_sigma_px=1.0,
                             noise=NoiseParams(0.01, 1e-4, 0.0, 0.0))
        data = build_scenario(cfg)
        est, _ = seeded_estimator(cfg, data, n_frames=5)
        feats = est._optimized_features()
        from monovio.estimator import _WindowProblem

        problem = _WindowProblem(est, feats, [])
        s = problem.states
        r_batch, _ = problem._visual_terms(geo.quat_to_rot(s.q), s.p)
        for k in range(len(problem.v_feat)):
            fi = problem.v_feat[k]
            ai = problem.v_anchor[k]
            oi = problem.v_obs[k]
            r_single, _ = visual_residual(
                s.q[ai], s.p[ai], s.q[oi], s.p[oi],
                problem.extrinsic, problem.v_ua[k], problem.lam[fi], problem.v_uo[k],
                with_jacobians=False,
            )
            np.testing.assert_allclose(r_batch[k] * problem.sigma, r_single, atol=1e-12)

    def test_assembled_gradient_matches_numeric(self):
        # the assembled b must equal the numeric gradient of the robust cost
        cfg = ScenarioConfig(duration=2.0, cam_rate=5.0, seed=17, pixel_sigma_px=1.5,
                             noise=NoiseParams(0.02, 2e-4, 1e-4, 1e-5))
        data = build_scenario(cfg)
        est, _ = seeded_estimator(cfg, data, n_frames=4)
        feats = est._optimized_features()[:6]
        from monovio.estimator import _WindowProblem

        problem = _WindowProblem(est, feats, [])
        blocks = problem.linearize(problem.evaluate()[1])
        b = np.concatenate([blocks.b_p, blocks.b_l])
        h = 1e-6
        base = problem.snapshot()
        rng = np.random.default_rng(0)
        for idx in rng.choice(problem.dim, size=18, replace=False):
            e = np.zeros(problem.dim)
            e[idx] = h
            problem.restore(base)
            problem.retract(e)
            cp = problem.evaluate()[0]
            problem.restore(base)
            problem.retract(-e)
            cm = problem.evaluate()[0]
            problem.restore(base)
            g_num = (cp - cm) / (2 * h)
            # b is J^T W r, gradient of ||r||^2-style cost is 2 b
            assert g_num == pytest.approx(2 * b[idx], rel=2e-3, abs=2e-4)

    def test_batched_imu_kernel_matches_scalar_reference(self):
        # every frame carries its own non-zero bias offset from each delta's
        # linearization bias, so the first-order correction is exercised
        from monovio.preintegration import (
            StackedDeltas,
            imu_jacobians_batch,
            imu_residuals_batch,
        )

        cfg = ScenarioConfig(duration=3.0, cam_rate=5.0, seed=19,
                             noise=NoiseParams(0.02, 2e-4, 1e-4, 1e-5))
        data = build_scenario(cfg)
        est, _ = seeded_estimator(cfg, data, n_frames=8)
        rng = np.random.default_rng(6)
        f = est.frames
        for k in range(len(f)):
            f.ba[k], f.bw[k] = rng.normal(0.0, 0.05, 3), rng.normal(0.0, 0.01, 3)
        st = StackedDeltas(est.deltas)
        r, aux = imu_residuals_batch(st, f.p, f.q, f.v, f.ba, f.bw, GRAVITY)
        J = imu_jacobians_batch(st, aux)
        Jk, Jk1 = J[:, :, :15], J[:, :, 15:]
        assert len(r) == len(est.deltas) == 7
        for k, delta in enumerate(est.deltas):
            assert np.all(f.bw[k] != delta.lin_bias.gyro)
            ref = imu_residual_jacobians(delta, f, k, GRAVITY)
            for got, want in zip((r[k], Jk[k], Jk1[k]), ref):
                tol = 1e-12 * max(1.0, np.abs(want).max())
                np.testing.assert_allclose(got, want, rtol=0, atol=tol)

    def test_assembly_matches_dense_reference(self):
        # (H, b, cost) of one evaluate() and linearize() against J^T J, J^T r
        # and the summed cost of a dense Jacobian stacked from the scalar
        # primitives: the prior, every IMU factor, window and loop visual rows
        problem, loop = loop_window_problem()
        cost, terms = problem.evaluate()
        H, b = dense_system(problem.linearize(terms))
        ext = problem.extrinsic

        n = problem.dim
        x = problem.states
        rows, res = [], []
        ref_cost = 0.0

        prior = problem.prior
        D = np.eye(prior.H.shape[1])
        d = np.zeros(prior.H.shape[1])
        pcols = []
        lin = prior.lin_states
        for blk, fid in enumerate(prior.frame_ids):
            i = problem.frame_ids.index(fid)
            pcols += list(range(15 * i, 15 * i + 15))
            e = geo.quat_mul(x.q[i], geo.quat_inverse(lin.q[blk]))
            e = -e if e[0] < 0 else e
            d[15 * blk : 15 * blk + 15] = np.concatenate(
                [x.p[i] - lin.p[blk], 2 * e[1:], x.v[i] - lin.v[blk], x.ba[i] - lin.ba[blk],
                 x.bw[i] - lin.bw[blk]])
            D[15 * blk + 3 : 15 * blk + 6, 15 * blk + 3 : 15 * blk + 6] = e[0] * np.eye(3) - geo.skew(e[1:])
        e = geo.quat_mul(ext.q_b_c, geo.quat_inverse(prior.lin_extrinsic.q_b_c))
        e = -e if e[0] < 0 else e
        d[-6:] = np.concatenate([ext.p_b_c - prior.lin_extrinsic.p_b_c, 2 * e[1:]])
        D[-3:, -3:] = e[0] * np.eye(3) - geo.skew(e[1:])
        pcols += list(range(problem.ext_col, problem.ext_col + 6))
        J = np.zeros((prior.H.shape[0], n))
        J[:, pcols] = prior.H @ D
        r = prior.r + prior.H @ d
        rows.append(J)
        res.append(r)
        ref_cost += r @ r

        for k, delta in enumerate(problem.deltas):
            r, Jk, Jk1 = imu_residual_jacobians(delta, x, k, GRAVITY)
            J = np.zeros((15, n))
            W = delta.sqrt_information()
            J[:, 15 * k : 15 * k + 15] = W @ Jk
            J[:, 15 * k + 15 : 15 * k + 30] = W @ Jk1
            r = W @ r
            rows.append(J)
            res.append(r)
            ref_cost += r @ r

        # the loop rows are those that the loop frame, held after the
        # window's frames, observes; the dense reference fills its columns
        sigma = problem.sigma
        assert np.sum(problem.v_obs >= problem.n_frames) == 12
        assert np.all(problem.v_obs <= problem.n_frames)
        active = 0
        for k in range(len(problem.v_feat)):
            ai, oi, fi = problem.v_anchor[k], problem.v_obs[k], problem.v_feat[k]
            held = oi >= problem.n_frames
            q_j, p_j = (loop.q_w_v, loop.p_w_v) if held else (x.q[oi], x.p[oi])
            r, jac = visual_residual(x.q[ai], x.p[ai], q_j, p_j, ext, problem.v_ua[k], problem.lam[fi],
                                     problem.v_uo[k])
            r = r / sigma
            s = float(r @ r)
            active += s > 1.0
            w = np.sqrt(float(huber_weight(s)))
            J = np.zeros((2, n))
            J[:, 15 * ai : 15 * ai + 3], J[:, 15 * ai + 3 : 15 * ai + 6] = jac["p_i"], jac["th_i"]
            J[:, 15 * oi : 15 * oi + 3], J[:, 15 * oi + 3 : 15 * oi + 6] = jac["p_j"], jac["th_j"]
            J[:, problem.ext_col : problem.ext_col + 3] = jac["ext_p"]
            J[:, problem.ext_col + 3 : problem.ext_col + 6] = jac["ext_th"]
            J[:, problem.feat_col + fi] = jac["lam"][:, 0]
            rows.append(w * J / sigma)
            res.append(w * r)
            ref_cost += robust_cost(s)
        assert 0 < active < len(problem.v_feat)  # both Huber branches

        J, r = np.vstack(rows), np.concatenate(res)
        H_ref, b_ref = J.T @ J, J.T @ r
        np.testing.assert_allclose(H, H_ref, rtol=0, atol=1e-9 * np.abs(H_ref).max())
        np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-9 * np.abs(b_ref).max())
        assert cost == pytest.approx(ref_cost, rel=1e-10, abs=0)

    def test_reduced_step_equals_dense_damped_step(self):
        # the Schur/Cholesky step against np.linalg.solve on the dense damped
        # system rebuilt from the blocks, whose depth diagonal is damped like
        # the rest; with the extrinsic free and held, at two dampings
        problem, _ = loop_window_problem()
        blocks = problem.linearize(problem.evaluate()[1])
        H, b = dense_system(blocks)
        full = np.ones(problem.dim, dtype=bool)
        no_ext = full.copy()
        no_ext[problem.ext_col : problem.ext_col + 6] = False
        for mask in (full, no_ext):
            Hm = H[np.ix_(mask, mask)]
            for lam in (1e-4, 1e-1):
                ref = np.zeros(problem.dim)
                damped = Hm + lam * np.diag(np.maximum(np.diag(Hm), 1e-12))
                ref[mask] = np.linalg.solve(damped, -b[mask])
                dx = problem.damped_step(blocks, mask[: problem.feat_col], lam)
                np.testing.assert_allclose(dx, ref, rtol=0, atol=1e-6 * np.abs(ref).max())

    def test_step_on_a_system_not_positive_definite_raises(self):
        # with H_pp's diagonal zeroed and a tiny damping, the reduced system
        # has non-positive pivots
        problem, _ = loop_window_problem()
        blocks = problem.linearize(problem.evaluate()[1])
        mask = np.ones(problem.feat_col, dtype=bool)
        assert np.all(np.isfinite(problem.damped_step(blocks, mask, 1e-4)))
        np.fill_diagonal(blocks.H_pp, 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            problem.damped_step(blocks, mask, 1e-12)

    def test_step_and_prior_read_one_triangle_of_the_pose_block(self):
        # the reductions read H_pp's upper triangle only: with its strict
        # lower triangle NaN, the steps (extrinsic free and held) and the
        # prior equal those of the clean blocks bit for bit
        problem, _ = loop_window_problem()
        terms = problem.evaluate()[1]
        masks = [np.ones(problem.feat_col, dtype=bool) for _ in range(2)]
        masks[1][problem.ext_col :] = False

        def outputs():
            steps = [problem.damped_step(problem.linearize(terms), m, 1e-4) for m in masks]
            prior, _ = problem.marginalize_frame(terms)
            return (*steps, prior.H, prior.r)

        clean = outputs()
        linearize = problem.linearize

        def linearize_lower_nan(terms, rows=None):
            blocks = linearize(terms, rows)
            blocks.H_pp[np.tril_indices(len(blocks.H_pp), -1)] = np.nan
            return blocks

        problem.linearize = linearize_lower_nan
        for got, ref in zip(outputs(), clean):
            assert np.array_equal(got, ref)

    def test_solve_raises_the_damping_past_steps_not_positive_definite(self):
        # every system the solve builds has a zero diagonal, so each damped
        # step raises; the solve raises the damping on each, gives up after
        # MAX_DAMPING_RETRIES and returns its report with the iterate as it was
        from monovio.estimator import INITIAL_LAMBDA, LAMBDA_UP, MAX_DAMPING_RETRIES, SolverConfig

        problem, _ = loop_window_problem()
        linearize, damped_step = problem.linearize, problem.damped_step
        lams = []

        def linearize_without_diagonal(terms, rows=None):
            blocks = linearize(terms, rows)
            np.fill_diagonal(blocks.H_pp, 0.0)
            return blocks

        def recorded_step(blocks, pose_mask, lam):
            lams.append(lam)
            return damped_step(blocks, pose_mask, lam)

        problem.linearize, problem.damped_step = linearize_without_diagonal, recorded_step
        before = problem.snapshot()
        mask = np.ones(problem.dim, dtype=bool)
        mask[15 * problem.n_frames : problem.feat_col] = False
        report = problem.solve(SolverConfig(), mask)
        assert report.termination == "no_decrease_after_max_damping"
        assert report.iterations == 1 and len(report.costs) == 1
        np.testing.assert_allclose(
            lams, INITIAL_LAMBDA * LAMBDA_UP ** np.arange(MAX_DAMPING_RETRIES), rtol=1e-12)
        assert all(a is b for a, b in zip(problem.snapshot(), before))


def assert_blocks_match(got, ref):
    for name in ("H_pp", "W", "v", "b_p", "b_l"):
        a, b = getattr(got, name), getattr(ref, name)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max(), err_msg=name)


class TestFramePairAssembly:
    def test_chunked_assembly_matches_per_row_reference(self):
        # window and loop rows, with frame pairs longer than one chunk
        from monovio.estimator import VISUAL_CHUNK_ROWS

        problem, _ = loop_window_problem()
        pairs = problem.v_anchor * len(problem.states) + problem.v_obs
        assert np.any(problem.v_obs >= problem.n_frames)
        assert np.bincount(pairs).max() > VISUAL_CHUNK_ROWS
        terms = problem.evaluate()[1]
        assert_blocks_match(problem.linearize(terms), linearize_per_row(problem, terms))

    def test_reused_buffers_hold_no_stale_rows(self):
        # a problem linearized at a second iterate equals the per-row
        # reference there, and bit for bit a fresh problem at that iterate
        from monovio.estimator import _WindowProblem

        est, feats, loop = loop_window()
        problem = _WindowProblem(est, feats, [loop])
        first = problem.linearize(problem.evaluate()[1])
        H_first = first.H_pp.copy()
        mask = np.ones(problem.feat_col, dtype=bool)
        problem.retract(problem.damped_step(first, mask, 1e-2))
        terms = problem.evaluate()[1]
        second = problem.linearize(terms)
        assert second is first and not np.array_equal(second.H_pp, H_first)
        assert_blocks_match(second, linearize_per_row(problem, terms))

        # the problem replaces its iterate instead of writing into the window
        fresh = _WindowProblem(est, feats, [loop])
        fresh.restore(problem.snapshot())
        blocks = fresh.linearize(fresh.evaluate()[1])
        for name in ("H_pp", "W", "v", "b_p", "b_l"):
            assert np.array_equal(getattr(blocks, name), getattr(second, name)), name

    def test_linearize_and_step_allocate_below_fixed_bound(self):
        # per-iteration arrays live in buffers that the problem allocates
        # once, so a warmed problem's linearize and damped_step stay below
        # fixed peaks (readings beside LINEARIZE_PEAK_KB)
        import tracemalloc

        problem, _ = loop_window_problem()
        assert problem.n_frames == 11
        mask = np.ones(problem.feat_col, dtype=bool)
        terms = problem.evaluate()[1]
        problem.damped_step(problem.linearize(terms), mask, 1e-4)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            blocks = problem.linearize(terms)
            lin_kb = (tracemalloc.get_traced_memory()[1] - base) / 1024
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            problem.damped_step(blocks, mask, 1e-4)
            step_kb = (tracemalloc.get_traced_memory()[1] - base) / 1024
        finally:
            tracemalloc.stop()
        assert lin_kb < LINEARIZE_PEAK_KB and step_kb < STEP_PEAK_KB


def assert_construction_matches_per_row(est, feats, loops):
    """Every array that _WindowProblem(est, feats, loops) builds for its
    visual rows equals, bit for bit and dtype for dtype, the per-row
    reference's and the gathered reference's (window_rows_gathered: rays
    gathered one by one, bases computed per build); returns the problem."""
    from monovio.estimator import _WindowProblem

    problem = _WindowProblem(est, feats, loops)
    rows = visual_rows_per_row(est, feats, loops)
    v_feat, v_obs, _, v_anchor, _ = rows
    layout = visual_layout_per_chunk(v_feat, v_anchor, v_obs, len(problem.states))
    for name, ref in [*zip(("v_feat", "v_obs", "v_uo", "v_anchor", "v_ua"), rows),
                      *layout.items(), *window_rows_gathered(est, feats, loops).items()]:
        got = getattr(problem, name)
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), name
    return problem


class TestConstructionFromArrays:
    def test_matches_per_row_reference_with_loop_sets(self):
        # two loop sets, the second with a correspondence of a feature that
        # is not optimized, which gives no row
        est, feats, loop = loop_window()
        optimized = {f.fid for f in feats}
        outside = next(fid for fid in est.features if fid not in optimized)
        pairs = list(zip(loop.feature_ids.tolist(), loop.rays))
        second = LoopObservationSet(loop.q_w_v, loop.p_w_v, [(outside, pairs[1][1])] + pairs[3:])
        problem = assert_construction_matches_per_row(est, feats, [loop, second])
        loop_rows = problem.v_obs >= problem.n_frames
        assert np.sum(loop_rows) == len(loop.feature_ids) + len(second.feature_ids) - 1
        assert np.any(problem.v_obs == problem.n_frames + 1)

    def test_matches_per_row_reference_after_a_marginalization(self):
        # after a marginalizing slide, features keep only their new anchor's
        # ray; given to the problem with every other feature that has a
        # depth, such a feature gets a depth column and no row
        cfg = ScenarioConfig(duration=4.0, cam_rate=5.0, seed=10, pixel_sigma_px=1.5)
        data = build_scenario(cfg)
        est, cam = seeded_estimator(cfg, data)
        est.build_and_solve()
        t_new = camera_times(cfg)[11]
        delta = integrate_segment(segment_samples(data.imu, cam[-1], t_new), BiasState(), MODEL_NOISE)
        est.add_frame(t_new, delta, data.observations(t_new), is_keyframe=True)
        est.triangulate_new_features()
        assert est.prior is not None
        assert_construction_matches_per_row(est, est._optimized_features(), [])
        with_depth = [f for _, f in sorted(est.features.items()) if f.inv_depth is not None]
        single = [fi for fi, f in enumerate(with_depth) if len(f.obs) == 1]
        assert single
        problem = assert_construction_matches_per_row(est, with_depth, [])
        assert not np.any(np.isin(problem.v_feat, single))


    def test_matches_gathered_reference_after_slides_of_both_kinds(self):
        # after each marginalizing slide (anchor transfers, consumed
        # features left with their new anchor's ray) and each dropping
        # slide, the loop-free problem of the optimized features and that
        # of every feature with a depth hold the rows that gathering the
        # rays and computing the bases per build gives
        noise = NoiseParams(0.02, 2e-4, 1e-4, 1e-5)
        cfg = ScenarioConfig(duration=8.0, cam_rate=5.0, seed=12, pixel_sigma_px=1.5, noise=noise)
        data = build_scenario(cfg)
        est, _ = seeded_estimator(cfg, data, config=EstimatorConfig(max_features=40))
        est.build_and_solve()
        all_cam = camera_times(cfg)
        kinds = set()
        for k in range(11, 20):
            kinds.add("marginalize" if est.keyframe_flags[-1] else "drop")
            seg = segment_samples(data.imu, all_cam[k - 1], all_cam[k])
            delta = integrate_segment(seg, est.frames.bias(-1), noise)
            est.add_frame(all_cam[k], delta, data.observations(all_cam[k]), is_keyframe=k % 3 != 0)
            est.triangulate_new_features()
            with_depth = [f for _, f in sorted(est.features.items()) if f.inv_depth is not None]
            assert_construction_matches_per_row(est, est._optimized_features(), [])
            assert_construction_matches_per_row(est, with_depth, [])
            est.build_and_solve()
        assert kinds == {"marginalize", "drop"}


class TestObservationTable:
    def test_rows_hold_the_observed_rays_and_bases_after_every_slide(self, monkeypatch):
        # each row keeps, bit for bit, the ray observe() normalized and its
        # tangent basis, and the observing frame's id; the table holds the
        # window frames' rows and nothing else, frame ids ascending
        observed, count = {}, {}
        observe = SlidingWindowEstimator.observe

        def recording_observe(est, observations, frame_idx=-1):
            fid = est.frame_ids[frame_idx]
            rays = np.array(list(observations.values()), dtype=float).reshape(-1, 3)
            rays /= np.linalg.norm(rays, axis=1, keepdims=True)
            observed.update(((fid, feat_id), ray) for feat_id, ray in zip(observations, rays))
            count[fid] = count.get(fid, 0) + len(rays)
            observe(est, observations, frame_idx)

        monkeypatch.setattr(SlidingWindowEstimator, "observe", recording_observe)
        noise = NoiseParams(0.02, 2e-4, 1e-4, 1e-5)
        cfg = ScenarioConfig(duration=8.0, cam_rate=5.0, seed=12, pixel_sigma_px=1.5, noise=noise)
        data = build_scenario(cfg)
        est, _ = seeded_estimator(cfg, data)
        est.build_and_solve()
        all_cam = camera_times(cfg)
        for k in range(11, 30):
            seg = segment_samples(data.imu, all_cam[k - 1], all_cam[k])
            delta = integrate_segment(seg, est.frames.bias(-1), noise)
            est.add_frame(all_cam[k], delta, data.observations(all_cam[k]), is_keyframe=k % 3 != 0)
            frames = est._row_frames
            assert len(frames) == len(est._rays) == len(est._bases)
            assert len(frames) == sum(count[fid] for fid in est.frame_ids)
            assert np.all(np.diff(frames) >= 0) and set(frames.tolist()) <= set(est.frame_ids)
            keys = [(key, f.fid, row) for f in est.features.values() for key, row in f.obs.items()]
            at = np.array([row for _, _, row in keys]) - est._row0
            assert at.min() >= 0 and at.max() < len(frames)
            assert frames[at].tolist() == [key for key, _, _ in keys]
            rays = np.array([observed[key, fid] for key, fid, _ in keys])
            assert est._rays[at].tobytes() == rays.tobytes()
            assert est.rays([row for _, _, row in keys]).tobytes() == rays.tobytes()
            assert (est._bases[at].tobytes()
                    == np.stack(geo.tangent_basis(rays), axis=2).tobytes())
            est.triangulate_new_features()
            est.build_and_solve()

    def test_stays_bounded_over_a_loop_noisy_pass(self, monkeypatch):
        # over the benchmark's loop-noisy pass, after every frame, the table
        # holds exactly the rows observed at the window's frames
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        from monovio.pipeline import PipelineConfig, pipeline_from_scenario

        sizes, count = [], {}
        observe, add_frame = SlidingWindowEstimator.observe, SlidingWindowEstimator.add_frame

        def counting_observe(est, observations, frame_idx=-1):
            fid = est.frame_ids[frame_idx]
            count[fid] = count.get(fid, 0) + len(observations)
            observe(est, observations, frame_idx)

        def checked_add_frame(est, *args, **kwargs):
            add_frame(est, *args, **kwargs)
            assert len(est._rays) == sum(count[fid] for fid in est.frame_ids)
            sizes.append(len(est._rays))

        monkeypatch.setattr(SlidingWindowEstimator, "observe", counting_observe)
        monkeypatch.setattr(SlidingWindowEstimator, "add_frame", checked_add_frame)
        cfg = workloads.scenario_config("loop-noisy", workloads.PINNED_SCENARIO_SEED)
        pipe = pipeline_from_scenario(build_scenario(cfg), PipelineConfig(enable_loops=True))
        report = pipe.run()
        assert report.failure_events == [] and report.loop_verified > 0 and len(sizes) > 100
        assert max(sizes) <= pipe.est.capacity * max(count.values())


def assert_layout_sums_as_ranked_blocks(est, feats, loops):
    """A window problem built on the shared _pair_layout tables equals, bit
    for bit, one whose visual rows are binned by the ranked-block layout
    (add_visual_ranked) and one built after the tables are made afresh: the
    NormalBlocks of its first linearization, over all rows and over the
    oldest frame's, and its first damped step."""
    from functools import partial

    from monovio.estimator import _pair_layout, _WindowProblem

    problems = [_WindowProblem(est, feats, loops), _WindowProblem(est, feats, loops)]
    problems[1]._add_visual = partial(add_visual_ranked, problems[1])
    _pair_layout.cache_clear()
    problems.append(_WindowProblem(est, feats, loops))
    outputs = []
    for problem in problems:
        terms = problem.evaluate()[1]
        oldest = problem.linearize(terms, (1, np.flatnonzero(problem.v_anchor == 0)))
        out = [getattr(oldest, name).copy() for name in ("H_pp", "W", "v", "b_p", "b_l")]
        blocks = problem.linearize(terms)
        mask = np.ones(problem.feat_col, dtype=bool)
        outputs.append(out + [getattr(blocks, name).copy() for name in ("H_pp", "W", "v", "b_p", "b_l")]
                       + [problem.damped_step(blocks, mask, 1e-4)])
    for got, *refs in zip(*outputs):
        for ref in refs:
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestPairLayout:
    """The visual layout is made afresh for each window problem from the
    per-pair tables that _pair_layout shares between problems of one window
    size; it sums every entry as the ranked-block layout did, bit for bit,
    after slides of both kinds, a re-propagated delta and with loop sets."""

    def test_after_slides_of_both_kinds_and_a_repropagated_delta(self):
        cfg = ScenarioConfig(duration=6.0, cam_rate=5.0, seed=20, pixel_sigma_px=1.5,
                             noise=NoiseParams(0.02, 2e-4, 1e-4, 1e-5))
        data = build_scenario(cfg)
        est, cam = seeded_estimator(cfg, data)
        est.build_and_solve()
        all_cam = camera_times(cfg)
        for k, (is_kf, slide) in enumerate(((False, "marginalize"), (True, "drop")), 11):
            kind = "marginalize" if est.keyframe_flags[-1] else "drop"
            assert kind == slide
            delta = integrate_segment(segment_samples(data.imu, all_cam[k - 1], all_cam[k]),
                                      est.frames.bias(-1), MODEL_NOISE)
            est.add_frame(all_cam[k], delta, data.observations(all_cam[k]), is_keyframe=is_kf)
            est.triangulate_new_features()
            assert_layout_sums_as_ranked_blocks(est, est._optimized_features(), [])
            est.build_and_solve()
        # a bias far from a delta's linearization point: _refresh_deltas
        # re-propagates that delta
        from monovio.preintegration import StackedDeltas

        before = list(est.deltas)
        est.frames.ba[4] += 0.2
        est._refresh_deltas(StackedDeltas(est.deltas))
        moved = [k for k, (a, b) in enumerate(zip(before, est.deltas)) if a is not b]
        assert moved == [4]
        assert_layout_sums_as_ranked_blocks(est, est._optimized_features(), [])

    def test_with_loop_sets(self):
        est, feats, loop = loop_window()
        assert_layout_sums_as_ranked_blocks(est, feats, [loop])
        assert_layout_sums_as_ranked_blocks(est, feats, [])


def pruned_depth_problem():
    """Loop-free problem over loop_window() after a feature anchored in frame
    0 lost its depth in prune_bad_depths, as a solve leaves it: the problem
    still holds that feature's rows, in chunks that also hold rows of the
    features that marginalization consumes."""
    from monovio.estimator import VISUAL_CHUNK_ROWS, _WindowProblem

    est, feats, _ = loop_window()
    problem = _WindowProblem(est, feats, [])
    chunk = problem.v_slot // VISUAL_CHUNK_ROWS
    old = problem.frame_ids[0]
    anchored = [fi for fi, f in enumerate(feats) if f.anchor_id() == old]
    shared = [fi for fi in anchored if np.any(np.isin(
        chunk[problem.v_feat == fi],
        chunk[np.isin(problem.v_feat, anchored) & (problem.v_feat != fi)]))]
    feats[shared[0]].inv_depth = 1e-5  # collapsed onto the clamp
    est.prune_bad_depths()
    assert feats[shared[0]].inv_depth is None
    return problem


def marginal_problem(case):
    """The problem that marginalization is checked on: loop_window_problem()'s
    for "loop", pruned_depth_problem() for "pruned"."""
    return loop_window_problem()[0] if case == "loop" else pruned_depth_problem()


def prior_errors(problem, terms, masks=None):
    """The deviations of marginalize_frame's prior from
    marginalize_frame_masked's (built with masks), each over its bound: of
    the information H_p^T H_p and of the gradient H_p^T r_p. The two
    reductions round differently, and an elimination on an order-n system
    moves each entry by up to about n eps times the system's largest entry
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, Thm
    10.3). So the bounds are n eps max |H_pp| and n eps max |b_p|, of the
    system before any reduction: max |H_pp| is about 1e12 against 2e7 for
    the prior's information, whose entries are what cancellation leaves."""
    ref_H, ref_r, (h, g) = marginalize_frame_masked(problem, terms, masks)
    prior, _ = problem.marginalize_frame(terms)
    tol = problem.feat_col * np.finfo(float).eps
    info_err = np.abs(prior.H.T @ prior.H - ref_H.T @ ref_H).max() / (tol * h)
    grad_err = np.abs(prior.H.T @ prior.r - ref_H.T @ ref_r).max() / (tol * g)
    return info_err, grad_err


class TestSquareRootMarginalization:
    @pytest.mark.parametrize("rank", [1, 7, 29, 30])
    def test_information_sqrt_factors_psd_matrices_of_known_rank(self, rank):
        # a spectrum from 1 to 1e-6, exact zeros and a -1e-14 round-off
        # eigenvalue; b in the range of H
        n = 30
        rng = np.random.default_rng(rank)
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        vals = np.zeros(n)
        vals[:rank] = np.logspace(0.0, -6.0, rank)
        if rank < n:
            vals[-1] = -1e-14
        H = (Q * vals) @ Q.T
        H = 0.5 * (H + H.T)
        b = H @ rng.standard_normal(n)
        H_in, b_in = H.copy(), b.copy()
        H_p, r_p = information_sqrt(H, b)
        np.testing.assert_array_equal(H, H_in)
        np.testing.assert_array_equal(b, b_in)
        eig = np.linalg.eigvalsh(H)
        assert H_p.shape == (np.sum(eig > 1e-10 * eig.max()), n) == (rank, n)
        assert r_p.shape == (rank,)
        np.testing.assert_allclose(H_p.T @ H_p, H, rtol=0, atol=1e-12 * np.abs(H).max())
        np.testing.assert_allclose(H_p.T @ r_p, b, rtol=0, atol=1e-12 * np.abs(b).max())

    def test_zero_information_gives_an_empty_prior(self):
        H_p, r_p = information_sqrt(np.zeros((12, 12)), np.zeros(12))
        assert H_p.shape == (0, 12) and r_p.shape == (0,)

    @pytest.mark.parametrize("case", ["loop", "pruned"])
    def test_consumed_rows_equal_masked_reference(self, case):
        # the blocks of the consumed terms alone equal those of every term
        # with the others zero-weighted, after a linearize of every row has
        # filled the chunk buffers
        from monovio.estimator import VISUAL_CHUNK_ROWS

        problem = marginal_problem(case)
        terms = problem.evaluate()[1]
        problem.linearize(terms)
        imu_w, row_w = marginal_masks(problem)
        rows = np.flatnonzero(row_w)
        chunk = problem.v_slot // VISUAL_CHUNK_ROWS
        if case == "loop":
            consumed = np.unique(problem.v_feat[rows])
            loop_rows = problem.v_obs >= problem.n_frames
            assert np.any(np.isin(problem.v_feat[loop_rows], consumed))
        else:  # a chunk holds kept and unkept rows
            assert np.intersect1d(chunk[rows], chunk[row_w == 0]).size
        got = problem.linearize(terms, (1, rows))
        assert_blocks_match(got, linearize_per_row(problem, terms, (imu_w, row_w)))

    @pytest.mark.parametrize("case", ["loop", "pruned"])
    def test_prior_equals_masked_eigen_reference(self, case):
        problem = marginal_problem(case)
        terms = problem.evaluate()[1]
        assert max(prior_errors(problem, terms)) < 1

    @pytest.mark.parametrize("plant", ["visual row left out", "IMU whitening scaled"])
    def test_prior_check_sees_a_planted_error(self, plant):
        problem = marginal_problem("loop")
        terms = problem.evaluate()[1]
        imu_w, row_w = marginal_masks(problem)
        if plant == "visual row left out":
            row_w[np.flatnonzero(row_w)[0]] = 0.0
        else:
            imu_w = imu_w * (1.0 + 1e-6)
        info_err, grad_err = prior_errors(problem, terms, (imu_w, row_w))
        assert info_err > 1 and grad_err > 1

    def test_non_finite_terms_raise(self):
        # a NaN in the consumed IMU factor or in a consumed visual row
        from monovio.estimator import _WindowProblem

        est, feats, _ = loop_window()
        problem = _WindowProblem(est, feats, [])
        prior, (rw, aux), (r, s, vaux) = problem.evaluate()[1]
        bad_rw = rw.copy()
        bad_rw[0, 4] = np.nan
        bad_r = r.copy()
        bad_r[np.flatnonzero(marginal_masks(problem)[1])[0]] = np.nan
        for terms in ((prior, (bad_rw, aux), (r, s, vaux)), (prior, (rw, aux), (bad_r, s, vaux))):
            with pytest.raises(EstimatorError):
                problem.marginalize_frame(terms)

    @pytest.mark.parametrize("entry", [(3, 150), (0, 0), (0, 185), (185, 185)])
    def test_non_finite_upper_triangle_raises(self, entry):
        # the check reads the upper triangle, which the reductions read: a
        # NaN there raises, as one in the strict lower triangle does not
        # (test_step_and_prior_read_one_triangle_of_the_pose_block); the
        # last entry is the extrinsic's, after the dropped loop frame's
        problem, _ = loop_window_problem()
        terms = problem.evaluate()[1]
        linearize = problem.linearize

        def linearize_upper_nan(terms, rows=None):
            blocks = linearize(terms, rows)
            blocks.H_pp[entry] = np.nan
            return blocks

        problem.linearize = linearize_upper_nan
        with pytest.raises(EstimatorError, match="non-finite marginalization system"):
            problem.marginalize_frame(terms)

    def test_marginalize_allocates_below_fixed_bound(self):
        # reading beside MARGINALIZE_PEAK_KB
        import tracemalloc

        from monovio.estimator import _WindowProblem

        est, feats, _ = loop_window()
        problem = _WindowProblem(est, feats, [])
        terms = problem.evaluate()[1]
        problem.linearize(terms)
        problem.marginalize_frame(terms)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            problem.marginalize_frame(terms)
            kb = (tracemalloc.get_traced_memory()[1] - base) / 1024
        finally:
            tracemalloc.stop()
        assert kb < MARGINALIZE_PEAK_KB
