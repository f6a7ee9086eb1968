import copy
import hashlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from monovio import geometry as geo
from monovio.cli import main as cli_main
from monovio.posegraph import (
    DEFAULT_EPIPOLAR_THRESHOLD,
    HUBER_THRESHOLD,
    LOOP_WEIGHT_SCALE,
    RANSAC_BLOCK,
    RANSAC_ITERATIONS,
    DegenerateGeometryError,
    LoopEdge,
    NoConsensusError,
    PoseGraph,
    PoseGraphConfig,
    PoseGraphError,
    PoseGraphVertex,
    SequentialEdge,
    _angular_errors,
    _consensus,
    _eight_point,
    _epipolar_distances,
    _pnp_dlt,
    _rank_check,
    _ransac_iterations_needed,
    _refine_pnp,
    ransac_fundamental,
    ransac_pnp,
    sequential_edge_from_vio,
    verify_loop_candidate,
    vertex_from_state,
)
from reference import (
    angular_errors_per_draw,
    consensus_per_draw,
    edge_residual,
    eight_point_per_draw,
    epipolar_distances_per_draw,
    pnp_dlt_per_draw,
    rebuilt_structure,
)

# absolute-pose inlier gate: 3 px at a 460 px focal length
PNP_THRESHOLD = 3.0 / 460.0


def two_view_scene(n=60, outlier_frac=0.0, seed=0, pure_rotation=False):
    """Synthetic ray correspondences between two cameras with labels."""
    rng = np.random.default_rng(seed)
    X = np.stack(
        [rng.uniform(-3, 3, n), rng.uniform(-3, 3, n), rng.uniform(3.0, 8.0, n)], axis=1
    )
    R_a = geo.quat_to_rot(geo.quat_exp([0.05, -0.03, 0.1]))
    p_a = np.zeros(3)
    R_b = geo.quat_to_rot(geo.quat_exp([-0.04, 0.08, 0.3]))
    p_b = np.zeros(3) if pure_rotation else np.array([1.0, 0.3, -0.2])
    Xa = (X - p_a) @ R_a
    Xb = (X - p_b) @ R_b
    rays_a = Xa / np.linalg.norm(Xa, axis=1, keepdims=True)
    rays_b = Xb / np.linalg.norm(Xb, axis=1, keepdims=True)
    labels = np.ones(n, dtype=bool)
    n_out = int(round(outlier_frac * n))
    if n_out:
        E = geo.skew(R_a.T @ (p_b - p_a)) @ (R_a.T @ R_b)
        idx = rng.choice(n, n_out, replace=False)
        for i in idx:
            # mismatch with a different landmark; keep it a *verifiable*
            # outlier (violates both models by a margin) so labels are exact
            for _ in range(100):
                j = int((i + rng.integers(5, n - 5)) % n)
                cand = rays_b[j]
                ang = np.arccos(np.clip(cand @ rays_b[i], -1, 1))
                line = E @ cand
                epi = abs(rays_a[i] @ line) / max(np.linalg.norm(line), 1e-12)
                if ang > 5 * PNP_THRESHOLD and epi > 5e-3:
                    break
            rays_b[i] = cand
            labels[i] = False
    return X, rays_a, rays_b, labels, (R_a, p_a, R_b, p_b)


class TestRansacFundamental:
    def test_noise_free_all_inliers(self):
        _, ra, rb, labels, _ = two_view_scene()
        F, mask = ransac_fundamental(ra, rb, seed=1)
        assert mask.all()
        # exact epipolar constraint on the refit model
        e = np.abs(np.einsum("ki,ij,kj->k", ra, F, rb))
        assert e.max() < 1e-10

    def test_outliers_rejected_exactly(self):
        for seed in range(10):
            _, ra, rb, labels, _ = two_view_scene(outlier_frac=0.3, seed=seed)
            _, mask = ransac_fundamental(ra, rb, seed=seed)
            np.testing.assert_array_equal(mask, labels)

    def test_pure_rotation_degenerate(self):
        _, ra, rb, _, _ = two_view_scene(pure_rotation=True)
        with pytest.raises(DegenerateGeometryError):
            ransac_fundamental(ra, rb, seed=0)

    def test_too_few_pairs(self):
        _, ra, rb, _, _ = two_view_scene(n=7)
        with pytest.raises(PoseGraphError):
            ransac_fundamental(ra, rb)


class TestRansacPnp:
    def test_noise_free_pose_recovery(self):
        X, _, rays_b, _, (R_a, p_a, R_b, p_b) = two_view_scene()
        R, t, mask = ransac_pnp(X, rays_b, PNP_THRESHOLD, seed=2)
        assert mask.all()
        # ground truth world->camera: x_c = R_b^T (X - p_b)
        R_gt = R_b.T
        t_gt = -R_b.T @ p_b
        assert np.abs(R - R_gt).max() < 1e-6
        assert np.linalg.norm(t - t_gt) < 1e-6

    def test_too_few_pairs(self):
        X, _, rays_b, _, _ = two_view_scene(n=5)
        with pytest.raises(PoseGraphError):
            ransac_pnp(X, rays_b, PNP_THRESHOLD)

    def test_outliers_rejected_exactly(self):
        for seed in range(10):
            X, _, rays_b, labels, _ = two_view_scene(outlier_frac=0.3, seed=100 + seed)
            _, _, mask = ransac_pnp(X, rays_b, PNP_THRESHOLD, seed=seed)
            np.testing.assert_array_equal(mask, labels)


class TestVerification:
    def test_accepts_good_candidate_and_recovers_labels(self):
        X, ra, rb, labels, _ = two_view_scene(outlier_frac=0.3, seed=3)
        points = {i: X[i] for i in range(len(X))}
        out = verify_loop_candidate(np.arange(len(X)), ra, rb, points, PNP_THRESHOLD, seed=3)
        assert out is not None
        mask, (R, t) = out
        np.testing.assert_array_equal(mask, labels)

    def test_rejects_below_min_inliers(self):
        X, ra, rb, labels, _ = two_view_scene(n=30, seed=4)
        points = {i: X[i] for i in range(len(X))}
        out = verify_loop_candidate(np.arange(len(X)), ra, rb, points, PNP_THRESHOLD,
                                    min_inliers=50, seed=4)
        assert out is None

    def test_rejects_garbage(self):
        rng = np.random.default_rng(5)
        ra = rng.standard_normal((40, 3))
        ra /= np.linalg.norm(ra, axis=1, keepdims=True)
        rb = rng.standard_normal((40, 3))
        rb /= np.linalg.norm(rb, axis=1, keepdims=True)
        points = {i: rng.standard_normal(3) * 5 for i in range(40)}
        assert verify_loop_candidate(np.arange(40), ra, rb, points, PNP_THRESHOLD, seed=5) is None


def noisy_scene(n, outlier_frac, seed, noise=2e-4):
    """two_view_scene with Gaussian noise of std noise on every ray."""
    X, ra, rb, _, _ = two_view_scene(n=n, outlier_frac=outlier_frac, seed=seed)
    rng = np.random.default_rng(seed)

    def jitter(rays):
        rays = rays + rng.normal(0.0, noise, rays.shape)
        return rays / np.linalg.norm(rays, axis=1, keepdims=True)

    return X, jitter(ra), jitter(rb)


# (pairs, outlier fraction, seed): adaptive stopping ends these RANSAC runs
# inside the first block, inside a later block or at the draw cap, or finds
# no consensus (checked by test_cases_stop_inside_and_after_the_first_block)
CONSENSUS_CASES = [(40, 0.1, 1), (40, 0.1, 2), (60, 0.3, 1), (60, 0.3, 2), (80, 0.5, 1),
                   (100, 0.6, 1)]


def pnp_consensus(X, rays, seed):
    def fit(picks):
        R, t, ok = _pnp_dlt(X[picks], rays[picks])
        return (R, t), ok

    return _consensus(len(X), 6, fit, lambda m: _angular_errors(*m, X, rays) < PNP_THRESHOLD, seed)


def pnp_consensus_per_draw(X, rays, seed):
    return consensus_per_draw(
        len(X), 6, lambda pick: pnp_dlt_per_draw(X[pick], rays[pick]),
        lambda model: angular_errors_per_draw(*model, X, rays) < PNP_THRESHOLD, seed)


def epipolar_consensus(ra, rb, seed):
    def fit(picks):
        F = _eight_point(ra[picks], rb[picks])
        return (F,), np.ones(len(F), dtype=bool)

    return _consensus(len(ra), 8, fit,
                      lambda m: _epipolar_distances(*m, ra, rb) < DEFAULT_EPIPOLAR_THRESHOLD, seed)


def epipolar_consensus_per_draw(ra, rb, seed):
    F, mask, draws = consensus_per_draw(
        len(ra), 8, lambda pick: eight_point_per_draw(ra[pick], rb[pick]),
        lambda F: epipolar_distances_per_draw(F, ra, rb) < DEFAULT_EPIPOLAR_THRESHOLD, seed)
    return (F,), mask, draws


def outcome(consensus, *args):
    try:
        return consensus(*args)
    except NoConsensusError:
        return None


def assert_same_outcome(got, want):
    if want is None:
        assert got is None
        return
    (models, mask, draws), (ref_models, ref_mask, ref_draws) = got, want
    assert draws == ref_draws
    assert np.array_equal(mask, ref_mask)
    assert len(models) == len(ref_models)
    for m, ref_m in zip(models, ref_models):
        assert np.array_equal(m, ref_m)


class TestBatchedConsensus:
    """The block-batched RANSAC returns what fitting one draw at a time does,
    bit for bit, after the same number of draws."""

    @pytest.mark.parametrize("case", CONSENSUS_CASES)
    def test_absolute_pose_stage(self, case):
        X, _, rays = noisy_scene(*case)
        seed = case[2]
        assert_same_outcome(outcome(pnp_consensus, X, rays, seed),
                            outcome(pnp_consensus_per_draw, X, rays, seed))

    @pytest.mark.parametrize("case", CONSENSUS_CASES)
    def test_epipolar_stage(self, case):
        _, ra, rb = noisy_scene(*case)
        seed = case[2]
        assert_same_outcome(outcome(epipolar_consensus, ra, rb, seed),
                            outcome(epipolar_consensus_per_draw, ra, rb, seed))

    def test_cases_stop_inside_and_after_the_first_block(self):
        for consensus, scene in ((pnp_consensus_per_draw, lambda X, ra, rb: (X, rb)),
                                 (epipolar_consensus_per_draw, lambda X, ra, rb: (ra, rb))):
            draws = []
            for case in CONSENSUS_CASES:
                out = outcome(consensus, *scene(*noisy_scene(*case)), case[2])
                draws.append(None if out is None else out[2])
            done = [d for d in draws if d is not None]
            assert any(d < RANSAC_BLOCK for d in done)
            assert any(d > 2 * RANSAC_BLOCK and d % RANSAC_BLOCK for d in done)
            assert None in draws

    @pytest.mark.parametrize("case", CONSENSUS_CASES[:4])
    def test_ransac_pnp_matches_per_draw_fits(self, case):
        X, _, rays = noisy_scene(*case)
        seed = case[2]
        R, t, mask = ransac_pnp(X, rays, PNP_THRESHOLD, seed=seed)
        (R0, t0), mask0, _ = pnp_consensus_per_draw(X, rays, seed)
        R0, t0 = _refine_pnp(R0, t0, X[mask0], rays[mask0])
        assert np.array_equal(R, R0) and np.array_equal(t, t0)
        assert np.array_equal(mask, angular_errors_per_draw(R0, t0, X, rays) < PNP_THRESHOLD)

    @pytest.mark.parametrize("case", CONSENSUS_CASES[:4])
    def test_ransac_fundamental_matches_per_draw_fits(self, case):
        _, ra, rb = noisy_scene(*case)
        seed = case[2]
        F, mask = ransac_fundamental(ra, rb, seed=seed)
        _, mask0, _ = epipolar_consensus_per_draw(ra, rb, seed)
        _rank_check(ra[mask0], rb[mask0])
        F0 = eight_point_per_draw(ra[mask0], rb[mask0])
        assert np.array_equal(F, F0)
        assert np.array_equal(mask, epipolar_distances_per_draw(F0, ra, rb)
                              < DEFAULT_EPIPOLAR_THRESHOLD)

    @pytest.mark.parametrize("block_raises", [False, True])
    def test_degenerate_draws_skipped(self, block_raises):
        # a line y = a x + b through two sampled points; a draw of two
        # coincident points (ten copies of one outlier) has no model. The
        # batched fit's slope for it is NaN, and the inlier test counts a NaN
        # residual as an inlier, so that draw would win if it were kept. With
        # block_raises, a block holding such a draw raises as a whole and is
        # fitted one draw at a time.
        rng = np.random.default_rng(11)
        x = rng.uniform(-1.0, 1.0, 40)
        y = 0.7 * x - 0.2 + rng.normal(0.0, 1e-3, 40)
        y[:12] = rng.uniform(-2.0, 2.0, 12)
        x[:10], y[:10] = 0.5, 1.5
        n = len(x)

        def line(pick):
            (x1, x2), (y1, y2) = x[pick], y[pick]
            if x1 == x2:
                raise np.linalg.LinAlgError("coincident points")
            a = (y2 - y1) / (x2 - x1)
            return a, y1 - a * x1

        def inliers(model):
            return ~(np.abs(y - (model[0] * x + model[1])) >= 5e-3)

        def fit(picks):
            (x1, x2), (y1, y2) = x[picks].T, y[picks].T
            ok = x1 != x2
            if block_raises and not ok.all():
                raise np.linalg.LinAlgError("coincident points")
            with np.errstate(invalid="ignore"):
                a = (y2 - y1) / (x2 - x1)
            return (a, y1 - a * x1), ok

        degenerate = 0
        for seed in range(20):
            got = _consensus(n, 2, fit, lambda m: inliers((m[0][:, None], m[1][:, None])), seed)
            want = consensus_per_draw(n, 2, line, inliers, seed)
            assert_same_outcome(got, want)
            draws = np.random.default_rng(seed)
            picks = [draws.choice(n, size=2, replace=False) for _ in range(want[2])]
            degenerate += sum(int(x[p[0]] == x[p[1]]) for p in picks)
        assert degenerate > 0

    def test_tiny_inlier_share_needs_every_draw(self):
        # one inlier of 150 pairs for an 8-pair draw: the chance of a good
        # draw is below the float spacing at 1, so no number of draws is enough
        assert _ransac_iterations_needed(1 / 150, 8) == RANSAC_ITERATIONS
        assert _ransac_iterations_needed(40 / 60, 6) < RANSAC_ITERATIONS

    def test_degenerate_projection_marked(self):
        # a draw far from the world origin has a projection matrix of almost
        # zero scale; the per-draw DLT raises, the batched one marks it
        X, _, rays, _, _ = two_view_scene(n=24, seed=8)
        points = np.stack([X[:6], X[6:12] + 1e13, X[12:18], X[18:24] * 1e14])
        obs = np.stack([rays[:6], rays[6:12], rays[12:18], rays[18:24]])
        R, t, ok = _pnp_dlt(points, obs)
        for k in range(len(points)):
            try:
                R0, t0 = pnp_dlt_per_draw(points[k], obs[k])
            except np.linalg.LinAlgError:
                assert not ok[k]
                continue
            assert ok[k] and np.array_equal(R[k], R0) and np.array_equal(t[k], t0)
        assert ok.tolist() == [True, False, True, False]


class TestEdges:
    def test_sequential_edge_identity_frame(self):
        a = PoseGraphVertex(0, 0.0, np.zeros(3), 0.0, 0.0, 0.0)
        b = PoseGraphVertex(1, 1.0, np.array([1.0, 0, 0]), np.deg2rad(30), 0.0, 0.0)
        e = sequential_edge_from_vio(a, b)
        np.testing.assert_allclose(e.rel_p, [1, 0, 0], atol=1e-15)
        assert e.rel_yaw == pytest.approx(0.5235987755982988)

    def test_sequential_edge_rotated_frame(self):
        a = PoseGraphVertex(0, 0.0, np.zeros(3), np.deg2rad(90), 0.0, 0.0)
        b = PoseGraphVertex(1, 1.0, np.array([1.0, 0, 0]), np.deg2rad(90), 0.0, 0.0)
        e = sequential_edge_from_vio(a, b)
        np.testing.assert_allclose(e.rel_p, [0, -1, 0], atol=1e-12)

    def test_yaw_wrap(self):
        a = PoseGraphVertex(0, 0.0, np.zeros(3), np.deg2rad(170), 0.0, 0.0)
        b = PoseGraphVertex(1, 1.0, np.ones(3), np.deg2rad(-170), 0.0, 0.0)
        e = sequential_edge_from_vio(a, b)
        assert e.rel_yaw == pytest.approx(np.deg2rad(20))
        assert -np.pi < e.rel_yaw <= np.pi

    def test_edge_residual_zero_when_consistent(self):
        a = PoseGraphVertex(0, 0.0, np.array([0.5, -0.2, 0.1]), 0.3, 0.05, -0.04)
        b = PoseGraphVertex(1, 1.0, np.array([1.5, 0.4, 0.2]), 0.5, 0.02, 0.03)
        e = sequential_edge_from_vio(a, b)
        np.testing.assert_allclose(edge_residual(a, b, e), np.zeros(4), atol=1e-12)

    def test_edge_residual_translation(self):
        a = PoseGraphVertex(0, 0.0, np.zeros(3), 0.0, 0.0, 0.0)
        b = PoseGraphVertex(1, 1.0, np.array([1.0, 0, 0]), 0.0, 0.0, 0.0)
        e = sequential_edge_from_vio(a, b)
        b2 = PoseGraphVertex(1, 1.0, np.array([1.0, 0, 0.1]), 0.0, 0.0, 0.0)
        r = edge_residual(a, b2, e)
        np.testing.assert_allclose(r, [0, 0, 0.1, 0], atol=1e-12)

    def test_residual_invariant_under_global_4dof_transform(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            a = PoseGraphVertex(0, 0.0, rng.standard_normal(3), rng.uniform(-3, 3),
                                rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            b = PoseGraphVertex(1, 1.0, rng.standard_normal(3), rng.uniform(-3, 3),
                                rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            e = SequentialEdgeLike = sequential_edge_from_vio(a, b)
            r0 = edge_residual(a, b, e)
            dpsi = rng.uniform(-np.pi, np.pi)
            T = rng.standard_normal(3)
            Rz = geo.rot_zyx(0.0, 0.0, dpsi)
            a2 = PoseGraphVertex(0, 0.0, Rz @ a.p + T, a.yaw + dpsi, a.roll, a.pitch)
            b2 = PoseGraphVertex(1, 1.0, Rz @ b.p + T, b.yaw + dpsi, b.roll, b.pitch)
            r1 = edge_residual(a2, b2, e)
            np.testing.assert_allclose(r0, r1, atol=1e-12)


def circle_graph(n=30, loop=True, drift_deg=0.0, seed=0):
    """Chain around a circle; optionally a consistent loop edge and injected
    yaw drift on the vertex values (measurements stay truthful)."""
    g = PoseGraph()
    for k in range(n):
        th = 2 * np.pi * k / (n - 1)
        p = np.array([np.cos(th), np.sin(th), 0.1 * np.sin(2 * th)])
        q = geo.rot_to_quat(geo.rot_zyx(0.05 * np.sin(th), 0.04 * np.cos(th), th + np.pi / 2))
        g.add_keyframe(vertex_from_state(k, 0.1 * k, p, q))
    if drift_deg:
        for k, vid in enumerate(g.order):
            v = g.vertices[vid]
            drift = np.deg2rad(drift_deg) * k / (n - 1)
            Rz = geo.rot_zyx(0, 0, drift)
            v.p = Rz @ v.p + np.array([0.003 * k, -0.002 * k, 0.001 * k])
            v.yaw = float(geo.wrap_angle(v.yaw + drift))
    if loop:
        a, b = g.vertices[0], g.vertices[n - 1]
        rel_p = geo.rot_zyx(a.roll, a.pitch, a.vio_yaw).T @ (b.vio_p - a.vio_p)
        rel_yaw = geo.wrap_angle(b.vio_yaw - a.vio_yaw)
        g.add_loop_edge(LoopEdge(0, n - 1, rel_p, rel_yaw, inliers=50))
    return g


class TestGraphOptimization:
    def test_first_vertex_has_no_edges(self):
        g = PoseGraph()
        g.add_keyframe(vertex_from_state(0, 0.0, np.zeros(3), geo.quat_identity()))
        assert g.sequential_edges == []

    def test_edge_fanout(self):
        g = PoseGraph(PoseGraphConfig(edge_fanout=4))
        for k in range(10):
            g.add_keyframe(vertex_from_state(k, float(k), np.array([k, 0.0, 0.0]), geo.quat_identity()))
        last_edges = [e for e in g.sequential_edges if e.to_id == 9]
        assert len(last_edges) == 4

    def test_edges_over_interleaved_segments(self):
        # reference rule: the last edge_fanout earlier vertices of the same
        # segment, in insertion order
        segments = np.random.default_rng(4).integers(0, 3, 40).tolist()
        g = PoseGraph(PoseGraphConfig(edge_fanout=4))
        expected = []
        for vid, seg in enumerate(segments):
            q = geo.rot_to_quat(geo.rot_zyx(0.03 * seg, -0.02, 0.1 * vid))
            g.add_keyframe(vertex_from_state(vid, float(vid), np.array([vid, seg, 0.0]), q, segment=seg))
            earlier = [u for u in range(vid) if segments[u] == seg]
            expected += [(u, vid) for u in earlier[-4:]]
        assert [(e.from_id, e.to_id) for e in g.sequential_edges] == expected
        for e in g.sequential_edges:
            ref = sequential_edge_from_vio(g.vertices[e.from_id], g.vertices[e.to_id])
            assert np.array_equal(e.rel_p, ref.rel_p) and e.rel_yaw == ref.rel_yaw

    def test_duplicate_id_rejected(self):
        g = PoseGraph()
        g.add_keyframe(vertex_from_state(0, 0.0, np.zeros(3), geo.quat_identity()))
        with pytest.raises(PoseGraphError):
            g.add_keyframe(vertex_from_state(0, 1.0, np.ones(3), geo.quat_identity()))

    def test_edge_values_match_recomputation(self):
        g = circle_graph(10, loop=False)
        for e in g.sequential_edges:
            a, b = g.vertices[e.from_id], g.vertices[e.to_id]
            expected = geo.rot_zyx(a.roll, a.pitch, a.vio_yaw).T @ (b.vio_p - a.vio_p)
            np.testing.assert_allclose(e.rel_p, expected, atol=1e-12)
            assert e.rel_yaw == pytest.approx(geo.wrap_angle(b.vio_yaw - a.vio_yaw))

    def test_consistent_graph_zero_update(self):
        g = circle_graph(20, loop=True, drift_deg=0.0)
        before = {vid: (v.p.copy(), v.yaw) for vid, v in g.vertices.items()}
        g.optimize()
        for vid, (p, yaw) in before.items():
            assert np.linalg.norm(g.vertices[vid].p - p) < 1e-10
            assert abs(g.vertices[vid].yaw - yaw) < 1e-10

    def test_drift_corrected_by_loop(self):
        g = circle_graph(30, loop=True, drift_deg=10.0)
        info = g.optimize()
        assert info["termination"] == "converged"
        e = g.loop_edges[0]
        r = edge_residual(g.vertices[e.from_id], g.vertices[e.to_id], e)
        assert np.linalg.norm(r[:3]) < 1e-6
        assert abs(r[3]) < 1e-6
        # drift distributed: accepted costs monotone non-increasing
        assert all(b <= a for a, b in zip(info["costs"], info["costs"][1:]))

    def test_roll_pitch_bit_identical(self):
        g = circle_graph(30, loop=True, drift_deg=10.0)
        rp_before = [(g.vertices[v].roll, g.vertices[v].pitch) for v in g.order]
        g.optimize()
        rp_after = [(g.vertices[v].roll, g.vertices[v].pitch) for v in g.order]
        assert rp_before == rp_after

    def test_gauge_with_fixed_vertex(self):
        g1 = circle_graph(25, loop=True, drift_deg=8.0, seed=1)
        g2 = circle_graph(25, loop=True, drift_deg=8.0, seed=1)
        # shift the initialization of all free vertices by a constant 4-DOF
        # transform; the optimum must be unchanged
        dpsi, T = 0.15, np.array([0.3, -0.2, 0.1])
        Rz = geo.rot_zyx(0.0, 0.0, dpsi)
        fixed_id = g2.order[0]
        for vid in g2.order:
            if vid == fixed_id:
                continue
            v = g2.vertices[vid]
            v.p = Rz @ v.p + T
            v.yaw = float(geo.wrap_angle(v.yaw + dpsi))
        cfg = PoseGraphConfig(max_iterations=100, rel_cost_tol=1e-16)
        g1.config = cfg
        g2.config = cfg
        g1.optimize(fixed={fixed_id})
        g2.optimize(fixed={fixed_id})
        for vid in g1.order:
            assert np.linalg.norm(g1.vertices[vid].p - g2.vertices[vid].p) < 1e-8
            assert abs(geo.wrap_angle(g1.vertices[vid].yaw - g2.vertices[vid].yaw)) < 1e-8

    def test_requires_fixed_vertex(self):
        g = circle_graph(5, loop=False)
        with pytest.raises(PoseGraphError):
            g.optimize(fixed=set())


def two_segment_graph():
    """Two circular segments with states moved off the optimum: a loop edge
    from a fixed vertex, one into a fixed vertex of the other segment, and a
    cross-segment outlier whose 1.9 m error puts it on the Huber branch."""
    rng = np.random.default_rng(5)
    g = PoseGraph()
    centers = [np.zeros(3), np.array([0.5, -0.3, 0.2])]
    vid = 0
    for seg, n in enumerate((14, 10)):
        for k in range(n):
            th = 2 * np.pi * k / n
            p = centers[seg] + np.array([np.cos(th), np.sin(th), 0.1 * np.sin(2 * th)])
            q = geo.rot_to_quat(geo.rot_zyx(0.05 * np.sin(th), 0.04 * np.cos(th), th + np.pi / 2))
            g.add_keyframe(vertex_from_state(vid, 0.4 * vid, p, q, segment=seg))
            vid += 1
    for a, b, inliers, error in [(0, 12, 50, 0.0), (21, 0, 30, 0.0), (5, 18, 60, 1.0)]:
        va, vb = g.vertices[a], g.vertices[b]
        R_a = geo.rot_zyx(va.roll, va.pitch, va.vio_yaw)
        rel_p = R_a.T @ (vb.vio_p - va.vio_p) + error * np.array([1.5, -1.0, 0.5])
        g.add_loop_edge(LoopEdge(a, b, rel_p, geo.wrap_angle(vb.vio_yaw - va.vio_yaw), inliers))
    for v in g.vertices.values():
        v.p = v.p + rng.normal(0.0, 0.01, 3)
        v.yaw = geo.wrap_angle(v.yaw + rng.normal(0.0, 0.005))
    return g


def dense_normal_equations(g, fixed, h=1e-6):
    """J^T W J and J^T W r over the free (p, yaw) columns, with each edge's
    Jacobian from central differences of edge_residual and its Huber weight
    evaluated directly; also returns the loop edges' Huber arguments."""
    cfg = g.config
    col = {vid: 4 * i for i, vid in enumerate(g.order)}
    H = np.zeros((4 * len(g.order),) * 2)
    b = np.zeros(4 * len(g.order))
    huber_args = []
    for e in g.sequential_edges + g.loop_edges:
        ends = [g.vertices[e.from_id], g.vertices[e.to_id]]
        r = edge_residual(*ends, e)
        J = np.zeros((4, len(b)))
        for end, v in enumerate(ends):
            for k in range(4):
                step = h * np.eye(4)[k]
                moved = []
                for sgn in (1.0, -1.0):
                    args = list(ends)
                    args[end] = replace(v, p=v.p + sgn * step[:3], yaw=v.yaw + sgn * step[3])
                    moved.append(edge_residual(*args, e))
                J[:, col[v.vid] + k] = (moved[0] - moved[1]) / (2 * h)
        w = 1.0
        if isinstance(e, LoopEdge):
            w = max(e.inliers / cfg.min_inliers, 1.0) * LOOP_WEIGHT_SCALE
            x = w * (r @ r) / HUBER_THRESHOLD
            huber_args.append(x)
            if x > 1.0:
                w /= np.sqrt(x)
        H += w * J.T @ J
        b += w * J.T @ r
    free = [col[vid] + k for vid in g.order if vid not in fixed for k in range(4)]
    return H[np.ix_(free, free)], b[free], huber_args


class _Captured(Exception):
    pass


def noisy_circle_graph(drift_deg, yaw_only):
    """circle_graph with noisy edge measurements, so the optimum has a
    non-zero cost and the default rel_cost_tol decides when to stop. With
    yaw_only the vertices drift in yaw alone, little enough that the loop
    edge starts on the quadratic branch of its Huber kernel; otherwise they
    also drift 0.1 m in position, which starts it on the robust branch."""
    g = circle_graph(30, loop=True, drift_deg=0.0 if yaw_only else drift_deg)
    rng = np.random.default_rng(2)
    for e in g.sequential_edges + g.loop_edges:
        e.rel_p = e.rel_p + rng.normal(0.0, 0.01, 3)
        e.rel_yaw = geo.wrap_angle(e.rel_yaw + rng.normal(0.0, 0.003))
    if yaw_only:
        for k, vid in enumerate(g.order):
            v = g.vertices[vid]
            drift = np.deg2rad(drift_deg) * k / (len(g) - 1)
            v.p = geo.rot_zyx(0.0, 0.0, drift) @ v.p
            v.yaw = geo.wrap_angle(v.yaw + drift)
    return g


def assert_matches_tight_reference(g, info, make):
    """Final cost within 1e-6 relative, and every vertex within 1e-4 m and
    1e-4 rad, of a run to rel_cost_tol = 1e-16 on the graph make() builds."""
    ref = make()
    ref.config = PoseGraphConfig(max_iterations=100, rel_cost_tol=1e-16)
    ref_info = ref.optimize()
    assert info["costs"][-1] <= ref_info["costs"][-1] * (1 + 1e-6)
    for vid in g.order:
        assert np.linalg.norm(g.vertices[vid].p - ref.vertices[vid].p) < 1e-4
        assert abs(geo.wrap_angle(g.vertices[vid].yaw - ref.vertices[vid].yaw)) < 1e-4


class FactorCounter:
    """Wraps scipy's splu and spsolve and counts factorizations, solves
    against a factor, and spsolve calls."""

    def __init__(self, monkeypatch):
        self.factored, self.solved, self.spsolved = [], [], []
        splu = spla.splu
        counter = self

        class CountingFactor:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                counter.solved.append(len(rhs))
                return self.lu.solve(rhs)

        def counting_splu(A, **kwargs):
            self.factored.append(A.shape)
            return CountingFactor(splu(A, **kwargs))

        monkeypatch.setattr(spla, "splu", counting_splu)
        monkeypatch.setattr(spla, "spsolve", lambda *args, **kwargs: self.spsolved.append(1))


def assert_closed_form_matches_dense_reference(g, monkeypatch):
    """The first matrix optimize factors, at lambda = 0, and its gradient
    equal dense_normal_equations, with the first vertex of every segment
    fixed."""
    fixed = {next(v for v in g.order if g.vertices[v].segment == s) for s in g.segments()}
    H_ref, b_ref, _ = dense_normal_equations(g, fixed)
    seen = {}

    class Recorder:
        def solve(self, rhs):
            seen["b"] = -rhs
            raise _Captured

    def splu(A, **kwargs):
        seen["H"] = A.toarray()
        return Recorder()

    # lambda = 0 makes the first factored matrix H itself
    g.config = replace(g.config, initial_lambda=0.0)
    monkeypatch.setattr(spla, "splu", splu)
    with pytest.raises(_Captured):
        g.optimize()
    assert seen["H"].shape == H_ref.shape == (4 * (len(g) - len(fixed)),) * 2
    np.testing.assert_allclose(seen["H"], H_ref, rtol=0, atol=1e-8 * np.abs(H_ref).max())
    np.testing.assert_allclose(seen["b"], b_ref, rtol=0, atol=1e-8 * np.abs(b_ref).max())


def jittered(g, seed):
    """Move every vertex off the optimum, so the gradient is not zero."""
    rng = np.random.default_rng(seed)
    for v in g.vertices.values():
        v.p = v.p + rng.normal(0.0, 0.01, 3)
        v.yaw = geo.wrap_angle(v.yaw + rng.normal(0.0, 0.005))
    return g


def loaded_graph(tmp_path):
    path = tmp_path / "graph.txt"
    two_segment_graph().save(path)
    return PoseGraph.load(path)


def downsampled_graph(tmp_path):
    g = two_segment_graph()
    g.optimize()
    assert g.downsample(16, seed=1) == 8
    return jittered(g, 6)


def replaced_graph(tmp_path):
    g = two_segment_graph()
    g.optimize()
    g.sequential_edges = [SequentialEdge(e.from_id, e.to_id, e.rel_p + 0.05, e.rel_yaw - 0.02)
                          for e in g.sequential_edges]
    return jittered(g, 8)


def grown_graph(tmp_path):
    g = downsampled_graph(tmp_path)
    g.optimize()
    for vid in (24, 25, 26):
        th = 0.3 * (vid - 23)
        p = np.array([0.5 + np.cos(th), -0.3 + np.sin(th), 0.2])
        g.add_keyframe(vertex_from_state(vid, 0.4 * vid, p, geo.rot_to_quat(geo.rot_zyx(0.02, -0.01, th)),
                                         segment=1))
    g.add_loop_edge(LoopEdge(5, 25, np.array([0.3, 0.1, -0.2]), 0.2, inliers=40))
    return jittered(g, 7)


class TestGraphSolver:
    def test_closed_form_matches_dense_reference(self, monkeypatch):
        g = two_segment_graph()
        # the premise: only the outlier loop edge is on the Huber branch
        huber_args = dense_normal_equations(g, {0, 14})[2]
        assert [x > 1.0 for x in huber_args] == [False, False, True]
        assert_closed_form_matches_dense_reference(g, monkeypatch)
        assert len(g) - len(g.segments()) == 22

    @pytest.mark.parametrize("make", [loaded_graph, downsampled_graph, replaced_graph, grown_graph],
                             ids=["loaded", "downsampled", "replaced", "grown_after_downsample"])
    def test_edge_rows_follow_the_graph(self, make, tmp_path, monkeypatch):
        # optimize reuses the rows of edges it has read: load fills the edge
        # lists itself, and the other graphs were optimized before their
        # lists were replaced (by downsample or by assignment) or extended
        assert_closed_form_matches_dense_reference(make(tmp_path), monkeypatch)

    def test_one_factorization_reused_across_steps(self, monkeypatch):
        def make():
            return noisy_circle_graph(2.0, yaw_only=True)

        g = make()
        assert dense_normal_equations(g, {g.order[0]})[2][0] < 1.0  # quadratic branch
        counter = FactorCounter(monkeypatch)
        info = g.optimize()
        assert info["termination"] == "converged"
        assert len(counter.factored) == 1 and counter.spsolved == []
        # no step was rejected: one solve per iteration, each accepted
        assert info["iterations"] >= 2
        assert len(counter.solved) == info["iterations"] == len(info["costs"]) - 1
        assert_matches_tight_reference(g, info, make)

    def test_factor_rebuilt_when_loop_weight_changes(self, monkeypatch):
        # the loop edge starts on the robust branch, so the first factor
        # holds a fraction of the weight it has at the optimum
        def make():
            return noisy_circle_graph(3.0, yaw_only=False)

        g = make()
        assert dense_normal_equations(g, {g.order[0]})[2][0] > 1.0  # robust branch
        counter = FactorCounter(monkeypatch)
        info = g.optimize()
        assert info["termination"] == "converged"
        assert len(counter.factored) >= 2 and counter.spsolved == []
        assert_matches_tight_reference(g, info, make)

    def test_edgeless_free_vertex_does_not_move(self, tmp_path):
        path = tmp_path / "graph.txt"
        circle_graph(12, loop=True, drift_deg=5.0).save(path)
        with open(path, "a") as f:
            f.write("VERTEX 99 5.0 0.3 -0.2 0.1 0.01 0.02 0.7 0\n")
        g = PoseGraph.load(path)
        assert not any(99 in (e.from_id, e.to_id) for e in g.sequential_edges + g.loop_edges)
        p, yaw = g.vertices[99].p.copy(), g.vertices[99].yaw
        info = g.optimize()
        assert info["termination"] == "converged" and info["iterations"] >= 1
        assert np.array_equal(g.vertices[99].p, p)
        assert abs(g.vertices[99].yaw - yaw) <= 1e-12


def add_keyframes(g, segment, ids, loops=()):
    """Keyframes on a circle (one per segment), then loop edges (from, to,
    inliers) measured from the odometry values with a small error."""
    center = np.array([0.4, -0.3, 0.2]) * segment
    for vid in ids:
        th = 0.45 * vid
        p = center + np.array([np.cos(th), np.sin(th), 0.1 * np.sin(2 * th)])
        q = geo.rot_to_quat(geo.rot_zyx(0.05 * np.sin(th), 0.04 * np.cos(th), th + np.pi / 2))
        g.add_keyframe(vertex_from_state(vid, 0.4 * vid, p, q, segment=segment))
    for a, b, inliers in loops:
        va, vb = g.vertices[a], g.vertices[b]
        rel_p = geo.rot_zyx(va.roll, va.pitch, va.vio_yaw).T @ (vb.vio_p - va.vio_p) + 0.03
        g.add_loop_edge(LoopEdge(a, b, rel_p, geo.wrap_angle(vb.vio_yaw - va.vio_yaw + 0.01), inliers))


def assert_same_structure(kept, ref):
    assert vars(kept).keys() == vars(ref).keys()
    for name, want in vars(ref).items():
        have = getattr(kept, name)
        if isinstance(want, np.ndarray):
            assert have.dtype == want.dtype and have.shape == want.shape, name
            assert np.array_equal(have, want), name
        elif name in ("seq_list", "loop_list"):
            assert have is want, name
        elif name == "verts":
            assert len(have) == len(want) and all(a is b for a, b in zip(have, want))
        else:
            assert have == want, name


def assert_kept_matches_rebuild(g, fixed=None):
    """The structure optimize keeps, and the vertices it optimizes, equal
    those of a rebuild over the whole graph (tests/reference.py), bit for
    bit; returns the kept structure."""
    resolved = fixed
    if fixed is None:
        resolved = {next(v for v in g.order if g.vertices[v].segment == s) for s in g.segments()}
    kept = g._structure(resolved)
    assert_same_structure(kept, rebuilt_structure(g, resolved))
    ref = copy.deepcopy(g)
    ref._kept = rebuilt_structure(ref, resolved)
    info, ref_info = g.optimize(fixed), ref.optimize(fixed)
    assert info == ref_info and info["iterations"] >= 1
    for vid in g.order:
        assert np.array_equal(g.vertices[vid].p, ref.vertices[vid].p)
        assert g.vertices[vid].yaw == ref.vertices[vid].yaw
    assert g._kept is kept
    return kept


class TestKeptStructure:
    def test_every_step_matches_a_rebuild(self, tmp_path):
        g = PoseGraph()
        add_keyframes(g, 0, range(8))
        add_keyframes(g, 1, range(8, 13), loops=[(1, 6, 50)])
        kept = assert_kept_matches_rebuild(jittered(g, 1))
        # growth of both segments, and loops inside and across them: the new
        # sequential edges go in before the kept loop edge
        add_keyframes(g, 0, range(13, 17))
        add_keyframes(g, 1, range(17, 20), loops=[(2, 15, 40), (9, 18, 30), (5, 19, 60)])
        assert assert_kept_matches_rebuild(jittered(g, 2)) is kept
        # loop edges alone: no new vertex or column
        add_keyframes(g, 0, (), loops=[(0, 11, 45)])
        assert assert_kept_matches_rebuild(jittered(g, 3)) is kept

        # each step, then growth after it; an explicit fixed set is kept
        # while it is the same, and a replaced config changes no structure
        steps = [
            (lambda: None, {0, 5, 8}, True),
            (lambda: None, None, True),  # back to the default fixed set
            (lambda: setattr(g, "config", PoseGraphConfig(min_inliers=40)), None, False),
            (lambda: setattr(g, "sequential_edges", [
                SequentialEdge(e.from_id, e.to_id, e.rel_p + 0.02, e.rel_yaw - 0.01)
                for e in g.sequential_edges]), None, True),
            (lambda: g.order.insert(3, g.order.pop(5)), None, True),  # in place
            # downsampled, then grown past its old size before the next call
            (lambda: (g.downsample(len(g) - 3, seed=2), add_keyframes(g, 1, range(40, 44))), None, True),
        ]
        vid = 20
        for k, (step, fixed, restarts) in enumerate(steps):
            step()
            assert (assert_kept_matches_rebuild(jittered(g, 10 + k), fixed) is not kept) == restarts
            kept = g._kept
            add_keyframes(g, k % 2, (vid, vid + 1), loops=[(g.order[2], vid + 1, 35)])
            vid += 2
            assert assert_kept_matches_rebuild(jittered(g, 20 + k), fixed) is kept

        path = tmp_path / "graph.txt"
        g.save(path)
        g = PoseGraph.load(path)
        assert g._kept is None
        kept = assert_kept_matches_rebuild(jittered(g, 30))
        add_keyframes(g, 1, (vid, vid + 1), loops=[(g.order[4], vid, 55)])
        assert assert_kept_matches_rebuild(jittered(g, 31)) is kept


def pinned_downsample_graph():
    """Two noisy figure-eight segments of 70 and 50 keyframes, fanout 4,
    with loop edges inside and across them."""
    rng = np.random.default_rng(11)
    g = PoseGraph()
    vid = 0
    for seg, n in enumerate((70, 50)):
        for k in range(n):
            th = 4 * np.pi * k / n
            p = np.array([np.sin(th), 0.5 * np.sin(2 * th), 0.1 * seg]) + rng.normal(0.0, 0.02, 3)
            q = geo.rot_to_quat(geo.rot_zyx(*rng.normal(0.0, 0.05, 2), th + rng.normal(0.0, 0.01)))
            g.add_keyframe(vertex_from_state(vid, 0.4 * vid, p, q, segment=seg))
            vid += 1
    for a, b in [(3, 38), (20, 55), (10, 80), (75, 100), (90, 115)]:
        va, vb = g.vertices[a], g.vertices[b]
        rel_p = geo.rot_zyx(va.roll, va.pitch, va.vio_yaw).T @ (vb.vio_p - va.vio_p)
        g.add_loop_edge(LoopEdge(a, b, rel_p, geo.wrap_angle(vb.vio_yaw - va.vio_yaw), inliers=40))
    return g


# pinned_downsample_graph() downsampled to 50 by the one-vertex-at-a-time
# implementation: seed -> (surviving ids, sequential edge count, SHA-256 of the
# edge rows (from, to, rel_p, rel_yaw) as little-endian float64)
PINNED_DOWNSAMPLE = {
    0: ([0, 3, 4, 6, 10, 13, 19, 20, 23, 24, 32, 36, 37, 38, 43, 46, 49, 53, 55, 56, 59, 61, 64, 67,
         70, 71, 73, 75, 77, 79, 80, 83, 85, 86, 88, 90, 91, 95, 96, 98, 100, 101, 103, 107, 109,
         111, 113, 114, 115, 118],
        601, "c1109cd8f3575662336360160fe5e03e46945f76ea97008e78753bbe03947f5a"),
    1: ([0, 2, 3, 6, 10, 11, 12, 14, 18, 20, 22, 25, 30, 35, 37, 38, 39, 40, 42, 46, 47, 50, 53, 55,
         57, 62, 64, 65, 67, 70, 73, 74, 75, 77, 80, 82, 83, 85, 86, 90, 96, 100, 102, 107, 108,
         109, 110, 113, 115, 119],
        420, "d6861a364514d0224146f8ac10f02c5a7a394839e6b0e382f22a56f9f347894d"),
    2: ([0, 3, 4, 5, 10, 14, 19, 20, 24, 26, 27, 29, 31, 33, 38, 39, 41, 42, 44, 48, 54, 55, 59, 62,
         65, 68, 70, 74, 75, 76, 80, 84, 86, 87, 89, 90, 92, 94, 96, 97, 100, 103, 106, 107, 110,
         112, 114, 115, 117, 119],
        601, "a4ba9311d29259735935476645248c295d773cead6eb181e74c08e7defbac17c"),
}


class TestDownsample:
    def test_under_capacity_unchanged(self):
        g = circle_graph(10, loop=False)
        removed = g.downsample(20, seed=0)
        assert removed == 0 and len(g) == 10

    @pytest.mark.parametrize("seed", sorted(PINNED_DOWNSAMPLE))
    def test_pinned_result(self, seed):
        ids, n_edges, digest = PINNED_DOWNSAMPLE[seed]
        g = pinned_downsample_graph()
        assert g.downsample(50, seed=seed) == 70
        assert g.order == ids and sorted(g.vertices) == ids
        rows = np.array([(e.from_id, e.to_id, *e.rel_p, e.rel_yaw) for e in g.sequential_edges],
                        dtype="<f8")
        assert len(rows) == n_edges
        assert hashlib.sha256(rows.tobytes()).hexdigest() == digest

    def test_loop_vertices_kept(self):
        g = circle_graph(30, loop=True)
        g.downsample(10, seed=0)
        assert 0 in g.vertices and 29 in g.vertices
        assert len(g) <= 10

    def test_restitched_edges_equal_direct_values(self):
        g = circle_graph(25, loop=False)
        g.downsample(12, seed=3)
        for e in g.sequential_edges:
            a, b = g.vertices[e.from_id], g.vertices[e.to_id]
            direct_p = geo.rot_zyx(a.roll, a.pitch, a.vio_yaw).T @ (b.vio_p - a.vio_p)
            direct_yaw = geo.wrap_angle(b.vio_yaw - a.vio_yaw)
            np.testing.assert_allclose(e.rel_p, direct_p, atol=1e-10)
            assert abs(geo.wrap_angle(e.rel_yaw - direct_yaw)) < 1e-10

    def test_restitched_edges_same_after_save_and_load(self, tmp_path):
        # odometry whose yaw drifts 10 degrees around the circle, closed by a
        # truthful loop edge: the optimized yaw, which is all a loaded graph
        # keeps, differs from the odometry yaw the edges were measured in
        n = 30
        g = PoseGraph()
        for k in range(n):
            th = 2 * np.pi * k / (n - 1)
            drift = np.deg2rad(10.0) * k / (n - 1)
            p = geo.rot_zyx(0.0, 0.0, drift) @ np.array([np.cos(th), np.sin(th), 0.1 * np.sin(2 * th)])
            q = geo.rot_to_quat(geo.rot_zyx(0.05 * np.sin(th), 0.04 * np.cos(th), th + np.pi / 2 + drift))
            g.add_keyframe(vertex_from_state(k, 0.1 * k, p, q))
        g.add_loop_edge(LoopEdge(0, n - 1, np.zeros(3), 0.0, inliers=50))
        g.optimize()
        path = tmp_path / "graph.txt"
        g.save(path)
        loaded = PoseGraph.load(path)
        g.downsample(12, seed=3)
        loaded.downsample(12, seed=3)
        assert loaded.order == g.order
        edges = {(e.from_id, e.to_id): e for e in g.sequential_edges}
        assert sorted(edges) == sorted((e.from_id, e.to_id) for e in loaded.sequential_edges)
        for e in loaded.sequential_edges:
            ref = edges[(e.from_id, e.to_id)]
            np.testing.assert_allclose(e.rel_p, ref.rel_p, rtol=0, atol=1e-6)
            assert abs(geo.wrap_angle(e.rel_yaw - ref.rel_yaw)) < 1e-6

    def test_uniform_line_spacing_statistics(self):
        # uniform line at capacity: surviving spacing stays statistically
        # uniform (no systematic clustering)
        spacings = []
        for seed in range(6):
            g = PoseGraph()
            n = 300
            for k in range(n):
                g.add_keyframe(
                    vertex_from_state(k, float(k), np.array([0.1 * k, 0.0, 0.0]), geo.quat_identity())
                )
            g.downsample(150, seed=seed)
            xs = np.array([g.vertices[v].p[0] for v in g.order])
            gaps = np.diff(np.sort(xs))
            spacings.append(gaps)
        gaps = np.concatenate(spacings)
        # mean spacing doubles; dispersion stays moderate for density-guided removal
        assert np.mean(gaps) == pytest.approx(0.2, rel=0.05)
        assert np.std(gaps) / np.mean(gaps) < 0.8


INCONSISTENT_GRAPHS = {
    "repeated_vertex": "VERTEX 0 0 0 0 0 0 0 0 0\nVERTEX 1 1 1 0 0 0 0 0 0\nVERTEX 0 2 2 0 0 0 0 0 0\n",
    "edge_to_unknown_vertex": "VERTEX 0 0 0 0 0 0 0 0 0\nVERTEX 1 1 1 0 0 0 0 0 0\n"
                              "EDGE SEQ 0 7 1 0 0 0 0\n",
    "non_numeric_vertex": "VERTEX 0 0 0 0 0 0 0 0 0\nVERTEX 1 1 1 0 0 0 0 0 0\nVERTEX 2 abc 0 0 0 0 0 0 0\n",
    "non_numeric_edge": "VERTEX 0 0 0 0 0 0 0 0 0\nVERTEX 1 1 1 0 0 0 0 0 0\n"
                        "EDGE LOOP 0 1 1 0 0 0 x\n",
    "edge_to_itself": "VERTEX 0 0 0 0 0 0 0 0 0\nVERTEX 1 1 1 0 0 0 0 0 0\n"
                      "EDGE SEQ 1 1 0 0 0 0 0\n",
    "nan_vertex_position": "VERTEX 0 0 0 0 0 0 0 0 0\nVERTEX 1 1 1 0 0 0 0 0 0\nVERTEX 2 2 nan 0 0 0 0 0 0\n",
    "inf_vertex_yaw": "VERTEX 0 0 0 0 0 0 0 0 0\nVERTEX 1 1 1 0 0 0 0 0 0\nVERTEX 2 2 2 0 0 0 0 inf 0\n",
    "nan_vertex_time": "VERTEX 0 0 0 0 0 0 0 0 0\nVERTEX 1 1 1 0 0 0 0 0 0\nVERTEX 2 NaN 2 0 0 0 0 0 0\n",
    "inf_edge_position": "VERTEX 0 0 0 0 0 0 0 0 0\nVERTEX 1 1 1 0 0 0 0 0 0\n"
                         "EDGE SEQ 0 1 1 -inf 0 0 0\n",
    "nan_edge_yaw": "VERTEX 0 0 0 0 0 0 0 0 0\nVERTEX 1 1 1 0 0 0 0 0 0\n"
                    "EDGE LOOP 0 1 1 0 0 nan 30\n",
}


class TestSerialization:
    def test_round_trip(self, tmp_path):
        g = circle_graph(12, loop=True, drift_deg=5.0)
        path = tmp_path / "graph.txt"
        g.save(path)
        g2 = PoseGraph.load(path)
        assert len(g2) == len(g)
        assert len(g2.sequential_edges) == len(g.sequential_edges)
        assert len(g2.loop_edges) == 1
        for vid in g.order:
            a, b = g.vertices[vid], g2.vertices[vid]
            np.testing.assert_allclose(a.p, b.p, atol=1e-8)
            assert abs(a.yaw - b.yaw) < 1e-8
            assert abs(a.roll - b.roll) < 1e-8
            assert a.segment == b.segment

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("VERTEX 0 0.0 1.0\n")
        with pytest.raises(PoseGraphError):
            PoseGraph.load(path)

    @pytest.mark.parametrize("text", INCONSISTENT_GRAPHS.values(), ids=INCONSISTENT_GRAPHS.keys())
    def test_inconsistent_records_rejected(self, tmp_path, text, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(PoseGraphError, match="line 3"):
            PoseGraph.load(path)
        rc = cli_main(["posegraph", "--input", str(path), "--output", str(tmp_path / "out.txt"),
                       "--optimize"])
        assert rc == 1
        assert "line 3" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()
