"""Plain-numpy references that tests compare the library's kernels against,
bit for bit where the kernel claims bitwise equality."""

import numpy as np

from monovio.estimator import (
    EstimatorError,
    NormalBlocks,
    eliminate_depths,
    huber_weight,
    imu_forward_propagate,
    schur_complement,
)
from monovio.geometry import (
    quat_canonical,
    quat_inverse,
    quat_mul,
    quat_to_rot,
    rot_zyx,
    skew,
    tangent_basis,
    wrap_angle,
)
from monovio.pipeline import VERTEX_TIME_TOL
from monovio.posegraph import (
    _H_ENTRIES,
    _KEY_BITS,
    RANSAC_ITERATIONS,
    NoConsensusError,
    _ransac_iterations_needed,
    _Structure,
)
from monovio.preintegration import (
    PreintegrationError,
    imu_jacobians_batch,
    integrate_segment,
    interpolate_sample,
    midpoint_path,
    quat_left_mat,
    quat_right_mat,
    so3_right_jacobian_batch,
)

_EYE3 = np.eye(3)


def integrate_segment_stepwise(samples, bias, noise, symmetrize_each_step=False):
    """(P, J) of integrate_segment, with each step's transition A and
    injected noise built inside the per-step loop, one small product at a
    time. P is symmetrized once, after the last step, as integrate_segment
    does; or, with symmetrize_each_step, after every step, as it did before
    (P then differs from integrate_segment's by rounding only)."""
    path = midpoint_path(samples, bias)
    Rs = path.R
    Ts = np.swapaxes(quat_to_rot(path.dq), 1, 2)
    Jrs = so3_right_jacobian_batch(path.rotvec)
    sks = skew(path.accel)
    qd = noise.q_diag()

    F = np.zeros((15, 15))
    F[0:3, 3:6] = _EYE3
    G = np.zeros((15, 12))
    G[6:9, 3:6] = -_EYE3
    G[9:12, 6:9] = _EYE3
    G[12:15, 9:12] = _EYE3
    P = np.zeros((15, 15))
    J = np.eye(15)
    for i, dt in enumerate(path.dt.tolist()):
        R0, R1, T = Rs[i], Rs[i + 1], Ts[i]
        R1a1 = R1 @ sks[i + 1]
        m_theta = -0.5 * (R0 @ sks[i] + R1a1 @ T)
        bw_to_amid = (0.5 * dt) * (R1a1 @ Jrs[i])
        R_sum = R0 + R1
        F[0:3, 6:9] = (0.5 * dt) * m_theta
        F[0:3, 9:12] = (-0.25 * dt) * R_sum
        F[0:3, 12:15] = (0.5 * dt) * bw_to_amid
        F[3:6, 6:9] = m_theta
        F[3:6, 9:12] = -0.5 * R_sum
        F[3:6, 12:15] = bw_to_amid
        F[6:9, 6:9] = (T - _EYE3) / dt
        F[6:9, 12:15] = -Jrs[i]
        G[3:6, 0:3] = -R0
        A = F * dt
        A.flat[::16] += 1.0
        P = (A @ P) @ A.T
        P += (G * (qd * dt)) @ G.T
        if symmetrize_each_step:
            P = 0.5 * (P + P.T)
        J = A @ J
    return P if symmetrize_each_step else 0.5 * (P + P.T), J


def imu_forward_propagate_reintegrated(state, samples, gravity, path=None):
    """imu_forward_propagate with the path it is given set aside: the
    midpoint path of samples integrated again at state's last biases."""
    return imu_forward_propagate(state, samples, gravity, midpoint_path(samples, state.bias(-1)))


def merge_deltas_reintegrated(first, second):
    """merge_deltas of two adjacent deltas with sample buffers, by
    integrate_segment over the whole concatenated buffer."""
    return integrate_segment(first.samples + second.samples[1:], first.lin_bias, first.noise)


def quat_log(q):
    """Unit quaternion -> rotation vector (inverse of quat_exp)."""
    q = quat_canonical(q)
    w = np.clip(q[..., 0], -1.0, 1.0)
    vn = np.linalg.norm(q[..., 1:], axis=-1)
    angle = 2.0 * np.arctan2(vn, w)
    scale = np.where(vn < 1e-12, 2.0, angle / np.where(vn < 1e-12, 1.0, vn))
    return q[..., 1:] * scale[..., None]


def quat_rotate_np(q, v):
    """Rotation of v by q through np.cross."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    qv = q[..., 1:]
    t = 2.0 * np.cross(qv, v)
    return v + q[..., :1] * t + np.cross(qv, t)


def tangent_basis_np(g):
    """tangent_basis through np.cross."""
    g = np.asarray(g, dtype=float)
    use_z = (np.abs(g[..., 0]) > 1.0 - 1e-6)[..., None]
    pivot = np.where(use_z, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    b1 = np.cross(g, pivot)
    b1 = b1 / np.linalg.norm(b1, axis=-1, keepdims=True)
    return b1, np.cross(g, b1)


def segment_samples_searchsorted(samples, t0, t1):
    """segment_samples with its boundary indices found by np.searchsorted
    over an array of every sample time."""
    if t1 <= t0:
        raise PreintegrationError("empty segment")
    times = np.array([s.t for s in samples])
    i0 = int(np.searchsorted(times, t0 + 1e-9, side="right")) - 1
    i1 = int(np.searchsorted(times, t1 - 1e-9, side="left"))
    if i0 < 0 or i1 >= len(samples):
        raise PreintegrationError("segment extends beyond the sample stream")
    if abs(samples[i0].t - t0) < 1e-9:
        first = samples[i0]
    else:
        first = interpolate_sample(samples[i0], samples[i0 + 1], t0)
    if abs(samples[i1].t - t1) < 1e-9:
        last = samples[i1]
    else:
        last = interpolate_sample(samples[i1 - 1], samples[i1], t1)
    return [first, *samples[i0 + 1 : i1], last]


def imu_residual_jacobians(delta, states, k, gravity):
    """IMU residual of one pre-integrated delta plus its 15x15 Jacobians
    w.r.t. rows k and k + 1 of states (FrameStates); scalar reference for
    imu_residuals_batch and imu_jacobians_batch.

    The residual is (d_alpha, d_beta, d_theta, d_ba, d_bw), the stored terms
    first corrected to row k's biases. Per-frame tangent ordering is (dp,
    dtheta, dv, dba, dbw) with the attitude perturbed on the left in the
    world frame: q <- dq (x) q.
    """
    g = np.asarray(gravity, dtype=float)
    dt = delta.dt_total
    p_k, q_k, v_k = states.p[k], states.q[k], states.v[k]
    p_k1, q_k1, v_k1 = states.p[k + 1], states.q[k + 1], states.v[k + 1]
    bias_k = states.bias(k)
    Rk_t = quat_to_rot(q_k).T

    alpha_c, beta_c, gamma_c = delta.correct_for_bias(bias_k)

    u = p_k1 - p_k + 0.5 * g * dt * dt - v_k * dt
    w = v_k1 + g * dt - v_k

    q_rel = quat_mul(quat_inverse(q_k), q_k1)
    e = quat_mul(q_rel, quat_inverse(gamma_c))

    r = np.zeros(15)
    r[0:3] = Rk_t @ u - alpha_c
    r[3:6] = Rk_t @ w - beta_c
    r[6:9] = 2.0 * e[1:]
    r[9:12] = states.ba[k + 1] - states.ba[k]
    r[12:15] = states.bw[k + 1] - states.bw[k]

    L = e[0] * _EYE3 - skew(e[1:])  # d(2 vec([1, x/2] (x) e)) / dx

    # theta-row bias Jacobian, exact through the normalized correction
    # quaternion s = normalize([1, 0.5 J dbw]): e = q_rel (x) conj(s) (x) gamma_hat^-1
    _, dbw = delta.bias_delta(bias_k)
    s_un = np.concatenate([[1.0], 0.5 * delta.j_gamma_bw @ dbw])
    n = np.linalg.norm(s_un)
    s_hat = s_un / n
    ds_un = np.zeros((4, 3))
    ds_un[1:, :] = 0.5 * delta.j_gamma_bw
    ds = (np.eye(4) - np.outer(s_hat, s_hat)) @ ds_un / n
    conj4 = np.diag([1.0, -1.0, -1.0, -1.0])
    de_dbw = quat_left_mat(q_rel) @ quat_right_mat(quat_inverse(delta.gamma)) @ conj4 @ ds

    Jk = np.zeros((15, 15))
    Jk1 = np.zeros((15, 15))
    # alpha rows
    Jk[0:3, 0:3] = -Rk_t
    Jk[0:3, 3:6] = Rk_t @ skew(u)
    Jk[0:3, 6:9] = -Rk_t * dt
    Jk[0:3, 9:12] = -delta.j_alpha_ba
    Jk[0:3, 12:15] = -delta.j_alpha_bw
    Jk1[0:3, 0:3] = Rk_t
    # beta rows
    Jk[3:6, 3:6] = Rk_t @ skew(w)
    Jk[3:6, 6:9] = -Rk_t
    Jk[3:6, 9:12] = -delta.j_beta_ba
    Jk[3:6, 12:15] = -delta.j_beta_bw
    Jk1[3:6, 6:9] = Rk_t
    # theta rows
    Jk[6:9, 3:6] = -L @ Rk_t
    Jk[6:9, 12:15] = 2.0 * de_dbw[1:, :]
    Jk1[6:9, 3:6] = L @ Rk_t
    # bias rows
    Jk[9:12, 9:12] = -_EYE3
    Jk[12:15, 12:15] = -_EYE3
    Jk1[9:12, 9:12] = _EYE3
    Jk1[12:15, 12:15] = _EYE3
    return r, Jk, Jk1


def edge_residual(vi, vj, edge):
    """4-DOF pose-graph edge residual, as PoseGraph.optimize defines it:
    [R(roll_i, pitch_i, yaw_i)^-1 (p_j - p_i) - rel_p ; wrap(yaw_j - yaw_i - rel_yaw)]."""
    R_i = rot_zyx(vi.roll, vi.pitch, vi.yaw)
    r = np.empty(4)
    r[:3] = R_i.T @ (vj.p - vi.p) - edge.rel_p
    r[3] = wrap_angle(vj.yaw - vi.yaw - edge.rel_yaw)
    return r


def rebuilt_structure(graph, fixed):
    """PoseGraph's kept structure rebuilt over the whole graph, as optimize
    rebuilt it on every call before it kept one: every edge read anew, its
    ends found by searchsorted over the vertex ids, and the CSC pattern of H
    from np.unique over the keys of every entry."""
    s = _Structure(graph, frozenset(fixed))
    verts = [graph.vertices[v] for v in graph.order]
    ids = np.array(graph.order)
    free = ~np.isin(ids, list(fixed))
    free_col = np.where(free, np.cumsum(free) - 1, -1)
    edges = graph.sequential_edges + graph.loop_edges
    rows = np.array([(e.from_id, e.to_id, *e.rel_p, e.rel_yaw, getattr(e, "inliers", 0))
                     for e in edges], dtype=float).reshape(-1, 7)
    sorter = np.argsort(ids)
    fi, ti = sorter[np.searchsorted(ids, rows[:, :2].T.astype(int), sorter=sorter)]
    dim = 4 * int(free.sum())
    row_end, row_comp, col_end, col_comp, _, _ = _H_ENTRIES.T
    base = 4 * free_col[np.stack([fi, ti], axis=1)]
    keep = (base[:, row_end] >= 0) & (base[:, col_end] >= 0)
    rows_h = (base[:, row_end] + row_comp)[keep]
    cols_h = (base[:, col_end] + col_comp)[keep]
    keys = np.concatenate([cols_h * dim + rows_h, np.arange(dim) * (dim + 1)])
    pattern, slot = np.unique(keys, return_inverse=True)
    indptr = np.zeros(dim + 1, dtype=int)
    np.cumsum(np.bincount(pattern // max(dim, 1), minlength=dim), out=indptr[1:])

    s.order, s.verts = list(graph.order), verts
    s.pos = {vid: k for k, vid in enumerate(graph.order)}
    s.roll = np.array([v.roll for v in verts], dtype=float)
    s.pitch = np.array([v.pitch for v in verts], dtype=float)
    s.free_col, s.n_free = free_col, int(free.sum())
    s.n_seq, s.n_loop = len(graph.sequential_edges), len(graph.loop_edges)
    s.fi, s.ti = fi, ti
    s.rel_p = np.ascontiguousarray(rows[:, 2:5])
    s.rel_yaw, s.inliers = rows[:, 5].copy(), rows[:, 6].copy()
    s.is_loop = np.arange(len(rows)) >= s.n_seq
    s.keep = keep
    s.g_keys = (np.concatenate([fi, ti])[:, None] * 4 + np.arange(4)).reshape(2, -1, 4)
    s.pattern = (pattern // max(dim, 1)) << _KEY_BITS | pattern % max(dim, 1)
    s.indices, s.indptr = pattern % max(dim, 1), indptr
    s.edge_slot, s.diag_slot = slot[: len(rows_h)], slot[len(rows_h):]
    s.seq_entries = int(keep[: s.n_seq].sum())
    return s


def vertex_at_time_scan(driver, t):
    """GraphDriver.vertex_at_time by a scan of every published entry in
    publication order."""
    with driver._lock:
        for vid, entry in driver._published.items():
            if abs(entry[0] - t) <= VERTEX_TIME_TOL:
                return vid
    return None


def visual_residual(
    q_i, p_i, q_j, p_j, extrinsic, anchor_ray, inv_depth,
    observed_ray, with_jacobians: bool = True,
):
    """Unit-sphere reprojection residual of a feature anchored in camera i and
    observed in camera j, projected on the observed ray's tangent plane.

    Scalar reference for the batched kernel of _WindowProblem.

    Returns (r, jac) where jac maps 'p_i', 'th_i', 'p_j', 'th_j', 'ext_p',
    'ext_th', 'lam' to (2, .) blocks (jac is None without Jacobians).
    """
    R_i = quat_to_rot(q_i)
    R_j = quat_to_rot(q_j)
    R_bc = quat_to_rot(extrinsic.q_b_c)
    p_bc = extrinsic.p_b_c
    u_i = np.asarray(anchor_ray, dtype=float)
    u_j = np.asarray(observed_ray, dtype=float)

    f_ci = u_i / inv_depth
    f_bi = R_bc @ f_ci + p_bc
    f_w = R_i @ f_bi + p_i
    d_j = f_w - np.asarray(p_j, dtype=float)
    f_bj = R_j.T @ d_j
    e_j = f_bj - p_bc
    P = R_bc.T @ e_j
    nP = np.linalg.norm(P)
    if nP < 1e-6:
        raise EstimatorError("feature collapses onto the observing camera center")
    nvec = P / nP
    b1, b2 = tangent_basis(u_j)
    B = np.stack([b1, b2], axis=1)  # (3, 2)
    r = B.T @ (u_j - nvec)
    if not with_jacobians:
        return r, None

    M = -B.T @ (np.eye(3) - np.outer(nvec, nvec)) / nP  # (2, 3): d r / d P
    A = R_bc.T @ R_j.T
    jac = {
        "p_i": M @ A,
        "th_i": -M @ A @ skew(R_i @ f_bi),
        "p_j": -M @ A,
        "th_j": M @ A @ skew(d_j),
        "lam": (M @ A @ R_i @ R_bc @ (-u_i / inv_depth**2)).reshape(2, 1),
        "ext_p": M @ R_bc.T @ (R_j.T @ R_i - np.eye(3)),
        "ext_th": M @ (R_bc.T @ skew(e_j) - A @ R_i @ skew(R_bc @ f_ci)),
    }
    return r, jac


def linearize_per_row(problem, terms, masks=None):
    """problem.linearize(terms) into fresh NormalBlocks, with every IMU
    factor's and every visual row's outer products scattered on their own:
    one dense block per factor, and np.bincount over each visual row's flat
    entries of H_pp and W, without the frame-pair chunks.

    masks = (imu, visual), 0/1 weights over the IMU factors and the visual
    rows, linearizes every term and zero-weights those not selected."""
    prior, imu, visual = terms
    imu_w, visual_w = (None, None) if masks is None else masks
    P, F = problem.feat_col, len(problem.feats)
    blocks = NormalBlocks(np.zeros((P, P)), np.zeros((F, P)), np.zeros(F), np.zeros(P), np.zeros(F))
    if prior is not None:
        problem._add_prior(blocks, *prior)
    if imu is not None:
        rw, aux = imu
        J = problem.imu.sqrt_info @ imu_jacobians_batch(problem.imu, aux)
        if imu_w is not None:
            J, rw = J * imu_w[:, None, None], rw * imu_w[:, None]
        for k in range(len(rw)):
            cols = slice(15 * k, 15 * k + 30)
            blocks.H_pp[cols, cols] += J[k].T @ J[k]
            blocks.b_p[cols] += J[k].T @ rw[k]
    if visual is not None:
        r, s, aux = visual
        J = problem._visual_jacobian(aux, np.empty_like(problem.v_jac))
        cols = np.concatenate(
            [15 * f[:, None] + np.arange(6) for f in (problem.v_anchor, problem.v_obs)]
            + [np.broadcast_to(problem.ext_col + np.arange(6), (len(r), 6))], axis=1)
        feat = problem.v_feat
        flat_pp = (cols[:, :, None] * P + cols[:, None, :]).ravel()
        flat_w = (feat[:, None] * P + cols).ravel()
        sw = np.sqrt(huber_weight(s)) * (1.0 if visual_w is None else visual_w)
        Jw = J * sw[:, None, None]
        rw = r * sw[:, None]
        Jp, Jl = Jw[:, :, :-1], Jw[:, :, -1]
        Hb = np.swapaxes(Jp, 1, 2) @ Jp
        blocks.H_pp += np.bincount(flat_pp, Hb.ravel(), P * P).reshape(P, P)
        Wb = np.einsum("kri,kr->ki", Jp, Jl)
        blocks.W += np.bincount(flat_w, Wb.ravel(), F * P).reshape(F, P)
        blocks.v += np.bincount(feat, np.einsum("kr,kr->k", Jl, Jl), F)
        blocks.b_p += np.bincount(cols.ravel(), np.einsum("kri,kr->ki", Jp, rw).ravel(), P)
        blocks.b_l += np.bincount(feat, np.einsum("kr,kr->k", Jl, rw), F)
    return blocks


def marginal_masks(problem):
    """0/1 masks over the IMU factors and the visual rows of the terms that
    marginalize_frame consumes: IMU factor 0, and the rows that window frames
    observe of the features anchored in frame 0 that still have a depth."""
    old = problem.frame_ids[0]
    consumed = np.array([f.anchor_id() == old and f.inv_depth is not None
                         for f in problem.feats], dtype=bool)
    rows = consumed[problem.v_feat] & (problem.v_obs < problem.n_frames)
    return (np.arange(len(problem.imu)) < 1).astype(float), rows.astype(float)


def information_sqrt_eigen(H, b):
    """information_sqrt by an eigendecomposition of the symmetric H: the
    eigenvalues above 1e-10 of the largest (and above 1e-12) are kept, and
    (H_p, r_p) = ((U s)^T, (U / s)^T b) over their eigenvectors U and
    square roots s."""
    vals, vecs = np.linalg.eigh(H)
    vmax = max(float(vals.max(initial=0.0)), 0.0)
    keep = vals > max(vmax * 1e-10, 1e-12)
    if not np.any(keep):
        return np.zeros((0, H.shape[0])), np.zeros(0)
    s = np.sqrt(vals[keep])
    U = vecs[:, keep]
    return (U * s).T, (U / s).T @ b


def marginalize_frame_masked(problem, terms):
    """(H_p, r_p) of problem.marginalize_frame(terms), built from every term:
    linearize_per_row with marginal_masks' weights, every feature's depth
    eliminated, the pose columns without the loop frames' cut out by np.ix_,
    then schur_complement and information_sqrt_eigen."""
    blocks = linearize_per_row(problem, terms, marginal_masks(problem))
    v = blocks.v
    keep = v > max(float(v.max(initial=0.0)) * 1e-12, 1e-14)
    inv_v = np.where(keep, 1.0 / np.where(keep, v, 1.0), 0.0)
    H, b = eliminate_depths(blocks.H_pp, blocks.b_p, blocks.W, blocks.b_l, inv_v)
    cols = np.r_[: 15 * problem.n_frames, problem.ext_col : problem.feat_col]
    H_red, b_red = schur_complement(H[np.ix_(cols, cols)], b[cols], 15)
    return information_sqrt_eigen(H_red, b_red)


def consensus_per_draw(n, sample_size, fit, inliers, seed):
    """(model, mask, draws) of posegraph._consensus, fitting and scoring one
    draw per call: fit(pick) makes a model from one draw (or raises
    LinAlgError) and inliers(model) masks the n pairs it explains."""
    rng = np.random.default_rng(seed)
    best, best_count = None, 0
    needed = RANSAC_ITERATIONS
    draws = 0
    for it in range(RANSAC_ITERATIONS):
        if it >= needed:
            break
        draws += 1
        pick = rng.choice(n, size=sample_size, replace=False)
        try:
            model = fit(pick)
        except np.linalg.LinAlgError:
            continue
        mask = inliers(model)
        if mask.sum() > best_count:
            best_count = int(mask.sum())
            best = (model, mask)
            needed = min(RANSAC_ITERATIONS, _ransac_iterations_needed(best_count / n, sample_size))
    if best is None or best_count < sample_size:
        raise NoConsensusError(f"no model with at least {sample_size} inliers")
    return (*best, draws)


def eight_point_per_draw(rays_a, rays_b):
    """Rank-2 epipolar model of one draw's (m, 3) unit-ray pairs."""
    A = np.einsum("ki,kj->kij", rays_a, rays_b).reshape(len(rays_a), 9)
    _, s, Vt = np.linalg.svd(A)
    F = Vt[-1].reshape(3, 3)
    U, S, Vt2 = np.linalg.svd(F)
    S[2] = 0.0
    return U @ np.diag(S) @ Vt2


def epipolar_distances_per_draw(F, rays_a, rays_b):
    lb = rays_b @ F.T
    la = rays_a @ F
    e = np.abs(np.sum(rays_a * lb, axis=1))
    da = e / np.maximum(np.linalg.norm(lb, axis=1), 1e-15)
    db = e / np.maximum(np.linalg.norm(la, axis=1), 1e-15)
    return np.maximum(da, db)


def pnp_dlt_per_draw(points, rays):
    """(R, t) world->camera by projection-matrix DLT of one draw; raises
    LinAlgError on a degenerate draw."""
    n = len(points)
    A = np.zeros((2 * n, 12))
    Xh = np.concatenate([points, np.ones((n, 1))], axis=1)
    b1, b2 = tangent_basis(rays)
    A[0::2] = (b1[:, :, None] * Xh[:, None, :]).reshape(n, 12)
    A[1::2] = (b2[:, :, None] * Xh[:, None, :]).reshape(n, 12)
    _, _, Vt = np.linalg.svd(A)
    P = Vt[-1].reshape(3, 4)
    M = P[:, :3]
    U, S, Vt2 = np.linalg.svd(M)
    d = np.sign(np.linalg.det(U @ Vt2))
    R = U @ np.diag([1.0, 1.0, d]) @ Vt2
    scale = S.mean() * d
    if abs(scale) < 1e-12:
        raise np.linalg.LinAlgError("degenerate projection matrix")
    t = P[:, 3] / scale
    proj = points @ R.T + t
    if np.sum(np.einsum("ki,ki->k", proj, rays) > 0) < n / 2:
        R = U @ np.diag([1.0, 1.0, -d]) @ Vt2
        t = -t
    return R, t


def angular_errors_per_draw(R, t, points, rays):
    pred = points @ R.T + t
    norms = np.linalg.norm(pred, axis=1)
    norms = np.maximum(norms, 1e-12)
    cosang = np.einsum("ki,ki->k", pred / norms[:, None], rays)
    return np.arccos(np.clip(cosang, -1.0, 1.0))


def keyframe_decision_per_pair(ray_pairs, q_rel_cam, parallax_px, min_tracked, focal):
    """estimator.keyframe_decision, one shared ray pair at a time."""
    if not ray_pairs or len(ray_pairs) < min_tracked:
        return True
    R = quat_to_rot(q_rel_cam)
    total = 0.0
    for u_kf, u_cur in ray_pairs:
        u_comp = R @ u_cur
        c = np.clip(u_kf @ u_comp / (np.linalg.norm(u_kf) * np.linalg.norm(u_comp)), -1, 1)
        total += np.arccos(c)
    return focal * total / len(ray_pairs) > parallax_px
