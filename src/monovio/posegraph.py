"""Global 4-DOF pose graph with geometric loop verification.

Vertices carry free position and yaw plus fixed roll/pitch taken from the
odometry (those angles are observable and drift-free there). Sequential edges
chain consecutive keyframes; loop edges come from relocalization. Candidate
loops are verified by a two-stage RANSAC (epipolar test on ray pairs, then
absolute-pose test against window structure). Both stages run one RANSAC
loop, _consensus: its kernels fit and score a block of RANSAC_BLOCK seeded
draws per call (one batched SVD per step of the fit), and the block is
replayed in draw order, so the result is bit for bit that of fitting one
draw at a time.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice

import numpy as np

from .estimator import huber_weight, robust_cost
from .geometry import (
    quat_canonical,
    quat_exp,
    quat_mul,
    quat_to_rot,
    rot_to_quat,
    rot_zyx,
    skew,
    tangent_basis,
    wrap_angle,
    yaw_roll_pitch_decompose,
)

RANSAC_ITERATIONS = 200  # most draws per RANSAC stage
RANSAC_CONFIDENCE = 0.999  # adaptive stopping: chance of one all-inlier draw
RANSAC_BLOCK = 16  # draws fitted and scored per batched call (8-32 time alike)
PNP_REFINE_ITERATIONS = 10  # Gauss-Newton steps on the absolute-pose inliers
DEFAULT_EPIPOLAR_THRESHOLD = 1e-3
DEFAULT_MIN_INLIERS = 25
DEFAULT_EDGE_FANOUT = 4
HUBER_THRESHOLD = 1.0  # squared-norm scale for loop edges
# loop information = identity * (inliers / min_inliers) * LOOP_WEIGHT_SCALE;
# the scale makes loop constraints dominate the sequential-chain stiffness
# so verified loops close to well under their own measurement noise
LOOP_WEIGHT_SCALE = 100.0


class PoseGraphError(RuntimeError):
    pass


class DegenerateGeometryError(ValueError):
    """Two-view geometry is rank deficient (for example pure rotation)."""


class NoConsensusError(RuntimeError):
    pass


def _ransac_iterations_needed(inlier_ratio: float, sample_size: int) -> int:
    """Adaptive RANSAC stopping: draws needed to hit one all-inlier sample."""
    inlier_ratio = min(max(inlier_ratio, 1e-3), 1.0 - 1e-12)
    p_good = inlier_ratio**sample_size
    if p_good >= 1.0 - 1e-12:
        return 1
    log_bad = np.log(1.0 - p_good)
    if log_bad == 0.0:  # p_good is below the float spacing at 1: no cap is enough
        return RANSAC_ITERATIONS
    return int(np.ceil(np.log(1.0 - RANSAC_CONFIDENCE) / log_bad)) + 1


def _consensus(n: int, sample_size: int, fit, inliers, seed: int):
    """(model, mask, draws) of the seeded RANSAC draw with the most inliers,
    under adaptive stopping, and the number of draws that took.

    Draws are fitted and scored RANSAC_BLOCK at a time: fit(picks) maps a
    (B, sample_size) block of draws from the n pairs to (models, ok), a tuple
    of arrays stacked over the B draws and the mask of the draws that gave a
    model, and inliers(models) returns their (B, n) inlier masks. The block
    is then replayed in draw order, so the result is that of fitting one draw
    at a time; draws past the stopping point are fitted and ignored. A block
    whose batched fit raises LinAlgError is fitted one draw at a time, and a
    draw that raises is skipped. Raises NoConsensusError below sample_size
    inliers."""
    rng = np.random.default_rng(seed)
    best, best_count = None, 0
    needed = RANSAC_ITERATIONS
    draws = 0
    while draws < needed:
        picks = np.array([rng.choice(n, size=sample_size, replace=False)
                          for _ in range(min(RANSAC_BLOCK, needed - draws))])
        for models, ok in _fit_block(fit, picks):
            masks = inliers(models) if ok.any() else np.zeros((len(ok), n), dtype=bool)
            counts = masks.sum(axis=1)
            for b in range(len(ok)):
                if draws >= needed:
                    break
                draws += 1
                if ok[b] and counts[b] > best_count:
                    best_count = int(counts[b])
                    best = (tuple(m[b] for m in models), masks[b])
                    needed = min(RANSAC_ITERATIONS,
                                 _ransac_iterations_needed(best_count / n, sample_size))
    if best is None or best_count < sample_size:
        raise NoConsensusError(f"no model with at least {sample_size} inliers")
    return (*best, draws)


def _fit_block(fit, picks):
    """[fit(picks)], or, if that raises LinAlgError, the fit of each draw
    alone, where a draw that raises has no model."""
    try:
        return [fit(picks)]
    except np.linalg.LinAlgError:
        return [_fit_one(fit, pick) for pick in picks]


def _fit_one(fit, pick):
    try:
        return fit(pick[None])
    except np.linalg.LinAlgError:
        return (), np.zeros(1, dtype=bool)


@dataclass
class PoseGraphVertex:
    vid: int
    t: float
    p: np.ndarray  # free
    yaw: float  # free
    roll: float  # fixed from odometry
    pitch: float  # fixed from odometry
    segment: int = 0
    has_loop: bool = False
    # odometry values frozen at insertion; edges are built from these
    vio_p: np.ndarray = None
    vio_yaw: float = None

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.yaw = wrap_angle(self.yaw)
        if self.vio_p is None:
            self.vio_p = self.p.copy()
        if self.vio_yaw is None:
            self.vio_yaw = self.yaw

    @cached_property
    def vio_rotation(self) -> np.ndarray:
        """R(roll, pitch, vio_yaw), computed once: the odometry values are
        frozen, and each vertex starts up to edge_fanout sequential edges."""
        return rot_zyx(self.roll, self.pitch, self.vio_yaw)


@dataclass
class SequentialEdge:
    from_id: int
    to_id: int
    rel_p: np.ndarray  # in the from-vertex frame
    rel_yaw: float

    def __post_init__(self):
        self.rel_p = np.asarray(self.rel_p, dtype=float)
        self.rel_yaw = wrap_angle(self.rel_yaw)


@dataclass
class LoopEdge(SequentialEdge):
    inliers: int = 0


# ---------------------------------------------------------------------------
# two-stage geometric verification


def _epipolar_distances(F: np.ndarray, rays_a: np.ndarray, rays_b: np.ndarray) -> np.ndarray:
    """(B, n) symmetric epipolar distances of the unit-ray correspondences
    under each of the (B, 3, 3) models a' F b = 0."""
    lb = rays_b @ np.swapaxes(F, 1, 2)  # epipolar plane normals seen from a
    la = rays_a @ F
    e = np.abs(np.sum(rays_a * lb, axis=-1))
    da = e / np.maximum(np.linalg.norm(lb, axis=-1), 1e-15)
    db = e / np.maximum(np.linalg.norm(la, axis=-1), 1e-15)
    return np.maximum(da, db)


def _eight_point(rays_a: np.ndarray, rays_b: np.ndarray) -> np.ndarray:
    """(B, 3, 3) rank-2 epipolar models of (B, m, 3) unit-ray pairs."""
    A = np.einsum("bki,bkj->bkij", rays_a, rays_b).reshape(*rays_a.shape[:2], 9)
    _, _, Vt = np.linalg.svd(A)
    F = Vt[:, -1].reshape(-1, 3, 3)
    # enforce rank 2
    U, S, Vt2 = np.linalg.svd(F)
    S[:, 2] = 0.0
    return (U * S[:, None]) @ Vt2


def _rank_check(rays_a: np.ndarray, rays_b: np.ndarray) -> None:
    A = np.einsum("ki,kj->kij", rays_a, rays_b).reshape(len(rays_a), 9)
    s = np.linalg.svd(A, compute_uv=False)
    # nullity > 1 means a family of epipolar models fits: pure rotation
    if s[-2] < 1e-9 * s[0]:
        raise DegenerateGeometryError("epipolar geometry is degenerate (pure rotation?)")


def ransac_fundamental(
    rays_query: np.ndarray,
    rays_candidate: np.ndarray,
    threshold: float = DEFAULT_EPIPOLAR_THRESHOLD,
    seed: int = 0,
):
    """Epipolar model over unit-ray pairs inside RANSAC; returns (F, mask).

    The model is the two-view epipolar constraint u_q^T F u_c = 0 fit by the
    normalized eight-point algorithm (rays are already unit-norm), with the
    symmetric point-to-epipolar-plane distance as the inlier metric.
    """
    rays_query = np.asarray(rays_query, dtype=float)
    rays_candidate = np.asarray(rays_candidate, dtype=float)
    n = len(rays_query)
    if n < 8:
        raise PoseGraphError("need at least 8 correspondences for the epipolar test")

    def fit(picks):
        F = _eight_point(rays_query[picks], rays_candidate[picks])
        return (F,), np.ones(len(F), dtype=bool)

    _, best_mask, _ = _consensus(
        n, 8, fit,
        lambda models: _epipolar_distances(*models, rays_query, rays_candidate) < threshold, seed,
    )
    inl_q, inl_c = rays_query[best_mask], rays_candidate[best_mask]
    _rank_check(inl_q, inl_c)
    F = _eight_point(inl_q[None], inl_c[None])
    mask = _epipolar_distances(F, rays_query, rays_candidate)[0] < threshold
    if mask.sum() < 8:
        raise NoConsensusError("refined epipolar model lost consensus")
    return F[0], mask


def _pnp_dlt(points: np.ndarray, rays: np.ndarray):
    """Projection-matrix DLT of (B, n) 3D points and their unit-ray
    observations; returns (R, t, ok): world->camera rotations (B, 3, 3) and
    translations (B, 3), and the mask of the non-degenerate draws."""
    B, n = points.shape[:2]
    A = np.zeros((B, 2 * n, 12))
    Xh = np.concatenate([points, np.ones((B, n, 1))], axis=2)
    b1, b2 = tangent_basis(rays)
    A[:, 0::2] = (b1[..., None] * Xh[..., None, :]).reshape(B, n, 12)
    A[:, 1::2] = (b2[..., None] * Xh[..., None, :]).reshape(B, n, 12)
    _, _, Vt = np.linalg.svd(A)
    P = Vt[:, -1].reshape(B, 3, 4)
    U, S, Vt2 = np.linalg.svd(P[:, :, :3])
    d = np.sign(np.linalg.det(U @ Vt2))
    signs = np.ones((B, 1, 3))
    signs[:, 0, 2] = d
    R = (U * signs) @ Vt2
    scale = S.mean(axis=1) * d
    ok = np.abs(scale) >= 1e-12
    t = P[:, :, 3] / np.where(ok, scale, 1.0)[:, None]
    # resolve the global sign by cheirality: points should sit along the rays
    proj = points @ np.swapaxes(R, 1, 2) + t[:, None]
    flip = np.sum(np.einsum("bki,bki->bk", proj, rays) > 0, axis=1) < n / 2
    if flip.any():
        signs[:, 0, 2] = -d
        R[flip] = (U[flip] * signs[flip]) @ Vt2[flip]
        t[flip] = -t[flip]
    return R, t, ok


def _angular_errors(R, t, points, rays):
    """(B, n) angles between the rays and the points seen from each of the
    (B, 3, 3), (B, 3) world->camera poses."""
    pred = points @ np.swapaxes(R, 1, 2) + t[:, None]
    norms = np.linalg.norm(pred, axis=-1)
    norms = np.maximum(norms, 1e-12)
    cosang = np.einsum("bki,ki->bk", pred / norms[..., None], rays)
    return np.arccos(np.clip(cosang, -1.0, 1.0))


def _refine_pnp(R, t, points, rays):
    """Gauss-Newton on tangent-plane reprojection over (theta, t)."""
    q = rot_to_quat(R)
    b1, b2 = tangent_basis(rays)
    B = np.stack([b1, b2], axis=2)
    I3 = np.eye(3)
    for _ in range(PNP_REFINE_ITERATIONS):
        Rk = quat_to_rot(q)
        pred = points @ Rk.T + t
        norms = np.linalg.norm(pred, axis=1)
        nvec = pred / norms[:, None]
        r = np.einsum("kir,ki->kr", B, rays - nvec).reshape(-1)
        proj = I3[None] - nvec[:, :, None] * nvec[:, None, :]
        M = -np.einsum("kir,kij->krj", B, proj) / norms[:, None, None]
        J_th = -np.einsum("krj,kja->kra", M, skew(points @ Rk.T))
        J_t = M
        J = np.concatenate([J_th, J_t], axis=2).reshape(-1, 6)
        H = J.T @ J + 1e-12 * np.eye(6)
        dx = np.linalg.solve(H, -J.T @ r)
        q = quat_canonical(quat_mul(quat_exp(dx[:3]), q))
        t = t + dx[3:]
        if np.linalg.norm(dx) < 1e-14:
            break
    return quat_to_rot(q), t


def ransac_pnp(
    points: np.ndarray,
    rays: np.ndarray,
    threshold: float,
    seed: int = 0,
):
    """Absolute pose from 3D-2D (unit-ray) pairs inside RANSAC.

    Returns (R, t, mask) with the world->camera transform refined on the
    inliers by Gauss-Newton reprojection minimization.
    """
    points = np.asarray(points, dtype=float)
    rays = np.asarray(rays, dtype=float)
    n = len(points)
    if n < 6:
        raise PoseGraphError("need at least 6 correspondences for the absolute-pose test")

    def fit(picks):
        R, t, ok = _pnp_dlt(points[picks], rays[picks])
        return (R, t), ok

    (R, t), mask, _ = _consensus(
        n, 6, fit, lambda models: _angular_errors(*models, points, rays) < threshold, seed,
    )
    R, t = _refine_pnp(R, t, points[mask], rays[mask])
    mask = _angular_errors(R[None], t[None], points, rays)[0] < threshold
    if mask.sum() < 6:
        raise NoConsensusError("refined absolute pose lost consensus")
    return R, t, mask


def verify_loop_candidate(
    feature_ids: np.ndarray,
    rays_query: np.ndarray,
    rays_candidate: np.ndarray,
    points_by_id: dict[int, np.ndarray],
    pnp_threshold: float,
    epipolar_threshold: float = DEFAULT_EPIPOLAR_THRESHOLD,
    min_inliers: int = DEFAULT_MIN_INLIERS,
    seed: int = 0,
):
    """Two-step outlier rejection of the feature matches between a query
    keyframe and a loop candidate frame (unit rays in each camera); returns
    (inlier mask, (R, t)) or None.

    Stage 1 tests the ray pairs against an epipolar model; stage 2 tests the
    surviving matches against the window's 3D structure with an absolute-pose
    model, whose inlier gate pnp_threshold is an angle between rays in radians
    (pixels over the focal length). Candidates without enough inliers are
    rejected (None).
    """
    feature_ids = np.asarray(feature_ids, dtype=int)
    rays_candidate = np.asarray(rays_candidate, dtype=float)
    try:
        _, mask_f = ransac_fundamental(rays_query, rays_candidate, epipolar_threshold, seed)
    except (PoseGraphError, NoConsensusError, DegenerateGeometryError):
        return None
    have_point = np.array([fid in points_by_id for fid in feature_ids])
    stage2 = mask_f & have_point
    if stage2.sum() < 6:
        return None
    points = np.array([points_by_id[fid] for fid in feature_ids[stage2]])
    try:
        R, t, mask_p = ransac_pnp(points, rays_candidate[stage2], pnp_threshold, seed)
    except (PoseGraphError, NoConsensusError):
        return None
    mask = np.zeros(len(feature_ids), dtype=bool)
    idx = np.where(stage2)[0]
    mask[idx[mask_p]] = True
    if mask.sum() < min_inliers:
        return None
    return mask, (R, t)


# ---------------------------------------------------------------------------
# edges


def relative_4dof(R_i, p_i, yaw_i: float, p_j, yaw_j: float):
    """4-DOF pose (rel_p, rel_yaw) of pose j in the frame of pose i:
    (R_i^T (p_j - p_i), wrap(yaw_j - yaw_i)), where R_i = R(roll_i, pitch_i,
    yaw_i) is the rotation of pose i."""
    return R_i.T @ (p_j - p_i), wrap_angle(yaw_j - yaw_i)


def sequential_edge_from_vio(pose_i: PoseGraphVertex, pose_j: PoseGraphVertex) -> SequentialEdge:
    """4-DOF relative measurement from the odometry values of two vertices."""
    rel_p, rel_yaw = relative_4dof(pose_i.vio_rotation, pose_i.vio_p, pose_i.vio_yaw,
                                   pose_j.vio_p, pose_j.vio_yaw)
    return SequentialEdge(pose_i.vid, pose_j.vid, rel_p, rel_yaw)


# Nonzeros of one edge's block of the normal equations, one row each:
# (row end, row component, column end, column component, term, sign). Ends:
# 0 = from, 1 = to; components 0-2 = position, 3 = yaw; terms: w,
# w (|u|^2 + 1), w u_x, w u_y with u = z x (p_to - p_from), u_z = 0. See
# PoseGraph.optimize.
_H_ENTRIES = np.array(
    [(0, c, 0, c, 0, 1) for c in range(3)] + [(0, 3, 0, 3, 1, 1)]
    + [(0, c, 0, 3, 2 + c, 1) for c in range(2)] + [(0, 3, 0, c, 2 + c, 1) for c in range(2)]
    + [(1, c, 1, c, 0, 1) for c in range(4)]
    + [(a, c, 1 - a, c, 0, -1) for a in range(2) for c in range(4)]
    + [(0, 3, 1, c, 2 + c, -1) for c in range(2)] + [(1, c, 0, 3, 2 + c, -1) for c in range(2)]
)


# ---------------------------------------------------------------------------
# the graph


# an H entry's key in the kept CSC pattern: column << _KEY_BITS | row, so the
# keys sort by column, then row, at every dimension
_KEY_BITS = 32
_EDGE_ARRAYS = ("fi", "ti", "rel_p", "rel_yaw", "inliers", "is_loop", "keep")


class _Structure:
    """What PoseGraph.optimize keeps between calls: everything that depends
    only on the graph's structure and the fixed set.

    Per vertex, in order: the ids, the vertex objects, roll, pitch and the
    free column (-1 when fixed). Per edge, the sequential then the loop
    edges: the end positions fi and ti, rel_p, rel_yaw, inliers, is_loop and
    keep, the mask of the edge's _H_ENTRIES whose two ends are free. Then the
    gradient's bincount keys g_keys (from ends, then to ends, 4 per end) and
    the CSC pattern of H: its sorted entry keys, indices and indptr, and the
    slot of each kept edge entry (edge-major) and of each diagonal entry.
    extend() adds the vertices and edges appended since the last call,
    exactly as a rebuild over the whole graph would order and slot them.
    """

    def __init__(self, graph: "PoseGraph", fixed: frozenset):
        self.fixed = fixed
        self.seq_list, self.loop_list = graph.sequential_edges, graph.loop_edges
        self.order: list[int] = []
        self.verts: list[PoseGraphVertex] = []
        self.pos: dict[int, int] = {}  # vertex id -> position in order
        self.roll = self.pitch = np.zeros(0)
        self.free_col = np.zeros(0, dtype=int)
        self.n_free = 0
        self.n_seq = self.n_loop = 0
        self.fi = self.ti = np.zeros(0, dtype=int)
        self.rel_p = np.zeros((0, 3))
        self.rel_yaw = self.inliers = np.zeros(0)
        self.is_loop = np.zeros(0, dtype=bool)
        self.keep = np.zeros((0, len(_H_ENTRIES)), dtype=bool)
        self.g_keys = np.zeros((2, 0, 4), dtype=int)
        self.pattern = np.zeros(0, dtype=np.int64)
        self.indices = np.zeros(0, dtype=int)
        self.indptr = np.zeros(1, dtype=int)
        self.edge_slot = self.diag_slot = np.zeros(0, dtype=int)
        self.seq_entries = 0  # kept entries of the sequential edges

    def holds(self, graph: "PoseGraph", fixed: frozenset) -> bool:
        """Whether graph differs from the kept one only by appended
        vertices and edges, and the fixed set is the kept one."""
        return (fixed == self.fixed
                and graph.sequential_edges is self.seq_list and len(self.seq_list) >= self.n_seq
                and graph.loop_edges is self.loop_list and len(self.loop_list) >= self.n_loop
                and graph.order[: len(self.order)] == self.order)

    def extend(self, graph: "PoseGraph") -> None:
        """Add the vertices, then the edges, appended since the last call."""
        dim = 4 * self.n_free
        new_ids = graph.order[len(self.order):]
        if new_ids:
            verts = [graph.vertices[v] for v in new_ids]
            self.pos.update(zip(new_ids, range(len(self.order), len(graph.order))))
            self.order += new_ids
            self.verts += verts
            self.roll = np.concatenate([self.roll, [v.roll for v in verts]])
            self.pitch = np.concatenate([self.pitch, [v.pitch for v in verts]])
            free = ~np.isin(new_ids, list(self.fixed))
            self.free_col = np.concatenate(
                [self.free_col, np.where(free, self.n_free + np.cumsum(free) - 1, -1)])
            self.n_free += int(free.sum())
        seq = self._edges(self.seq_list[self.n_seq:], False)
        loop = self._edges(self.loop_list[self.n_loop:], True)
        # every free column has its diagonal entry, also without an edge
        cols = np.arange(dim, 4 * self.n_free)
        slots = self._merge(np.concatenate([seq.pop("keys"), loop.pop("keys"),
                                            cols << _KEY_BITS | cols]))
        # a rebuild orders the edges sequential first, so new sequential
        # edges go in before the kept loop edges
        n_seq, n_loop = len(seq["fi"]), len(loop["fi"])
        e_seq, e_loop = int(seq["keep"].sum()), int(loop["keep"].sum())
        n, at = self.n_seq, self.seq_entries
        for name in _EDGE_ARRAYS:
            old = getattr(self, name)
            setattr(self, name, np.concatenate([old[:n], seq[name], old[n:], loop[name]]))
        self.g_keys = np.concatenate(
            [self.g_keys[:, :n], seq["g_keys"], self.g_keys[:, n:], loop["g_keys"]], axis=1)
        self.edge_slot = np.concatenate(
            [self.edge_slot[:at], slots[:e_seq], self.edge_slot[at:], slots[e_seq:e_seq + e_loop]])
        self.diag_slot = np.concatenate([self.diag_slot, slots[e_seq + e_loop:]])
        self.n_seq += n_seq
        self.n_loop += n_loop
        self.seq_entries += e_seq

    def _edges(self, edges: list, is_loop: bool) -> dict:
        """The per-edge arrays of new edges, their g_keys and the keys of
        their kept H entries, in edge-major order."""
        fi = np.array([self.pos[e.from_id] for e in edges], dtype=int)
        ti = np.array([self.pos[e.to_id] for e in edges], dtype=int)
        row_end, row_comp, col_end, col_comp, _, _ = _H_ENTRIES.T
        base = 4 * self.free_col[np.stack([fi, ti], axis=1)]
        keep = (base[:, row_end] >= 0) & (base[:, col_end] >= 0)
        keys = (base[:, col_end] + col_comp) << _KEY_BITS | (base[:, row_end] + row_comp)
        return {"fi": fi, "ti": ti,
                "rel_p": np.array([e.rel_p for e in edges], dtype=float).reshape(-1, 3),
                "rel_yaw": np.array([e.rel_yaw for e in edges], dtype=float),
                "inliers": np.array([getattr(e, "inliers", 0) for e in edges], dtype=float),
                "is_loop": np.full(len(edges), is_loop), "keep": keep,
                "g_keys": np.stack([fi, ti])[:, :, None] * 4 + np.arange(4), "keys": keys[keep]}

    def _merge(self, keys: np.ndarray) -> np.ndarray:
        """Merge keys into the pattern and return the slot of each. A kept
        slot moves up by the number of new keys that sort before it."""
        order = np.argsort(keys)
        sorted_keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
        uniq = sorted_keys[first]
        m = len(self.pattern)
        at = np.searchsorted(self.pattern, uniq)
        found = np.zeros(len(uniq), dtype=bool)
        inside = at < m
        found[inside] = self.pattern[at[inside]] == uniq[inside]
        new_keys, new_at = uniq[~found], at[~found]
        n_new = len(new_at)
        moved = np.repeat(np.arange(n_new + 1), np.diff(new_at, prepend=0, append=m))
        moved += np.arange(m)
        new_slot = new_at + np.arange(n_new)
        pattern = np.empty(m + n_new, dtype=np.int64)
        pattern[moved] = self.pattern
        pattern[new_slot] = new_keys
        self.pattern = pattern
        self.indices = pattern & ((1 << _KEY_BITS) - 1)
        # indptr[c] counts the entries left of column c: the kept ones, then
        # the new ones
        cols = np.arange(4 * self.n_free + 1)
        self.indptr = (self.indptr[np.minimum(cols, len(self.indptr) - 1)]
                       + np.searchsorted(new_keys >> _KEY_BITS, cols))
        self.edge_slot = moved[self.edge_slot]
        self.diag_slot = moved[self.diag_slot]
        slot = np.empty(len(uniq), dtype=int)
        slot[found] = moved[at[found]]
        slot[~found] = new_slot
        out = np.empty(len(keys), dtype=int)
        out[order] = slot[np.cumsum(first) - 1]
        return out


@dataclass
class PoseGraphConfig:
    edge_fanout: int = DEFAULT_EDGE_FANOUT
    min_inliers: int = DEFAULT_MIN_INLIERS
    max_iterations: int = 25
    initial_lambda: float = 1e-6
    # stop once an accepted step lowers the cost by less than this fraction
    # of it: Ceres' function_tolerance default (VINS-Mono solves its 4-DOF
    # graph in Ceres with at most 5 iterations)
    rel_cost_tol: float = 1e-6


class PoseGraph:
    """Keyframe vertices with sequential and loop edges; 4-DOF optimization.

    optimize keeps what depends only on the graph's structure between calls
    (see _Structure) and extends it by the vertices and edges appended since.
    That assumes an edge is never edited once it is in a list, a vertex's
    roll and pitch never change, and a vertex leaves the graph only through
    downsample. A replaced edge list, a changed order (downsample changes
    it) or a different fixed set start the kept structure anew; a loaded
    graph starts with none. Vertex positions and yaws, and the loop edges'
    base weights (from config), are read on every call. optimize writes new
    position arrays into the vertices and never writes into them in place.
    """

    def __init__(self, config: PoseGraphConfig | None = None):
        self.config = config or PoseGraphConfig()
        self.vertices: dict[int, PoseGraphVertex] = {}
        self.order: list[int] = []
        self.sequential_edges: list[SequentialEdge] = []
        self.loop_edges: list[LoopEdge] = []
        self._kept: _Structure | None = None  # see optimize

    def __len__(self) -> int:
        return len(self.order)

    def add_keyframe(self, vertex: PoseGraphVertex) -> None:
        """Insert a vertex and connect it to its previous same-segment
        keyframes with sequential edges."""
        if vertex.vid in self.vertices:
            raise PoseGraphError(f"duplicate vertex id {vertex.vid}")
        same = (v for v in reversed(self.order) if self.vertices[v].segment == vertex.segment)
        prev = list(islice(same, max(self.config.edge_fanout, 0)))
        self.vertices[vertex.vid] = vertex
        self.order.append(vertex.vid)
        for pid in reversed(prev):
            self.sequential_edges.append(
                sequential_edge_from_vio(self.vertices[pid], vertex)
            )

    def add_loop_edge(self, edge: LoopEdge) -> None:
        if edge.from_id not in self.vertices or edge.to_id not in self.vertices:
            raise PoseGraphError("loop edge references unknown vertices")
        self.loop_edges.append(edge)
        self.vertices[edge.from_id].has_loop = True
        self.vertices[edge.to_id].has_loop = True

    def segments(self) -> list[int]:
        return sorted({v.segment for v in self.vertices.values()})

    # -- optimization -------------------------------------------------------

    def _structure(self, fixed: set[int]) -> _Structure:
        """The kept structure, extended by what was appended since the last
        call; a new one when the graph or the fixed set changed otherwise."""
        fixed = frozenset(fixed)
        if self._kept is None or not self._kept.holds(self, fixed):
            self._kept = _Structure(self, fixed)
        self._kept.extend(self)
        return self._kept

    def optimize(self, fixed: set[int] | None = None) -> dict:
        """Levenberg-Marquardt over (p, yaw); roll/pitch stay constant.

        Sequential edges enter with identity information; loop edges with
        identity scaled by inliers / min_inliers and a Huber kernel. By default
        the first vertex of every segment is fixed. An edge's residual is
        [R_i^T (p_j - p_i) - rel_p ; wrap(yaw_j - yaw_i - rel_yaw)], with R_i
        = R(roll_i, pitch_i, yaw_i).

        The rotation cancels in the normal equations. With u = z x (p_j - p_i),
        an edge of weight w adds w [[I, u], [u^T, |u|^2 + 1]] to its
        from-vertex block, w I_4 to its to-vertex block and
        w [[-I, 0], [-u^T, -1]] between them (rows from, columns to), so the
        position block is the weighted graph Laplacian (x) I_3. The gradient
        needs only q = R_i r_p = p_j - p_i - R_i rel_p, the position residual
        in the world frame.

        H + lambda diag(H) is factored once, by SuperLU in symmetric mode
        with a minimum-degree ordering of A^T + A, and each step solves that
        factor against the gradient at the current iterate. A step is
        accepted when it does not raise the true (robust) cost. A rejected
        or non-finite step re-linearizes H at the current iterate and
        re-factors it with lambda x 10. An accepted step re-factors it, with
        lambda unchanged, only when the cost fell by less than half or more
        than 1.5 times the reduction the factor's model predicted: a loop
        edge leaving or joining the Huber branch changes its weight, and a
        factor built with the old weight converges only slowly. The loop
        stops when an accepted step lowers the cost by less than
        rel_cost_tol of it.
        """
        if not self.order:
            return {"iterations": 0, "costs": [], "termination": "empty"}
        if fixed is None:
            fixed = set()
            for seg in self.segments():
                fixed.add(next(v for v in self.order if self.vertices[v].segment == seg))
        if not fixed:
            raise PoseGraphError("at least one vertex must be fixed per segment")
        cfg = self.config
        kept = self._structure(fixed)
        fi, ti, rel_p, rel_yaw, is_loop = kept.fi, kept.ti, kept.rel_p, kept.rel_yaw, kept.is_loop
        if not len(fi) or kept.n_free == 0:
            return {"iterations": 0, "costs": [], "termination": "nothing_to_do"}
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        p = np.array([v.p for v in kept.verts])
        yaw = np.array([v.yaw for v in kept.verts])
        roll, pitch = kept.roll, kept.pitch
        base_w = np.where(
            is_loop, np.maximum(kept.inliers / cfg.min_inliers, 1.0) * LOOP_WEIGHT_SCALE, 1.0
        )
        th = HUBER_THRESHOLD
        free = kept.free_col >= 0
        dim = 4 * kept.n_free

        def linearize(p, yaw):
            """Cost, weights and world-frame residual terms at (p, yaw)."""
            R_i = rot_zyx(roll, pitch, yaw)[fi]
            d = p[ti] - p[fi]
            q = d - np.einsum("eab,eb->ea", R_i, rel_p)
            r_y = wrap_angle(yaw[ti] - yaw[fi] - rel_yaw)
            s = np.einsum("ea,ea->e", q, q) + r_y * r_y
            c = float(np.sum(s[~is_loop]))
            c += float(np.sum(robust_cost(base_w[is_loop] * s[is_loop] / th))) * th
            w = np.where(is_loop, base_w * huber_weight(base_w * s / th), base_w)
            return c, w, d, q, r_y

        # gradient rows: (vertex, component) of the from and to ends
        g_keys = kept.g_keys.ravel()
        n_rows = 4 * len(p)

        def gradient(w, d, q, r_y):
            wq = w[:, None] * q
            u_q = d[:, 0] * q[:, 1] - d[:, 1] * q[:, 0]
            g = np.empty((2 * len(w), 4))
            g[: len(w), :3] = -wq
            g[: len(w), 3] = -w * (u_q + r_y)
            g[len(w):, :3] = wq
            g[len(w):, 3] = w * r_y
            g = np.bincount(g_keys, g.ravel(), minlength=n_rows)
            return g.reshape(-1, 4)[free].ravel()

        # the CSC pattern of H holds the _H_ENTRIES of each edge whose two
        # ends are free, and the diagonal of every free column
        _, _, _, _, term, sign = _H_ENTRIES.T
        keep, edge_slot, diag_slot, n_slots = kept.keep, kept.edge_slot, kept.diag_slot, len(kept.pattern)

        def factor(w, d, lam):
            """SuperLU factor of H + lam diag(H) at the iterate of (w, d)."""
            u2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
            # u = z x d = (-d_y, d_x, 0)
            terms = np.stack([w, w * (u2 + 1.0), -w * d[:, 1], w * d[:, 0]], axis=1)
            data = np.bincount(edge_slot, (terms[:, term] * sign)[keep], minlength=n_slots)
            diag = data[diag_slot]
            data[diag_slot] += lam * np.maximum(diag, 1e-12)
            A = sp.csc_matrix((data, kept.indices, kept.indptr), shape=(dim, dim))
            return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                             options={"SymmetricMode": True})

        cost, w, d, q, r_y = linearize(p, yaw)
        costs = [cost]
        lam = cfg.initial_lambda
        lu = None
        iterations = 0
        rel = np.inf
        for _ in range(cfg.max_iterations):
            g = gradient(w, d, q, r_y)
            accepted = False
            for _try in range(12):
                if lu is None:
                    try:
                        lu = factor(w, d, lam)
                    except RuntimeError:
                        lam *= 10
                        continue
                dx = lu.solve(-g).reshape(-1, 4)
                if not np.all(np.isfinite(dx)):
                    lam *= 10
                    lu = None
                    continue
                p_new = p.copy()
                yaw_new = yaw.copy()
                p_new[free] += dx[:, 0:3]
                yaw_new[free] = wrap_angle(yaw_new[free] + dx[:, 3])
                new = linearize(p_new, yaw_new)
                if np.isfinite(new[0]) and new[0] <= cost:
                    rel = (cost - new[0]) / max(cost, 1e-30)
                    # the factor's model predicts a reduction of -g.dx; a
                    # reused factor shrinks the error by about |1 - gain|
                    # per step, so past one half it is rebuilt here
                    gain = (cost - new[0]) / max(-float(g @ dx.ravel()), 1e-300)
                    if abs(gain - 1.0) > 0.5:
                        lu = None
                    p, yaw = p_new, yaw_new
                    cost, w, d, q, r_y = new
                    costs.append(cost)
                    accepted = True
                    break
                lam *= 10
                lu = None
            iterations += 1
            if not accepted:
                break
            if rel < cfg.rel_cost_tol or cost < 1e-20:
                break
        for v, p_i, yaw_i in zip(kept.verts, p, wrap_angle(yaw).tolist()):
            v.p = p_i
            v.yaw = yaw_i
        termination = "converged" if accepted else "stalled"
        return {"iterations": iterations, "costs": costs, "termination": termination}

    # -- downsampling ----------------------------------------------------------

    def downsample(self, capacity: int, seed: int = 0) -> int:
        """Remove dense non-loop vertices until at most capacity remain.

        Removal probability is proportional to local spatial density (inverse
        distance to the surviving chain neighbors); vertices with loop
        constraints and segment anchors are always kept. Sequential
        connectivity is re-stitched by composing the removed vertex's edges.
        The edge list keeps the surviving edges in their order, then the
        stitched ones in the order they were made.
        """
        rng = np.random.default_rng(seed)
        if len(self.order) <= capacity:
            return 0
        verts = [self.vertices[v] for v in self.order]
        pos = np.array([v.p for v in verts])
        seg = np.array([v.segment for v in verts])
        removable = ~np.array([v.has_loop for v in verts])
        removable[np.unique(seg, return_index=True)[1]] = False  # segment anchors
        # live edges by key, in list order, and each vertex's edges by key
        edges = dict(enumerate(self.sequential_edges))
        keys = count(len(edges))
        incoming = {v: {} for v in self.order}
        outgoing = {v: {} for v in self.order}
        for k, e in edges.items():
            outgoing[e.from_id][k] = incoming[e.to_id][k] = e
        pairs = Counter((e.from_id, e.to_id) for e in edges.values())
        removed = 0
        while len(self.order) > capacity and removable.any():
            n = len(self.order)
            fwd = np.linalg.norm(pos[1:] - pos[:-1], axis=1)
            same = seg[1:] == seg[:-1]
            prev_gap = np.full(n, np.nan)
            next_gap = np.full(n, np.nan)
            prev_gap[1:][same] = fwd[same]
            next_gap[:-1][same] = fwd[same]
            mean_gap = np.nanmean(np.stack([prev_gap, next_gap]), axis=0)
            dens = 1.0 / np.maximum(np.where(np.isnan(mean_gap), 1e9, mean_gap), 1e-6)
            dens[~removable] = 0.0
            total = dens.sum()
            if total <= 0:
                break
            i = int(rng.choice(n, p=dens / total))
            vid = self.order.pop(i)
            pos, seg, removable = (np.delete(a, i, axis=0) for a in (pos, seg, removable))
            m = self.vertices.pop(vid)
            ins, outs = incoming.pop(vid), outgoing.pop(vid)
            for k, e in ins.items():
                del outgoing[e.from_id][k], edges[k]
                pairs[e.from_id, vid] -= 1
            for k, e in outs.items():
                del incoming[e.to_id][k], edges[k]
                pairs[vid, e.to_id] -= 1
            # re-stitch by composing the measurement chains through the victim,
            # adding no edge between a pair that already has one
            for ein in ins.values():
                # R_i^T R_m from the edge's own relative yaw, not from vio_yaw,
                # which a loaded graph holds only as the optimized yaw
                a = self.vertices[ein.from_id]
                R_im = rot_zyx(a.roll, a.pitch, 0.0).T @ rot_zyx(m.roll, m.pitch, ein.rel_yaw)
                for eout in outs.values():
                    key = (ein.from_id, eout.to_id)
                    if pairs[key] or ein.from_id == eout.to_id:
                        continue
                    pairs[key] += 1
                    e = SequentialEdge(*key, ein.rel_p + R_im @ eout.rel_p,
                                       wrap_angle(ein.rel_yaw + eout.rel_yaw))
                    k = next(keys)
                    edges[k] = outgoing[key[0]][k] = incoming[key[1]][k] = e
            removed += 1
        self.sequential_edges = list(edges.values())
        return removed

    # -- serialization -----------------------------------------------------------

    def save(self, path) -> None:
        """Line-oriented text format:
        VERTEX id t px py pz roll pitch yaw segment
        EDGE type from to px py pz yaw inliers
        """
        with open(path, "w") as f:
            for vid in self.order:
                v = self.vertices[vid]
                f.write(
                    "VERTEX %d %.9g %.9g %.9g %.9g %.9g %.9g %.9g %d\n"
                    % (v.vid, v.t, v.p[0], v.p[1], v.p[2], v.roll, v.pitch, v.yaw, v.segment)
                )
            for e in self.sequential_edges:
                f.write(
                    "EDGE SEQ %d %d %.9g %.9g %.9g %.9g 0\n"
                    % (e.from_id, e.to_id, e.rel_p[0], e.rel_p[1], e.rel_p[2], e.rel_yaw)
                )
            for e in self.loop_edges:
                f.write(
                    "EDGE LOOP %d %d %.9g %.9g %.9g %.9g %d\n"
                    % (e.from_id, e.to_id, e.rel_p[0], e.rel_p[1], e.rel_p[2], e.rel_yaw, e.inliers)
                )

    @classmethod
    def load(cls, path) -> "PoseGraph":
        graph = cls()
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                parts = line.split()
                if not parts:
                    continue
                if parts[0] == "VERTEX":
                    if len(parts) != 10:
                        raise PoseGraphError(f"malformed VERTEX on line {lineno}")
                    try:
                        vid, seg = int(parts[1]), int(parts[9])
                        values = [float(x) for x in parts[2:9]]  # t, p, roll, pitch, yaw
                    except ValueError:
                        raise PoseGraphError(f"non-numeric VERTEX field on line {lineno}") from None
                    if not all(map(math.isfinite, values)):
                        raise PoseGraphError(f"non-finite VERTEX field on line {lineno}")
                    t, p, (roll, pitch, yaw) = values[0], np.array(values[1:4]), values[4:]
                    if vid in graph.vertices:
                        raise PoseGraphError(f"repeated VERTEX {vid} on line {lineno}")
                    graph.vertices[vid] = PoseGraphVertex(vid, t, p, yaw, roll, pitch, seg)
                    graph.order.append(vid)
                elif parts[0] == "EDGE":
                    if len(parts) != 9:
                        raise PoseGraphError(f"malformed EDGE on line {lineno}")
                    kind = parts[1]
                    try:
                        from_id, to_id, inliers = int(parts[2]), int(parts[3]), int(parts[8])
                        values = [float(x) for x in parts[4:8]]  # rel_p, rel_yaw
                    except ValueError:
                        raise PoseGraphError(f"non-numeric EDGE field on line {lineno}") from None
                    if not all(map(math.isfinite, values)):
                        raise PoseGraphError(f"non-finite EDGE field on line {lineno}")
                    rel_p, rel_yaw = np.array(values[:3]), values[3]
                    if from_id not in graph.vertices or to_id not in graph.vertices:
                        raise PoseGraphError(f"EDGE names an unknown vertex on line {lineno}")
                    if from_id == to_id:
                        raise PoseGraphError(f"EDGE joins a vertex to itself on line {lineno}")
                    if kind == "LOOP":
                        graph.add_loop_edge(LoopEdge(from_id, to_id, rel_p, rel_yaw, inliers=inliers))
                    elif kind == "SEQ":
                        graph.sequential_edges.append(SequentialEdge(from_id, to_id, rel_p, rel_yaw))
                    else:
                        raise PoseGraphError(f"unknown edge type '{kind}' on line {lineno}")
                else:
                    raise PoseGraphError(f"unknown record '{parts[0]}' on line {lineno}")
        return graph


def vertex_from_state(vid: int, t: float, p, q, segment: int = 0) -> PoseGraphVertex:
    """Build a vertex from an odometry pose, splitting fixed roll/pitch from
    free yaw."""
    roll, pitch, yaw = yaw_roll_pitch_decompose(q)
    return PoseGraphVertex(vid, t, np.asarray(p, dtype=float), yaw, roll, pitch, segment)
