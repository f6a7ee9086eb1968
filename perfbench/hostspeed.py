"""Host-speed probe for normalizing timings on a shared machine.

On a shared VM the same single-threaded work can run at very different speeds
from one stretch of seconds to the next (neighbours on the host): on the
reference host, raw ms per frame of one workload spanned 134-213 ms over ten
runs.
The benchmark runs a small fixed probe next to each timed unit (each camera
frame, each loop closure, each set-up) and scales the unit's time by
``reference / probe time``, taking the probe time as the median of the
nearby probes. A normalized time reads in milliseconds of a host as fast as
the reference one. Probe time is never inside a timed interval. Camera frames
and set-ups use ``probe``, which mirrors the estimator; loop closures use
``graph_probe``, which mirrors ``PoseGraph.optimize``.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

# about the probe medians on the reference host (a 2-CPU x86-64 VM, OpenBLAS
# pinned to one thread) when it runs fast; they swung by up to 1.7x with the
# host's speed, also within a few seconds
REFERENCE_PROBE_MS = 3.0
REFERENCE_GRAPH_PROBE_MS = 5.0
WINDOW = 1  # probes on each side of a unit that set its local speed

_rng = np.random.default_rng(0)
_SPD = _rng.standard_normal((250, 250))
_SPD = _SPD @ _SPD.T + 250.0 * np.eye(250)
_RHS = _rng.standard_normal(250)
_JAC = _rng.standard_normal((60, 4, 8))
_W = _rng.random(60)
_IDX = _rng.integers(0, 250, 2000)
_VALS = _rng.standard_normal(2000)
_ROTS = [_rng.standard_normal((3, 3)) for _ in range(4)]
_VEC = _rng.standard_normal(3)

# a 250-vertex, 4-DOF pose graph: a chain plus 40 loop edges
_GN = 250
_GFROM = np.concatenate([np.arange(_GN - 1), _rng.integers(0, _GN // 2, 40)])
_GTO = np.concatenate([np.arange(1, _GN), _rng.integers(_GN // 2, _GN, 40)])
_GJAC = _rng.standard_normal((len(_GFROM), 4, 8))
_GW = _rng.random(len(_GFROM)) + 0.5
_gcols = np.concatenate([4 * _GFROM[:, None] + np.arange(4), 4 * _GTO[:, None] + np.arange(4)], axis=1)
_GROWS = np.repeat(_gcols[:, :, None], 8, axis=2).ravel()
_GCOLS = np.repeat(_gcols[:, None, :], 8, axis=1).ravel()
_GRHS = _rng.standard_normal(4 * _GN)


def probe() -> float:
    """Run the fixed probe; returns its wall time in ms.

    Its parts mirror where the estimator spends time: an interpreter loop of
    3x3 numpy calls (most of it), a window-sized dense solve, batched
    normal-equation products and a scatter. Over five `loop-noisy` passes in
    one process, raw ms per frame spanned 21 % (max - min over median);
    normalized by a 2.5x longer version of this mix, 3.9 %; by small solves
    alone, 7.1 %. It was then shortened to cut the run time.
    """
    t0 = time.perf_counter()
    acc = np.zeros(3)
    for i in range(60):
        acc = np.cross(acc + _ROTS[i % 4] @ _VEC, _VEC) * 0.1
    np.linalg.solve(_SPD, _RHS)
    for _ in range(2):
        np.einsum("e,eri,erj->eij", _W, _JAC, _JAC)
        z = np.zeros(250)
        np.add.at(z, _IDX, _VALS)
    return (time.perf_counter() - t0) * 1e3


def graph_probe() -> float:
    """Run one Gauss-Newton step of a fixed pose graph, as
    ``PoseGraph.optimize`` builds and solves it; returns its wall time in ms.

    Over eight graph sessions in separate processes, the quartile spread of
    the loop-closure p50 was 40 % raw, 6.7 % normalized by ``probe`` and
    2.4 % normalized by this probe (both with WINDOW = 1).
    """
    t0 = time.perf_counter()
    hb = np.einsum("e,eri,erj->eij", _GW, _GJAC, _GJAC)
    dim = 4 * _GN
    H = sparse.coo_matrix((hb.ravel(), (_GROWS, _GCOLS)), shape=(dim, dim)).tocsr()
    spla.spsolve((H + sparse.identity(dim, format="csr")).tocsc(), _GRHS)
    return (time.perf_counter() - t0) * 1e3


def factors(probe_ms, reference_ms=REFERENCE_PROBE_MS) -> np.ndarray:
    """Per-unit scale: reference over the median of the probes within WINDOW."""
    p = np.asarray(probe_ms, dtype=float)
    local = np.array([np.median(p[max(0, i - WINDOW): i + WINDOW + 1]) for i in range(len(p))])
    return reference_ms / local
