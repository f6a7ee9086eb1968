"""Call counts of the benchmark workloads' VIO pass and of the pose-graph
session, without timing.

    python3 tools/workcount.py

Run from the root of a checkout; the program is imported from ``src/`` and
the workloads from ``perfbench/``. For each workload, on the pinned scenario
seed, a fresh set-up runs one warm-up VIO pass, which fills the first-call
caches of ``abc`` and ``scipy.linalg``. A second fresh set-up then runs one
VIO pass under ``cProfile``. It prints:

  - the Python-level calls of that pass in total, into ``monovio``, and into
    ``monovio`` per camera frame
  - the calls of each function that ``perfbench/layers.py`` wraps
  - the calls of ``np.linalg.norm``, ``svd``, ``cholesky`` and ``solve``,
    of ``np.array``, of ``quat_normalize`` and ``BiasState.check``, and of
    ``quat_normalize`` by each caller

A third fresh set-up runs one more VIO pass with the IMU layer's kernels
(``midpoint_path``, ``_transition_batch``, ``imu_residuals_batch``,
``imu_jacobians_batch`` and ``StackedDeltas``) each profiled only while it
runs. It prints each kernel's calls, the Python-level calls made inside it
(those of the functions it calls, at any depth) in total and per call of it.

Then one warm-up pose-graph session runs (the benchmark's session inputs,
which do not depend on the workload), and a second one under ``cProfile``.
It prints the session's Python-level calls in total and per loop closure,
and the calls of ``np.unique`` (in total and from ``PoseGraph.optimize``),
of ``ndarray.argsort`` (which ``np.argsort`` also calls) and of ``splu``.

Call counts do not depend on the host's speed or load, so two checkouts
compare with one ``diff``, and a count that falls is a measured saving even
where timings are too noisy to read.
"""

import cProfile
import functools
import inspect
import os
import pstats
import sys
import tempfile
from pathlib import Path

# the benchmark's thread pinning, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

import bench  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from monovio import estimator, geometry, pipeline, preintegration  # noqa: E402
from monovio.posegraph import PoseGraph  # noqa: E402
from monovio.preintegration import BiasState  # noqa: E402

PACKAGE = str(Path(geometry.__file__).resolve().parent)
# the IMU layer's kernels, as (owner, attribute)
IMU_KERNELS = (
    (preintegration, "midpoint_path"),
    (preintegration, "_transition_batch"),
    (preintegration, "imu_residuals_batch"),
    (preintegration, "imu_jacobians_batch"),
    (preintegration.StackedDeltas, "__init__"),
)
# the modules whose names a kernel may be bound to
PACKAGE_MODULES = (estimator, pipeline, preintegration)
_DISABLE = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")


def _key(fn):
    """cProfile's (file, first line, name) of a Python function."""
    code = inspect.unwrap(fn).__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def counted_functions() -> list[tuple[str, tuple]]:
    """(label, cProfile key) of each function whose calls are printed."""
    out = []
    for owner, attr, name, *_ in layers.targets():
        label = name if isinstance(name, str) else f"{owner.__name__}.{attr}"
        out.append((f"layer {label}", _key(getattr(owner, attr))))
    for attr in ("norm", "svd", "cholesky", "solve"):
        out.append((f"np.linalg.{attr}", _key(getattr(np.linalg, attr))))
    out.append(("np.array", ("~", 0, "<built-in method numpy.array>")))
    for owner, attr in IMU_KERNELS:
        out.append((f"{owner.__name__}.{attr}", _key(getattr(owner, attr))))
    out.append(("quat_normalize", _key(geometry.quat_normalize)))
    out.append(("BiasState.check", _key(BiasState.check)))
    return out


def profiled(run) -> dict:
    """cProfile's stats of run()."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    return pstats.Stats(prof).stats


def count_calls(run, frames: int) -> dict[str, int | float]:
    """Run run() under cProfile and return its call counts by label."""
    stats = profiled(run)
    monovio = sum(v[1] for k, v in stats.items() if k[0].startswith(PACKAGE))
    counts = {
        "calls": sum(v[1] for v in stats.values()),
        "monovio": monovio,
        "monovio_per_frame": round(monovio / frames, 1),
    }
    for label, key in counted_functions():
        counts[label] = stats[key][1] if key in stats else 0
    norm_key = _key(geometry.quat_normalize)
    callers = stats[norm_key][4] if norm_key in stats else {}
    for (_, _, caller), v in sorted(callers.items(), key=lambda kv: kv[0][2]):
        counts[f"quat_normalize from {caller}"] = v[1]
    return counts


def count_inside_kernels(run) -> dict[str, int | float]:
    """Run run() with each of IMU_KERNELS profiled only while it runs, and
    return per kernel its calls and the Python-level calls made inside it, in
    total and per call. A kernel called inside another one is counted as
    called, and its calls as made inside the outer one."""
    active = []
    counts = {}
    patches = []

    def profiled_while_running(fn, label, prof):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            if active:
                return fn(*args, **kwargs)
            active.append(prof)
            prof.enable()
            try:
                return fn(*args, **kwargs)
            finally:
                prof.disable()
                active.pop()
        return wrapper

    profiles = {}
    for owner, attr in IMU_KERNELS:
        fn = getattr(owner, attr)
        label = f"{owner.__name__}.{attr}"
        counts[label] = 0
        profiles[label] = (fn, cProfile.Profile())
        wrapper = profiled_while_running(fn, label, profiles[label][1])
        homes = [owner] if isinstance(owner, type) else PACKAGE_MODULES
        for home in homes:
            for name, value in list(vars(home).items()):
                if value is fn:
                    patches.append((home, name, fn))
                    setattr(home, name, wrapper)
    try:
        run()
    finally:
        for home, name, fn in patches:
            setattr(home, name, fn)
    out = {}
    for label, (fn, prof) in profiles.items():
        prof.create_stats()
        own = {_key(fn), _DISABLE}
        inside = sum(v[1] for k, v in prof.stats.items() if k not in own)
        calls = counts[label]
        out[f"{label} calls"] = calls
        out[f"{label} inside"] = inside
        out[f"{label} inside_per_call"] = round(inside / calls, 1) if calls else 0.0
    return out


def count_session(inputs, workdir: str) -> dict[str, int | float]:
    """Run one pose-graph session over inputs under cProfile and return its
    call counts by label."""
    results = []
    stats = profiled(lambda: results.append(workloads.graph_session(inputs, workdir, downsample_seed=1)))
    closures = len(results[0].loop_ms)
    calls = sum(v[1] for v in stats.values())
    counts = {"calls": calls, "closures": closures, "calls_per_closure": round(calls / closures, 1)}
    unique = _key(np.unique)
    for label, key in (("np.unique", unique),
                       ("ndarray.argsort", ("~", 0, "<method 'argsort' of 'numpy.ndarray' objects>")),
                       ("splu", _key(spla.splu))):
        counts[label] = stats[key][1] if key in stats else 0
    callers = stats[unique][4] if unique in stats else {}
    counts["np.unique from PoseGraph.optimize"] = callers.get(_key(PoseGraph.optimize), (0, 0))[1]
    return counts


def main() -> int:
    for workload in bench.WORKLOADS:
        workloads.vio_pass(workloads.set_up(workload, workloads.PINNED_SCENARIO_SEED))
        setup = workloads.set_up(workload, workloads.PINNED_SCENARIO_SEED)
        counts = count_calls(lambda: workloads.vio_pass(setup), len(setup.pipe.cam_times))
        setup = workloads.set_up(workload, workloads.PINNED_SCENARIO_SEED)
        counts.update(count_inside_kernels(lambda: workloads.vio_pass(setup)))
        print(f"[{workload}]")
        for label, value in counts.items():
            print(f"{label} = {value}")
    inputs = workloads.make_session_inputs()
    with tempfile.TemporaryDirectory() as workdir:
        workloads.graph_session(inputs, workdir, downsample_seed=1)
        counts = count_session(inputs, workdir)
    print("[graph-session]")
    for label, value in counts.items():
        print(f"{label} = {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
