"""Call counts of the benchmark workloads' VIO pass and of the pose-graph
session, without timing.

    python3 tools/workcount.py

Run from the root of a checkout; the program is imported from ``src/`` and
the workloads from ``perfbench/``. For each workload, on the pinned scenario
seed, a fresh set-up runs one warm-up VIO pass, which fills the first-call
caches of ``abc`` and ``scipy.linalg``. A second set-up then runs under
``cProfile``, and so does one VIO pass on it. It prints:

  - the Python-level calls of that set-up (``workloads.set_up``: the
    scenario, the pipeline on it and the session inputs)
  - the Python-level calls of that pass in total, into ``monovio``, and into
    ``monovio`` per camera frame
  - the calls of each function that ``perfbench/layers.py`` wraps
  - the calls of ``np.linalg.norm``, ``svd``, ``cholesky`` and ``solve``,
    of ``np.array``, of ``quat_normalize`` and ``BiasState.check``, and of
    ``quat_normalize`` by each caller

A third fresh set-up runs one more VIO pass with each of KERNELS profiled
only while it runs: the IMU layer's kernels (``midpoint_path``,
``_transition_batch``, ``merge_deltas``, ``imu_residuals_batch``,
``imu_jacobians_batch`` and ``StackedDeltas``), the window's feature bookkeeping
(``_WindowProblem.__init__``, ``_WindowProblem._visual_layout``,
``observe``, ``triangulate_new_features``, ``_slide``,
``_marginalize_oldest`` and ``LoopObservationSet.__post_init__``, where
the observation table's rows and the loop sets' arrays are made) and the
Gauss-Newton iteration's kernels (``_WindowProblem.evaluate``,
``linearize``, ``damped_step``, ``retract`` and ``marginalize_frame``). It prints each
kernel's calls, the Python-level calls made inside it (those of the
functions it calls, at any depth, kernels included) in total and per call
of it.

Then one warm-up pose-graph session runs (the benchmark's session inputs,
which do not depend on the workload), and a second one under ``cProfile``.
It prints the session's Python-level calls in total and per loop closure,
and the calls of ``np.unique`` (in total and from ``PoseGraph.optimize``),
of ``ndarray.argsort`` (which ``np.argsort`` also calls) and of ``splu``.

Call counts do not depend on the host's speed or load, so two checkouts
compare with one ``diff``, and a count that falls is a measured saving even
where timings are too noisy to read. Each counted run first collects the
garbage made before it and holds the garbage collector off while it runs,
so a count does not depend on what ran earlier in the process.
"""

import cProfile
import contextlib
import functools
import gc
import inspect
import pstats
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

# first: importing monovio pins the BLAS pools to one thread before numpy loads
import monovio  # noqa: E402,F401
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
    (preintegration, "merge_deltas"),
    (preintegration, "imu_residuals_batch"),
    (preintegration, "imu_jacobians_batch"),
    (preintegration.StackedDeltas, "__init__"),
)
# the window's feature bookkeeping, as (owner, attribute)
FEATURE_KERNELS = (
    (estimator._WindowProblem, "__init__"),
    (estimator._WindowProblem, "_visual_layout"),
    (estimator.SlidingWindowEstimator, "observe"),
    (estimator.SlidingWindowEstimator, "triangulate_new_features"),
    (estimator.SlidingWindowEstimator, "_slide"),
    (estimator.SlidingWindowEstimator, "_marginalize_oldest"),
    (estimator.LoopObservationSet, "__post_init__"),
)
# the Gauss-Newton iteration's kernels and the marginalization that runs
# them on a keyframe's problem, as (owner, attribute)
SOLVE_KERNELS = (
    (estimator._WindowProblem, "evaluate"),
    (estimator._WindowProblem, "linearize"),
    (estimator._WindowProblem, "damped_step"),
    (estimator._WindowProblem, "retract"),
    (estimator._WindowProblem, "marginalize_frame"),
)
KERNELS = IMU_KERNELS + FEATURE_KERNELS + SOLVE_KERNELS
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
    for owner, attr in KERNELS:
        out.append((f"{owner.__name__}.{attr}", _key(getattr(owner, attr))))
    out.append(("quat_normalize", _key(geometry.quat_normalize)))
    out.append(("BiasState.check", _key(BiasState.check)))
    return out


@contextlib.contextmanager
def collector_held():
    """Collect the garbage made so far, then hold the collector off. A
    collection inside a count would run the weakref callbacks of objects
    from before it, which are Python-level calls, so the count would depend
    on what ran before."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def profiled(run) -> dict:
    """cProfile's stats of run(), with the collector held off."""
    prof = cProfile.Profile()
    with collector_held():
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
    """Run run() with each of KERNELS profiled only while it runs, and return
    per kernel its calls and the Python-level calls made inside it, in total
    and per call. A kernel called inside another one gets a profiler of its
    own, keyed by the kernels it runs inside, while the outer one pauses; it
    is counted as called, and its calls as made inside every outer one too."""
    stack = []  # (label, profiler) of the running kernels, innermost last
    counts = {}  # label -> calls
    profiles = {}  # the labels of the running kernels, innermost last -> (calls, profiler)
    patches = []

    def profiled_while_running(fn, label):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                stack[-1][1].disable()
            path = tuple(entry[0] for entry in stack) + (label,)
            if path not in profiles:
                profiles[path] = [0, cProfile.Profile()]
            entry = profiles[path]
            entry[0] += 1
            counts[label] += 1
            stack.append((label, entry[1]))
            entry[1].enable()
            try:
                return fn(*args, **kwargs)
            finally:
                entry[1].disable()
                stack.pop()
                if stack:
                    stack[-1][1].enable()
        return wrapper

    fns = {}
    for owner, attr in KERNELS:
        fn = getattr(owner, attr)
        label = f"{owner.__name__}.{attr}"
        counts[label] = 0
        fns[label] = fn
        wrapper = profiled_while_running(fn, label)
        homes = [owner] if isinstance(owner, type) else PACKAGE_MODULES
        for home in homes:
            for name, value in list(vars(home).items()):
                if value is fn:
                    patches.append((home, name, fn))
                    setattr(home, name, wrapper)
    try:
        with collector_held():
            run()
    finally:
        for home, name, fn in patches:
            setattr(home, name, fn)
    inside = dict.fromkeys(counts, 0)
    for path, (calls, prof) in profiles.items():
        prof.create_stats()
        own = {_key(fns[path[-1]]), _DISABLE}
        n = sum(v[1] for k, v in prof.stats.items() if k not in own)
        inside[path[-1]] += n
        # an outer kernel's own profile holds the call of this kernel's
        # wrapper; its function's calls and those made inside it are added
        for outer in set(path[:-1]):
            inside[outer] += n + calls
    out = {}
    for label, calls in counts.items():
        out[f"{label} calls"] = calls
        out[f"{label} inside"] = inside[label]
        out[f"{label} inside_per_call"] = round(inside[label] / calls, 1) if calls else 0.0
    return out


def count_setup(workload: str):
    """Run one set-up of workload on the pinned scenario seed under cProfile
    and return it with its Python-level calls."""
    setups = []
    stats = profiled(lambda: setups.append(
        workloads.set_up(workload, workloads.PINNED_SCENARIO_SEED)))
    return setups[0], sum(v[1] for v in stats.values())


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
        setup, setup_calls = count_setup(workload)
        counts = {"setup_calls": setup_calls}
        counts.update(count_calls(lambda: workloads.vio_pass(setup), len(setup.pipe.cam_times)))
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
