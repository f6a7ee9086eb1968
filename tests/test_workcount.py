"""tools/workcount.py: call counts of a pass and of a pose-graph session
are exact and repeat."""

import importlib.util
import sys
import weakref
from pathlib import Path

import numpy as np

from monovio.estimator import LoopObservationSet
from monovio.pipeline import PipelineConfig, pipeline_from_scenario
from monovio.simulator import ScenarioConfig, build_scenario, camera_times

TOOL = Path(__file__).resolve().parent.parent / "tools" / "workcount.py"


def load_workcount(monkeypatch):
    # the tool prepends src/ and perfbench/ to sys.path, which is restored
    # after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("workcount", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_a_short_scenario_identically_twice(monkeypatch):
    workcount = load_workcount(monkeypatch)
    cfg = ScenarioConfig(duration=6.0, cam_rate=5.0, seed=3, traj={"period": 12.0})
    data = build_scenario(cfg)
    frames = len(camera_times(cfg))

    def fresh_run():
        return pipeline_from_scenario(data, PipelineConfig(enable_loops=False)).run

    fresh_run()()  # warm-up: first-call caches
    first, second = (workcount.count_calls(fresh_run(), frames) for _ in range(2))
    assert first == second
    assert first["calls"] > first["monovio"] > 0
    assert first["monovio_per_frame"] == round(first["monovio"] / frames, 1)
    assert first["layer pipeline.VioPipeline.run"] == 1
    assert first["layer estimator.build_and_solve"] > 0
    # every quaternion normalization is counted under one of its callers
    assert first["quat_normalize"] == sum(
        v for k, v in first.items() if k.startswith("quat_normalize from "))


def test_counts_inside_the_imu_kernels_identically_twice(monkeypatch):
    workcount = load_workcount(monkeypatch)
    cfg = ScenarioConfig(duration=6.0, cam_rate=5.0, seed=3, traj={"period": 12.0})
    data = build_scenario(cfg)

    def fresh_run():
        return pipeline_from_scenario(data, PipelineConfig(enable_loops=False)).run

    kernels = [(owner, attr, getattr(owner, attr)) for owner, attr in workcount.IMU_KERNELS]
    bindings = {(m.__name__, name): v for m in workcount.PACKAGE_MODULES
                for name, v in vars(m).items() if callable(v)}
    fresh_run()()  # warm-up: first-call caches
    first, second = (workcount.count_inside_kernels(fresh_run()) for _ in range(2))
    assert first == second
    for owner, attr, fn in kernels:
        label = f"{owner.__name__}.{attr}"
        assert first[f"{label} calls"] > 0 and first[f"{label} inside"] > 0
        assert first[f"{label} inside_per_call"] == round(
            first[f"{label} inside"] / first[f"{label} calls"], 1)
        assert getattr(owner, attr) is fn  # unwrapped after the count
    # the run drops frames, and each drop merges two deltas
    assert first["monovio.preintegration.merge_deltas calls"] > 0
    assert bindings == {(m.__name__, name): v for m in workcount.PACKAGE_MODULES
                        for name, v in vars(m).items() if callable(v)}
    # the frame's path is integrated once: by integrate_segment, not again
    # by forward propagation
    counts = workcount.count_calls(fresh_run(), len(camera_times(cfg)))
    assert counts["monovio.preintegration.midpoint_path"] == counts[
        "monovio.preintegration._transition_batch"] == first[
        "monovio.preintegration.midpoint_path calls"]


def test_counts_inside_the_feature_kernels_identically_twice(monkeypatch):
    workcount = load_workcount(monkeypatch)
    cfg = ScenarioConfig(duration=6.0, cam_rate=5.0, seed=3, traj={"period": 12.0})
    data = build_scenario(cfg)

    def fresh_run():
        return pipeline_from_scenario(data, PipelineConfig(enable_loops=False)).run

    kernels = [(owner, attr, getattr(owner, attr)) for owner, attr in workcount.FEATURE_KERNELS]
    fresh_run()()  # warm-up: first-call caches
    first, second = (workcount.count_inside_kernels(fresh_run()) for _ in range(2))
    assert first == second
    # a loop-free run makes no loop set, so loop sets are made apart
    loop_set = "LoopObservationSet.__post_init__"
    rays = np.array([[0.1, 0.2, 1.0], [-0.3, 0.1, 2.0], [0.0, 0.0, 1.0]])
    loop_counts = [workcount.count_inside_kernels(
        lambda: [LoopObservationSet(np.array([1.0, 0, 0, 0]), np.zeros(3), list(enumerate(rays)))
                 for _ in range(2)]) for _ in range(2)]
    assert loop_counts[0] == loop_counts[1] and first[f"{loop_set} calls"] == 0
    first.update({k: v for k, v in loop_counts[0].items() if k.startswith(loop_set)})
    assert first[f"{loop_set} calls"] == 2
    for owner, attr, fn in kernels:
        label = f"{owner.__name__}.{attr}"
        assert first[f"{label} calls"] > 0 and first[f"{label} inside"] > 0
        assert getattr(owner, attr) is fn  # unwrapped after the count
    # the observation table's rows and their bases are made where the
    # window observes a frame, and cut where it slides: each frame is
    # observed once, and a full window slides once per frame added
    observe, slide = "SlidingWindowEstimator.observe", "SlidingWindowEstimator._slide"
    assert first[f"{observe} calls"] >= first[f"{slide} calls"] > 0
    assert first[f"{slide} inside"] > first["SlidingWindowEstimator._marginalize_oldest inside"]
    # a kernel run inside another one counts inside it too: StackedDeltas
    # and the visual layout are built inside each window problem's
    # construction, and nowhere else
    build, nested = "_WindowProblem.__init__", ("StackedDeltas.__init__", "_WindowProblem._visual_layout")
    assert all(first[f"{label} calls"] == first[f"{build} calls"] for label in nested)
    assert first[f"{build} inside"] > sum(first[f"{label} inside"] + first[f"{label} calls"]
                                          for label in nested)


def test_counts_inside_the_solve_kernels_identically_twice(monkeypatch):
    workcount = load_workcount(monkeypatch)
    cfg = ScenarioConfig(duration=6.0, cam_rate=5.0, seed=3, traj={"period": 12.0})
    data = build_scenario(cfg)

    def fresh_run():
        return pipeline_from_scenario(data, PipelineConfig(enable_loops=False)).run

    kernels = [(owner, attr, getattr(owner, attr)) for owner, attr in workcount.SOLVE_KERNELS]
    fresh_run()()  # warm-up: first-call caches
    first, second = (workcount.count_inside_kernels(fresh_run()) for _ in range(2))
    assert first == second
    for owner, attr, fn in kernels:
        label = f"{owner.__name__}.{attr}"
        assert first[f"{label} calls"] > 0 and first[f"{label} inside"] > 0
        assert getattr(owner, attr) is fn  # unwrapped after the count
    # a trial step is retracted only when its damped step was solved, and
    # each marginalization linearizes its problem once more
    calls = {attr: first[f"_WindowProblem.{attr} calls"] for _, attr in workcount.SOLVE_KERNELS}
    assert calls["retract"] <= calls["damped_step"]
    assert calls["linearize"] > calls["marginalize_frame"]


def test_counts_a_short_session_identically_twice(monkeypatch, tmp_path):
    workcount = load_workcount(monkeypatch)
    full = workcount.workloads.make_session_inputs()
    n = 200
    inputs = workcount.workloads.SessionInputs(
        full.t[:n], full.p_gt[:n], full.rpy[:n], full.p_odo[:n], full.yaw_odo[:n],
        {k: loop for k, loop in full.loops.items() if k < n})
    workcount.workloads.graph_session(inputs, str(tmp_path), downsample_seed=1)  # warm-up
    first, second = (workcount.count_session(inputs, str(tmp_path)) for _ in range(2))
    assert first == second
    assert first["closures"] == len(inputs.loops) > 10
    assert first["calls_per_closure"] == round(first["calls"] / first["closures"], 1)
    # a closure factors H at least once, and optimize keeps its pattern
    # without np.unique
    assert first["splu"] >= first["closures"]
    assert first["ndarray.argsort"] > 0
    assert first["np.unique from PoseGraph.optimize"] == 0


def test_counts_do_not_depend_on_garbage_made_before(monkeypatch):
    # a collection inside a count would run the weakref callbacks of
    # garbage made before it, which are Python-level calls; the counted run
    # collects that garbage first and holds the collector off
    workcount = load_workcount(monkeypatch)

    class Node:
        pass

    registry = weakref.WeakValueDictionary()

    def run():  # enough live containers to start collections
        return [[] for _ in range(20000)]

    run()
    base = workcount.count_calls(run, 1)
    for i in range(5):
        node = Node()
        node.self = node
        registry[i] = node
    del node
    assert workcount.count_calls(run, 1) == base


def test_counts_a_set_up_identically_twice(monkeypatch):
    workcount = load_workcount(monkeypatch)
    workcount.count_setup("loop-noisy")  # warm-up: first-call caches
    (setup, first), (_, second) = (workcount.count_setup("loop-noisy") for _ in range(2))
    assert first == second > 0
    assert len(setup.pipe.cam_times) == len(camera_times(setup.data.config))
