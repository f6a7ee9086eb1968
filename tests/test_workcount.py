"""tools/workcount.py: call counts of a pass and of a pose-graph session
are exact and repeat."""

import importlib.util
import os
import sys
from pathlib import Path

from monovio.pipeline import PipelineConfig, pipeline_from_scenario
from monovio.simulator import ScenarioConfig, build_scenario, camera_times

TOOL = Path(__file__).resolve().parent.parent / "tools" / "workcount.py"


def load_workcount(monkeypatch):
    # the tool prepends src/ and perfbench/ to sys.path and pins BLAS threads
    # in os.environ; both are restored after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
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
    assert bindings == {(m.__name__, name): v for m in workcount.PACKAGE_MODULES
                        for name, v in vars(m).items() if callable(v)}
    # the frame's path is integrated once: by integrate_segment, not again
    # by forward propagation
    counts = workcount.count_calls(fresh_run(), len(camera_times(cfg)))
    assert counts["monovio.preintegration.midpoint_path"] == counts[
        "monovio.preintegration._transition_batch"] == first[
        "monovio.preintegration.midpoint_path calls"]


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
