"""The benchmark's traced pass wraps program entry points by name and reads
span attributes from their arguments. These tests fail when a refactor
renames a wrapped entry point or reorders its arguments."""

from pathlib import Path

import numpy as np

from monovio import geometry as geo
from monovio import pipeline
from monovio.estimator import _WindowProblem
from monovio.preintegration import (
    BiasState,
    FrameStates,
    ImuSamples,
    integrate_segment,
    segment_samples,
)
from monovio.simulator import ScenarioConfig, build_scenario, camera_times
from test_estimator import MODEL_NOISE, seeded_estimator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_forward_propagation_span_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing

    targets = layers.targets()
    originals = [(owner, attr, _current(owner, attr)) for owner, attr, *_ in targets]
    g = np.array([0.0, 0.0, 9.81])
    q = geo.quat_exp([0.1, -0.2, 0.3])
    state = FrameStates(0.0, np.zeros(3), q, np.array([0.2, 0.0, 0.1]), np.zeros(3), np.zeros(3))
    samples = ImuSamples(0.005 * np.arange(9), np.tile([0.1, 0.2, 9.8], (9, 1)),
                         np.tile([0.3, -0.1, 0.2], (9, 1)))

    tracer = tracing.Tracer()
    with tracer.installed(targets):
        t, p, q, v = pipeline.imu_forward_propagate(state, samples, g)

    assert len(t) == len(p) == len(q) == len(v) == len(samples) - 1
    spans = tracer.by_name("estimator.imu_forward_propagate")
    assert len(spans) == 1
    assert spans[0].attrs == {"samples": len(samples)}
    for owner, attr, raw in originals:
        assert _current(owner, attr) is raw


def test_window_hooks_read_a_seeded_estimator(monkeypatch):
    """The traced pass reads the window's size and slide kind from the
    estimator's attributes (`layers._window_dim`, `layers._slide_kind`). On
    a seeded window, before and after the slide that each keyframe choice
    of the newest frame leads to, the size is the loop-free window
    problem's dimension, and the slide kind is the one that add_frame
    takes."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    cfg = ScenarioConfig(duration=4.0, cam_rate=5.0, seed=10)
    data = build_scenario(cfg)
    all_cam = camera_times(cfg)
    seg = segment_samples(data.imu, all_cam[10], all_cam[11])
    for newest_is_keyframe in (True, False):
        est, _ = seeded_estimator(cfg, data)
        est.build_and_solve()
        est.keyframe_flags[-1] = newest_is_keyframe
        assert layers._window_dim(est) == {
            "dim": _WindowProblem(est, est._optimized_features(), []).dim}
        assert len(est.frames) == est.capacity
        kind = layers._slide_kind(est)
        oldest, newest = est.frame_ids[0], est.frame_ids[-1]
        est.add_frame(all_cam[11], integrate_segment(seg, BiasState(), MODEL_NOISE),
                      data.observations(all_cam[11]), is_keyframe=True)
        est.triangulate_new_features()
        if newest_is_keyframe:
            assert kind == "estimator.add_frame.marginalize"
            assert oldest not in est.frame_ids and est.prior is not None
        else:
            assert kind == "estimator.add_frame.drop"
            assert oldest in est.frame_ids and newest not in est.frame_ids
        assert layers._window_dim(est) == {
            "dim": _WindowProblem(est, est._optimized_features(), []).dim}


def test_graph_session_runs_on_the_driver_api(monkeypatch, tmp_path):
    """The benchmark's graph session drives `pipeline.GraphDriver` through
    the calls `VioPipeline` makes; a small session must run without a failed
    call and save a graph that loads back unchanged."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    n = 30
    th = 2 * np.pi * np.arange(n) / (n - 1)  # one lap: the last keyframe revisits the first
    t = 0.4 * np.arange(n)
    p_gt = np.stack([np.cos(th), np.sin(th), 0.1 * np.sin(2 * th)], axis=1)
    rpy = np.stack([0.05 * np.sin(th), 0.04 * np.cos(th), geo.wrap_angle(th + np.pi / 2)], axis=1)
    drift = 0.01 * np.arange(n)
    p_odo = p_gt + drift[:, None] * np.array([1.0, -0.5, 0.2])
    yaw_odo = geo.wrap_angle(rpy[:, 2] + 0.2 * drift)
    R_0 = geo.rot_zyx(*rpy[0])
    loops = {n - 1: (0, R_0.T @ (p_gt[-1] - p_gt[0]), geo.wrap_angle(rpy[-1, 2] - rpy[0, 2]))}
    inputs = workloads.SessionInputs(t, p_gt, rpy, p_odo, yaw_odo, loops)

    res = workloads.graph_session(inputs, tmp_path, 0)
    assert res.calls > n
    assert res.failed == 0, res.errors
    assert res.roundtrip_ok
    assert res.graph_ate_m < res.odometry_ate_m
