"""The benchmark's traced pass wraps program entry points by name and reads
span attributes from their arguments. These tests fail when a refactor
renames a wrapped entry point or reorders its arguments."""

from pathlib import Path

import numpy as np

from monovio import geometry as geo
from monovio import pipeline
from monovio.estimator import ImuFrameState
from monovio.preintegration import ImuSample

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
    state = ImuFrameState(0.0, np.zeros(3), q, np.array([0.2, 0.0, 0.1]))
    samples = [ImuSample(0.005 * k, [0.1, 0.2, 9.8], [0.3, -0.1, 0.2]) for k in range(9)]

    tracer = tracing.Tracer()
    with tracer.installed(targets):
        out = pipeline.imu_forward_propagate(state, samples, g)

    assert len(out) == len(samples) - 1
    spans = tracer.by_name("estimator.imu_forward_propagate")
    assert len(spans) == 1
    assert spans[0].attrs == {"samples": len(samples)}
    for owner, attr, raw in originals:
        assert _current(owner, attr) is raw


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
