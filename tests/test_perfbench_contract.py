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
