"""Which public entry points a traced pass wraps, and the per-layer metrics
computed from the spans they record.

Functions that ``pipeline.py`` imports by name are wrapped at
``monovio.pipeline.<name>``; methods are wrapped on their class.
"""

from __future__ import annotations

import numpy as np

from monovio import pipeline, posegraph, simulator
from monovio.estimator import SlidingWindowEstimator

import workloads
from tracing import FRAME, Tracer


def _window_dim(est, *args, **kwargs):
    """Window problem size: 15 per frame, 6 extrinsic, one inverse depth per
    optimized feature (a depth and two window observations, capped)."""
    ids = set(est.frame_ids)
    feats = sum(
        1 for f in est.features.values()
        if f.inv_depth is not None and sum(1 for k in f.obs if k in ids) >= 2
    )
    return {"dim": 15 * len(est.frames) + 6 + min(feats, est.config.max_features)}


def _slide_kind(est, *args, **kwargs):
    # a full window marginalizes its oldest frame when the newest is a keyframe
    full = len(est.frames) == est.capacity
    kind = "marginalize" if full and est.keyframe_flags[-1] else "drop"
    return f"estimator.add_frame.{kind}"


def targets():
    """(owner, attribute, span name, before, after) for every wrapped call."""
    P, G, D, E = pipeline, posegraph.PoseGraph, pipeline.GraphDriver, SlidingWindowEstimator
    return [
        (simulator, "build_scenario", "simulator.build_scenario", None, None),
        (P, "pipeline_from_scenario", "pipeline.pipeline_from_scenario", None, None),
        (P.VioPipeline, "run", "pipeline.VioPipeline.run", None, None),
        (P, "segment_samples", "preintegration.segment_samples", None, None),
        (P, "integrate_segment", "preintegration.integrate_segment",
         lambda seg, *a, **k: {"samples": len(seg)}, None),
        (P, "imu_forward_propagate", "estimator.imu_forward_propagate",
         lambda state, seg, *a, **k: {"samples": len(seg)}, None),
        (P, "excitation_gates", "initialization.excitation_gates",
         None, lambda ok, *a, **k: {"passed": bool(ok)}),
        (P, "run_alignment", "initialization.run_alignment", None, None),
        (P, "verify_loop_candidate", "posegraph.verify_loop_candidate",
         None, lambda res, *a, **k: {"accepted": res is not None}),
        (E, "add_frame", _slide_kind, None, None),
        (E, "triangulate_new_features", "estimator.triangulate_new_features",
         None, lambda n, *a, **k: {"added": n}),
        (E, "build_and_solve", "estimator.build_and_solve", _window_dim,
         lambda rep, *a, **k: {"iterations": rep.iterations, "termination": rep.termination}),
        (D, "submit_vertex", "pipeline.GraphDriver.submit_vertex", None, None),
        (D, "submit_loop_edge", "pipeline.GraphDriver.submit_loop_edge", None, None),
        (D, "finish", "pipeline.GraphDriver.finish", None, None),
        (G, "add_keyframe", "posegraph.PoseGraph.add_keyframe", None, None),
        (G, "optimize", "posegraph.PoseGraph.optimize",
         lambda g, *a, **k: {"vertices": len(g)},
         lambda res, *a, **k: {"iterations": res["iterations"]}),
        (G, "downsample", "posegraph.PoseGraph.downsample", None, None),
        (G, "save", "posegraph.PoseGraph.save", None, None),
        (G, "load", "posegraph.PoseGraph.load", None, None),
    ]


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, report, overhead_ms: float, untraced_ms: float) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    out = {}
    selfs = tracer.self_ms()

    def totals(name):
        spans = tracer.by_name(name)
        ms = [s.ms for s in spans]
        out[f"{name}.calls"] = (len(spans), "count")
        out[f"{name}.ms_total"] = (float(sum(ms)), "ms")
        return spans, ms

    def per_sample(name):
        spans, ms = totals(name)
        n = sum(s.attrs["samples"] for s in spans)
        out[f"{name}.us_per_sample"] = (_frac(sum(ms) * 1e3, n), "us")

    spans, ms = totals("estimator.build_and_solve")
    its = [s.attrs.get("iterations", 0) for s in spans]
    out["estimator.build_and_solve.ms_p50"] = (float(np.percentile(ms, 50)) if ms else 0.0, "ms")
    out["estimator.build_and_solve.ms_p90"] = (float(np.percentile(ms, 90)) if ms else 0.0, "ms")
    out["estimator.build_and_solve.iterations_mean"] = (float(np.mean(its)) if its else 0.0, "count")
    capped = sum(1 for s in spans if s.attrs.get("termination") == "max_iterations")
    out["estimator.build_and_solve.max_iter_frac"] = (_frac(capped, len(spans)), "ratio")
    out["estimator.build_and_solve.dim_mean"] = (
        float(np.mean([s.attrs["dim"] for s in spans])) if spans else 0.0, "count")

    totals("estimator.add_frame.marginalize")
    totals("estimator.add_frame.drop")
    spans, _ = totals("estimator.triangulate_new_features")
    out["estimator.triangulate_new_features.added"] = (
        sum(s.attrs.get("added", 0) for s in spans), "count")
    per_sample("estimator.imu_forward_propagate")
    per_sample("preintegration.integrate_segment")
    totals("preintegration.segment_samples")

    spans, _ = totals("initialization.run_alignment")
    out["initialization.run_alignment.failed"] = (
        sum(1 for s in spans if "error" in s.attrs), "count")
    gates = tracer.by_name("initialization.excitation_gates")
    out["initialization.excitation_gates.pass_frac"] = (
        _frac(sum(1 for s in gates if s.attrs.get("passed")), len(gates)), "ratio")

    spans, _ = totals("posegraph.verify_loop_candidate")
    out["posegraph.verify_loop_candidate.accept_frac"] = (
        _frac(sum(1 for s in spans if s.attrs.get("accepted")), len(spans)), "ratio")

    spans, ms = totals("posegraph.PoseGraph.optimize")
    out["posegraph.PoseGraph.optimize.ms_per_vertex"] = (
        _frac(sum(ms), sum(s.attrs["vertices"] for s in spans)), "ms")
    out["posegraph.PoseGraph.optimize.iterations_mean"] = (
        float(np.mean([s.attrs.get("iterations", 0) for s in spans])) if spans else 0.0, "count")
    adds = [s.ms for s in tracer.by_name("posegraph.PoseGraph.add_keyframe")]
    out["posegraph.PoseGraph.add_keyframe.us_per_call"] = (
        float(np.mean(adds)) * 1e3 if adds else 0.0, "us")
    out["posegraph.PoseGraph.downsample.ms_total"] = (
        sum(s.ms for s in tracer.by_name("posegraph.PoseGraph.downsample")), "ms")
    for op in ("save", "load"):
        out[f"posegraph.PoseGraph.{op}.ms"] = (
            sum(s.ms for s in tracer.by_name(f"posegraph.PoseGraph.{op}")), "ms")
    out["pipeline.GraphDriver.submit_loop_edge.self_ms"] = (
        selfs.get("pipeline.GraphDriver.submit_loop_edge", 0.0), "ms")

    out["pipeline.VioPipeline.run.self_ms"] = (selfs.get("pipeline.VioPipeline.run", 0.0), "ms")
    out["pipeline.frame.self_ms"] = (selfs.get(FRAME, 0.0), "ms")
    counts = {} if report is None else workloads.run_counts(report)
    for key in ("failures", "segments", "loop_candidates", "loop_verified", "loop_edges"):
        out[f"pipeline.RunReport.{key}"] = (counts.get(key, 0), "count")

    for name in ("simulator.build_scenario", "pipeline.pipeline_from_scenario"):
        ms = [s.ms for s in tracer.by_name(name)]
        out[f"{name}.ms"] = (float(np.median(ms)) if ms else 0.0, "ms")

    out["trace.overhead_ms"] = (overhead_ms, "ms")
    out["trace.overhead_frac"] = (_frac(overhead_ms, untraced_ms), "ratio")
    out["trace.wrapper_ms"] = (tracer.wrapper_cost_ms(), "ms")
    return out
