"""The benchmark's run loop, result assembly and printing (see README.md).

Imported by ``run.py`` once the BLAS pools are pinned and ``src/`` is on the
path.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import hostspeed
import layers
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 5
WORKLOADS = ("loop-noisy", "blackout-reinit")


@dataclass
class Pass:
    vio: workloads.VioResult
    session: workloads.SessionResult
    checks: list

    def deterministic(self) -> tuple:
        v, s = self.vio, self.session
        return (v.digest, v.lost, tuple(sorted(v.accuracy.items())),
                s.digest, s.graph_ate_m, len(s.loop_ms))

    def wall_ms(self) -> float:
        """VIO plus session wall time; host-speed normalized when probed."""
        return float(np.sum(self.vio.frame_ms)) + self.session.wall_s_scaled * 1e3


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpus": os.cpu_count(),
    }


def percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else None


def run_pass(args, setup, tracer=None, normalize=False) -> Pass:
    vio = workloads.vio_pass(setup, tracer, normalize)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        session = workloads.graph_session(setup.session, workdir, args.seed, normalize)
    checks = workloads.vio_checks(args.workload, vio) + workloads.session_checks(session)
    return Pass(vio, session, checks)


def timed_setup(args, setup_s, setup_raw_s):
    """One set-up, its time scaled by the host speed probed just before."""
    speed = statistics.median(hostspeed.probe() for _ in range(3))
    setup = workloads.set_up(args.workload, args.scenario_seed)
    setup_raw_s.append(setup.seconds)
    setup_s.append(setup.seconds * hostspeed.REFERENCE_PROBE_MS / speed)
    return setup


def measure(args):
    """Timed passes with tracing off: the end-to-end metrics."""
    setup_s, setup_raw_s = [], []
    for _ in range(SETUP_REPS):
        setup = timed_setup(args, setup_s, setup_raw_s)
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(args, setup, normalize=True))
        now = time.perf_counter()
        if (now - start) + (now - t0) > args.seconds:  # the next pass would not fit
            break
        setup = timed_setup(args, setup_s, setup_raw_s)
    checks = [c for p in passes for c in p.checks]

    vio0, session0 = passes[0].vio, passes[0].session
    vios = [p.vio for p in passes]
    sessions = [p.session for p in passes]
    frames = sum(v.frames for v in vios)
    frame_ms = [ms for v in vios for ms in v.frame_ms]
    loop_ms = [ms for s in sessions for ms in s.loop_ms]
    acc = vio0.accuracy
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ms_per_frame": (sum(frame_ms) / frames, "ms"),
        "frame_ms_p50": (percentile(frame_ms, 50), "ms"),
        "frame_ms_p90": (percentile(frame_ms, 90), "ms"),
        "ate_m": (acc.get("ate_m"), "m"),
        "drift_pct": (acc.get("drift_pct"), "%"),
        "rate_ate_m": (acc.get("rate_ate_m"), "m"),
        "frames_lost_frac": (vio0.lost / vio0.frames, "ratio"),
        "session_s": (statistics.median(s.wall_s_scaled for s in sessions), "s"),
        "loop_close_ms_p50": (percentile(loop_ms, 50), "ms"),
        "loop_close_ms_p90": (percentile(loop_ms, 90), "ms"),
        "graph_ate_m": (session0.graph_ate_m, "m"),
    }
    raw_frame_ms = [ms for v in vios for ms in v.frame_ms_raw]
    raw_loop_ms = [ms for s in sessions for ms in s.loop_ms_raw]
    info = {
        "passes": len(passes),
        "probe_ms_median": statistics.median(p for v in vios for p in v.probe_ms),
        "reference_probe_ms": hostspeed.REFERENCE_PROBE_MS,
        "graph_probe_ms_median": statistics.median(p for s in sessions for p in s.probe_ms),
        "reference_graph_probe_ms": hostspeed.REFERENCE_GRAPH_PROBE_MS,
        "raw_setup_s": statistics.median(setup_raw_s),
        "raw_ms_per_frame": sum(v.wall_s for v in vios) * 1e3 / frames,
        "raw_frame_ms_p50_p90": (percentile(raw_frame_ms, 50), percentile(raw_frame_ms, 90)),
        "raw_session_s": statistics.median(s.wall_s for s in sessions),
        "raw_loop_close_ms_p50_p90": (percentile(raw_loop_ms, 50), percentile(raw_loop_ms, 90)),
        "frames": frames,
        "frame_samples": len(frame_ms),
        "loop_close_samples": len(loop_ms),
        "setup_samples": len(setup_s),
        "realtime_bar_ms": 1e3 / workloads.scenario_config(args.workload, args.scenario_seed).cam_rate,
        "run_counts": workloads.run_counts(vio0.report) if vio0.report else {"error": vio0.error},
        "odometry_ate_m": session0.odometry_ate_m,
    }
    return metrics, checks, passes, info


def measure_traced(args):
    """One untraced and one traced pass: the per-layer metrics. Both passes
    are host-speed normalized, so their difference is not the host's swing
    between them."""
    plain = run_pass(args, workloads.set_up(args.workload, args.scenario_seed), normalize=True)
    tracer = Tracer()
    with tracer.installed(layers.targets()):
        setups = [workloads.set_up(args.workload, args.scenario_seed) for _ in range(3)]
        traced = run_pass(args, setups[-1], tracer, normalize=True)
    checks = plain.checks + traced.checks
    checks.append(("traced and untraced passes are bit-identical",
                   traced.deterministic() == plain.deterministic(), ""))

    overhead_ms = traced.wall_ms() - plain.wall_ms()
    metrics = layers.layer_metrics(tracer, traced.vio.report, overhead_ms, plain.wall_ms())
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(trace_path)
    selfs = sorted(tracer.self_ms().items(), key=lambda kv: -kv[1])
    info = {"spans": len(tracer.spans), "trace_file": str(trace_path.relative_to(ROOT)),
            "self_ms": {k: round(v, 3) for k, v in selfs}}
    return metrics, checks, [plain, traced], info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the monovio estimator (see README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True,
                    help="draw for the graph session's downsampling")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scenario-seed", type=int, default=None,
                    help="override the workload's pinned scenario seed (held-out checks)")
    args = ap.parse_args(argv)
    if args.scenario_seed is None:
        args.scenario_seed = workloads.PINNED_SCENARIO_SEED

    if args.trace:
        metrics, checks, passes, info = measure_traced(args)
    else:
        metrics, checks, passes, info = measure(args)

    attempted = sum(p.vio.frames + p.session.calls for p in passes)
    # a frame counts as failed only when run() raised; frames_lost_frac
    # also counts the frames a working estimator leaves unpublished
    failed = sum((p.vio.lost if p.vio.error else 0) + p.session.failed for p in passes)
    correct = all(ok for _, ok, _ in checks)

    print(f"workload {args.workload}  scenario seed {args.scenario_seed}  seed {args.seed}  "
          f"trace {args.trace}")
    for key, value in environment().items():
        print(f"env {key} = {value}")
    for key, value in info.items():
        print(f"info {key} = {value}")
    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1
