"""Command-line entry points: scenario generation, pipeline runs, trajectory
evaluation, and pose-graph maintenance."""

from __future__ import annotations

import argparse
import os
import sys

from . import dataio
from .estimator import EstimatorConfig, SolverConfig
from .pipeline import (
    PipelineConfig,
    RunReport,
    VioPipeline,
    evaluate_ate,
    pipeline_from_scenario,
)
from .posegraph import PoseGraph, PoseGraphConfig, PoseGraphError
from .preintegration import NoiseParams
from .simulator import build_scenario, camera_times, synthesize_loops


def _pipeline_config(cfg: dict, args) -> PipelineConfig:
    est = EstimatorConfig()
    for key, attr in (
        ("window_size", "window_size"),
        ("max_features", "max_features"),
        ("parallax_px", "parallax_px"),
        ("min_tracked", "min_tracked"),
        ("optimize_extrinsic", "optimize_extrinsic"),
        ("pixel_sigma_px", "pixel_sigma"),
        ("focal", "focal"),
    ):
        if key in cfg:
            setattr(est, attr, cfg[key])
    if "solver_max_iterations" in cfg:
        est.solver = SolverConfig(max_iterations=cfg["solver_max_iterations"])
    graph = PoseGraphConfig()
    if "min_loop_inliers" in cfg:
        graph.min_inliers = cfg["min_loop_inliers"]
    if "edge_fanout" in cfg:
        graph.edge_fanout = cfg["edge_fanout"]
    # the estimator's assumed densities: scenario values floored to stay
    # physically meaningful even for noise-free simulation
    model = NoiseParams(
        max(cfg.get("est_sigma_a", cfg.get("sigma_a", 0.0)), 2e-3),
        max(cfg.get("est_sigma_w", cfg.get("sigma_w", 0.0)), 2e-5),
        max(cfg.get("est_sigma_ba", cfg.get("sigma_ba", 0.0)), 1e-6),
        max(cfg.get("est_sigma_bw", cfg.get("sigma_bw", 0.0)), 1e-7),
    )
    pc = PipelineConfig(estimator=est, model_noise=model, graph=graph)
    if "init_window" in cfg:
        pc.init_window = cfg["init_window"]
    if "graph_capacity" in cfg:
        pc.graph_capacity = cfg["graph_capacity"]
    if "align_count" in cfg:
        pc.align_count = cfg["align_count"]
    pc.enable_loops = not (cfg.get("disable_loop", False) or args.disable_loop)
    pc.test_mode = cfg.get("test_mode", True) if args.test_mode is None else args.test_mode
    return pc


def _write_outputs(out_dir, report: RunReport, graph: PoseGraph | None, test_mode: bool):
    os.makedirs(out_dir, exist_ok=True)
    if report.window_times is not None:
        dataio.write_trajectory(
            os.path.join(out_dir, "traj_window.txt"),
            report.window_times, report.window_p, report.window_q,
        )
    if report.rate_times is not None:
        dataio.write_trajectory(
            os.path.join(out_dir, "traj_imu_rate.txt"),
            report.rate_times, report.rate_p, report.rate_q,
        )
    if graph is not None and len(graph):
        graph.save(os.path.join(out_dir, "pose_graph.txt"))
    # wall-clock timings are nondeterministic; in test mode they go to stdout
    # only, so report files from identical runs are bit-identical
    lines = report.lines(include_timings=not test_mode)
    with open(os.path.join(out_dir, "report.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    if test_mode:
        for k in sorted(report.timings):
            print("timing_%s = %.3f" % (k, report.timings[k]))


def cmd_simulate(args) -> int:
    cfg_dict = dataio.parse_config(args.scenario)
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    scenario = dataio.scenario_from_config(cfg_dict)
    data = build_scenario(scenario)
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    dataio.write_imu_csv(os.path.join(out, "imu.csv"), data.imu)
    dataio.write_tracks_csv(os.path.join(out, "tracks.csv"), data.observations)
    dataio.write_sfm_poses(os.path.join(out, "sfm.txt"), data.sfm)
    gt = data.ground_truth
    dataio.write_trajectory(os.path.join(out, "ground_truth.txt"), gt.t, gt.p, gt.q)
    loops = synthesize_loops(gt, camera_times(scenario), scenario.seed)
    dataio.write_loops(os.path.join(out, "loops.txt"), loops)
    print(f"wrote imu.csv tracks.csv sfm.txt ground_truth.txt loops.txt to {out}")
    return 0


def cmd_run(args) -> int:
    if args.scenario:
        cfg_dict = dataio.parse_config(args.scenario)
        if args.seed is not None:
            cfg_dict["seed"] = args.seed
        scenario = dataio.scenario_from_config(cfg_dict)
        pc = _pipeline_config(cfg_dict, args)
        data = build_scenario(scenario)
        pipe = pipeline_from_scenario(data, pc)
        gt = data.ground_truth
        gt_times, gt_p = gt.t, gt.p
    else:
        if not (args.imu and args.tracks):
            print("run: need --scenario or both --imu and --tracks", file=sys.stderr)
            return 2
        cfg_dict = dataio.parse_config(args.config) if args.config else {}
        pc = _pipeline_config(cfg_dict, args)
        imu = dataio.read_imu_csv(args.imu)
        observations = dataio.read_tracks_csv(args.tracks)
        sfm = dataio.read_sfm_poses(args.sfm) if args.sfm else []
        loops = dataio.read_loops(args.loops) if args.loops else []
        cfg_for_ext = dataio.scenario_from_config(cfg_dict)
        pipe = VioPipeline(
            imu, observations.times(), observations, sfm, cfg_for_ext.extrinsic, pc,
            loop_candidates=loops,
            seed=args.seed if args.seed is not None else cfg_dict.get("seed", 0),
        )
        gt_times = gt_p = None
        if args.gt:
            gt_times, gt_p, _ = dataio.read_trajectory(args.gt)
    report = pipe.run()
    if gt_times is not None and report.window_times is not None:
        res = evaluate_ate(
            report.window_times, report.window_p, gt_times, gt_p,
            "4dof", pc.align_count,
        )
        report.ate_rmse = res["rmse"]
        report.final_drift = res["final_drift"]
        report.drift_pct = res["drift_pct"]
        report.path_length = res["path_length"]
    _write_outputs(args.out_dir, report, pipe.graph, pc.test_mode)
    print("\n".join(report.lines(include_timings=False)))
    return 0


def cmd_eval(args) -> int:
    et, ep, _ = dataio.read_trajectory(args.estimate)
    gt_times, gt_p, _ = dataio.read_trajectory(args.gt)
    res = evaluate_ate(et, ep, gt_times, gt_p, args.mode, args.align)
    print("rmse = %.9g" % res["rmse"])
    print("final_drift = %.9g %.9g %.9g" % tuple(res["final_drift"]))
    print("drift_pct = %.9g" % res["drift_pct"])
    print("path_length = %.9g" % res["path_length"])
    return 0


def cmd_posegraph(args) -> int:
    graph = PoseGraph.load(args.input)
    if args.optimize:
        info = graph.optimize()
        print(f"optimize: {info['termination']} after {info['iterations']} iterations")
    if args.capacity is not None:
        removed = graph.downsample(args.capacity, seed=args.seed or 0)
        print(f"downsampled: removed {removed} vertices, {len(graph)} remain")
    graph.save(args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="monovio", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="generate scenario CSV/track/loop files")
    ps.add_argument("--scenario", required=True, help="key = value scenario config")
    ps.add_argument("--out-dir", required=True)
    ps.add_argument("--seed", type=int, default=None)
    ps.set_defaults(func=cmd_simulate)

    pr = sub.add_parser("run", help="run the full pipeline")
    pr.add_argument("--scenario", help="scenario config (simulator-driven run)")
    pr.add_argument("--config", help="pipeline config for file-driven runs")
    pr.add_argument("--imu", help="IMU CSV (timestamp_ns, wx..wz, ax..az)")
    pr.add_argument("--tracks", help="observations CSV (timestamp_ns, feature_id, ux..uz)")
    pr.add_argument("--sfm", help="up-to-scale pose file for initialization")
    pr.add_argument("--loops", help="loop-candidate file")
    pr.add_argument("--gt", help="ground-truth trajectory for metrics")
    pr.add_argument("--out-dir", required=True)
    pr.add_argument("--seed", type=int, default=None)
    pr.add_argument("--disable-loop", action="store_true")
    pr.add_argument("--test-mode", action=argparse.BooleanOptionalAction, default=None)
    pr.set_defaults(func=cmd_run)

    pe = sub.add_parser("eval", help="trajectory error against ground truth")
    pe.add_argument("--estimate", required=True)
    pe.add_argument("--gt", required=True)
    pe.add_argument("--mode", choices=["4dof", "6dof"], default="4dof")
    pe.add_argument("--align", type=int, default=150)
    pe.set_defaults(func=cmd_eval)

    pg = sub.add_parser("posegraph", help="optimize / downsample a saved graph")
    pg.add_argument("--input", required=True)
    pg.add_argument("--output", required=True)
    pg.add_argument("--optimize", action="store_true")
    pg.add_argument("--capacity", type=int, default=None)
    pg.add_argument("--seed", type=int, default=None)
    pg.set_defaults(func=cmd_posegraph)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (dataio.FormatError, PoseGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
