"""Accuracy, failures and solver work of the VIO pass over scenario seeds,
without timing.

    python3 tools/seed_sweep.py

Run from the root of a checkout; the program is imported from ``src/`` and
the workloads from ``perfbench/``. For each workload and each scenario seed
of SCENARIO_SEEDS (the benchmark pins seed 3; the others are held out), one
VIO pass runs on a fresh set-up. One line per pass gives ``ate_m``,
``drift_pct`` and ``rate_ate_m`` as the benchmark computes them, the failure
events (time and reason), the camera frames without a published pose, the
solves with their Gauss-Newton iterations and how many stopped at
``max_iterations``, and the marginalized keyframes, verified loops and loop
edges of ``workloads.run_counts``. The pose-graph session is not run. The
output is deterministic, so comparing two checkouts is one ``diff``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

# first: importing monovio pins the BLAS pools to one thread before numpy loads
import monovio  # noqa: E402,F401
import bench  # noqa: E402
import workloads  # noqa: E402

SCENARIO_SEEDS = (1, 2, 3, 4, 5, 7)


def main() -> int:
    for workload in bench.WORKLOADS:
        for seed in SCENARIO_SEEDS:
            vio = workloads.vio_pass(workloads.set_up(workload, seed))
            line = f"{workload} seed={seed}"
            if vio.report is None:
                print(f"{line} error={vio.error}")
                continue
            rep = vio.report
            counts = workloads.run_counts(rep)
            for name, value in sorted(vio.accuracy.items()):
                line += f" {name}={value:.6g}"
            failures = ",".join(f"{t:.1f}:{reason}" for t, reason in rep.failure_events)
            print(f"{line} failures=[{failures}] lost={vio.lost}/{vio.frames}"
                  f" solves={rep.n_solves} iterations={rep.n_iterations}"
                  f" capped={rep.n_capped_solves} keyframes={counts['keyframes']}"
                  f" loop_verified={counts['loop_verified']} loop_edges={counts['loop_edges']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
