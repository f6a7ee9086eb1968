"""Output digests of the benchmark workloads, without timing.

    python3 tools/digests.py

Run from the root of a checkout; the program is imported from ``src/`` and
the workloads from ``perfbench/``. For each workload, on the pinned scenario
seed, one benchmark pass runs: a fresh set-up, the VIO pass, then the
pose-graph session. It prints the VIO digest (the published window and
IMU-rate poses and the run counts), the session digest (the optimized graph
vertices), ``run_counts`` and the ``repr`` of each accuracy value. Two checkouts whose
outputs are bit-identical print the same lines, so comparing them is one
``diff``.
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

# first: importing monovio pins the BLAS pools to one thread before numpy loads
import monovio  # noqa: E402,F401
import bench  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    for workload in bench.WORKLOADS:
        setup = workloads.set_up(workload, workloads.PINNED_SCENARIO_SEED)
        vio = workloads.vio_pass(setup)
        with tempfile.TemporaryDirectory() as workdir:
            session = workloads.graph_session(setup.session, workdir, downsample_seed=1)
        print(f"[{workload}]")
        if vio.report is None:
            print(f"vio_error = {vio.error}")
        else:
            print(f"vio_digest = {vio.digest}")
            print(f"run_counts = {workloads.run_counts(vio.report)!r}")
        for name, value in sorted(vio.accuracy.items()):
            print(f"{name} = {value!r}")
        print(f"session_digest = {session.digest}")
        print(f"graph_ate_m = {session.graph_ate_m!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
