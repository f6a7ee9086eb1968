"""Minor page faults of the process over loop-noisy VIO passes.

    python3 tools/pass_faults.py [--passes 3] [--scenario-seed 3]

Run from the root of a checkout; the program is imported from ``src/`` and
the workload from ``perfbench/``. Each pass runs as a benchmark pass does: a
fresh set-up, the VIO pass, then the pose-graph session. The faults are
``getrusage().ru_minflt`` read just before and just after
``workloads.vio_pass``. A fault here is the kernel mapping a page the
process touches for the first time, which happens when the allocator takes
memory from the system again after giving it back.

The first pass measures the heap's warm-up: the process's first use of its
heap, which spreads by tens of thousands of faults between processes of one
program. So it is reported on its own (``first_minflt``), and the steady
figure is the median over passes 2..n (``steady_minflt``, null with one
pass), which is what an allocation change moves. The last line of stdout is
the JSON result.
"""

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

# first: importing monovio pins the BLAS pools to one thread before numpy loads
import monovio  # noqa: E402,F401
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--scenario-seed", type=int, default=workloads.PINNED_SCENARIO_SEED)
    args = ap.parse_args()
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    passes = []
    for _ in range(args.passes):
        setup = workloads.set_up("loop-noisy", args.scenario_seed)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        res = workloads.vio_pass(setup)
        wall = time.perf_counter() - t0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        passes.append({"minflt": faults, "wall_s": wall, "ate_m": res.accuracy.get("ate_m")})
        with tempfile.TemporaryDirectory() as workdir:
            workloads.graph_session(setup.session, workdir, downsample_seed=1)
        print(f"pass {len(passes)}: {faults} minor faults, {wall:.2f} s, "
              f"ate {res.accuracy.get('ate_m')}")
    steady = [p["minflt"] for p in passes[1:]]
    print(json.dumps({
        "scenario_seed": args.scenario_seed,
        "first_minflt": passes[0]["minflt"],
        "steady_minflt": statistics.median(steady) if steady else None,
        "passes": passes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
