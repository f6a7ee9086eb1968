"""Benchmark of the monovio estimator: one command, one workload per run.

    python3 perfbench/run.py --workload loop-noisy --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each pass sets up the workload, runs the VIO pipeline over the whole scenario
and then replays the pose-graph session. Passes repeat while another one fits
in ``--seconds`` (at least one). ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs one untraced and one traced pass and prints the per-layer
metrics. The last line of stdout is the JSON result. See README.md.
"""

import os
import sys
from pathlib import Path

# pin the BLAS/OpenMP pools before numpy loads: the accuracy figures are
# bit-stable only with a fixed thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "monovio" / "__init__.py").is_file():
        sys.exit("perfbench: no program under src/monovio in this checkout")
    sys.path.insert(0, str(SRC))
    import monovio

    if Path(monovio.__file__).resolve().parent != (SRC / "monovio").resolve():
        sys.exit("perfbench: monovio was imported from outside this checkout")
    import bench

    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
