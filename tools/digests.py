"""Output digests of the benchmark workloads, without timing.

    python3 tools/digests.py

Run from the root of a checkout; the program is imported from ``src/`` and
the workloads from ``perfbench/``. For each workload, on the pinned scenario
seed, one benchmark pass runs: a fresh set-up, the VIO pass, then the
pose-graph session. It prints the VIO digest (the published window and
IMU-rate poses and the run counts), the session digest (the optimized graph
vertices), ``run_counts`` and the ``repr`` of each accuracy value. Then it
prints one digest of a file-driven round trip: ``monovio simulate`` writes the
pinned ``loop-noisy`` scenario's files, ``monovio run`` reads ``imu.csv``,
``tracks.csv``, ``sfm.txt``, ``loops.txt`` and ``ground_truth.txt`` back, and
the digest hashes every file the two wrote, so a change to a reader or a
writer shows too. Two checkouts whose outputs are bit-identical print the
same lines, so comparing them is one ``diff``.
"""

import contextlib
import hashlib
import io
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
from monovio import cli, dataio  # noqa: E402

ROUND_TRIP_WORKLOAD = "loop-noisy"


def scenario_file(config) -> str:
    """A scenario file that ``monovio simulate`` reads back as config."""
    n, b = config.noise, config.bias0
    keys = dict(
        duration=config.duration, cam_rate=config.cam_rate, imu_rate=config.imu_rate,
        seed=config.seed, pixel_sigma_px=config.pixel_sigma_px, **config.traj,
        sigma_a=n.sigma_a[0], sigma_w=n.sigma_w[0], sigma_ba=n.sigma_ba[0],
        sigma_bw=n.sigma_bw[0], bias_a=", ".join(map(repr, b.accel.tolist())),
        bias_w=", ".join(map(repr, b.gyro.tolist())),
    )
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def round_trip_digest(scenario_seed: int) -> str:
    """SHA-256 over the names and bytes of the files that ``monovio
    simulate`` and then a file-driven ``monovio run`` write."""
    config = workloads.scenario_config(ROUND_TRIP_WORKLOAD, scenario_seed)
    with tempfile.TemporaryDirectory() as workdir:
        scenario, sim, out = (Path(workdir, name) for name in ("scenario.cfg", "sim", "out"))
        scenario.write_text(scenario_file(config))
        if repr(dataio.scenario_from_config(dataio.parse_config(scenario))) != repr(config):
            raise SystemExit("the scenario file does not reproduce the workload's scenario")
        inputs = [f"--{arg}={sim / name}" for arg, name in (
            ("imu", "imu.csv"), ("tracks", "tracks.csv"), ("sfm", "sfm.txt"),
            ("loops", "loops.txt"), ("gt", "ground_truth.txt"))]
        with contextlib.redirect_stdout(io.StringIO()):  # what they print, timings included
            for argv in (["simulate", f"--scenario={scenario}", f"--out-dir={sim}"],
                         ["run", f"--config={scenario}", *inputs, f"--out-dir={out}"]):
                if cli.main(argv):
                    raise SystemExit(f"monovio {argv[0]} failed in the round trip")
        h = hashlib.sha256()
        for path in sorted(sim.iterdir()) + sorted(out.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


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
    print(f"[file-round-trip {ROUND_TRIP_WORKLOAD}]")
    print(f"files_digest = {round_trip_digest(workloads.PINNED_SCENARIO_SEED)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
