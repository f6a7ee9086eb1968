"""Monocular visual-inertial state estimation toolkit.

Submodules:
  geometry        quaternion / rotation / tangent-space utilities
  preintegration  IMU pre-integration with covariance and bias Jacobians
  initialization  loosely-coupled visual-inertial alignment
  estimator       tightly-coupled sliding-window MAP estimator
  posegraph       4-DOF pose graph with geometric loop verification
  simulator       synthetic scenario generator (trajectories, IMU, observations
                  by camera time, loops)
  dataio          text formats: IMU / observation CSVs, trajectories, SfM poses, loops, configs
  pipeline        end-to-end batch runner and trajectory evaluation
  cli             command-line entry points

The BLAS and OpenMP pools run one thread. Importing this package sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to "1", over any
inherited value, because the rounding of a BLAS product depends on how its
work is split: a run writes the same bytes only at a fixed thread count. The
pools read the variables when numpy (or scipy) first loads, so a caller that
imported numpy before this package keeps the count it started with, and is
warned (UserWarning) unless each variable already read "1".
"""

import os
import sys
import warnings

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and any(os.environ.get(var) != "1" for var in _BLAS_THREADS):
    warnings.warn("numpy was imported before monovio with its BLAS thread count not pinned to 1, "
                  "so outputs may depend on it and a solve may wait on scipy's pool", UserWarning)
for _var in _BLAS_THREADS:
    os.environ[_var] = "1"

__version__ = "0.1.0"
