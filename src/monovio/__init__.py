"""Monocular visual-inertial state estimation toolkit.

Submodules:
  geometry        quaternion / rotation / tangent-space utilities
  preintegration  IMU pre-integration with covariance and bias Jacobians
  initialization  loosely-coupled visual-inertial alignment
  estimator       tightly-coupled sliding-window MAP estimator
  posegraph       4-DOF pose graph with geometric loop verification
  simulator       synthetic scenario generator (trajectories, IMU, tracks, loops)
  dataio          text formats: IMU / track CSVs, trajectories, SfM poses, loops, configs
  pipeline        end-to-end batch runner and trajectory evaluation
  cli             command-line entry points
"""

__version__ = "0.1.0"
