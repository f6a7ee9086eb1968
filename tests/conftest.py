"""Tier-1 runs under the package's BLAS thread pin: this import comes before
any test module loads numpy, so the pools start with the one thread count
that the program's outputs are checked at."""

import os

import monovio


def pytest_report_header():
    return f"monovio {monovio.__version__}: OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"
