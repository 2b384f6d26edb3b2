"""Process set-up shared by every perfbench entry point.

Pins the BLAS/OpenMP pools to one thread before NumPy is first imported
and puts the checkout's ``src/`` first on ``sys.path``, so the benchmark
always measures the source tree it ships with and never an installed
copy. Import this module before anything that imports NumPy.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
"""Threads per BLAS/OpenMP pool; sweep workers add their own threads."""

BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
"""Root of the checkout: the directory holding ``perfbench/`` and ``src/``."""

SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
"""Scratch space for CLI outputs and trace dumps; ignored by git."""


class MissingSource(RuntimeError):
    """The checkout does not contain the package under test."""


def prepare() -> None:
    """Pin thread pools and make ``src/biphoton`` importable."""
    if "numpy" in sys.modules:
        raise RuntimeError("bootstrap.prepare() must run before NumPy is imported")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    add_source_path()


def add_source_path() -> None:
    """Put ``src/`` first on sys.path.

    Raises MissingSource when the package source is absent, before any
    result can be printed.
    """
    if not os.path.isfile(os.path.join(SRC, "biphoton", "__init__.py")):
        raise MissingSource(f"no biphoton package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def check_imported_from_source(module) -> None:
    """Refuse to measure a package that was not imported from ``src/``."""
    origin = os.path.abspath(module.__file__)
    if not origin.startswith(SRC + os.sep):
        raise MissingSource(f"biphoton imported from {origin}, not from {SRC}")
