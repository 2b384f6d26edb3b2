"""Scalar entanglement measures over an assembled eigenvalue table.

The Schmidt number K = 1 / sum(lambda^2) is the participation ratio of
the eigenvalue distribution and counts the effective number of entangled
mode pairs; the entropy is reported in bits. Both are computed on the
coverage-renormalized table, with the raw value alongside. Renormalizing
by the coverage would leave only a second-order truncation bias for a
table normalized on the truncated set. The pipeline's table is not: the
amplitude is normalized over every sector on the run's radial grid, so
the kept lambda are the true leading entries. The renormalized K then
errs by about 2 (1 - coverage) relative, while the raw K errs only at
second order. Every sum is a math.fsum.

K is also 1 / Tr rho^2 of the reduced state, and sum(lambda^2) is a sum
over sectors of P_m^2 ||M_m M_m||_F^2, so where K is the only output
(pipeline.schmidt_number_by_trace) it is taken without the table; the
coverage and K checks and the coverage warning below serve both ways.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "SchmidtNumber",
    "SchmidtSpectrum",
    "entanglement_entropy",
    "schmidt_number",
]

COVERAGE_WARN = 0.999
"""Below this captured probability the measures are flagged as biased."""


class SchmidtNumber(NamedTuple):
    """Participation ratio, raw and coverage-renormalized."""

    raw: float
    renormalized: float


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Global Schmidt eigenvalue table with its scalar measures.

    Attributes
    ----------
    entries : list of (n, m, lambda)
        Ordered by assemble_spectrum in tied runs. A run holds the
        entries within max(1e-9 lambda_head, 4 eps P_m) of its first
        and largest entry lambda_head, P_m the larger sector
        probability of the two; runs follow descending lambda, and
        within a run the order is (n, |m|, -m). lambda therefore
        descends down to the last row except inside a run, by at most
        its round-off or the 1e-9 gap of a degenerate pair. The (n, m)
        labels are retained from the sector decompositions and m
        appears with both signs.
    coverage : float
        Sum of the table, i.e. the captured probability.
    k_raw : float
        1 / sum(lambda^2) on the table as is.
    k : float
        Participation ratio of the renormalized table; equals
        k_raw * coverage^2 exactly.
    entropy : float
        Entropy of the renormalized table, in bits.
    p_m_table : dict
        Sector probabilities P_m keyed by m >= 0 (stored per signed m).
    """

    entries: list[tuple[int, int, float]] = field(repr=False)
    coverage: float
    k_raw: float
    k: float
    entropy: float
    p_m_table: dict[int, float] = field(repr=False)

    def __post_init__(self):
        _check_coverage_and_k(self.coverage, self.k)
        if self.entropy < -1e-12:
            raise ValueError("negative entropy")

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([entry[2] for entry in self.entries])


def _check_coverage_and_k(coverage: float, k: float) -> None:
    """Reject a coverage above unity or a renormalized K below 1.

    SchmidtSpectrum checks its own fields with it, and so does a Schmidt
    number computed without a table.
    """
    if coverage > 1.0 + 1e-6:
        raise ValueError("coverage exceeds unity beyond tolerance")
    if k < 1.0 - 1e-9:
        raise ValueError("Schmidt number below 1")


def _warn_low_coverage(coverage: float) -> None:
    """Warn, at the caller's caller, when the coverage is below 0.999."""
    if coverage < COVERAGE_WARN:
        warnings.warn(
            f"truncation coverage {coverage:.6f} below {COVERAGE_WARN}; "
            "measures may be biased",
            stacklevel=3,
        )


def _checked_lambdas(lams) -> np.ndarray:
    arr = np.asarray(lams, dtype=float).ravel()
    if arr.size == 0 or not np.any(arr > 0.0):
        raise ValueError("eigenvalue table is empty or all zero")
    if np.any(arr < 0.0):
        raise ValueError("negative Schmidt eigenvalue")
    return arr


def schmidt_number(lams) -> SchmidtNumber:
    """Participation ratio of an eigenvalue table.

    Returns both the raw value 1 / sum(lambda^2) and the renormalized
    value (sum lambda)^2 / sum(lambda^2), which is the participation
    ratio of the unit-trace table lambda / coverage. Warns when the
    coverage is below 0.999.
    """
    arr = _checked_lambdas(lams)
    coverage = math.fsum(arr)
    _warn_low_coverage(coverage)
    power = math.fsum(arr * arr)
    return SchmidtNumber(raw=1.0 / power, renormalized=coverage * coverage / power)


def entanglement_entropy(lams) -> float:
    """Entropy in bits of the coverage-renormalized eigenvalue table.

    Zero eigenvalues contribute nothing (0 log 0 := 0).
    """
    arr = _checked_lambdas(lams)
    p = arr[arr > 0.0] / math.fsum(arr)
    return -math.fsum(p * np.log2(p))

