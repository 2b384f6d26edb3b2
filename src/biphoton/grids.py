"""Quadrature grids for the radial and angular integrals.

The radial integral over k in [k_min, k_max] uses Gauss-Legendre nodes and
weights mapped from [-1, 1]; the angular integral over the relative azimuth
in [0, 2pi) uses a uniform grid, which is spectrally accurate for smooth
periodic integrands and feeds its distinct half into a cosine projection.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RadialGrid", "angular_grid", "build_radial_grid", "default_k_max"]

KMAX_FACTOR = 8.0
"""Default radial truncation factor of a run (see default_k_max)."""

N_THETA = 512
"""Default number of relative-azimuth samples of a run."""


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Gauss-Legendre quadrature rule on a truncated radial interval.

    Attributes
    ----------
    nodes : ndarray
        Strictly increasing quadrature nodes k_i, all inside (k_min, k_max).
    weights : ndarray
        Positive quadrature weights w_i such that sum(w_i f(k_i))
        approximates the integral of f over [k_min, k_max].
    k_min, k_max : float
        Interval endpoints, in units of the pump transverse width.
    """

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    k_min: float
    k_max: float

    def __post_init__(self):
        if not (math.isfinite(self.k_min) and math.isfinite(self.k_max)):
            raise ValueError("k_min and k_max must be finite")
        if self.k_min < 0 or self.k_max <= self.k_min:
            raise ValueError("need 0 <= k_min < k_max")
        if self.nodes.ndim != 1 or self.nodes.shape != self.weights.shape:
            raise ValueError("nodes and weights must be matching 1-D arrays")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")

    @property
    def count(self) -> int:
        return self.nodes.size


@functools.lru_cache(maxsize=16)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], shared and so read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _check_grid_n(n: int) -> None:
    """The rule on the radial node count; RunConfig raises it too."""
    if n < 2:
        raise ValueError("grid_n must be at least 2")


def build_radial_grid(n: int, k_min: float, k_max: float) -> RadialGrid:
    """Build an n-point Gauss-Legendre rule mapped to [k_min, k_max].

    The rule integrates polynomials of degree <= 2n - 1 exactly on the
    interval, which is the property the tests probe on monomials.
    """
    _check_grid_n(n)
    x, w = _legendre_rule(n)
    half = 0.5 * (k_max - k_min)
    return RadialGrid(
        nodes=k_min + half * (x + 1.0),
        weights=half * w,
        k_min=float(k_min),
        k_max=float(k_max),
    )


def default_k_max(b_sigma: float, factor: float = KMAX_FACTOR) -> float:
    """Radial truncation, in pump-width units.

    The amplitude support widens as the control parameter b_sigma shrinks,
    so the cutoff scales as factor * max(1, 1/b_sigma).
    """
    if b_sigma <= 0 or factor <= 0:
        raise ValueError("b_sigma and factor must be positive")
    return factor * max(1.0, 1.0 / b_sigma)


def angular_grid(n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform relative-azimuth grid on [0, 2pi) and its cosine table.

    The cosine of dtheta[u] is taken at the folded index min(u, n_theta - u),
    so the table is exactly even: cos_dtheta[u] == cos_dtheta[n_theta - u].
    The tensor fill relies on this to copy the mirrored azimuth rows.
    """
    if n_theta < 4:
        raise ValueError("n_theta too small")
    u = np.arange(n_theta)
    dtheta = 2.0 * np.pi * u / n_theta
    folded = 2.0 * np.pi * np.minimum(u, n_theta - u) / n_theta
    return dtheta, np.cos(folded)
