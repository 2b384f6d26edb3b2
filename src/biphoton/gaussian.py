"""Closed forms for the double-Gaussian amplitude.

The double-Gaussian family is exactly a two-mode-squeezed state in each
transverse direction, so its Schmidt data come out in closed form: a
geometric eigenvalue ladder lambda_{n,m} proportional to xi^(2n+|m|)
with xi = ((1 - t)/(1 + t))^2 for t = b * sigma_perp, isotropic-
oscillator radial modes, and a modified-Bessel expression for the
angular Fourier coefficients. Every numerical pipeline stage is tested
against these expressions.

SciPy's special functions are imported inside the two functions that
use them: loading scipy.special takes longer than the rest of the
package's import, and a decomposition never needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import AmplitudeFamily, AmplitudeModel, _require_normalized
from .grids import RadialGrid
from .schmidt import SchmidtMode

__all__ = [
    "GaussianSpectrumParams",
    "analytic_K",
    "analytic_P_m",
    "analytic_entropy",
    "analytic_mode",
    "analytic_norm_constant",
    "analytic_spectrum",
    "oscillator_scale",
    "sector_coefficient",
    "xi_of",
]


def _require_positive(t: float) -> None:
    if not (math.isfinite(t) and t > 0):
        raise ValueError("control parameter must be positive and finite")


def xi_of(t: float) -> float:
    """Spectrum ratio xi = ((1 - t) / (1 + t))^2 for control parameter t."""
    _require_positive(t)
    r = (1.0 - t) / (1.0 + t)
    return r * r


@dataclass(frozen=True)
class GaussianSpectrumParams:
    """Control parameter and derived spectrum ratio.

    xi vanishes only at t = 1 (the separable point) and is symmetric
    under t <-> 1/t.
    """

    t: float
    xi: float = None  # type: ignore[assignment]

    def __post_init__(self):
        expected = xi_of(self.t)
        if self.xi is None:
            object.__setattr__(self, "xi", expected)
        elif abs(self.xi - expected) > 1e-12:
            raise ValueError("xi inconsistent with t")


def analytic_K(t: float) -> float:
    """Schmidt number of the double-Gaussian amplitude, (t + 1/t)^2 / 4."""
    _require_positive(t)
    s = t + 1.0 / t
    return 0.25 * s * s


def analytic_norm_constant(t: float) -> float:
    """Unit-normalizing constant of the dimensionless double-Gaussian, 4 t / pi.

    Follows from the separable Gaussian integral of the squared
    amplitude over both transverse planes, pi^2 / (16 t^2) at unit
    constant and unit pump width.
    """
    _require_positive(t)
    return 4.0 * t / math.pi


def analytic_spectrum(
    t: float,
    n_max: int = 40,
    m_max: int = 80,
) -> tuple[list[tuple[int, int, float]], float]:
    """Truncated closed-form eigenvalue table and its coverage.

    lambda_{n,m} = (1 - xi)^2 * xi^(2n + |m|) for n >= 0 and integer m;
    the (1 - xi)^2 prefactor normalizes the full double geometric sum to
    one, which also reproduces analytic_K through the identity
    K = ((1 + xi) / (1 - xi))^2. Entries are sorted like the numerical
    table.
    """
    xi = xi_of(t)
    prefactor = (1.0 - xi) ** 2
    entries: list[tuple[int, int, float]] = []
    for n in range(n_max + 1):
        for m in range(-m_max, m_max + 1):
            lam = prefactor * xi ** (2 * n + abs(m)) if xi > 0.0 else (
                1.0 if n == 0 and m == 0 else 0.0
            )
            if lam > 0.0:
                entries.append((n, m, lam))
    entries.sort(key=lambda e: (-e[2], e[0], abs(e[1]), -e[1]))
    coverage = float(sum(e[2] for e in entries))
    return entries, coverage


def analytic_P_m(t: float, m: int) -> float:
    """Sector probability (1 - xi) xi^|m| / (1 + xi), per signed m."""
    xi = xi_of(t)
    return (1.0 - xi) * xi ** abs(m) / (1.0 + xi)


def analytic_entropy(t: float) -> float:
    """Entropy in bits of the closed-form spectrum.

    Summing the double geometric series gives
    E = -2 [log2(1 - xi) + xi log2(xi) / (1 - xi)], which vanishes at
    the separable point.
    """
    xi = xi_of(t)
    if xi == 0.0:
        return 0.0
    return -2.0 * (math.log2(1.0 - xi) + xi * math.log2(xi) / (1.0 - xi))


def oscillator_scale(t: float) -> float:
    """Radial scale of the oscillator modes, 1 / (2 sqrt(t)) in pump-width units.

    Obtained by matching the double-Gaussian kernel to the standard
    squeezed-state kernel of the isotropic oscillator; validated
    numerically via mode overlaps at several control parameters.
    """
    _require_positive(t)
    return 0.5 / math.sqrt(t)


def analytic_mode(n: int, m: int, t: float, grid: RadialGrid) -> SchmidtMode:
    """Closed-form radial mode sampled on the grid.

    The radial part of the 2-D isotropic oscillator eigenfunction at
    scale s = oscillator_scale(t):

        phi(k) = (1/s) sqrt(2 n! / (n + |m|)!) (k/s)^|m|
                 L_n^{|m|}((k/s)^2) exp(-(k/s)^2 / 2),

    renormalized on the grid under the w_i k_i measure and signed so the
    largest-magnitude sample is positive, matching the numerical mode
    conventions.
    """
    from scipy.special import eval_genlaguerre

    if n < 0:
        raise ValueError("n must be nonnegative")
    s = oscillator_scale(t)
    x = grid.nodes / s
    x2 = x * x
    values = (
        (1.0 / s)
        * math.sqrt(2.0 * math.factorial(n) / math.factorial(n + abs(m)))
        * x ** abs(m)
        * eval_genlaguerre(n, abs(m), x2)
        * np.exp(-0.5 * x2)
    )
    weighted = values * np.sqrt(grid.weights * grid.nodes)
    values = values / np.linalg.norm(weighted)
    if values[np.argmax(np.abs(values))] < 0.0:
        values = -values
    return SchmidtMode(n=n, m=m, values=values, grid=grid)


def sector_coefficient(model: AmplitudeModel, k, q, m: int):
    """Closed-form angular Fourier coefficient G_m(k, q) of the double-Gaussian.

    Expanding the pump and phase-matching exponentials over the relative
    azimuth gives G_m(k, q) = N I_m(2 k q (t^2 - 1)) exp(-(1 + t^2)
    (k^2 + q^2)) with modified Bessel I_m; evaluated with the
    exponentially scaled Bessel function for overflow safety. Arguments
    are in pump-width units and broadcast like NumPy arrays.
    """
    from scipy.special import ive

    if model.family is not AmplitudeFamily.DOUBLE_GAUSSIAN:
        raise ValueError("closed form available for the double-Gaussian family only")
    _require_normalized(model)
    t2 = model.b_sigma**2
    k = np.asarray(k, dtype=float)
    q = np.asarray(q, dtype=float)
    x = 2.0 * k * q * (t2 - 1.0)
    return (
        model.unit_norm_constant
        * ive(m, x)
        * np.exp(np.abs(x) - (1.0 + t2) * (k * k + q * q))
    )
