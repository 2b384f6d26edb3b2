"""Two-photon transverse-wavevector amplitude families.

Both families share a Gaussian pump envelope in the summed transverse
wavevector and differ in the phase-matching factor applied to the
difference vector: a Gaussian for the double-Gaussian family and
sin(x)/x for the sinc family. Amplitudes are real, rotationally
invariant, and symmetric under photon exchange, so every pipeline stage
works with the magnitudes (k, q) and the relative azimuth only. The
formula itself lives in ``_kernels.amplitude``, beside the
:class:`AmplitudeFamily` that selects its factor; the pointwise
:func:`evaluate` and the NumPy block fill behind every grid integral
share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from ._kernels import AmplitudeFamily
from .grids import N_THETA, RadialGrid

__all__ = [
    "SPEED_OF_LIGHT",
    "AmplitudeFamily",
    "AmplitudeModel",
    "TransverseVector",
    "crystal_b",
    "evaluate",
    "normalize",
    "unit_norm_integral",
]

SPEED_OF_LIGHT = 299792458.0
"""Vacuum speed of light in m/s, used by :func:`crystal_b`."""


@dataclass(frozen=True)
class TransverseVector:
    """Transverse wavevector in polar form.

    Attributes
    ----------
    k_mag : float
        Magnitude, in inverse-length units (nonnegative).
    theta : float
        Azimuth in radians.
    """

    k_mag: float
    theta: float

    def __post_init__(self):
        if self.k_mag < 0:
            raise ValueError("k_mag must be nonnegative")


def _check_cutoff(mu_c: float) -> None:
    """The rule on the radial cutoff mu_c; RunConfig raises it too."""
    if not (math.isfinite(mu_c) and mu_c >= 0):
        raise ValueError("mu_c must be nonnegative and finite")


@dataclass(frozen=True)
class AmplitudeModel:
    """Immutable description of one biphoton amplitude.

    Attributes
    ----------
    family : AmplitudeFamily
        Phase-matching factor selection.
    sigma_perp : float
        Pump transverse width, inverse-length units.
    b : float
        Phase-matching width parameter, length units; the dimensionless
        control parameter is the product b * sigma_perp.
    cutoff : float
        Radial hard filter mu_c in inverse-length units; 0 disables it.
    norm_constant : float or None
        Overall constant making the state unit-normalized; None until
        :func:`normalize` has run.
    """

    family: AmplitudeFamily
    sigma_perp: float = 1.0
    b: float = 1.0
    cutoff: float = 0.0
    norm_constant: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.sigma_perp) and self.sigma_perp > 0):
            raise ValueError("sigma_perp must be positive and finite")
        if not (math.isfinite(self.b) and self.b > 0):
            raise ValueError("b must be positive and finite")
        _check_cutoff(self.cutoff)
        if self.norm_constant is not None and self.norm_constant <= 0:
            raise ValueError("norm_constant must be positive when set")

    @classmethod
    def from_b_sigma(
        cls,
        family: AmplitudeFamily | str,
        b_sigma: float,
        cutoff: float = 0.0,
    ) -> "AmplitudeModel":
        """Dimensionless model with sigma_perp = 1 and b = b_sigma."""
        if isinstance(family, str):
            family = AmplitudeFamily(family)
        return cls(family=family, sigma_perp=1.0, b=b_sigma, cutoff=cutoff)

    @property
    def b_sigma(self) -> float:
        """Dimensionless control parameter b * sigma_perp."""
        return self.b * self.sigma_perp

    @property
    def is_normalized(self) -> bool:
        return self.norm_constant is not None

    @property
    def unit_norm_constant(self) -> float:
        """Normalization constant of the sigma_perp-scaled dimensionless form."""
        _require_normalized(self)
        return self.norm_constant * self.sigma_perp**2


def _require_normalized(model: AmplitudeModel) -> None:
    if not model.is_normalized:
        raise ValueError("normalize first")


def evaluate(model: AmplitudeModel, k: TransverseVector, q: TransverseVector) -> float:
    """Amplitude value at one pair of transverse wavevectors.

    Uses |k +- q|^2 = k^2 + q^2 +- 2 k q cos(theta_k - theta_q). The hard
    radial filter zeroes the value when either magnitude is below the
    cutoff; values exactly at the cutoff survive (step(0) = 1). Like
    every value of the tensor fill, a unit-constant amplitude below
    2^-900 (about 1.2e-271) is returned as zero.
    """
    _require_normalized(model)
    if model.cutoff > 0.0 and (k.k_mag < model.cutoff or q.k_mag < model.cutoff):
        return 0.0
    ka = k.k_mag / model.sigma_perp
    qa = q.k_mag / model.sigma_perp
    table = _kernels.cos_table(math.cos(k.theta - q.theta))
    two_kq = np.array([2.0 * ka * qa])
    s = np.array([ka * ka + qa * qa])
    value = _kernels.amplitude(model.family, table, two_kq, s, model.b_sigma)[0, 0]
    return model.norm_constant * float(value)


class _NormSum:
    """The norm integral of a row sweep, summed one radial row at a time.

    add(i, row) adds row i's term and squares row[:, i:] in place, so a
    consumer that also reads the row reads it first; integral is the
    total so far. unit_norm_integral and the sector pass both sum the
    norm here, so their integrals over one sweep are bitwise equal.
    """

    def __init__(self, grid: RadialGrid, n_theta: int):
        self.n_theta = n_theta
        self.mirror = _kernels.mirror_weights(n_theta)
        self.wk = grid.weights * grid.nodes
        self.columns = 2.0 * self.wk
        self.total = 0.0

    def add(self, i: int, row: np.ndarray) -> None:
        upper = np.square(row[:, i:], out=row[:, i:])
        # The diagonal column counts once; later rows read only j > i.
        self.columns[i] = self.wk[i]
        self.total += self.wk[i] * float(self.mirror @ upper @ self.columns[i:])

    @property
    def integral(self) -> float:
        return self.total * (2.0 * np.pi) * (2.0 * np.pi / self.n_theta)


def unit_norm_integral(model: AmplitudeModel, grid: RadialGrid, n_theta: int) -> float:
    """Squared norm of the unit-constant amplitude on the given grid.

    Rotational symmetry reduces the double 2-D integral of the squared
    amplitude to three dimensions: 2pi * Int |C(k, q, dtheta)|^2 k q
    dk dq dtheta, evaluated here with Gauss-Legendre weights radially and
    a uniform rule in the relative azimuth. Works in sigma_perp-scaled
    units with the normalization constant set to one; the sweep one
    radial row at a time keeps the memory footprint flat. The amplitude
    is even in dtheta, so the sweep fills only the distinct azimuth rows
    u = 0 .. n_theta // 2 and the sum weighs them by 1, 2, ..., 2, 1; it
    is also symmetric under k <-> q, so row i sums only the columns
    j >= i, and a column j > i counts twice.
    """
    norm = _NormSum(grid, n_theta)
    for i, row in _kernels.row_blocks(model.family, model.b_sigma, grid, n_theta):
        norm.add(i, row)
    return norm.integral


def _normalized(model: AmplitudeModel, integral: float) -> AmplitudeModel:
    """The model with the norm_constant of a unit-constant norm integral."""
    if not math.isfinite(integral):
        raise ValueError("norm integral overflows; b_sigma or k_max out of range")
    if not integral > 1e-300:
        raise ValueError("norm integral vanishes; degenerate parameters")
    unit_constant = 1.0 / math.sqrt(integral)
    return replace(model, norm_constant=unit_constant / model.sigma_perp**2)


def normalize(model: AmplitudeModel, grid: RadialGrid, n_theta: int = N_THETA) -> AmplitudeModel:
    """Return a copy of the model with norm_constant set.

    The constant is recomputed from scratch on every call, so normalizing
    twice on the same grid reproduces the same value exactly, and it is
    bitwise the constant that the sector pass (angular_fourier,
    adaptive_sectors) takes from its own sweep at the same n_theta. The
    grid is expected to cover the amplitude support; filtered models pass
    a grid that starts at the cutoff instead of relying on step-function
    zeros.
    """
    return _normalized(model, unit_norm_integral(model, grid, n_theta))


def crystal_b(crystal_length: float, pump_frequency: float) -> float:
    """Phase-matching width parameter from crystal length and pump frequency.

    Parameters
    ----------
    crystal_length : float
        Crystal length L in meters, positive.
    pump_frequency : float
        Pump angular frequency in rad/s, positive.

    Returns
    -------
    float
        b = sqrt(c L / (4 omega_p)) in meters.
    """
    if crystal_length <= 0:
        raise ValueError("crystal_length must be positive")
    if pump_frequency <= 0:
        raise ValueError("pump_frequency must be positive")
    return math.sqrt(SPEED_OF_LIGHT * crystal_length / (4.0 * pump_frequency))
