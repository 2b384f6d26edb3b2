"""End-to-end decomposition pipeline and run configuration.

A run normalizes the requested amplitude on a Gauss-Legendre grid,
reduces it to orbital-angular-momentum sectors, eigendecomposes each
sector, and assembles the global eigenvalue table with its measures.
All stages work in pump-width-scaled dimensionless units; the single
physics input is the control parameter b_sigma.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from .amplitudes import AmplitudeFamily, AmplitudeModel, normalize
from .angular import SectorKernel, adaptive_sectors, angular_fourier, sector_coverage
from .grids import RadialGrid, build_radial_grid, default_k_max
from .measures import SchmidtSpectrum
from .schmidt import SectorSpectrum, assemble_spectrum, decompose_sector

__all__ = ["DecompositionResult", "RunConfig", "SweepRange", "decompose"]

FILTERED_KMAX_STRETCH = 1.5
"""Radial cutoff multiplier for filtered runs, whose support moves outward."""


@dataclass(frozen=True)
class SweepRange:
    """Sweep specification for the control parameter."""

    start: float
    stop: float
    count: int
    log: bool = False

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.start, self.stop)):
            raise ValueError("sweep endpoints must be positive and finite")
        if self.count < 2:
            raise ValueError("sweep count must be at least 2")

    def points(self) -> list[float]:
        import numpy as np

        if self.log:
            return list(np.geomspace(self.start, self.stop, self.count))
        return list(np.linspace(self.start, self.stop, self.count))


_SETTINGS = {
    "grid_n": numbers.Integral,
    "kmax_factor": numbers.Real,
    "n_theta": numbers.Integral,
    "sector_tol": numbers.Real,
    "m_max": numbers.Integral,
    "mu_c": numbers.Real,
}
"""Numerical run settings, the keywords of decompose and apply_filter, by type."""


_NOUNS = {
    numbers.Real: "a number",
    numbers.Integral: "an integer",
    bool: "true or false",
    str: "a string",
}


def _check_type(name: str, value, kind=numbers.Real) -> None:
    """Reject a value of the wrong type before it reaches a comparison.

    kind is one of the keys of _NOUNS. A bool never passes as a number,
    and only a bool passes as a bool.
    """
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {_NOUNS[kind]}")


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters: the one place a run setting is defaulted.

    decompose and apply_filter build one from their keywords, and the
    command line builds one from its flags and config file, so every bad
    value fails here, before any amplitude is computed. Exactly one of
    b_sigma and sweep must be set for commands that need the control
    parameter. Fields that only steer execution (output path, format,
    thread count) are tracked separately by the CLI so the echoed
    configuration stays identical across equivalent runs.
    """

    family: str = "sinc"
    b_sigma: float | None = None
    sweep: SweepRange | None = None
    grid_n: int = 200
    kmax_factor: float = 8.0
    n_theta: int = 512
    sector_tol: float = 1e-6
    m_max: int | None = None
    mu_c: float = 0.0

    def __post_init__(self):
        if self.family not in ("gaussian", "sinc", "both"):
            raise ValueError(f"unknown family {self.family!r}")
        for name, kind in _SETTINGS.items():
            if not (name == "m_max" and self.m_max is None):
                _check_type(name, getattr(self, name), kind)
        if self.b_sigma is not None:
            _check_type("b_sigma", self.b_sigma)
            if not (math.isfinite(self.b_sigma) and self.b_sigma > 0):
                raise ValueError("b_sigma must be positive and finite")
        if self.grid_n < 2:
            raise ValueError("grid_n must be at least 2")
        if not (math.isfinite(self.kmax_factor) and self.kmax_factor > 0):
            raise ValueError("kmax_factor must be positive and finite")
        if self.n_theta < 64 or self.n_theta & (self.n_theta - 1):
            raise ValueError("n_theta must be a power of two, at least 64")
        if not 0.0 < self.sector_tol < 1.0:
            raise ValueError("sector_tol must be in (0, 1)")
        if self.m_max is not None and not 0 <= self.m_max < self.n_theta // 2:
            raise ValueError("m_max must satisfy 0 <= m_max < n_theta / 2")
        if not (math.isfinite(self.mu_c) and self.mu_c >= 0):
            raise ValueError("mu_c must be nonnegative and finite")

    def settings(self, **changes) -> dict:
        """The numerical settings as decompose keywords, with changes applied."""
        return {name: getattr(self, name) for name in _SETTINGS} | changes

    def radial_grid(self) -> RadialGrid:
        """Radial quadrature rule of a run at b_sigma.

        The grid spans [0, k_max] with k_max = kmax_factor *
        max(1, 1/b_sigma); when mu_c > 0 it starts at the cutoff instead
        (so the hard filter never straddles quadrature nodes) and k_max is
        stretched because the surviving amplitude lives at larger k.
        """
        k_hi = default_k_max(self.b_sigma, self.kmax_factor)
        if self.mu_c > 0.0:
            k_hi *= FILTERED_KMAX_STRETCH
            if self.mu_c >= k_hi:
                raise ValueError("cutoff exceeds the radial truncation")
        return build_radial_grid(self.grid_n, self.mu_c, k_hi)


@dataclass(frozen=True)
class DecompositionResult:
    """Everything one decomposition run produced."""

    model: AmplitudeModel
    grid: RadialGrid
    kernels: list[SectorKernel] = field(repr=False)
    sector_spectra: list[SectorSpectrum] = field(repr=False)
    spectrum: SchmidtSpectrum
    coverage: float
    m_max: int
    n_theta: int


def decompose(family, b_sigma: float, **settings) -> DecompositionResult:
    """Full Schmidt decomposition of one amplitude.

    The settings are RunConfig's numerical fields (grid_n, kmax_factor,
    n_theta, sector_tol, m_max, mu_c); RunConfig supplies their defaults
    and rejects bad values before any work, and RunConfig.radial_grid
    builds the radial grid. Sectors are chosen adaptively from
    sector_tol unless an explicit m_max is given.
    """
    _check_type("b_sigma", b_sigma)
    cfg = RunConfig(family=AmplitudeFamily(family).value, b_sigma=b_sigma, **settings)
    grid = cfg.radial_grid()
    amplitude = AmplitudeModel.from_b_sigma(cfg.family, cfg.b_sigma, cutoff=cfg.mu_c)
    model = normalize(amplitude, grid, cfg.n_theta)
    if cfg.m_max is not None:
        kernels = angular_fourier(
            model, grid, cfg.m_max, cfg.n_theta, sector_tol=cfg.sector_tol
        )
        n_theta = cfg.n_theta
    else:
        kernels, n_theta = adaptive_sectors(model, grid, cfg.sector_tol, cfg.n_theta)
    sector_spectra = [decompose_sector(kernel) for kernel in kernels]
    spectrum = assemble_spectrum(sector_spectra, [kernel.p_m for kernel in kernels])
    return DecompositionResult(
        model=model,
        grid=grid,
        kernels=kernels,
        sector_spectra=sector_spectra,
        spectrum=spectrum,
        coverage=sector_coverage(kernels),
        m_max=kernels[-1].m,
        n_theta=n_theta,
    )
