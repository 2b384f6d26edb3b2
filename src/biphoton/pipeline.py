"""End-to-end decomposition pipeline and run configuration.

A run normalizes the requested amplitude on a Gauss-Legendre grid,
reduces it to orbital-angular-momentum sectors, eigendecomposes each
sector, and assembles the global eigenvalue table with its measures.
All stages work in pump-width-scaled dimensionless units; the single
physics input is the control parameter b_sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .amplitudes import AmplitudeModel, normalize
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


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by the command-line entry points.

    Exactly one of b_sigma and sweep must be set for commands that need
    the control parameter. Fields that only steer execution (output
    path, format, thread count) are tracked separately by the CLI so the
    echoed configuration stays identical across equivalent runs.
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
        if self.family not in {"gaussian", "sinc", "both"}:
            raise ValueError(f"unknown family {self.family!r}")
        if self.b_sigma is not None and not (
            math.isfinite(self.b_sigma) and self.b_sigma > 0
        ):
            raise ValueError("b_sigma must be positive and finite")
        if self.grid_n < 2:
            raise ValueError("grid_n must be at least 2")
        if not (math.isfinite(self.kmax_factor) and self.kmax_factor > 0):
            raise ValueError("kmax_factor must be positive and finite")
        if self.n_theta < 64 or self.n_theta & (self.n_theta - 1):
            raise ValueError("n_theta must be a power of two, at least 64")
        if not 0.0 < self.sector_tol < 1.0:
            raise ValueError("sector_tol must be in (0, 1)")
        if self.m_max is not None and self.m_max < 0:
            raise ValueError("m_max must be nonnegative")
        if not (math.isfinite(self.mu_c) and self.mu_c >= 0):
            raise ValueError("mu_c must be nonnegative and finite")


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


def decompose(
    family,
    b_sigma: float,
    *,
    grid_n: int = 200,
    kmax_factor: float = 8.0,
    n_theta: int = 512,
    sector_tol: float = 1e-6,
    m_max: int | None = None,
    mu_c: float = 0.0,
) -> DecompositionResult:
    """Full Schmidt decomposition of one amplitude.

    The radial grid spans [0, k_max] with k_max = kmax_factor *
    max(1, 1/b_sigma); when mu_c > 0 the grid starts at the cutoff
    instead (so the hard filter never straddles quadrature nodes) and
    k_max is stretched because the surviving amplitude lives at larger
    k. Sectors are chosen adaptively from sector_tol unless an explicit
    m_max is given.
    """
    k_hi = default_k_max(b_sigma, kmax_factor)
    if mu_c > 0.0:
        k_hi *= FILTERED_KMAX_STRETCH
        if mu_c >= k_hi:
            raise ValueError("cutoff exceeds the radial truncation")
    grid = build_radial_grid(grid_n, mu_c, k_hi)
    model = normalize(
        AmplitudeModel.from_b_sigma(family, b_sigma, cutoff=mu_c), grid, n_theta
    )
    if m_max is not None:
        kernels = angular_fourier(model, grid, m_max, n_theta, sector_tol=sector_tol)
        n_theta_used = n_theta
    else:
        kernels, _ = adaptive_sectors(model, grid, sector_tol, n_theta)
        # adaptive_sectors doubles n_theta only when the schedule needs
        # m_max beyond n_theta / 2, so the used value is recoverable.
        n_theta_used = n_theta
        while kernels[-1].m >= n_theta_used // 2:
            n_theta_used *= 2
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
        n_theta=n_theta_used,
    )
