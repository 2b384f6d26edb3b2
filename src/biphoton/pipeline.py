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
from typing import NamedTuple

from .amplitudes import AmplitudeFamily, AmplitudeModel, normalize
from .angular import (
    SECTOR_TOL,
    SectorKernel,
    _check_angular,
    adaptive_sectors,
    angular_fourier,
    sector_coverage,
)
from .grids import KMAX_FACTOR, N_THETA, RadialGrid, build_radial_grid, default_k_max
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


FAMILIES = (*(family.value for family in AmplitudeFamily), "both")
"""Values of RunConfig.family; 'both' runs each family in a sweep."""


class RunSetting(NamedTuple):
    """One run input: its RunConfig field, value kind, config key and description.

    The config key is also the command-line flag, with dashes for
    underscores. A field whose RunConfig default is None may stay unset.
    """

    field: str
    kind: type
    key: str
    help: str


SETTINGS = (
    RunSetting("grid_n", numbers.Integral, "grid_n", "radial quadrature order"),
    RunSetting(
        "kmax_factor",
        numbers.Real,
        "kmax_factor",
        "radial truncation k_max = factor * max(1, 1/bsigma)",
    ),
    RunSetting(
        "n_theta", numbers.Integral, "ntheta", "azimuthal samples, a power of two >= 64"
    ),
    RunSetting(
        "sector_tol",
        numbers.Real,
        "sector_tol",
        "allowed probability outside the kept angular sectors",
    ),
    RunSetting(
        "m_max",
        numbers.Integral,
        "m_max",
        "fixed largest angular sector (default: adaptive)",
    ),
    RunSetting("mu_c", numbers.Real, "mu_c", "hard radial filter cutoff"),
)
"""Numerical run settings, the keywords of decompose and apply_filter."""

RUN_SETTINGS = (
    RunSetting(
        "family", str, "family", "amplitude family ('both' is valid for sweep only)"
    ),
    RunSetting("b_sigma", numbers.Real, "bsigma", "control parameter b*sigma_perp"),
    RunSetting(
        "sweep",
        SweepRange,
        "bsigma_range",
        "control parameter sweep as start:stop:count[:log|linear]",
    ),
    *SETTINGS,
)
"""Every field of RunConfig, in the order flags and echoed metadata list them."""


_NOUNS = {
    numbers.Real: "a number",
    numbers.Integral: "an integer",
    bool: "true or false",
    str: "a string",
    SweepRange: "a sweep range",
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
    """Validated run parameters, one field per entry of RUN_SETTINGS.

    decompose and apply_filter build one from their keywords, and the
    command line builds one from its flags and config file, so every bad
    value fails here, before any amplitude is computed. At most one of
    b_sigma and sweep is set; a command that needs the control parameter
    requires one of them. The defaults of kmax_factor, n_theta and
    sector_tol are the named constants that the stage functions' keyword
    defaults use too, and the rules on n_theta, m_max and sector_tol are
    angular's. Fields that only steer execution (output path, format,
    thread count) are tracked separately by the CLI so the echoed
    configuration stays identical across equivalent runs.
    """

    family: str = "sinc"
    b_sigma: float | None = None
    sweep: SweepRange | None = None
    grid_n: int = 200
    kmax_factor: float = KMAX_FACTOR
    n_theta: int = N_THETA
    sector_tol: float = SECTOR_TOL
    m_max: int | None = None
    mu_c: float = 0.0

    def __post_init__(self):
        for setting in RUN_SETTINGS:
            value = getattr(self, setting.field)
            if value is not None or getattr(RunConfig, setting.field) is not None:
                _check_type(setting.field, value, setting.kind)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.b_sigma is not None and self.sweep is not None:
            raise ValueError("b_sigma and a sweep range are mutually exclusive")
        if self.b_sigma is not None:
            if not (math.isfinite(self.b_sigma) and self.b_sigma > 0):
                raise ValueError("b_sigma must be positive and finite")
        if self.grid_n < 2:
            raise ValueError("grid_n must be at least 2")
        if not (math.isfinite(self.kmax_factor) and self.kmax_factor > 0):
            raise ValueError("kmax_factor must be positive and finite")
        _check_angular(self.n_theta, self.m_max, self.sector_tol)
        if not (math.isfinite(self.mu_c) and self.mu_c >= 0):
            raise ValueError("mu_c must be nonnegative and finite")

    def settings(self, **changes) -> dict:
        """The numerical settings as decompose keywords, with changes applied."""
        return {s.field: getattr(self, s.field) for s in SETTINGS} | changes

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
