"""End-to-end decomposition pipeline and run configuration.

A run normalizes the requested amplitude on a Gauss-Legendre grid,
reduces it to orbital-angular-momentum sectors, eigendecomposes each
sector, and assembles the global eigenvalue table with its measures.
Where only the Schmidt number is read (a sweep row, the unfiltered run
of a filter), schmidt_number_by_trace shares that front half and takes
K from the sector kernels without an eigensolve. All stages work in
pump-width-scaled dimensionless units; the single physics input is the
control parameter b_sigma.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

from .amplitudes import AmplitudeFamily, AmplitudeModel, _check_cutoff, normalize
from .angular import (
    SECTOR_TOL,
    SectorKernel,
    _check_angular,
    adaptive_sectors,
    angular_fourier,
    sector_coverage,
)
from .grids import (
    KMAX_FACTOR,
    N_THETA,
    RadialGrid,
    _check_grid_n,
    build_radial_grid,
    default_k_max,
)
from .gaussian import analytic_K
from .measures import SchmidtSpectrum, _check_coverage_and_k, _warn_low_coverage
from .schmidt import SectorSpectrum, assemble_spectrum, decompose_sector, sector_purity

__all__ = [
    "DecompositionResult",
    "KByTrace",
    "RunConfig",
    "SweepRange",
    "decompose",
    "schmidt_number_by_trace",
]

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
    value fails here, before any amplitude is computed; that includes a
    b_sigma, or a point of the sweep, whose square, 2 k_max^2, the norm
    integral's radial weight products or the closed-form K overflows, or
    whose radial truncation k_max does not lie past the cutoff mu_c. At
    most one of b_sigma and sweep is set; a command that needs the
    control parameter requires one of them. The defaults of kmax_factor, n_theta and
    sector_tol are the named constants that the stage functions' keyword
    defaults use too. The rules on n_theta, m_max and sector_tol are
    angular's, the grid_n rule is grids' and the mu_c rule is that of
    AmplitudeModel's cutoff. Fields that only steer execution (output
    path, format, thread count) are tracked separately by the CLI so the
    echoed configuration stays identical across equivalent runs.
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
        _check_grid_n(self.grid_n)
        if not (math.isfinite(self.kmax_factor) and self.kmax_factor > 0):
            raise ValueError("kmax_factor must be positive and finite")
        _check_angular(self.n_theta, self.m_max, self.sector_tol)
        _check_cutoff(self.mu_c)
        if self.b_sigma is not None:
            self._check_range(self.b_sigma)
        if self.sweep is not None:
            for b_sigma in self.sweep.points():
                self._check_range(float(b_sigma))

    def _check_range(self, b_sigma: float) -> None:
        """The range rule on one b_sigma: the run or a sweep point."""
        # The amplitude squares b_sigma and sums k^2 + q^2 up to k_max.
        # The norm integral weighs each pair by w_i k_i w_j k_j, at most
        # (k_max (k_max - mu_c))^2 since the Gauss-Legendre weights sum
        # to k_max - mu_c, and the oracle reports the closed-form K.
        # A b_sigma that overflows any of them has no finite result, and
        # a cutoff at or past k_max leaves no grid.
        k_max = self._k_max(b_sigma)
        if self.mu_c >= k_max:
            raise ValueError("cutoff exceeds the radial truncation")
        wk = k_max * (k_max - self.mu_c)
        bounds = (b_sigma * b_sigma, 2 * k_max * k_max, wk * wk)
        if any(map(math.isinf, bounds)) or math.isinf(analytic_K(b_sigma)):
            raise ValueError(
                "b_sigma out of range: b_sigma^2, 2 k_max^2, "
                "(k_max (k_max - mu_c))^2 or the closed-form K overflows"
            )

    def settings(self, **changes) -> dict:
        """The numerical settings as decompose keywords, with changes applied."""
        return {s.field: getattr(self, s.field) for s in SETTINGS} | changes

    def _k_max(self, b_sigma: float) -> float:
        """Radial truncation at b_sigma, stretched when mu_c > 0."""
        k_max = default_k_max(b_sigma, self.kmax_factor)
        return k_max * FILTERED_KMAX_STRETCH if self.mu_c > 0.0 else k_max

    def radial_grid(self) -> RadialGrid:
        """Radial quadrature rule of a run at b_sigma.

        The grid spans [0, k_max] with k_max = kmax_factor *
        max(1, 1/b_sigma); when mu_c > 0 it starts at the cutoff instead
        (so the hard filter never straddles quadrature nodes) and k_max is
        stretched because the surviving amplitude lives at larger k.
        """
        return build_radial_grid(self.grid_n, self.mu_c, self._k_max(self.b_sigma))


@dataclass(frozen=True, eq=False)
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


def _sectors(
    family, b_sigma, settings
) -> tuple[AmplitudeModel, RadialGrid, list[SectorKernel], int]:
    """The front half of every run, as decompose describes it.

    Returns the normalized model, the radial grid, the kept sector
    kernels and the n_theta they were computed with. The model is the
    one the kernels' P_m were scaled with, normalized again on the
    doubled azimuth grid when adaptive_sectors doubled n_theta.
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
        return model, grid, kernels, cfg.n_theta
    kernels, n_theta = adaptive_sectors(model, grid, cfg.sector_tol, cfg.n_theta)
    return kernels[0].model, grid, kernels, n_theta


def decompose(family, b_sigma: float, **settings) -> DecompositionResult:
    """Full Schmidt decomposition of one amplitude.

    The settings are RunConfig's numerical fields (grid_n, kmax_factor,
    n_theta, sector_tol, m_max, mu_c); RunConfig supplies their defaults
    and rejects bad values before any work, and RunConfig.radial_grid
    builds the radial grid. Sectors are chosen adaptively from
    sector_tol unless an explicit m_max is given.
    """
    model, grid, kernels, n_theta = _sectors(family, b_sigma, settings)
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


class KByTrace(NamedTuple):
    """Schmidt number of one run and the normalized model it was taken on."""

    k: float
    model: AmplitudeModel


def schmidt_number_by_trace(family, b_sigma: float, **settings) -> KByTrace:
    """Coverage-renormalized Schmidt number of one amplitude, with no eigensolve.

    Runs decompose's front half with the same settings, then takes
    K = (sum_m w_m P_m)^2 / sum_m w_m P_m^2 ||M_m M_m||_F^2, with w_0 = 1
    and w_m = 2 for the mirrored m > 0. This is 1 / Tr rho^2 of the
    coverage-renormalized reduced state: each sector's ||M_m M_m||_F^2
    is the sum of its gamma^2 (schmidt.sector_purity). It agrees with
    decompose's K to rounding and the gammas below the noise floor that
    decompose drops. The kernels are decompose's, checked when they are
    built; the coverage warning and the coverage and K checks are
    SchmidtSpectrum's.
    """
    model, _, kernels, _ = _sectors(family, b_sigma, settings)
    weighted = [kernel.p_m if kernel.m == 0 else 2.0 * kernel.p_m for kernel in kernels]
    coverage = math.fsum(weighted)
    power = math.fsum(
        w * kernel.p_m * sector_purity(kernel) for w, kernel in zip(weighted, kernels)
    )
    _warn_low_coverage(coverage)
    k = coverage * coverage / power
    _check_coverage_and_k(coverage, k)
    return KByTrace(k=k, model=model)
