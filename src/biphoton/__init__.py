"""Schmidt decomposition of biphoton transverse-wavevector amplitudes.

The package decomposes the two-photon amplitude produced by parametric
down-conversion with a Gaussian pump into orbital-angular-momentum
sectors, solves each sector's radial eigenproblem on a Gauss-Legendre
grid, and reports the Schmidt eigenvalue table together with the
participation ratio K, the entanglement entropy in bits, and the sector
probabilities P_m. A hard radial filter implements entanglement
enhancement at the cost of acceptance. Everything is driven by a single
dimensionless control parameter b*sigma_perp; the double-Gaussian
family has a full closed-form solution that serves as the test oracle
for the numerical pipeline.
"""

from .amplitudes import (
    SPEED_OF_LIGHT,
    AmplitudeFamily,
    AmplitudeModel,
    TransverseVector,
    crystal_b,
    evaluate,
    normalize,
    unit_norm_integral,
)
from .angular import SectorKernel, adaptive_sectors, angular_fourier, sector_coverage
from .filtering import FilterReport, angular_fwhm, apply_filter, slice_intensity
from .gaussian import (
    GaussianSpectrumParams,
    analytic_K,
    analytic_P_m,
    analytic_entropy,
    analytic_mode,
    analytic_norm_constant,
    analytic_spectrum,
    oscillator_scale,
    sector_coefficient,
    xi_of,
)
from .grids import RadialGrid, angular_grid, build_radial_grid, default_k_max
from .measures import (
    SchmidtNumber,
    SchmidtSpectrum,
    entanglement_entropy,
    schmidt_number,
)
from .pipeline import (
    DecompositionResult,
    KByTrace,
    RunConfig,
    SweepRange,
    decompose,
    schmidt_number_by_trace,
)
from .schmidt import (
    SchmidtMode,
    SectorSpectrum,
    assemble_spectrum,
    decompose_sector,
    radial_node_count,
)

__version__ = "0.1.0"

KERNEL_BACKEND = "python"
"""Amplitude-fill backend; the NumPy kernel in ``_kernels`` is the only one."""

__all__ = [
    "SPEED_OF_LIGHT",
    "AmplitudeFamily",
    "AmplitudeModel",
    "DecompositionResult",
    "FilterReport",
    "GaussianSpectrumParams",
    "KByTrace",
    "KERNEL_BACKEND",
    "RadialGrid",
    "RunConfig",
    "SchmidtMode",
    "SchmidtNumber",
    "SchmidtSpectrum",
    "SectorKernel",
    "SectorSpectrum",
    "SweepRange",
    "TransverseVector",
    "adaptive_sectors",
    "analytic_K",
    "analytic_P_m",
    "analytic_entropy",
    "analytic_mode",
    "analytic_norm_constant",
    "analytic_spectrum",
    "angular_fourier",
    "angular_fwhm",
    "angular_grid",
    "apply_filter",
    "assemble_spectrum",
    "build_radial_grid",
    "crystal_b",
    "decompose",
    "decompose_sector",
    "default_k_max",
    "entanglement_entropy",
    "evaluate",
    "normalize",
    "oscillator_scale",
    "radial_node_count",
    "schmidt_number",
    "schmidt_number_by_trace",
    "sector_coefficient",
    "sector_coverage",
    "slice_intensity",
    "unit_norm_integral",
    "xi_of",
]
