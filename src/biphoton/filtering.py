"""Entanglement enhancement by hard radial filtering.

Removing all transverse wavevectors below a cutoff mu_c keeps only the
strongly anticorrelated part of the amplitude, which raises the Schmidt
number at the cost of a reduced detection probability. The filtered
amplitude is renormalized and sent through the full decomposition
pipeline; the acceptance is the probability that the original state
survives the cutoff. Of the unfiltered state only the Schmidt number
and the normalization are reported, so it is not eigendecomposed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .amplitudes import AmplitudeModel, _require_normalized, unit_norm_integral
from .grids import N_THETA, angular_grid
from .measures import SchmidtSpectrum
from .pipeline import RunConfig, decompose, schmidt_number_by_trace

__all__ = ["FilterReport", "angular_fwhm", "apply_filter", "slice_intensity"]

ACCEPTANCE_FLOOR = 1e-6
"""Below this survival probability the filter is treated as an error."""


@dataclass(frozen=True)
class FilterReport:
    """Outcome of one filtering run.

    Attributes
    ----------
    mu_c : float
        Radial cutoff in pump-width units.
    acceptance : float
        Probability that the unfiltered state passes the cutoff; exactly
        1 when mu_c = 0.
    k_filtered, k_original : float
        Coverage-renormalized Schmidt numbers of the filtered and
        unfiltered amplitudes; k_original is taken by the trace identity
        when mu_c > 0.
    filtered_spectrum : SchmidtSpectrum
        Full eigenvalue table of the filtered state.
    """

    mu_c: float
    acceptance: float
    k_filtered: float
    k_original: float
    filtered_spectrum: SchmidtSpectrum = field(repr=False)


def apply_filter(model: AmplitudeModel, mu_c: float, **settings) -> FilterReport:
    """Decompose the amplitude with wavevectors below mu_c removed.

    The settings are those of decompose, which both runs use. The
    unfiltered run yields only K_original and the normalization that the
    acceptance needs, so it takes K by the trace identity
    (schmidt_number_by_trace) and solves no eigenproblem; at mu_c = 0 it
    is the filtered run too, and is fully decomposed. The acceptance is
    the squared original amplitude integrated over the filtered domain
    [mu_c, stretched k_max] against the unfiltered normalization, so it
    is a projection probability of the original state, taken as the
    squared ratio of the two runs' constants at the n_theta each ended
    on. The filtered quadrature starts exactly at the cutoff rather than
    multiplying a step function onto a straddling grid.
    """
    cfg = RunConfig(
        family=model.family.value, b_sigma=model.b_sigma, mu_c=mu_c, **settings
    )
    _require_normalized(model)
    if model.cutoff > 0.0:
        raise ValueError("model already carries a cutoff; filter the unfiltered model")

    unfiltered = cfg.settings(mu_c=0.0)
    if cfg.mu_c == 0.0:
        original = decompose(cfg.family, cfg.b_sigma, **unfiltered).spectrum
        return FilterReport(
            mu_c=0.0,
            acceptance=1.0,
            k_filtered=original.k,
            k_original=original.k,
            filtered_spectrum=original,
        )
    k_original, normalized = schmidt_number_by_trace(
        cfg.family, cfg.b_sigma, **unfiltered
    )
    constant = normalized.unit_norm_constant

    # At the requested n_theta, which the filtered run may double; this
    # only guards the floor before that run.
    surviving = unit_norm_integral(model, cfg.radial_grid(), cfg.n_theta)
    if surviving * constant**2 < ACCEPTANCE_FLOOR:
        raise ValueError("filter removes essentially all amplitude")

    filtered = decompose(cfg.family, cfg.b_sigma, **cfg.settings())
    acceptance = min((constant / filtered.model.unit_norm_constant) ** 2, 1.0)
    return FilterReport(
        mu_c=float(cfg.mu_c),
        acceptance=float(acceptance),
        k_filtered=filtered.spectrum.k,
        k_original=k_original,
        filtered_spectrum=filtered.spectrum,
    )


def slice_intensity(
    model: AmplitudeModel,
    k_values,
    n_theta: int = N_THETA,
) -> tuple[np.ndarray, np.ndarray]:
    """Peak-normalized squared amplitude on the equal-magnitude subspace.

    Evaluates |C(k, k, dtheta)|^2 on the given radial magnitudes, in
    pump-width units (k / sigma_perp), and a uniform relative-azimuth
    grid, then scales the global maximum to exactly 1. The overall
    constant cancels, so the model does not need to be normalized.
    Returns (dtheta, intensity) with intensity indexed [k, dtheta]. A
    cutoff on the model zeroes the rows below cutoff / sigma_perp.
    """
    k = np.asarray(k_values, dtype=float)
    dtheta, cos_dtheta = angular_grid(n_theta)
    # With q = k, 2 k q and s are both 2 k^2, as in the tensor fill.
    two_k2 = 2.0 * (k * k)
    table = _kernels.cos_table(cos_dtheta)
    shape = _kernels.amplitude(model.family, table, two_k2, two_k2, model.b_sigma)
    intensity = np.square(shape.T, order="C")
    if model.cutoff > 0.0:
        intensity[k < model.cutoff / model.sigma_perp, :] = 0.0
    peak = intensity.max()
    if peak > 0.0:
        intensity /= peak
    return dtheta, intensity


def angular_fwhm(dtheta: np.ndarray, profile: np.ndarray) -> float:
    """Full width at half maximum of the contiguous peak around the argmax.

    The half level is half the profile's own maximum. Crossings are
    located by linear interpolation between neighboring samples; if the
    profile never drops below the half level on one side, NaN is
    returned. Side lobes beyond the first crossing are ignored by
    construction.
    """
    profile = np.asarray(profile, dtype=float)
    i_peak = int(np.argmax(profile))
    half = 0.5 * profile[i_peak]

    def cross(step: int) -> float:
        i = i_peak
        while 0 <= i + step < profile.size:
            j = i + step
            if profile[j] < half:
                frac = (profile[i] - half) / (profile[i] - profile[j])
                return float(dtheta[i] + frac * (dtheta[j] - dtheta[i]))
            i = j
        return float("nan")

    return cross(+1) - cross(-1)
