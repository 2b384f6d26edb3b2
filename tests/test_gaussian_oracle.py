"""Consistency of the closed-form double-Gaussian expressions.

These expressions are the independent oracle for the numerical pipeline,
so they are checked against each other and against hand-computed values
before anything numerical is tested against them.
"""

import math

import numpy as np
import pytest

from biphoton import (
    AmplitudeModel,
    GaussianSpectrumParams,
    analytic_K,
    analytic_P_m,
    analytic_entropy,
    analytic_mode,
    analytic_norm_constant,
    analytic_spectrum,
    build_radial_grid,
    normalize,
    oscillator_scale,
    schmidt_number,
    sector_coefficient,
    xi_of,
)


def test_xi_values():
    assert xi_of(1.0) == 0.0
    assert xi_of(0.25) == pytest.approx(0.36, rel=1e-15)
    assert xi_of(3.0) == pytest.approx(0.25, rel=1e-15)
    with pytest.raises(ValueError):
        xi_of(0.0)


@pytest.mark.parametrize(
    "closed_form",
    [xi_of, analytic_K, analytic_norm_constant, oscillator_scale, GaussianSpectrumParams],
)
@pytest.mark.parametrize("t", [0.0, float("nan"), float("inf")])
def test_control_parameter_must_be_positive_and_finite(closed_form, t):
    with pytest.raises(ValueError, match="positive and finite"):
        closed_form(t)


def test_xi_symmetry_under_inversion():
    rng = np.random.default_rng(11)
    for t in rng.uniform(0.1, 5.0, size=25):
        assert xi_of(t) == pytest.approx(xi_of(1.0 / t), rel=1e-12)
        assert analytic_K(t) == pytest.approx(analytic_K(1.0 / t), rel=1e-12)


def test_params_consistency():
    params = GaussianSpectrumParams(t=0.25)
    assert params.xi == pytest.approx(0.36)
    with pytest.raises(ValueError, match="inconsistent"):
        GaussianSpectrumParams(t=0.25, xi=0.5)


@pytest.mark.parametrize(
    ("t", "expected"),
    [(0.25, 4.515625), (0.5, 25.0 / 16.0), (1.0, 1.0), (2.0, 1.5625), (0.3, 3.300277777777778)],
)
def test_analytic_K_values(t, expected):
    assert analytic_K(t) == pytest.approx(expected, rel=1e-14)


def test_K_from_xi_identity():
    for t in (0.25, 0.7, 3.0):
        xi = xi_of(t)
        assert analytic_K(t) == pytest.approx(((1 + xi) / (1 - xi)) ** 2, rel=1e-13)


def test_spectrum_leading_entry_and_coverage():
    entries, coverage = analytic_spectrum(0.25)
    n, m, lam = entries[0]
    assert (n, m) == (0, 0)
    assert lam == pytest.approx(0.4096, rel=1e-12)
    assert coverage > 1.0 - 1e-10


def test_spectrum_reproduces_K():
    for t in (0.25, 0.6, 2.0):
        entries, _ = analytic_spectrum(t)
        lams = [lam for _, _, lam in entries]
        assert schmidt_number(lams).renormalized == pytest.approx(
            analytic_K(t), rel=1e-6
        )


def test_spectrum_separable_point():
    entries, coverage = analytic_spectrum(1.0)
    assert entries == [(0, 0, 1.0)]
    assert coverage == 1.0


def test_sector_probabilities_sum_spectrum():
    t = 0.5
    entries, _ = analytic_spectrum(t)
    for m in (0, 1, 4):
        sector_sum = sum(lam for _, mm, lam in entries if mm == m)
        assert sector_sum == pytest.approx(analytic_P_m(t, m), rel=1e-12)
    # P_m is stored per signed m and symmetric
    assert analytic_P_m(t, -3) == analytic_P_m(t, 3)


def test_probabilities_normalize():
    t = 0.4
    total = analytic_P_m(t, 0) + 2.0 * sum(analytic_P_m(t, m) for m in range(1, 200))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_entropy_values():
    assert analytic_entropy(1.0) == 0.0
    for t in (0.25, 0.5):
        entries, _ = analytic_spectrum(t, n_max=60, m_max=120)
        lams = np.array([lam for _, _, lam in entries])
        direct = float(-np.sum(lams * np.log2(lams)))
        assert analytic_entropy(t) == pytest.approx(direct, abs=1e-10)


def test_oscillator_scale():
    assert oscillator_scale(0.25) == 1.0
    assert oscillator_scale(1.0) == 0.5
    assert oscillator_scale(4.0) == 0.25


def test_analytic_modes_orthonormal():
    grid = build_radial_grid(200, 0.0, 16.0)
    wk = grid.weights * grid.nodes
    for m in (0, 1, 3):
        stack = np.stack([analytic_mode(n, m, 0.5, grid).values for n in range(6)])
        gram = (stack * wk) @ stack.T
        assert float(np.max(np.abs(gram - np.eye(6)))) < 1e-10


def test_mode_peak_sign_positive():
    grid = build_radial_grid(150, 0.0, 12.0)
    for n in (0, 1, 4):
        values = analytic_mode(n, 2, 0.5, grid).values
        assert values[np.argmax(np.abs(values))] > 0.0


def test_analytic_mode_rejects_a_negative_index():
    grid = build_radial_grid(20, 0.0, 8.0)
    with pytest.raises(ValueError, match="nonnegative"):
        analytic_mode(-1, 0, 1.5, grid)


def test_sector_coefficient_properties(gauss_model_grid):
    model, grid = gauss_model_grid
    k = grid.nodes[::40]
    kk, qq = np.meshgrid(k, k, indexing="ij")
    for m in (0, 2):
        coeff = sector_coefficient(model, kk, qq, m)
        assert np.all(np.isfinite(coeff))
        assert float(np.max(np.abs(coeff - coeff.T))) < 1e-15
    # t > 1 flips the sign of the Bessel argument; still finite and symmetric
    wide_grid = build_radial_grid(60, 0.0, 8.0)
    wide = normalize(AmplitudeModel.from_b_sigma("gaussian", 2.0), wide_grid, 256)
    coeff = sector_coefficient(wide, wide_grid.nodes[::10], wide_grid.nodes[::10], 1)
    assert np.all(np.isfinite(coeff))


def test_sector_coefficient_rejects_sinc():
    grid = build_radial_grid(60, 0.0, 8.0)
    model = normalize(AmplitudeModel.from_b_sigma("sinc", 0.5), grid, 256)
    with pytest.raises(ValueError, match="double-Gaussian"):
        sector_coefficient(model, 1.0, 1.0, 0)


def test_oscillator_scale_matches_kernel_width():
    # the n = 0 oracle mode is the ground state of the sector kernel, so
    # its overlap with the numerical mode is checked in the pipeline
    # tests; here only the scale law s = 1 / (2 sqrt(t)) is pinned
    for t in (0.25, 0.5, 2.0):
        assert oscillator_scale(t) == pytest.approx(0.5 / math.sqrt(t), rel=1e-15)
