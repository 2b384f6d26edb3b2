import math

import numpy as np
import pytest

from biphoton import (
    AmplitudeFamily,
    AmplitudeModel,
    TransverseVector,
    angular_fwhm,
    apply_filter,
    build_radial_grid,
    evaluate,
    normalize,
    slice_intensity,
)

FAST = dict(grid_n=100, n_theta=128, m_max=16)


def test_zero_cutoff_is_identity(gauss_model_grid):
    model, _ = gauss_model_grid
    report = apply_filter(model, 0.0, **FAST)
    assert report.acceptance == 1.0
    assert report.k_filtered == report.k_original
    assert report.filtered_spectrum.k == report.k_original


def test_acceptance_monotone_nonincreasing(gauss_model_grid):
    model, _ = gauss_model_grid
    cutoffs = [1e-8, 0.5, 1.0, 1.5]
    acceptances = [apply_filter(model, mu, **FAST).acceptance for mu in cutoffs]
    assert acceptances[0] == pytest.approx(1.0, abs=1e-9)
    for lo, hi in zip(acceptances[1:], acceptances):
        assert lo < hi
    for value in acceptances:
        assert 0.0 < value <= 1.0


def test_filter_raises_schmidt_number(gauss_model_grid):
    model, _ = gauss_model_grid
    report = apply_filter(model, 1.0)
    assert report.k_filtered == pytest.approx(3.715337, rel=1e-4)
    assert report.k_original == pytest.approx(1.5625, rel=1e-6)
    assert report.acceptance == pytest.approx(0.079217, rel=1e-3)
    # the eigenvalue table keeps the +-m mirror symmetry
    table = {(n, m): lam for n, m, lam in report.filtered_spectrum.entries}
    for (n, m), lam in table.items():
        assert table[(n, -m)] == lam
    assert report.filtered_spectrum.k >= 1.0
    assert report.filtered_spectrum.coverage > 1.0 - 1e-5


def test_filter_requires_normalized_model():
    bare = AmplitudeModel.from_b_sigma("gaussian", 0.5)
    with pytest.raises(ValueError, match="normalize first"):
        apply_filter(bare, 0.5)


def test_filter_rejects_prefiltered_model():
    grid = build_radial_grid(100, 1.0, 24.0)
    model = normalize(AmplitudeModel.from_b_sigma("gaussian", 0.5, cutoff=1.0), grid, 128)
    with pytest.raises(ValueError, match="already carries a cutoff"):
        apply_filter(model, 2.0, **FAST)


def test_filter_rejects_negative_cutoff(gauss_model_grid):
    model, _ = gauss_model_grid
    with pytest.raises(ValueError, match="nonnegative"):
        apply_filter(model, -0.1, **FAST)


def test_filter_cutoff_beyond_truncation(gauss_model_grid):
    model, _ = gauss_model_grid
    # stretched truncation for b_sigma = 0.5 sits at 1.5 * 16 = 24
    with pytest.raises(ValueError, match="cutoff exceeds"):
        apply_filter(model, 24.0, **FAST)


def test_filter_acceptance_floor(gauss_model_grid):
    model, _ = gauss_model_grid
    with pytest.raises(ValueError, match="removes essentially all"):
        apply_filter(model, 7.0, **FAST)


def test_acceptance_is_taken_at_the_n_theta_the_runs_used():
    # From n_theta 128 the sinc 0.5 runs double to 512 before they reach
    # the sector target; the surviving integral at 128 itself is 8.7e-5
    # off, and 512 and 2048 agree to the last digits shown.
    grid = build_radial_grid(40, 0.0, 16.0)
    model = normalize(AmplitudeModel.from_b_sigma("sinc", 0.5), grid, 128)
    coarse = apply_filter(model, 1.5, grid_n=40, n_theta=128)
    fine = apply_filter(model, 1.5, grid_n=40, n_theta=512)
    assert coarse.acceptance == pytest.approx(0.1033546514, rel=1e-9)
    assert coarse.acceptance == pytest.approx(fine.acceptance, rel=1e-12)
    assert coarse.k_filtered == pytest.approx(fine.k_filtered, rel=1e-12)


def test_slice_peak_is_exactly_one():
    model = AmplitudeModel.from_b_sigma("sinc", 0.25)
    dtheta, intensity = slice_intensity(model, np.linspace(0.0, 4.0, 41), n_theta=256)
    assert dtheta.shape == (256,)
    assert intensity.shape == (41, 256)
    assert intensity.max() == 1.0
    assert intensity.min() >= 0.0


def test_slice_sinc_peaks_at_antipodal_azimuth():
    model = AmplitudeModel.from_b_sigma("sinc", 0.25)
    dtheta, intensity = slice_intensity(model, [2.0], n_theta=256)
    assert dtheta[int(np.argmax(intensity[0]))] == pytest.approx(math.pi)


def test_slice_gaussian_peak_flips_with_b_sigma():
    # anticorrelated (b_sigma < 1) peaks at dtheta = pi, correlated
    # (b_sigma > 1) at dtheta = 0
    narrow = AmplitudeModel.from_b_sigma("gaussian", 0.5)
    dtheta, intensity = slice_intensity(narrow, [1.0], n_theta=128)
    assert dtheta[int(np.argmax(intensity[0]))] == pytest.approx(math.pi)
    wide = AmplitudeModel.from_b_sigma("gaussian", 2.0)
    _, intensity = slice_intensity(wide, [1.0], n_theta=128)
    assert int(np.argmax(intensity[0])) == 0


def test_slice_cutoff_is_in_pump_widths():
    # With sigma_perp = 2 the slice's k are k / sigma_perp, so this model
    # is its sigma_perp = 1 twin: b_sigma 0.25 and cutoff / sigma_perp 0.5.
    k = np.linspace(0.0, 2.0, 9)
    sinc = AmplitudeFamily.GAUSSIAN_SINC
    wide = AmplitudeModel(sinc, sigma_perp=2.0, b=0.125, cutoff=1.0)
    unit = AmplitudeModel(sinc, sigma_perp=1.0, b=0.25, cutoff=0.5)
    _, intensity = slice_intensity(wide, k, n_theta=64)
    _, reference = slice_intensity(unit, k, n_theta=64)
    assert np.all(reference[:2] == 0.0) and np.all(reference[2:].max(axis=1) > 0.0)
    assert np.array_equal(intensity, reference)


def test_slice_zero_radius_row_is_flat():
    model = AmplitudeModel.from_b_sigma("sinc", 0.5)
    _, intensity = slice_intensity(model, [0.0, 1.0], n_theta=64)
    assert np.all(intensity[0] == 1.0)
    assert intensity[1].max() < 1.0


def test_slice_cutoff_zeroes_low_rows():
    model = AmplitudeModel.from_b_sigma("gaussian", 0.5, cutoff=1.0)
    _, intensity = slice_intensity(model, [0.5, 2.0], n_theta=64)
    assert np.all(intensity[0] == 0.0)
    assert intensity[1].max() == 1.0


def test_slice_matches_pointwise_amplitude(gauss_model_grid):
    model, _ = gauss_model_grid
    k_values = [0.8, 1.6]
    dtheta, intensity = slice_intensity(model, k_values, n_theta=64)
    direct = np.array(
        [
            [
                evaluate(model, TransverseVector(k, theta), TransverseVector(k, 0.0)) ** 2
                for theta in dtheta
            ]
            for k in k_values
        ]
    )
    direct /= direct.max()
    assert float(np.max(np.abs(direct - intensity))) < 1e-12


def test_fwhm_of_triangle_profile():
    x = np.linspace(0.0, 10.0, 101)
    profile = np.maximum(0.0, 1.0 - np.abs(x - 5.0) / 2.0)
    assert angular_fwhm(x, profile) == pytest.approx(2.0, abs=1e-12)


def test_fwhm_of_gaussian_profile():
    x = np.linspace(0.0, 6.0, 601)
    profile = np.exp(-0.5 * (x - 3.0) ** 2)
    expected = 2.0 * math.sqrt(2.0 * math.log(2.0))
    assert angular_fwhm(x, profile) == pytest.approx(expected, rel=1e-3)


def test_fwhm_without_crossing_is_nan():
    x = np.linspace(0.0, 1.0, 11)
    assert math.isnan(angular_fwhm(x, np.ones(11)))
    # decays on one side only
    assert math.isnan(angular_fwhm(x, np.exp(-x)))


def test_filter_solves_only_the_filtered_sectors(monkeypatch, gauss_model_grid):
    # The unfiltered run reports only K_original and the normalization, so
    # it is taken by the trace identity; every eigensolve is a filtered sector.
    model, _ = gauss_model_grid
    # Building a grid caches its Legendre rule, whose nodes come from eigvalsh.
    build_radial_grid(FAST["grid_n"], 0.0, 1.0)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return eigvalsh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    report = apply_filter(model, 0.5, **FAST)
    assert len(calls) == len(report.filtered_spectrum.p_m_table) == FAST["m_max"] + 1
