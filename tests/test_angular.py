import dataclasses

import numpy as np
import pytest
from sinc_oracle import converged_sinc_coefficients

from biphoton import (
    AmplitudeModel,
    RunConfig,
    _kernels,
    SectorKernel,
    adaptive_sectors,
    analytic_P_m,
    angular_fourier,
    build_radial_grid,
    default_k_max,
    normalize,
    sector_coefficient,
    sector_coverage,
)
from biphoton.angular import _coefficient_pass, _packing, _scan_pass
from biphoton.grids import N_THETA


def test_requires_normalized_model(gauss_model_grid):
    _, grid = gauss_model_grid
    bare = AmplitudeModel.from_b_sigma("gaussian", 0.5)
    with pytest.raises(ValueError, match="normalize first"):
        angular_fourier(bare, grid, 4, 512)
    with pytest.raises(ValueError, match="normalize first"):
        adaptive_sectors(bare, grid)


def test_n_theta_and_m_max_validation(gauss_model_grid):
    model, grid = gauss_model_grid
    with pytest.raises(ValueError, match="power of two"):
        angular_fourier(model, grid, 4, 100)
    with pytest.raises(ValueError, match="power of two"):
        angular_fourier(model, grid, 4, 32)
    with pytest.raises(ValueError, match="m_max"):
        angular_fourier(model, grid, 64, 128)
    with pytest.raises(ValueError, match="m_max"):
        angular_fourier(model, grid, -1, 128)


def test_sector_structure(gauss_kernels):
    # The kernels are the contiguous packed rows of one sector-major array.
    base = gauss_kernels[0].packed.base
    assert base is not None
    assert base.shape == (len(gauss_kernels), 200 * 201 // 2)
    for kernel in gauss_kernels:
        assert kernel.packed.flags.c_contiguous
        assert np.shares_memory(kernel.packed, base)
    for m, kernel in enumerate(gauss_kernels):
        assert kernel.m == m
        assert kernel.p_m > 0.0
        matrix = kernel.matrix
        assert matrix.shape == (200, 200)
        # symmetric, unit Frobenius norm, sign alternating with the
        # sector parity (the Bessel argument is negative below t = 1)
        assert float(np.max(np.abs(matrix - matrix.T))) < 1e-12
        assert float(np.sum(matrix * matrix)) == pytest.approx(1.0, rel=1e-12)
        peak = matrix.flat[np.argmax(np.abs(matrix))]
        assert peak > 0.0 if m % 2 == 0 else peak < 0.0


def test_probabilities_match_closed_form(gauss_kernels):
    for kernel in gauss_kernels:
        assert kernel.p_m == pytest.approx(analytic_P_m(0.5, kernel.m), abs=1e-9)


def test_coefficients_match_bessel_form(gauss_model_grid, gauss_kernels):
    model, grid = gauss_model_grid
    sqwk = np.sqrt(grid.weights * grid.nodes)
    weight = 2.0 * np.pi * np.outer(sqwk, sqwk)
    kk, qq = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    for kernel in (gauss_kernels[0], gauss_kernels[3], gauss_kernels[11]):
        numeric = kernel.matrix * np.sqrt(kernel.p_m) / weight
        exact = sector_coefficient(model, kk, qq, kernel.m)
        assert float(np.max(np.abs(numeric - exact))) < 1e-9


def test_coverage_counts_both_signs():
    grid = build_radial_grid(2, 0.0, 1.0)
    dummy = np.eye(2)
    sectors = [
        SectorKernel.from_matrix(0, 0.5, dummy, grid),
        SectorKernel.from_matrix(1, 0.2, dummy, grid),
        SectorKernel.from_matrix(2, 0.05, dummy, grid),
    ]
    assert sector_coverage(sectors) == pytest.approx(1.0)


def test_a_kernel_keeps_the_upper_triangle_of_its_matrix():
    grid = build_radial_grid(4, 0.0, 1.0)
    matrix = np.arange(16.0).reshape(4, 4)
    matrix = matrix + matrix.T
    kernel = SectorKernel.from_matrix(3, 0.25, matrix, grid)
    assert kernel.packed.tolist() == [0, 5, 10, 15, 10, 15, 20, 20, 25, 30]
    assert kernel.model is None
    assert not kernel.packed.flags.writeable
    expanded = kernel.matrix
    assert np.array_equal(expanded, matrix)
    # Each read builds a matrix of its own.
    expanded[0, 1] = np.nan
    assert np.array_equal(kernel.matrix, matrix)


@pytest.mark.parametrize(
    "matrix, message",
    [
        (np.array([[1.0, 0.5], [0.5 + 2e-10, 1.0]]), "asymmetric"),
        (np.array([[1.0, np.inf], [np.inf, 1.0]]), "non-finite"),
        (np.eye(3), "N x N"),
    ],
)
def test_a_kernel_rejects_a_bad_matrix(matrix, message):
    grid = build_radial_grid(2, 0.0, 1.0)
    with pytest.raises(ValueError, match=message):
        SectorKernel.from_matrix(0, 1.0, matrix, grid)


@pytest.mark.parametrize(
    "packed, message",
    [
        (np.ones(4), "N x N"),
        (np.eye(2), "N x N"),
        (np.array([1.0, np.nan, 1.0]), "non-finite"),
    ],
)
def test_a_kernel_rejects_a_bad_packed_row(packed, message):
    grid = build_radial_grid(2, 0.0, 1.0)
    with pytest.raises(ValueError, match=message):
        SectorKernel(0, 1.0, packed, grid)


def test_m_max_too_small_raises(gauss_model_grid):
    model, grid = gauss_model_grid
    with pytest.raises(ValueError, match="m_max too small"):
        angular_fourier(model, grid, 2, 512, sector_tol=1e-6)


def test_adaptive_reaches_tolerance(gauss_model_grid):
    model, grid = gauss_model_grid
    sectors, n_theta = adaptive_sectors(model, grid, 1e-6, 512)
    assert sector_coverage(sectors) >= 1.0 - 1e-6
    assert n_theta == 512
    assert sectors[-1].m >= 8


def test_adaptive_m_max_grows_as_t_shrinks():
    needed = []
    for t in (0.8, 0.4, 0.2):
        grid = build_radial_grid(120, 0.0, default_k_max(t))
        model = normalize(AmplitudeModel.from_b_sigma("gaussian", t), grid, 512)
        sectors, _ = adaptive_sectors(model, grid, 1e-6, 512)
        needed.append(sectors[-1].m)
    assert needed[0] <= needed[1] <= needed[2]
    assert needed[0] < needed[2]


def test_adaptive_exhaustion():
    t = 0.25
    grid = build_radial_grid(80, 0.0, default_k_max(t))
    model = normalize(AmplitudeModel.from_b_sigma("sinc", t), grid, 64)
    with pytest.raises(ValueError, match="angular resolution exhausted"):
        adaptive_sectors(model, grid, 1e-9, 64)


def test_sector_tol_validation(gauss_model_grid):
    model, grid = gauss_model_grid
    with pytest.raises(ValueError, match="sector_tol"):
        adaptive_sectors(model, grid, 0.0, 512)


@pytest.mark.parametrize("n_theta", [512, 1024])
def test_cosine_projection_matches_real_fft(n_theta):
    t = 0.3
    grid = build_radial_grid(24, 0.0, default_k_max(t))
    model = normalize(AmplitudeModel.from_b_sigma("sinc", t), grid, n_theta)
    scale = model.unit_norm_constant / n_theta
    rows = _kernels.row_blocks(model.family, t, grid, n_theta)
    reference = np.stack([np.fft.rfft(row, axis=0).real * scale for _, row in rows])
    for m_keep in (0, 8, 128, 255):
        gcoef = _coefficient_pass(model, grid, n_theta, m_keep)
        expected = np.moveaxis(reference[:, : m_keep + 1], 1, 0)
        expected = expected.reshape(m_keep + 1, -1)[:, _packing(grid.count).upper]
        error = float(np.max(np.abs(gcoef - expected)))
        assert error <= 1e-13 * float(np.max(np.abs(expected)))


@pytest.mark.parametrize("family, t", [("gaussian", 0.5), ("sinc", 0.3)])
def test_scan_probabilities_sum_to_one(family, t):
    # The scan stops at m = 8, the first rung of the adaptive schedule.
    # A real-FFT reference holds every m: by Parseval, on the grid the
    # model was normalized on, its signed P_m (m = 0 and n_theta / 2 once,
    # the rest twice) add up to the norm, and the scan matches it per m.
    grid = build_radial_grid(60, 0.0, default_k_max(t))
    model = normalize(AmplitudeModel.from_b_sigma(family, t), grid, 512)
    wk = grid.weights * grid.nodes
    reference = np.zeros(257)
    for i, row in _kernels.row_blocks(model.family, t, grid, 512):
        g = np.square(np.fft.rfft(row, axis=0).real)
        reference += wk[i] * np.einsum("j,mj->m", wk, g)
    reference *= (2.0 * np.pi * model.unit_norm_constant / 512) ** 2
    total = reference[0] + 2.0 * reference[1:-1].sum() + reference[-1]
    assert total == pytest.approx(1.0, abs=1e-14)

    p_m = _scan_pass(model, grid, 512)
    assert p_m.shape == (9,)
    error = float(np.max(np.abs(p_m - reference[: p_m.size])))
    assert error <= 1e-13 * float(np.max(p_m))
    if family == "gaussian":
        # P_m ~ (1/9)^m, so the terms beyond m = 128 are ~1e-122.
        p_m = np.array([s.p_m for s in angular_fourier(model, grid, 128, 512)])
        assert p_m[0] + 2.0 * p_m[1:].sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("family, t", [("gaussian", 0.5), ("sinc", 0.3)])
def test_scan_matches_the_reported_sector_table(family, t):
    # The scan's P_m are the reported ones, and m_max is the first rung
    # of the schedule whose reported P_m reach the target.
    grid = build_radial_grid(60, 0.0, default_k_max(t))
    model = normalize(AmplitudeModel.from_b_sigma(family, t), grid, 512)
    sectors, n_theta = adaptive_sectors(model, grid, 1e-6, 512)
    reported = [s.p_m for s in sectors]
    np.testing.assert_allclose(
        _scan_pass(model, grid, n_theta), reported[:9], rtol=1e-13, atol=0.0
    )
    cumulative = np.cumsum([p if m == 0 else 2.0 * p for m, p in enumerate(reported)])
    rungs = [m for m in (8, 16, 32, 64, 128) if m < len(reported)]
    first = next(m for m in rungs if cumulative[m] >= 1.0 - 1e-6)
    assert sectors[-1].m == first


@pytest.mark.parametrize("family, t", [("gaussian", 1.7), ("sinc", 0.25)])
def test_sector_kernels_equal_their_transpose(family, t):
    grid = build_radial_grid(60, 0.0, default_k_max(t))
    model = normalize(AmplitudeModel.from_b_sigma(family, t), grid, 512)
    for kernel in angular_fourier(model, grid, 40, 512):
        assert np.array_equal(kernel.matrix, kernel.matrix.T)


def _sinc_oracle_errors(t, mu_c, n_theta, orders, picks=12):
    """Largest |G_m - oracle| over sampled node pairs, per m, over max |G_0|.

    The coefficients are those of the unit-constant amplitude on the
    run's own radial grid; the pairs are the upper triangle of picks
    evenly spaced nodes, ends included. The oracle must agree with
    itself on P and 2P panels to 1e-14 of max |G_0|.
    """
    grid = RunConfig(family="sinc", b_sigma=t, mu_c=mu_c).radial_grid()
    model = AmplitudeModel.from_b_sigma("sinc", t, cutoff=mu_c)
    model = dataclasses.replace(model, norm_constant=1.0)
    gcoef = _coefficient_pass(model, grid, n_theta, max(orders))
    scale = np.abs(gcoef[0]).max()
    picked = np.linspace(0, grid.count - 1, picks).round().astype(int)
    rows, cols = np.triu_indices(picks)
    i, j = picked[rows], picked[cols]
    packed = _packing(grid.count).full[i, j]
    errors = {}
    for m in orders:
        reference = converged_sinc_coefficients(
            grid.nodes[i], grid.nodes[j], t, m, grid.k_max, 1e-14 * scale
        )
        errors[m] = float(np.max(np.abs(gcoef[m, packed] - reference)) / scale)
    return errors


@pytest.mark.parametrize("t, mu_c", [(0.2, 0.0), (0.5, 0.0), (1.0, 0.0), (0.5, 1.5)])
def test_coefficient_pass_matches_the_sinc_oracle(t, mu_c):
    # The default n_theta resolves every m <= 128 of these runs to
    # round-off; the oracle shares no step with the azimuth grid.
    errors = _sinc_oracle_errors(t, mu_c, N_THETA, (0, 1, 8, 64, 128))
    assert max(errors.values()) <= 1e-13, errors


def test_sinc_oracle_sees_angular_aliasing():
    # At n_theta 256 the sinc 0.2 coefficients alias by ~2e-9 of max |G_0|,
    # so the comparison above would catch an under-resolved pass.
    assert _sinc_oracle_errors(0.2, 0.0, 256, (0,))[0] > 1e-10


def test_sinc_oracle_asserts_its_convergence():
    # 16 and 32 nodes cannot follow the 100 rad the integrand turns
    # through at k = q = 20, t = 0.25.
    k = np.array([20.0])
    with pytest.raises(AssertionError, match="panels differ"):
        converged_sinc_coefficients(k, k, 0.25, 0, 32.0, 1e-14, panels=1)
