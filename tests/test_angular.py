import numpy as np
import pytest
from sinc_oracle import converged_sinc_coefficients

from biphoton import (
    AmplitudeModel,
    RunConfig,
    SectorKernel,
    adaptive_sectors,
    analytic_P_m,
    angular_fourier,
    build_radial_grid,
    decompose,
    default_k_max,
    normalize,
    sector_coefficient,
    sector_coverage,
)
from biphoton.angular import _packing, _sector_pass
from biphoton.grids import N_THETA


def test_a_bare_and_a_normalized_model_give_the_same_sectors(gauss_model_grid):
    # The sector pass takes its constant from its own sweep: a model with
    # or without one gives bitwise the same kernels, P_m and constant,
    # and the constant is bitwise normalize's at the same n_theta.
    normalized, grid = gauss_model_grid
    bare = AmplitudeModel.from_b_sigma("gaussian", 0.5)
    constant = normalize(bare, grid, 512).norm_constant
    assert normalized.norm_constant == constant
    runs = [angular_fourier(model, grid, 24, 512) for model in (bare, normalized)]
    runs += [adaptive_sectors(model, grid, 1e-6, 512)[0] for model in (bare, normalized)]
    for sectors in runs:
        assert [s.model.norm_constant for s in sectors] == [constant] * len(sectors)
    for first, second in (runs[:2], runs[2:]):
        assert [s.p_m for s in first] == [s.p_m for s in second]
        assert np.array_equal(first[0].packed.base, second[0].packed.base)
    # The first-rung and top passes at one n_theta sum the same integral.
    for n_theta in (128, 512):
        first_rung = angular_fourier(bare, grid, 8, n_theta)[0].model
        top = angular_fourier(bare, grid, n_theta // 4, n_theta)[0].model
        assert first_rung.norm_constant == top.norm_constant
        assert top.norm_constant == normalize(bare, grid, n_theta).norm_constant


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
def test_cosine_projection_matches_real_fft(n_theta, full_tensor):
    t = 0.3
    grid = build_radial_grid(24, 0.0, default_k_max(t))
    model = normalize(AmplitudeModel.from_b_sigma("sinc", t), grid, n_theta)
    scale = model.unit_norm_constant / n_theta
    full = full_tensor("sinc", t, grid.nodes, grid.nodes, n_theta)
    reference = np.fft.rfft(full, axis=1).real * scale
    # Row m of the pass, times sqrt(P_m), is the Nystrom-weighted kernel
    # 2 pi G_m sqrt(w_i k_i w_j k_j) of the normalized amplitude.
    sqwk = np.sqrt(grid.weights * grid.nodes)
    reference *= 2.0 * np.pi * np.outer(sqwk, sqwk)[:, None, :]
    for m_keep in (0, 8, 128, 255):
        normalized, p_m, gcoef = _sector_pass(model, grid, n_theta, m_keep)
        assert normalized.norm_constant == model.norm_constant
        gcoef *= np.sqrt(p_m)[:, None]
        expected = np.moveaxis(reference[:, : m_keep + 1], 1, 0)
        expected = expected.reshape(m_keep + 1, -1)[:, _packing(grid.count).upper]
        error = float(np.max(np.abs(gcoef - expected)))
        assert error <= 1e-13 * float(np.max(np.abs(expected)))


@pytest.mark.parametrize("family, t", [("gaussian", 0.5), ("sinc", 0.3)])
def test_scan_probabilities_sum_to_one(family, t, full_tensor):
    # The first pass of the adaptive schedule stops at m = 8, its first
    # rung. A real-FFT reference over every azimuth holds every m: by
    # Parseval, on the grid the model was normalized on, its signed P_m
    # (m = 0 and n_theta / 2 once, the rest twice) add up to the norm,
    # and the pass matches it per m.
    grid = build_radial_grid(60, 0.0, default_k_max(t))
    model = normalize(AmplitudeModel.from_b_sigma(family, t), grid, 512)
    wk = grid.weights * grid.nodes
    reference = np.zeros(257)
    full = full_tensor(family, t, grid.nodes, grid.nodes, 512)
    for i, row in enumerate(full):
        g = np.square(np.fft.rfft(row, axis=0).real)
        reference += wk[i] * np.einsum("j,mj->m", wk, g)
    reference *= (2.0 * np.pi * model.unit_norm_constant / 512) ** 2
    total = reference[0] + 2.0 * reference[1:-1].sum() + reference[-1]
    assert total == pytest.approx(1.0, abs=1e-14)

    p_m = np.array([s.p_m for s in angular_fourier(model, grid, 8, 512)])
    assert p_m.shape == (9,)
    error = float(np.max(np.abs(p_m - reference[: p_m.size])))
    assert error <= 1e-13 * float(np.max(p_m))
    if family == "gaussian":
        # P_m ~ (1/9)^m, so the terms beyond m = 128 are ~1e-122.
        p_m = np.array([s.p_m for s in angular_fourier(model, grid, 128, 512)])
        assert p_m[0] + 2.0 * p_m[1:].sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("family, t", [("gaussian", 0.5), ("sinc", 0.3)])
def test_scan_matches_the_reported_sector_table(family, t):
    # The first-rung pass's P_m are the reported ones to round-off, and
    # m_max is the first rung of the schedule whose reported P_m reach
    # the target.
    grid = build_radial_grid(60, 0.0, default_k_max(t))
    model = normalize(AmplitudeModel.from_b_sigma(family, t), grid, 512)
    sectors, n_theta = adaptive_sectors(model, grid, 1e-6, 512)
    reported = [s.p_m for s in sectors]
    scan = [s.p_m for s in angular_fourier(model, grid, 8, n_theta)]
    np.testing.assert_allclose(scan, reported[:9], rtol=1e-13, atol=0.0)
    cumulative = np.cumsum([p if m == 0 else 2.0 * p for m, p in enumerate(reported)])
    rungs = [m for m in (8, 16, 32, 64, 128) if m < len(reported)]
    first = next(m for m in rungs if cumulative[m] >= 1.0 - 1e-6)
    assert sectors[-1].m == first


@pytest.mark.parametrize("t", [0.5, 1.5, 2.5])
def test_first_rung_scan_is_the_reported_sector_table_bitwise(t):
    # A run that stops on the first rung reports its first pass, m <= 8,
    # as it comes: P_m, kernels and constant, bit for bit.
    result = decompose("gaussian", t)
    assert result.m_max == 8
    bare = AmplitudeModel.from_b_sigma("gaussian", t)
    sectors = angular_fourier(bare, result.grid, 8, result.n_theta)
    assert [s.p_m for s in sectors] == [result.spectrum.p_m_table[m] for m in range(9)]
    assert np.array_equal(sectors[0].packed.base, result.kernels[0].packed.base)
    assert sectors[0].model == result.model


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
    model, p_m, gcoef = _sector_pass(model, grid, n_theta, max(orders))
    # Row m times sqrt(P_m) / c is 2 pi G_m sqrt(w_i k_i w_j k_j) of the
    # unit-constant amplitude; the oracle gives G_m.
    gcoef *= np.sqrt(p_m)[:, None] / model.unit_norm_constant
    sqwk = np.sqrt(grid.weights * grid.nodes)
    gcoef /= (2.0 * np.pi * np.outer(sqwk, sqwk)).take(_packing(grid.count).upper)
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
