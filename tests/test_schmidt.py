import numpy as np
import pytest

from biphoton import (
    SchmidtMode,
    SectorKernel,
    SectorSpectrum,
    analytic_mode,
    assemble_spectrum,
    build_radial_grid,
    decompose,
    decompose_sector,
    radial_node_count,
    xi_of,
)
from biphoton.schmidt import GAMMA_FLOOR


def test_gammas_descend_and_sum_to_one(gauss_kernels):
    for kernel in gauss_kernels[:4]:
        sector = decompose_sector(kernel)
        gammas = sector.gammas
        assert np.all(np.diff(gammas) <= 0)
        assert float(gammas.sum()) == pytest.approx(1.0, abs=1e-10)
        assert np.all(gammas[1:] >= GAMMA_FLOOR)


def test_gamma_ladder_is_geometric(gauss_kernels):
    # gamma_{n+1} / gamma_n = xi^2 in every sector of the double-Gaussian
    ratio = xi_of(0.5) ** 2
    for kernel in (gauss_kernels[0], gauss_kernels[2]):
        gammas = decompose_sector(kernel).gammas
        for n in range(4):
            assert gammas[n + 1] / gammas[n] == pytest.approx(ratio, rel=1e-8)


def test_gaussian_kernel_signs_follow_parity(gauss_kernels):
    # below t = 1 the even-sector kernels are positive definite and the
    # odd-sector kernels negative definite
    assert np.all(decompose_sector(gauss_kernels[0]).signs[:10] == 1.0)
    assert np.all(decompose_sector(gauss_kernels[1]).signs[:10] == -1.0)


def test_modes_orthonormal_and_sign_fixed(gauss_kernels):
    kernel = gauss_kernels[1]
    sector = decompose_sector(kernel)
    wk = kernel.grid.weights * kernel.grid.nodes
    stack = np.stack([mode.values for mode in sector.modes[:8]])
    gram = (stack * wk) @ stack.T
    assert float(np.max(np.abs(gram - np.eye(8)))) < 1e-10
    for mode in sector.modes[:8]:
        assert mode.values[np.argmax(np.abs(mode.values))] > 0.0


def test_mode_labels_follow_rank(gauss_kernels):
    sector = decompose_sector(gauss_kernels[0])
    assert [mode.n for mode in sector.modes] == list(range(len(sector.modes)))
    assert all(mode.m == 0 for mode in sector.modes)


def test_node_counts_match_rank(gauss_kernels):
    for kernel in (gauss_kernels[0], gauss_kernels[3]):
        sector = decompose_sector(kernel)
        for n in range(5):
            assert radial_node_count(sector.modes[n]) == n


def test_node_count_on_analytic_modes():
    grid = build_radial_grid(200, 0.0, 16.0)
    for n in range(5):
        for m in (0, 2):
            mode = analytic_mode(n, m, 0.5, grid)
            assert radial_node_count(mode) == n


def test_node_count_ignores_silent_tail():
    grid = build_radial_grid(100, 0.0, 10.0)
    values = np.exp(-grid.nodes)
    values[-3:] = [-1e-9, 1e-9, -1e-9]  # numerical dust beyond the support
    mode = SchmidtMode(n=0, m=0, values=values, grid=grid)
    assert radial_node_count(mode) == 0


def test_node_count_is_grid_invariant(sinc_quarter):
    # Sinc modes cross zero steeply between Gauss-Legendre nodes; whether a
    # crossing counts must not depend on how close the nearest nodes fall.
    # The m <= 3 sectors hold about 0.89 of the probability, hence the
    # coverage warning for the restricted run.
    with pytest.warns(UserWarning, match="coverage"):
        wide = decompose("sinc", 0.25, kmax_factor=12.0, m_max=3, sector_tol=0.99)

    def counts(result):
        return {
            (n, m): radial_node_count(result.sector_spectra[m].modes[n])
            for m in range(4)
            for n in range(4)
        }

    assert counts(wide) == counts(sinc_quarter)


def test_rejects_asymmetric_kernel():
    grid = build_radial_grid(3, 0.0, 1.0)
    matrix = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    kernel = SectorKernel(m=0, p_m=1.0, matrix=matrix, grid=grid)
    with pytest.raises(ValueError, match="asymmetric"):
        decompose_sector(kernel)


def test_rejects_non_finite_kernel():
    grid = build_radial_grid(2, 0.0, 1.0)
    matrix = np.array([[1.0, np.nan], [np.nan, 1.0]])
    kernel = SectorKernel(m=0, p_m=1.0, matrix=matrix, grid=grid)
    with pytest.raises(ValueError, match="non-finite"):
        decompose_sector(kernel)


def test_plus_minus_pair_puts_positive_eigenvalue_first():
    # Two node-free profiles on disjoint radial ranges, orthonormal as
    # eigenvectors, carry kernel eigenvalues +e and -e: gamma and node
    # count tie, and the positive e must take n = 0 whichever profile has it.
    grid = build_radial_grid(40, 0.0, 4.0)
    k = grid.nodes
    inner = np.where(k < 2.0, np.sin(np.pi * k / 2.0), 0.0)
    outer = np.where(k >= 2.0, np.sin(np.pi * (k - 2.0) / 2.0), 0.0)
    inner /= np.linalg.norm(inner)
    outer /= np.linalg.norm(outer)
    sqwk = np.sqrt(grid.weights * k)
    e = 0.5
    for plus, minus in ((inner, outer), (outer, inner)):
        matrix = e * (np.outer(plus, plus) - np.outer(minus, minus))
        sector = decompose_sector(SectorKernel(m=7, p_m=1.0, matrix=matrix, grid=grid))
        assert sector.signs.tolist() == [1.0, -1.0]
        assert sector.gammas == pytest.approx([e * e, e * e], rel=1e-12)
        assert [radial_node_count(mode) for mode in sector.modes] == [0, 0]
        assert [mode.n for mode in sector.modes] == [0, 1]
        for mode, profile in zip(sector.modes, (plus, minus)):
            assert np.allclose(mode.values, profile / sqwk, atol=1e-12)


def _toy_sector(m, gammas, grid):
    count = len(gammas)
    modes = [
        SchmidtMode(n=n, m=m, values=np.ones(grid.count), grid=grid)
        for n in range(count)
    ]
    return SectorSpectrum(
        m=m, gammas=np.array(gammas), signs=np.ones(count), modes=modes
    )


def test_assemble_mirrors_and_sorts():
    grid = build_radial_grid(4, 0.0, 1.0)
    sectors = [
        _toy_sector(0, [0.6, 0.4], grid),
        _toy_sector(1, [0.9, 0.1], grid),
    ]
    spectrum = assemble_spectrum(sectors, [0.5, 0.25])
    assert spectrum.entries[0] == (0, 0, pytest.approx(0.3))
    # the mirrored m = 1 entries carry identical weight and sort +m first
    assert spectrum.entries[1] == (0, 1, pytest.approx(0.225))
    assert spectrum.entries[2] == (0, -1, pytest.approx(0.225))
    assert spectrum.entries[3] == (1, 0, pytest.approx(0.2))
    assert spectrum.coverage == pytest.approx(1.0)
    assert spectrum.p_m_table == {0: 0.5, 1: 0.25}
    lams = {(n, m): lam for n, m, lam in spectrum.entries}
    assert lams[(1, 1)] == lams[(1, -1)]


def test_assemble_rejects_misalignment():
    grid = build_radial_grid(4, 0.0, 1.0)
    sectors = [_toy_sector(0, [1.0], grid)]
    with pytest.raises(ValueError, match="misaligned"):
        assemble_spectrum(sectors, [0.5, 0.5])
    shuffled = [_toy_sector(1, [1.0], grid)]
    with pytest.raises(ValueError, match="misaligned"):
        assemble_spectrum(shuffled, [1.0])
