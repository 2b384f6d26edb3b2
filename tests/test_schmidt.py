import dataclasses

import numpy as np
import pytest

from biphoton import (
    SchmidtMode,
    SectorKernel,
    SectorSpectrum,
    analytic_mode,
    analytic_spectrum,
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
    with pytest.raises(ValueError, match="asymmetric"):
        decompose_sector(SectorKernel.from_matrix(0, 1.0, matrix, grid))


def test_rejects_non_finite_kernel():
    grid = build_radial_grid(2, 0.0, 1.0)
    matrix = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        decompose_sector(SectorKernel.from_matrix(0, 1.0, matrix, grid))


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
        sector = decompose_sector(SectorKernel.from_matrix(7, 1.0, matrix, grid))
        assert sector.signs.tolist() == [1.0, -1.0]
        assert sector.gammas == pytest.approx([e * e, e * e], rel=1e-12)
        assert [radial_node_count(mode) for mode in sector.modes] == [0, 0]
        assert [mode.n for mode in sector.modes] == [0, 1]
        for mode, profile in zip(sector.modes, (plus, minus)):
            assert np.allclose(mode.values, profile / sqwk, atol=1e-12)


def test_degeneracy_gap_is_relative_to_the_neighbors():
    # A leading mode and two node-free tail modes whose gammas are 22x
    # apart: their gap is below 1e-9 of the leading gamma but not of their
    # own, so they are not a degenerate group and keep descending-gamma
    # labels even though the smaller one has the positive eigenvalue.
    grid = build_radial_grid(60, 0.0, 3.0)
    k = grid.nodes
    profiles = []
    for lo in (0.0, 1.0, 2.0):
        bump = np.where((k >= lo) & (k < lo + 1.0), np.sin(np.pi * (k - lo)), 0.0)
        profiles.append(bump / np.linalg.norm(bump))
    gammas = [1.0, 4.4e-11, 2.0e-12]
    signs = [1.0, -1.0, 1.0]
    matrix = sum(
        sign * np.sqrt(gamma) * np.outer(p, p)
        for sign, gamma, p in zip(signs, gammas, profiles)
    )
    sector = decompose_sector(SectorKernel.from_matrix(37, 1.0, matrix, grid))
    assert sector.gammas[:3] == pytest.approx(gammas, rel=1e-6)
    assert sector.signs[:3].tolist() == signs
    assert [mode.n for mode in sector.modes[:3]] == [0, 1, 2]


def _reference_order(eigenvalues):
    """Loop form of decompose_sector's ordering: descending gamma, cut at
    the noise floor, and within each run of neighbors at most 1e-9 apart
    the positive kernel eigenvalue first."""
    gammas = eigenvalues**2
    order = list(np.argsort(-gammas, kind="stable"))
    order = order[: max(int(np.count_nonzero(gammas >= GAMMA_FLOOR)), 1)]
    resolved = []
    i = 0
    while i < len(order):
        j = i + 1
        while (
            j < len(order)
            and gammas[order[j - 1]] - gammas[order[j]] <= 1e-9 * gammas[order[j - 1]]
        ):
            j += 1
        resolved += sorted(order[i:j], key=lambda col: eigenvalues[col] < 0.0)
        i = j
    return resolved


def test_degenerate_groups_match_loop_reference():
    # Pairs of kernel eigenvalues with either sign whose magnitudes differ
    # by 0 to 2e-9 relative, plus a tail below the noise floor, on a
    # random orthonormal basis.
    rng = np.random.default_rng(11)
    grid = build_radial_grid(30, 0.0, 3.0)
    basis, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    for _ in range(20):
        level = rng.uniform(0.05, 1.0, 8)
        gap = rng.choice([0.0, 1e-12, 3e-10, 2e-9], 8)
        e = np.concatenate([level, level * (1.0 - gap)])
        e *= rng.choice([-1.0, 1.0], e.size)
        e = np.concatenate([e, rng.uniform(-1e-8, 1e-8, 30 - e.size)])
        matrix = (basis * e) @ basis.T
        matrix = 0.5 * (matrix + matrix.T)
        sector = decompose_sector(SectorKernel.from_matrix(5, 1.0, matrix, grid))
        eigenvalues = np.linalg.eigvalsh(matrix)
        order = _reference_order(eigenvalues)
        assert sector.gammas.tolist() == (eigenvalues[order] ** 2).tolist()
        assert sector.signs.tolist() == np.sign(eigenvalues[order]).tolist()


def test_decompose_solves_no_eigenvectors(monkeypatch):
    # The table needs eigenvalues only; a sector's eigenvectors are solved
    # the first time its modes are read, and only then.
    calls = []
    eigh = np.linalg.eigh

    def spy(matrix, *args, **kwargs):
        calls.append(matrix)
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    result = decompose("sinc", 0.5, grid_n=40)
    assert calls == []
    assert not any("modes" in vars(sector) for sector in result.sector_spectra)

    mode = result.sector_spectra[3].modes[0]
    assert (mode.n, mode.m) == (0, 3)
    assert len(calls) == 1 and np.array_equal(calls[0], result.kernels[3].matrix)
    built = [sector.m for sector in result.sector_spectra if "modes" in vars(sector)]
    assert built == [3]

    assert result.sector_spectra[3].modes[0] is mode
    assert len(calls) == 1


def _eager_profiles(kernel):
    """Mode profiles built as decompose_sector built them from one eigh
    call: its own eigenvalues ranked by _reference_order, its eigenvectors
    unweighted by sqrt(w k) and signed so the largest sample is positive."""
    eigenvalues, vectors = np.linalg.eigh(kernel.matrix)
    order = _reference_order(eigenvalues)
    profiles = vectors.T[order]
    profiles /= np.sqrt(kernel.grid.weights * kernel.grid.nodes)
    peaks = profiles[np.arange(len(order)), np.argmax(np.abs(profiles), axis=1)]
    profiles[peaks < 0.0] *= -1.0
    return profiles


@pytest.mark.parametrize("family, b_sigma", [("sinc", 0.25), ("gaussian", 0.5)])
def test_lazy_modes_equal_eager_modes(family, b_sigma, sinc_quarter):
    result = sinc_quarter if family == "sinc" else decompose(family, b_sigma)
    labels = {e[:2] for e in result.spectrum.entries}
    for kernel, sector in zip(result.kernels, result.sector_spectra):
        reference = _eager_profiles(kernel)
        assert len(sector.modes) == len(sector.gammas) == len(reference)
        for n, (mode, profile) in enumerate(zip(sector.modes, reference)):
            assert mode.values.tobytes() == profile.tobytes()
            assert (mode.n, mode.m) == (n, sector.m)
            assert (mode.n, mode.m) in labels and (mode.n, -mode.m) in labels


def test_pair_labels_are_grid_invariant(sinc_quarter):
    # The +-e pairs of the high-m sinc sectors are ordered by the sign of e
    # alone, so the sign sequence of each sector's modes with lambda >= 1e-8
    # must not change when the radial grid is refined.
    finer = decompose("sinc", 0.25, grid_n=260)

    def sign_sequences(result):
        return {
            kernel.m: [
                sign
                for gamma, sign in zip(sector.gammas, sector.signs)
                if kernel.p_m * gamma >= 1e-8
            ]
            for kernel, sector in zip(result.kernels, result.sector_spectra)
        }

    assert sign_sequences(finer) == sign_sequences(sinc_quarter)


def test_gaussian_row_order_survives_round_off():
    # lambda_{n,m} depends only on 2n + |m|, so whole levels are tied; a
    # 1e-15 relative change of every lambda must leave rows and labels as
    # they are, ordered by (n, |m|, -m) within a level like the closed form.
    result = decompose("gaussian", 0.5)
    probs = [kernel.p_m for kernel in result.kernels]
    reference = assemble_spectrum(result.sector_spectra, probs).entries
    rng = np.random.default_rng(3)
    for _ in range(5):
        nudged = [
            dataclasses.replace(
                sector,
                gammas=sector.gammas
                * (1.0 + 1e-15 * rng.choice([-1.0, 1.0], sector.gammas.size)),
            )
            for sector in result.sector_spectra
        ]
        entries = assemble_spectrum(nudged, probs).entries
        assert [e[:2] for e in entries] == [e[:2] for e in reference]
    # Down to the last row, lambda 8e-22, whole levels 2n + |m| a factor
    # 9 apart follow each other like the closed form.
    closed, _ = analytic_spectrum(0.5)
    labels = {e[:2] for e in reference}
    assert len(reference) == 136
    assert [e[:2] for e in reference] == [e[:2] for e in closed if e[:2] in labels]


def test_tie_scale_follows_the_sector_probability():
    # lambda = P_m gamma carries a round-off of about eps P_m. With P_1 =
    # 1e-3 and gamma near 1e-12, a gap of 2e-18 is above 4 eps P_1 (and
    # far above 1e-9 lambda), so the two entries come out in lambda
    # order; a gap of 4e-19 is below it and they tie, ordered by n.
    grid = build_radial_grid(4, 0.0, 1.0)
    probs = [1.0 - 2e-3, 1e-3]
    for gap, expected in ((2e-18, [2, 2, 1, 1]), (4e-19, [1, 1, 2, 2])):
        sectors = [
            _toy_sector(0, [1.0], grid),
            _toy_sector(1, [1.0 - 2e-12, 1e-12, 1e-12 + gap / probs[1]], grid),
        ]
        entries = assemble_spectrum(sectors, probs).entries
        assert [e[0] for e in entries[-4:]] == expected
        assert [e[1] for e in entries[-4:]] == [1, -1, 1, -1]


def test_sector_rank_holds_in_the_table(sinc_quarter):
    # Within one m the table lists n = 0, 1, 2, ... in order: a ± pair
    # that decompose_sector calls degenerate (gammas within 1e-9) is tied
    # in the table too, so its positive-e member keeps the lower row.
    last = {}
    for n, m, _ in sinc_quarter.spectrum.entries:
        assert n == last.get(m, -1) + 1
        last[m] = n


def _toy_sector(m, gammas, grid):
    count = len(gammas)
    kernel = SectorKernel.from_matrix(m, 1.0, np.eye(grid.count), grid)
    return SectorSpectrum(
        m=m,
        gammas=np.array(gammas),
        signs=np.ones(count),
        kernel=kernel,
        order=np.arange(count),
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


def _reference_entries(sectors, probs):
    """Loop form of assemble_spectrum's table: mirror every m > 0 entry,
    sort by descending lambda, then walk the runs from head to head and
    order each by (n, |m|, -m)."""
    entries = []
    p_m_table = {}
    for sector, p_m in zip(sectors, probs):
        p_m_table[sector.m] = float(p_m)
        for n, gamma in enumerate(sector.gammas):
            lam = float(p_m * gamma)
            entries.append((n, sector.m, lam))
            if sector.m > 0:
                entries.append((n, -sector.m, lam))
    entries.sort(key=lambda e: -e[2])
    round_off = [4.0 * np.finfo(float).eps * p_m_table[abs(m)] for _, m, _ in entries]
    ordered = []
    i = 0
    while i < len(entries):
        head = entries[i][2]
        reach = max(1e-9 * head, round_off[i])
        j = i + 1
        while j < len(entries) and head - entries[j][2] <= max(reach, round_off[j]):
            j += 1
        ordered.extend(sorted(entries[i:j], key=lambda e: (e[0], abs(e[1]), -e[1])))
        i = j
    return ordered


def _exact(entries):
    return [(type(n), n, type(m), m, float(lam).hex()) for n, m, lam in entries]


@pytest.mark.parametrize(
    "family, b_sigma, mu_c",
    [
        ("sinc", 0.2, 0.0),
        ("sinc", 0.25, 0.0),
        ("sinc", 0.5, 0.0),
        ("sinc", 1.0, 0.0),
        ("sinc", 0.5, 1.5),
        ("gaussian", 0.5, 0.0),
        ("gaussian", 1.5, 0.0),
        ("gaussian", 2.5, 0.0),
    ],
)
def test_table_matches_the_loop_reference(family, b_sigma, mu_c, sinc_quarter):
    if (family, b_sigma, mu_c) == ("sinc", 0.25, 0.0):
        result = sinc_quarter
    else:
        result = decompose(family, b_sigma, mu_c=mu_c)
    probs = [kernel.p_m for kernel in result.kernels]
    reference = _reference_entries(result.sector_spectra, probs)
    assert _exact(result.spectrum.entries) == _exact(reference)


def test_table_ties_at_round_off_match_the_loop_reference():
    # Every sector holds the same small levels, shifted by 0 to 8 eps P_0,
    # and each level once more 0.3 to 0.7 of 1e-9 below itself. Below
    # ~1e-7 the 4 eps P_m term decides the ties, with P_m from 0.5 down
    # to ~1e-7; above it the 1e-9 relative term does, and neighbor gaps
    # would chain the shifted copies into longer runs than the head allows.
    rng = np.random.default_rng(5)
    grid = build_radial_grid(4, 0.0, 1.0)
    step = np.finfo(float).eps * 0.5
    for _ in range(30):
        others = rng.choice([0.2, 1e-3, 1e-6], 5)
        probs = [0.5, *(0.25 * others / others.sum())]
        levels = 10.0 ** rng.uniform(-16.0, -3.0, 6)
        sectors = []
        for m, p_m in enumerate(probs):
            shifted = levels + step * rng.integers(0, 9, levels.size)
            chained = levels * (1.0 - 1e-9 * rng.uniform(0.3, 0.7))
            lam = np.concatenate([shifted, chained])
            tail = np.sort(lam[lam < 0.01 * p_m] / p_m)[::-1]
            sectors.append(_toy_sector(m, [1.0 - tail.sum(), *tail], grid))
        table = assemble_spectrum(sectors, probs).entries
        assert _exact(table) == _exact(_reference_entries(sectors, probs))


def test_runs_are_measured_from_their_head():
    # Three lambdas 0.6e-9 relative apart: the second is tied with the
    # first, the third is 1.2e-9 below the head and starts a new run,
    # although it is only 0.6e-9 below its neighbor.
    grid = build_radial_grid(4, 0.0, 1.0)
    rest = [0.15, 0.05]
    sectors = [
        _toy_sector(0, [0.6, 0.2, *rest], grid),
        _toy_sector(1, [0.8 * (1.0 - 0.6e-9), 0.2], grid),
        _toy_sector(2, [0.8 * (1.0 - 1.2e-9), 0.2], grid),
    ]
    probs = [0.5, 0.125, 0.125]
    entries = assemble_spectrum(sectors, probs).entries
    expected = [(0, 0), (0, 1), (0, -1), (1, 0), (0, 2), (0, -2)]
    assert [e[:2] for e in entries[:6]] == expected
    assert _exact(entries) == _exact(_reference_entries(sectors, probs))
