"""Per-sector radial Schmidt problem and global spectrum assembly.

Each orbital-angular-momentum sector contributes a symmetric kernel
matrix M whose eigendecomposition M = sum_n e_n v_n v_n^T solves the
radial factorization F_m(k, q) sqrt(k q) = sum_n sqrt(gamma_nm)
phi_nm(k) phi_nm(q). The reduced-density-matrix eigenvalues are
gamma_n = e_n^2, which is valid for either sign of e_n; the signs are
recorded separately so the kernel stays exactly reconstructible.

The Schmidt number and the entropy need only the eigenvalues, so
decompose_sector solves for eigenvalues alone. The mode profiles are
built from the sector's kernel on first access to SectorSpectrum.modes,
in the order the eigenvalues were given their labels. Where only the
Schmidt number is read, sector_purity gives a sector's share of the
purity, sum_n gamma_n^2 = ||M M||_F^2, with no eigensolve at all. A
sector kernel keeps one checked, read-only triangle of its matrix; each
of these steps expands it into a full matrix of its own first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .angular import SectorKernel
from .grids import RadialGrid
from .measures import SchmidtSpectrum, entanglement_entropy, schmidt_number

__all__ = [
    "SchmidtMode",
    "SectorSpectrum",
    "assemble_spectrum",
    "decompose_sector",
    "radial_node_count",
    "sector_purity",
]

GAMMA_FLOOR = 1e-14
"""Sector eigenvalues below this are numerical noise and are discarded."""

_DEGENERACY_RTOL = 1e-9
"""Gap, relative to the larger gamma, under which neighboring gammas are degenerate."""

_TIE_EPS = 4.0 * np.finfo(float).eps
"""Gap, in units of the larger sector probability P_m, under which two are tied."""

_NODE_MASS_CUT = 0.995
"""Share of a mode's quadrature weight whose region radial_node_count inspects."""

_NODE_LOBE_FLOOR = 1e-2
"""Peak of a significant lobe, relative to the mode's peak magnitude."""

_PURITY_FLOOR = 2.0**-500
"""Kernel entries below this are zeroed before the purity product; their
products underflow into subnormals, which slow the matrix product
threefold and add nothing to a sum of squares of order 1e-30 or more."""


@dataclass(frozen=True, eq=False)
class SchmidtMode:
    """Radial Schmidt mode phi_{n,m} sampled on the quadrature grid.

    The index n is the position in descending-gamma order within the
    sector; in a group of gammas within 1e-9 of each other the mode with
    the positive kernel eigenvalue comes first. Modes are orthonormal
    under the w_i k_i measure and scaled so the largest-magnitude sample
    is positive; the values of one sector's modes are rows of one array.
    """

    n: int
    m: int
    values: np.ndarray = field(repr=False)
    grid: RadialGrid = field(repr=False)


@dataclass(frozen=True, eq=False)
class SectorSpectrum:
    """Eigenvalues of one sector kernel, with its modes built on demand.

    Attributes
    ----------
    m : int
        Sector quantum number.
    gammas : ndarray
        Descending reduced-density eigenvalues; they sum to 1 up to the
        discarded noise floor.
    signs : ndarray
        Signs of the kernel eigenvalues e_n, so that the kernel equals
        sum_n signs[n] * sqrt(gammas[n]) * weighted-mode outer products.
    kernel : SectorKernel
        The kernel the eigenvalues were solved from.
    order : ndarray
        Position of each labelled eigenvalue in the eigensolver's
        ascending order: label n is the ascending eigenvalue order[n].
    modes : list of SchmidtMode
        Built on first access by one eigendecomposition of the kernel,
        whose eigenvectors take the labels of ``order``, and then kept.
    """

    m: int
    gammas: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)
    kernel: SectorKernel = field(repr=False)
    order: np.ndarray = field(repr=False)

    @cached_property
    def modes(self) -> list[SchmidtMode]:
        grid = self.kernel.grid
        _, vectors = np.linalg.eigh(self.kernel.matrix)
        profiles = vectors.T[self.order]
        profiles /= np.sqrt(grid.weights * grid.nodes)
        peaks = profiles[np.arange(self.order.size), np.argmax(np.abs(profiles), axis=1)]
        profiles[peaks < 0.0] *= -1.0
        return [
            SchmidtMode(n=n, m=self.m, values=phi, grid=grid)
            for n, phi in enumerate(profiles)
        ]


def radial_node_count(mode: SchmidtMode) -> int:
    """Number of interior sign changes of the mode profile.

    Counting convention: only the region holding the leading
    _NODE_MASS_CUT of the mode's quadrature weight is inspected. That
    region is split into lobes, the runs of samples between sign changes,
    and a lobe is significant when its peak magnitude reaches
    _NODE_LOBE_FLOOR times the profile's peak magnitude. The count is the
    number of sign changes between consecutive significant lobes, so a
    lobe below the floor adds no node, and neither do the two crossings
    that bound it. Sinc-family modes carry genuine low-amplitude
    oscillations in their far tails; this windowed count reports the
    node structure of the region where the mode lives, which is what the
    quantum number tracks.

    Judging each lobe by its own peak, rather than by the samples next to
    a crossing (which shrink with the node spacing near a zero), makes the
    count a property of the mode: it does not change when the grid is
    refined in ``grid_n`` or ``k_max``.
    """
    phi = mode.values
    weighted = phi * np.sqrt(mode.grid.weights * mode.grid.nodes)
    mass = np.cumsum(weighted * weighted)
    total = mass[-1]
    if total <= 0.0:
        return 0
    keep = mass <= _NODE_MASS_CUT * total
    p = phi[keep]
    if p.size < 2:
        return 0
    peak = float(np.abs(phi).max())
    signs = np.where(p >= 0.0, 1, -1)
    starts = np.concatenate(([0], np.nonzero(signs[1:] != signs[:-1])[0] + 1))
    lobe_peaks = np.maximum.reduceat(np.abs(p), starts)
    lobe_signs = signs[starts][lobe_peaks >= _NODE_LOBE_FLOOR * peak]
    return int(np.count_nonzero(lobe_signs[1:] != lobe_signs[:-1]))


def sector_purity(kernel: SectorKernel) -> float:
    """Sum of the sector's squared gammas, taken as ||M M||_F^2.

    For the symmetric kernel M with eigenvalues e_n, M M has eigenvalues
    e_n^2 = gamma_n, so the squared Frobenius norm of M M is
    sum_n gamma_n^2 without an eigensolve. The entries of the expanded
    matrix below 2^-500 are set to zero; the kernel itself is read-only.
    """
    matrix = kernel.matrix
    matrix[np.abs(matrix) < _PURITY_FLOOR] = 0.0
    # M M = M M^T for the symmetric M; BLAS forms the latter as a
    # symmetric rank-k update, at half the cost of a general product.
    square = matrix @ matrix.T
    # A pairwise NumPy sum: np.vdot's BLAS dot splits the N^2 squares by
    # the BLAS thread count, and the filter's K_original with it.
    return float(np.square(square).sum())


def decompose_sector(kernel: SectorKernel) -> SectorSpectrum:
    """Symmetric eigenvalues of one sector kernel, ranked and labelled.

    Orders the eigenvalues by descending gamma = e^2 and drops trailing
    ones below the noise floor; a sector with nothing above the floor
    keeps its leading one. Neighbors whose gammas differ by at most 1e-9
    of the larger of the two form a degenerate group, within which the
    positive kernel eigenvalue e comes first. This gives the two modes of
    a +-e pair, which the high-m sinc sectors carry, labels that depend
    neither on the order in which the eigensolver returns them nor on the
    radial grid. No eigenvector is computed here: the mode profiles
    phi = v / sqrt(w k) are built from the kernel, in this order, when
    the spectrum's modes are first read.
    """
    # The expansion is exactly symmetric; eigvalsh reads its lower triangle.
    eigenvalues = np.linalg.eigvalsh(kernel.matrix)
    gammas = eigenvalues**2
    order = np.argsort(-gammas, kind="stable")
    # Above-floor gammas form a prefix of the descending order.
    order = order[: max(int(np.count_nonzero(gammas >= GAMMA_FLOOR)), 1)]
    ranked = gammas[order]
    split = ranked[:-1] - ranked[1:] > _DEGENERACY_RTOL * ranked[:-1]
    group = np.concatenate(([0], np.cumsum(split)))
    order = order[np.lexsort((eigenvalues[order] < 0.0, group))]
    return SectorSpectrum(
        m=kernel.m,
        gammas=gammas[order],
        signs=np.where(eigenvalues[order] >= 0.0, 1.0, -1.0),
        kernel=kernel,
        order=order,
    )


def _tied_runs(lam: np.ndarray, round_off: np.ndarray) -> np.ndarray:
    """Run index of each entry of a descending lambda table.

    The table is walked once from head to head. A run starts at its head
    and takes every following entry within max(1e-9 head, round_off[head],
    round_off[entry]) of the head; the first entry farther away is the
    head of the next run.
    """
    starts = []
    head, reach = math.inf, 0.0
    for value, scale in zip(lam.tolist(), round_off.tolist()):
        gap = head - value
        start = gap > reach and gap > scale
        if start:
            head, reach = value, max(_DEGENERACY_RTOL * value, scale)
        starts.append(start)
    return np.cumsum(starts, dtype=np.intp)


def assemble_spectrum(
    sectors: list[SectorSpectrum],
    probs: list[float],
) -> SchmidtSpectrum:
    """Combine sector spectra into the global eigenvalue table.

    Each sector entry becomes lambda_{n,m} = P_m * gamma_{n,m}; sectors
    with m > 0 are mirrored onto -m with identical weight. Entries are
    sorted by descending lambda; an entry within max(1e-9 lambda,
    4 eps P_m) of the largest entry of its run, with P_m the larger of
    the two entries' sector probabilities, is tied with it, and a tied
    run is ordered by (n, |m|, -m). The relative term is the gap under
    which decompose_sector calls gammas degenerate, so the n order of
    a sector, ± pairs included, holds in the table; the absolute term
    is the round-off of lambda = P_m gamma with gamma from the
    eigensolve of a unit-norm kernel. Exactly degenerate levels, such
    as the double-Gaussian's lambda that depends only on 2n + |m|,
    then come out in the same order whatever their last-digit
    round-off, and distinct levels stay in descending order down to
    the smallest. The summed table is the captured coverage; the
    scalar measures are computed on the coverage-renormalized table.
    """
    if len(sectors) != len(probs):
        raise ValueError("sector and probability lists are misaligned")
    for position, sector in enumerate(sectors):
        if sector.m != position:
            raise ValueError("sector and probability lists are misaligned")

    p_m_table = {sector.m: float(p_m) for sector, p_m in zip(sectors, probs)}
    # The m >= 0 entries in build order. A mirrored -m entry has the lambda
    # and round-off of its +m twin, so it joins the twin's run right after
    # it; the runs are found on the m >= 0 entries and the mirrors added last.
    m = np.repeat(np.arange(len(sectors)), [len(s.gammas) for s in sectors])
    n = np.arange(m.size) - np.searchsorted(m, m)
    lam = np.concatenate(
        [np.empty(0), *(p_m * sector.gammas for sector, p_m in zip(sectors, probs))]
    )
    rank = np.argsort(-lam, kind="stable")
    m, n, lam = m[rank], n[rank], lam[rank]
    round_off = _TIE_EPS * np.array([*p_m_table.values()])[m]
    order = np.lexsort((m, n, _tied_runs(lam, round_off)))
    rows = np.repeat(order, np.where(m[order] > 0, 2, 1))
    mirrored = np.zeros(rows.size, dtype=bool)
    mirrored[1:] = rows[1:] == rows[:-1]
    lams = lam[rows]
    signed_m = np.where(mirrored, -m[rows], m[rows])
    entries = list(zip(n[rows].tolist(), signed_m.tolist(), lams.tolist()))

    coverage = math.fsum(lams)
    number = schmidt_number(lams)
    entropy = entanglement_entropy(lams)
    return SchmidtSpectrum(
        entries=entries,
        coverage=coverage,
        k_raw=number.raw,
        k=number.renormalized,
        entropy=entropy,
        p_m_table=p_m_table,
    )
