"""Angular Fourier reduction of the amplitude into fixed-m sectors.

The amplitude depends on the two azimuths only through their difference,
so expanding in exp(i m (theta_k - theta_q)) block-diagonalizes the
two-photon state into orbital-angular-momentum sectors with opposite m on
the two photons. Each sector contributes a probability P_m and a
symmetric radial kernel whose eigendecomposition is handled downstream.

Both passes sample a uniform azimuth grid, which is spectrally accurate
here because the integrand is smooth and periodic. Both passes contract
the distinct azimuth rows of each azimuth-major radial row with one
mirror-weighted (m + 1, n_theta / 2 + 1) cosine table, so the product
comes out m-major: the scan pass reduces the first rung of the sector
schedule, m <= 8, to P_m, and the coefficient pass stores the kernels.
Only m >= 0 is stored; the amplitude is real and even in the relative
azimuth, so P_m = P_{-m} and the kernels coincide. The amplitude is also
exactly symmetric under the exchange of the two photons, so both passes
project only the columns j >= i of each radial row i (the upper
triangle): the scan weighs the pairs off the diagonal twice, and the
coefficient pass stores each kernel as that triangle alone, row-packed
in N (N + 1) / 2 values (the LAPACK packed storage of a symmetric
matrix). Only this module knows the layout:
P_m is one sum over a packed row, and a SectorKernel, checked when it is
built and read-only after, expands into its full, exactly symmetric
matrix when one is read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels
from .amplitudes import AmplitudeModel, _require_normalized, normalize
from .grids import N_THETA, RadialGrid, angular_grid

__all__ = [
    "SectorKernel",
    "adaptive_sectors",
    "angular_fourier",
    "sector_coverage",
]

_TWO_PI = 2.0 * np.pi

_FIRST_RUNG = 8
"""Smallest m_max of the adaptive_sectors schedule; the scan reads m up to it."""

SECTOR_TOL = 1e-6
"""Default probability a run may leave outside its kept sectors."""


def _check_angular(n_theta, m_max=None, sector_tol=None):
    """The rules on the angular run settings; m_max and sector_tol when given.

    RunConfig and the two entry points below raise them alike. The
    doubling schedule needs a power-of-two n_theta whose first top,
    n_theta / 4, lies past the first rung, and the azimuth grid resolves
    a sector m only below n_theta / 2.
    """
    if n_theta < 64 or n_theta & (n_theta - 1):
        raise ValueError("n_theta must be a power of two, at least 64")
    if m_max is not None and not 0 <= m_max < n_theta // 2:
        raise ValueError("m_max must satisfy 0 <= m_max < n_theta / 2")
    if sector_tol is not None and not 0.0 < sector_tol < 1.0:
        raise ValueError("sector_tol must be in (0, 1)")


class _Packing(NamedTuple):
    """Index arrays of the row-packed upper triangle of an N x N matrix.

    Entry p of the packing is the p-th entry (i, j) with j >= i in row
    order: row i starts at position i N - i (i - 1) / 2 and holds the
    N - i entries j = i .. N - 1.
    """

    upper: np.ndarray
    """Flat position i N + j of packed entry p, shape (N (N + 1) / 2,)."""
    full: np.ndarray
    """Packed position of entry (min(i, j), max(i, j)), shape (N, N)."""
    counts: np.ndarray
    """Matrix entries packed entry p stands for: 1 on the diagonal, 2 above it."""


@functools.lru_cache(maxsize=8)
def _packing(n: int) -> _Packing:
    """The packing of an N x N matrix, built once per N; its arrays are read-only."""
    rows, cols = np.triu_indices(n)
    full = np.empty((n, n), dtype=np.intp)
    full[rows, cols] = full[cols, rows] = np.arange(rows.size)
    packing = _Packing(rows * n + cols, full, np.where(rows == cols, 1.0, 2.0))
    for array in packing:
        array.setflags(write=False)
    return packing


@dataclass(frozen=True, eq=False)
class SectorKernel:
    """One orbital-angular-momentum sector of the amplitude.

    SectorKernel(m, p_m, packed, grid, model=None) checks that packed
    holds the N (N + 1) / 2 finite values of the grid's N nodes and keeps
    a read-only view of it, so a kernel cannot change once it is checked.
    SectorKernel.from_matrix builds one from a full N x N matrix.

    Attributes
    ----------
    m : int
        Sector quantum number (nonnegative; negative m is its mirror).
    p_m : float
        Probability of finding the pair with quantum numbers (m, -m).
        Stored per signed m: summing over all integers m requires
        p_0 + 2 * sum over m > 0.
    packed : ndarray
        The upper triangle j >= i of the symmetric N x N Nystrom matrix
        sqrt(w_i k_i) F_m(k_i, k_j) sqrt(w_j k_j), row by row in
        N (N + 1) / 2 values. The matrix has unit Frobenius norm and the
        sign of F_m. The kernels of one angular_fourier call are
        contiguous rows of a single sector-major array.
    grid : RadialGrid
        Radial quadrature rule the matrix was built on.
    model : AmplitudeModel or None
        The normalized model whose constant p_m was scaled with; None for
        a kernel built from a matrix.
    """

    m: int
    p_m: float
    packed: np.ndarray = field(repr=False)
    grid: RadialGrid = field(repr=False)
    model: AmplitudeModel | None = field(default=None, repr=False)

    def __post_init__(self):
        n = self.grid.count
        packed = np.asarray(self.packed, dtype=float)
        if packed.shape != (n * (n + 1) // 2,):
            raise ValueError("sector kernel must be N x N on the grid's N nodes")
        if not np.all(np.isfinite(packed)):
            raise ValueError("sector kernel contains non-finite entries")
        packed = packed.view()
        packed.setflags(write=False)
        object.__setattr__(self, "packed", packed)

    @classmethod
    def from_matrix(cls, m: int, p_m: float, matrix, grid: RadialGrid) -> "SectorKernel":
        """The kernel of a full N x N matrix, finite and symmetric to 1e-10."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (grid.count, grid.count):
            raise ValueError("sector kernel must be N x N on the grid's N nodes")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("sector kernel contains non-finite entries")
        asym = float(np.max(np.abs(matrix - matrix.T)))
        if asym > 1e-10:
            raise ValueError(f"sector kernel asymmetric beyond tolerance ({asym:.3e})")
        return cls(m, p_m, matrix.take(_packing(grid.count).upper), grid)

    @property
    def matrix(self) -> np.ndarray:
        """The full symmetric N x N matrix, built anew on each read."""
        return self.packed[_packing(self.grid.count).full]


def _cosine_projections(model, grid, n_theta, m_keep):
    """Yield (i, coef) with coef[m, c] = G_m(k[i], k[i + c]), one radial row at a time.

    m runs over 0 .. m_keep. Only the upper triangle is projected: the
    fill is exactly symmetric under the exchange of the two photons,
    G_m(k_i, k_j) == G_m(k_j, k_i), so the columns j < i of row i repeat
    rows that earlier steps hold. The amplitude is even in dtheta, so its
    cosine transform needs only the distinct azimuth rows
    u = 0 .. n_theta // 2, the interior ones standing for two grid points
    each. Each radial row is multiplied from the left by an
    (m_keep + 1, n_theta // 2 + 1) cosine table that carries those mirror
    weights and the normalization; coef, shape (m_keep + 1, N - i), is a
    view of one buffer that the next step overwrites.
    """
    h = n_theta // 2 + 1
    n = grid.count
    _, cos_dtheta = angular_grid(n_theta)
    # cos(2 pi m u / n_theta) read from the folded, exactly even table.
    table = cos_dtheta[np.outer(np.arange(m_keep + 1), np.arange(h)) % n_theta]
    table *= model.unit_norm_constant / n_theta * _kernels.mirror_weights(n_theta)
    buf = np.empty((m_keep + 1) * n)
    for i, row in _kernels.row_blocks(model.family, model.b_sigma, grid, n_theta):
        coef = buf[: (m_keep + 1) * (n - i)].reshape(m_keep + 1, n - i)
        # The fill stores no magnitude below 2^-900, so no product here
        # comes out subnormal; such products ran this projection at half
        # speed on sinc 0.25 rows.
        yield i, np.matmul(table, row[:h, i:], out=coef)


def _scan_pass(model, grid, n_theta):
    """P_m for m = 0 .. 8, the first rung of the adaptive_sectors schedule.

    Each row's squared coefficients are reduced against the
    w_i k_i w_j k_j weights; a column j > i also stands for its
    transposed pair and weighs twice.
    """
    wk = grid.weights * grid.nodes
    columns = 2.0 * wk
    p_m = np.zeros(_FIRST_RUNG + 1)
    for i, coef in _cosine_projections(model, grid, n_theta, _FIRST_RUNG):
        np.square(coef, out=coef)
        # The diagonal column counts once; later rows read only j > i.
        columns[i] = wk[i]
        p_m += wk[i] * (coef @ columns[i:])
    return p_m * _TWO_PI**2


def _coefficient_pass(model, grid, n_theta, m_keep):
    """Fourier coefficients G_m(k_i, k_j) for m = 0 .. m_keep from one sweep.

    The result is sector-major, shape (m_keep + 1, N (N + 1) / 2): row m
    is the upper triangle of G_m, packed row by row as SectorKernel keeps
    it. Radial row i's projections, j = i .. N - 1, are copied straight
    into its packed segment, which follows row i - 1's.
    """
    n = grid.count
    gcoef = np.empty((m_keep + 1, n * (n + 1) // 2))
    offset = 0
    for i, coef in _cosine_projections(model, grid, n_theta, m_keep):
        gcoef[:, offset : offset + n - i] = coef
        offset += n - i
    return gcoef


def angular_fourier(
    model: AmplitudeModel,
    grid: RadialGrid,
    m_max: int,
    n_theta: int = N_THETA,
    sector_tol: float | None = None,
) -> list[SectorKernel]:
    """Sector probabilities and kernels for m = 0 .. m_max.

    For each node pair the Fourier coefficient G_m(k_i, k_j) is the
    azimuth average of the amplitude against exp(-i m dtheta); the
    coefficients are real by parity. Then

        P_m = (2 pi)^2 Int |G_m|^2 k q dk dq,

    and the stored matrix is 2 pi G_m sqrt(w_i k_i) sqrt(w_j k_j) /
    sqrt(P_m), i.e. the weighted kernel F_m scaled to unit Frobenius
    norm. The sign is inherited from G_m itself, so the matrix
    reproduces closed forms including sign; for the double-Gaussian
    below b_sigma = 1 the odd sectors are negative throughout.

    When sector_tol is given, a captured probability below 1 - sector_tol
    raises ValueError("m_max too small"); adaptive callers extend m_max
    instead.
    """
    _require_normalized(model)
    _check_angular(n_theta, m_max, sector_tol)
    gcoef = _coefficient_pass(model, grid, n_theta, m_max)
    packing = _packing(grid.count)
    sqwk = np.sqrt(grid.weights * grid.nodes)
    gcoef *= (_TWO_PI * np.outer(sqwk, sqwk)).take(packing.upper)
    p_m = []
    for packed in gcoef:
        # The squared Frobenius norm over the packed row, summed pairwise:
        # a BLAS dot splits long sums by the thread count.
        p_m.append(float(np.sum(np.square(packed) * packing.counts)))
        if p_m[-1] > 0.0:
            packed /= np.sqrt(p_m[-1])
    sectors = _sector_views(gcoef, p_m, grid, model)
    if sector_tol is not None and sector_coverage(sectors) < 1.0 - sector_tol:
        raise ValueError("m_max too small")
    return sectors


def _sector_views(gcoef, p_m, grid, model):
    """One SectorKernel per leading row gcoef[m], a read-only view of gcoef."""
    return [
        SectorKernel(m, p, packed, grid, model)
        for m, (p, packed) in enumerate(zip(p_m, gcoef))
    ]


def sector_coverage(sectors: list[SectorKernel]) -> float:
    """Total probability captured by the stored sectors, counting both signs of m."""
    return float(sum(s.p_m if s.m == 0 else 2.0 * s.p_m for s in sectors))


def _cumulative(p_m) -> np.ndarray:
    """Captured probability up to each m, counting both signs of m > 0."""
    signed = np.array(p_m, dtype=float)
    signed[1:] *= 2.0
    return np.cumsum(signed)


def adaptive_sectors(
    model: AmplitudeModel,
    grid: RadialGrid,
    sector_tol: float = SECTOR_TOL,
    n_theta: int = N_THETA,
) -> tuple[list[SectorKernel], int]:
    """Grow m_max until the captured probability reaches 1 - sector_tol.

    Follows a doubling schedule starting at m_max = 8. A scan pass first
    sums P_m for m <= 8 only; when they reach the target, the coefficient
    pass projects those nine sectors. Otherwise one coefficient pass
    projects every m <= n_theta / 4 (128 at n_theta = 512), and the
    schedule 16, 32, ..., n_theta / 4 reads that pass's own P_m. When it
    stops below the top, the pass's sector views are dropped, its one
    array is shrunk in place to the sectors up to the m_max it stops at,
    and the kept sectors are views of that, so the run holds no second
    copy and the result does not hold the top-sized array. Only under a
    profiler or tracer, whose extra reference forbids the shrink, are the
    kept sectors copied out instead, so that such a run briefly holds
    both. If n_theta / 4 cannot reach the target, n_theta is doubled (at
    most twice) before giving up; the model is normalized again on each
    doubled azimuth grid, and only the coefficient pass is repeated. The
    kept kernels carry the model whose constant scaled their P_m.

    Returns the sector list and the n_theta it was computed with.
    """
    _require_normalized(model)
    _check_angular(n_theta, sector_tol=sector_tol)
    target = 1.0 - sector_tol
    if _cumulative(_scan_pass(model, grid, n_theta))[-1] >= target:
        return angular_fourier(model, grid, _FIRST_RUNG, n_theta), n_theta
    for attempt in range(3):
        if attempt:
            # The norm integral aliases on a grid too coarse for the
            # sectors, and the P_m would carry its error.
            n_theta *= 2
            model = normalize(model, grid, n_theta)
        top = n_theta // 4
        sectors = angular_fourier(model, grid, top, n_theta)
        p_m = [sector.p_m for sector in sectors]
        cumulative = _cumulative(p_m)
        m_max = 2 * _FIRST_RUNG
        while m_max < top and cumulative[m_max] < target:
            m_max *= 2
        if cumulative[m_max] >= target:
            if m_max < top:
                gcoef = sectors[0].packed.base
                del sectors
                # With no view left, the one array shrinks in place: the
                # reallocation keeps the leading sectors and frees the tail.
                # A profiler or tracer holds one more reference, which
                # resize refuses; the leading sectors are copied out then.
                try:
                    gcoef.resize((m_max + 1, gcoef.shape[1]))
                except ValueError:
                    gcoef = gcoef[: m_max + 1].copy()
                sectors = _sector_views(gcoef, p_m, grid, model)
            return sectors, n_theta
        # Released before the doubled pass allocates its larger array.
        del sectors
    raise ValueError("angular resolution exhausted")
