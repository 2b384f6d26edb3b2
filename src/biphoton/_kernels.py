"""The two-photon amplitude formula and the tensor fill built on it.

Every amplitude value in the package comes from :func:`amplitude`: the
pointwise :func:`biphoton.amplitudes.evaluate`, the equal-magnitude slice,
and the (N, N, n_theta) tensor that normalization, the angular Fourier
pass and the variance estimate sweep through :func:`row_blocks`. The
tensor is filled by :func:`fill_amplitude_block` with NumPy, one radial
row at a time, leaving the normalization constant to the caller.
"""

from __future__ import annotations

import numpy as np

from .grids import RadialGrid, angular_grid

GAUSSIAN = 0
SINC = 1


def amplitude(family, s, xc, t, out=None):
    """Unit-constant amplitude from the squared vector sums.

    Parameters
    ----------
    family : int
        GAUSSIAN (0) for the double-Gaussian family, SINC (1) for the
        Gaussian-pump sinc family.
    s : float or ndarray
        k^2 + q^2, in pump-width units; broadcasts against xc.
    xc : ndarray
        2 k q cos(dtheta), so that |k + q|^2 = s + xc and
        |k - q|^2 = s - xc. Used as workspace and overwritten.
    t : float
        Control parameter b_sigma.
    out : ndarray, optional
        Destination, shaped like xc; allocated when omitted.

    Returns exp(-|k + q|^2) times exp(-t^2 |k - q|^2) or
    sinc(t^2 |k - q|^2), with sinc(0) = 1. Everything is computed in out
    and xc because this is the inner loop of every grid integral, and
    fresh row-sized temporaries cost more in page faults than in
    arithmetic.
    """
    if out is None:
        out = np.empty_like(xc)
    np.add(s, xc, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    arg = np.subtract(s, xc, out=xc)
    arg *= t * t
    if family == GAUSSIAN:
        np.negative(arg, out=arg)
        out *= np.exp(arg, out=arg)
    else:
        ratio = np.sin(arg)
        np.divide(ratio, arg, out=ratio, where=arg != 0.0)
        ratio[arg == 0.0] = 1.0
        out *= ratio
    return out


def fill_amplitude_block(out, family, k_rows, k, cos_dtheta, t):
    """Fill out[r, j, u] with the unit-constant amplitude at (k_rows[r], k[j], dtheta[u]).

    Parameters
    ----------
    out : ndarray, shape (len(k_rows), len(k), len(cos_dtheta))
        Destination buffer, overwritten in place.
    family : int
        GAUSSIAN or SINC, as for :func:`amplitude`.
    k_rows, k : ndarray
        Radial magnitudes for the first and second photon, in pump-width
        units.
    cos_dtheta : ndarray
        Cosine of the relative azimuth grid.
    t : float
        Control parameter b_sigma.
    """
    c = cos_dtheta[np.newaxis, :]
    xc = np.empty((k.size, cos_dtheta.size))
    for r, kr in enumerate(k_rows):
        s = kr * kr + k * k
        x = 2.0 * kr * k
        np.multiply(x[:, np.newaxis], c, out=xc)
        amplitude(family, s[:, np.newaxis], xc, t, out=out[r])


def row_blocks(family, t, grid: RadialGrid, n_theta: int, block_rows: int = 16):
    """Sweep the unit-constant amplitude tensor on a grid in row blocks.

    Yields (start, stop, block) with block[r, j, u] the amplitude at
    (k[start + r], k[j], dtheta[u]) on ``angular_grid(n_theta)``, so the
    full (N, N, n_theta) array never materializes. The block is a view of
    one buffer that the next step overwrites; consumers may modify it in
    place.
    """
    k = grid.nodes
    n = grid.count
    _, cos_dtheta = angular_grid(n_theta)
    buf = np.empty((min(block_rows, n), n, n_theta))
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        block = buf[: stop - start]
        fill_amplitude_block(block, family, k[start:stop], k, cos_dtheta, t)
        yield start, stop, block
