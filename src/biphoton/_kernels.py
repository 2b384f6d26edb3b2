"""The two-photon amplitude formula and the tensor fill built on it.

Every amplitude value in the package comes from :func:`amplitude`: the
pointwise :func:`biphoton.amplitudes.evaluate`, the equal-magnitude slice,
and the (N, N, n_theta) tensor that normalization, the angular Fourier
pass and the variance estimate sweep through :func:`row_blocks`. The
tensor is filled by :func:`fill_amplitude_block` with NumPy, one radial
row at a time, leaving the normalization constant to the caller.

The amplitude depends on the two azimuths only through cos(dtheta), so
on the uniform azimuth grid column u of the tensor equals column
n_theta - u. The fill evaluates the formula on the distinct columns
0 .. n_theta // 2 and copies the rest as their mirror image, which
halves the sin/exp work; :func:`biphoton.grids.angular_grid` folds its
cosine table the same way, so every consumer sees an exactly even table.
"""

from __future__ import annotations

import numpy as np

from .grids import RadialGrid, angular_grid

GAUSSIAN = 0
SINC = 1

_TINY = np.finfo(float).tiny


def amplitude(family, s, xc, t, out=None, work=None):
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
    work : ndarray, optional
        Workspace shaped like xc for the sinc ratio; allocated when
        omitted and the family is SINC.

    Returns exp(-|k + q|^2) times exp(-t^2 |k - q|^2) or
    sinc(t^2 |k - q|^2), with sinc(0) = 1. The double-Gaussian product
    is a single exponential of -(1 + t^2) s - (1 - t^2) xc, three array
    operations per value. Everything is computed in out, xc and work
    because this is the inner loop of every grid integral, and fresh
    row-sized temporaries cost more in page faults than in arithmetic.
    """
    if out is None:
        out = np.empty_like(xc)
    t2 = t * t
    if family == GAUSSIAN:
        np.multiply(xc, t2 - 1.0, out=out)
        out -= (1.0 + t2) * s
        np.exp(out, out=out)
    else:
        np.add(s, xc, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        arg = np.subtract(s, xc, out=xc)
        arg *= t2
        # |k - q|^2 >= 0, and sin(x) == x in floating point for |x| below
        # ~1e-8, so clamping at the smallest normal double gives
        # sin(x) / x == 1 exactly at the removable singularity, and at any
        # rounding-negative argument, without a mask.
        np.maximum(arg, _TINY, out=arg)
        ratio = np.sin(arg, out=work)
        np.divide(ratio, arg, out=ratio)
        out *= ratio
    # A value below the smallest normal double is zero for every purpose
    # here, but as a subnormal operand it slows the FFT and BLAS passes
    # that consume the tensor (threefold for the coefficient projection of
    # a sinc 0.25 run), so it is flushed.
    np.copyto(out, 0.0, where=np.abs(out, out=xc) < _TINY)
    return out


def fill_amplitude_block(out, family, k_rows, k, t):
    """Fill out[r, j, u] with the unit-constant amplitude at (k_rows[r], k[j], dtheta[u]).

    The azimuths are ``angular_grid(out.shape[2])``. Per radial row the
    formula runs on columns 0 .. n_theta // 2 only; column u > n_theta // 2
    is a copy of column n_theta - u, which holds the same cosine.

    Parameters
    ----------
    out : ndarray, shape (len(k_rows), len(k), n_theta)
        Destination buffer, overwritten in place.
    family : int
        GAUSSIAN or SINC, as for :func:`amplitude`.
    k_rows, k : ndarray
        Radial magnitudes for the first and second photon, in pump-width
        units.
    t : float
        Control parameter b_sigma.
    """
    n_theta = out.shape[2]
    h = n_theta // 2 + 1
    _, cos_dtheta = angular_grid(n_theta)
    c = cos_dtheta[np.newaxis, :h]
    xc = np.empty((k.size, h))
    half = np.empty((k.size, h))
    work = np.empty((k.size, h))
    for r, kr in enumerate(k_rows):
        s = kr * kr + k * k
        x = 2.0 * kr * k
        np.multiply(x[:, np.newaxis], c, out=xc)
        amplitude(family, s[:, np.newaxis], xc, t, out=half, work=work)
        row = out[r]
        row[:, :h] = half
        row[:, h:] = half[:, n_theta - h : 0 : -1]


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
    buf = np.empty((min(block_rows, n), n, n_theta))
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        block = buf[: stop - start]
        fill_amplitude_block(block, family, k[start:stop], k, t)
        yield start, stop, block
