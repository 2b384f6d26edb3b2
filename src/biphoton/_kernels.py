"""The two-photon amplitude formula and the tensor fill built on it.

Every amplitude value in the package comes from :func:`amplitude`: the
pointwise :func:`biphoton.amplitudes.evaluate`, the equal-magnitude slice,
and the amplitude tensor that normalization and the angular Fourier pass
sweep through :func:`row_blocks`. The tensor is
stored azimuth-major, element [i, u, j] at (k_i, dtheta_u, k_j), so a
radial row i is an (n_theta, N) block whose rows run over the azimuth and
whose contiguous axis runs over the second photon's k. The sweep fills
and hands on the distinct half of one radial row at a time (an
(n_theta // 2 + 1, N) block, 0.4 MiB at N = 200 and n_theta = 512).
:func:`fill_amplitude_block` fills one such block with NumPy, into
workspaces the sweep allocates once, leaving the normalization constant
to the caller.

The formula needs xc = 2 k q cos(dtheta) only inside linear forms
a s + b xc with s = k^2 + q^2: the sinc envelope's exponent -s - xc and
argument s - xc, the double-Gaussian exponent -(1 + t^2) s +
(t^2 - 1) xc. Each form of a radial row is one BLAS matrix product of
the (n_theta // 2 + 1, 2) table [cos(dtheta_u), 1] (:func:`cos_table`)
with the (2, N) block [[b 2 k_r k_j], [a s_j]], written straight into
the tensor row or a workspace; the pointwise evaluate and the
equal-magnitude slice pass the same (table, 2 k q, s) description.
OpenBLAS adds the two terms in order, so each value rounds as
round(round(cos_u (b 2 k_r k_j)) + a s_j): the sinc forms are bitwise
the broadcast passes over xc, and the double-Gaussian exponent differs
from (t^2 - 1) xc - (1 + t^2) s only in where t^2 - 1 is rounded in. A
product has no reduction for threads to split, so its bytes do not
depend on the BLAS thread count.

The fill is bitwise symmetric under the exchange of the two photons,
k_i <-> k_j: both the sum k_i^2 + k_j^2 and the product 2 k_i k_j round
the same either way. The sweeps' consumers therefore read only the
columns j >= i of each radial row i (the upper triangle) and count the
rest through the transpose.

The amplitude depends on the two azimuths only through cos(dtheta), so
on the uniform azimuth grid row u of a radial row equals row
n_theta - u (:func:`biphoton.grids.angular_grid` folds its cosine table,
so the table is exactly even). The fill evaluates and stores only the
distinct rows 0 .. n_theta // 2; the consumers weigh them by
:func:`mirror_weights`, which stand for the rows they mirror.

Magnitudes below 2^-900 are stored as zero. Where the pump envelope
exp(-|k + q|^2) underflows, which is most of a narrow-sinc tensor,
np.exp is ten to a hundred times slower per value than elsewhere, and
subnormal values slow the cosine projections over the tensor; the
floor keeps the fill and its consumers on the fast paths. The sinc
factor costs the same on every entry: it comes from np.tan through the
half-angle identity (on AVX-512 CPUs NumPy's float64 tan is a vector
loop, its sin a scalar one), so it runs over the whole distinct
half-row, and the flush zeroes what lies below the floor.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .grids import RadialGrid, angular_grid


class AmplitudeFamily(Enum):
    """Selects the phase-matching factor; every function here takes the member."""

    DOUBLE_GAUSSIAN = "gaussian"
    GAUSSIAN_SINC = "sinc"


_TINY = np.finfo(float).tiny

_FLOOR = 2.0**-900
"""Amplitude magnitudes below this (about 1.2e-271) are stored as zero."""

_LOG_FLOOR = float(np.log(_FLOOR))
_LOG_CLAMP = _LOG_FLOOR - 1.0
"""Exponents are clamped here, so np.exp never leaves its fast range."""


def cos_table(cos):
    """The left factor of :func:`amplitude`'s linear forms.

    Row u of the (len(cos), 2) result is (cos_u, 1), so the matrix
    product with the (2, N) block [[b 2 k q_j], [a s_j]] is the form
    a s + b xc, xc = 2 k q cos(dtheta), on every (u, j) at once.
    """
    table = np.ones((np.size(cos), 2))
    table[:, 0] = cos
    return table


def _form(table, two_kq, b, s, a, out):
    """out[u, j] = round(round(cos_u (b 2kq_j)) + a s_j), one BLAS matrix product."""
    return np.matmul(table, np.stack((b * two_kq, a * s)), out=out)


def amplitude(family, table, two_kq, s, t, out=None, half=None, work=None, live=None):
    """Unit-constant amplitude on a table of azimuths and a row of radial pairs.

    Parameters
    ----------
    family : AmplitudeFamily
        DOUBLE_GAUSSIAN or GAUSSIAN_SINC.
    table : ndarray, shape (n, 2)
        ``cos_table(cos)`` of the azimuths' cos(dtheta_u).
    two_kq, s : ndarray, shape (N,)
        2 k q and k^2 + q^2 of each radial pair, in pump-width units, so
        that |k + q|^2 = s + xc and |k - q|^2 = s - xc with
        xc = 2 k q cos(dtheta).
    t : float
        Control parameter b_sigma.
    out : ndarray, optional
        Destination, shape (n, N); allocated when omitted.
    half, work : ndarray, optional
        Workspaces shaped like out for the sinc factor's half-angle and
        tan; allocated when omitted and the family is GAUSSIAN_SINC.
    live : ndarray of bool, optional
        Workspace shaped like out for the mask of values below the floor;
        allocated when omitted.

    Returns out[u, j], exp(-|k + q|^2) times exp(-t^2 |k - q|^2) or
    sinc(t^2 |k - q|^2), with sinc(0) = 1, and zero wherever that
    magnitude is below _FLOOR = 2^-900. Every linear combination
    a s + b xc the formula needs is one matrix product of the table with
    [[b 2kq], [a s]] (:func:`_form`), written straight into out or a
    workspace. The double-Gaussian product is a single exponential of
    -(1 + t^2) s + (t^2 - 1) xc, one product and one exp per value on a
    row that stays above the floor. The sinc envelope's exponent is
    -s - xc and its argument s - xc. The factor sin(x) / x is taken as
    tan(h) / ((1 + tan^2 h) h) with h = x / 2, an exact identity:
    NumPy's float64 tan runs a vector loop where the CPU has one
    (AVX-512), at a fifth to a tenth of the cost of its scalar sin. It
    runs over every entry, with no mask. Everything is computed in out,
    half, work and live because this is the inner loop of every grid
    integral, and fresh row-sized temporaries cost more in page faults
    than in arithmetic.

    The floor keeps the arithmetic on fast paths. np.exp slows about
    tenfold where its result underflows to zero and about a
    hundredfold where it is subnormal, so exponents are clamped at
    log(_FLOOR) - 1 first, and values below the floor, which give
    subnormal intermediates in the cosine projections over the tensor
    (those of a sinc 0.25 run ran at half speed), are flushed. Every
    value at or above the floor is bitwise the unclamped formula.
    """
    shape = (len(table), np.size(two_kq))
    if out is None:
        out = np.empty(shape)
    if live is None:
        live = np.empty(shape, dtype=bool)
    t2 = t * t
    if family is AmplitudeFamily.DOUBLE_GAUSSIAN:
        _form(table, two_kq, t2 - 1.0, s, -(1.0 + t2), out)
        if _clears_floor(out, table, t2):
            return np.exp(out, out=out)
        np.maximum(out, _LOG_CLAMP, out=out)
        np.exp(out, out=out)
        np.copyto(out, 0.0, where=np.less(out, _FLOOR, out=live))
        return out
    if half is None:
        half = np.empty(shape)
    if work is None:
        work = np.empty(shape)
    # -|k + q|^2, bitwise -(s + xc) up to the sign of a zero.
    _form(table, two_kq, -1.0, s, -1.0, out)
    # An exponent below log(_FLOOR) gives an envelope below _FLOOR, so
    # no entry needs a mask: a dead one keeps exp(_LOG_CLAMP) = _FLOOR / e
    # (or its own exp, just below _FLOOR), the factor raises no magnitude
    # beyond round-off, and the flush below zeroes what stays under
    # _FLOOR.
    np.maximum(out, _LOG_CLAMP, out=out)
    np.exp(out, out=out)
    # sin(x) / x = tan(h) / ((1 + tan^2 h) h) with h = x / 2, since
    # sin(x) = 2 tan(h) / (1 + tan^2 h). |k - q|^2 >= 0, and tan(h) == h
    # in floating point for h below ~1e-8, so clamping h at the smallest
    # normal double gives a factor of exactly 1 at the removable
    # singularity, and at any rounding-negative argument. No double lies
    # on a pole of tan, and |tan| stays far below sqrt(max double) there.
    _form(table, two_kq, -1.0, s, 1.0, half)
    half *= 0.5 * t2
    np.maximum(half, _TINY, out=half)
    np.tan(half, out=work)
    np.divide(work, half, out=half)
    np.square(work, out=work)
    work += 1.0
    half /= work
    out *= half
    # A small sinc factor can take a live envelope below the floor too,
    # so the sinc family flushes every row.
    np.less(np.abs(out, out=half), _FLOOR, out=live)
    np.copyto(out, 0.0, where=live)
    return out


def _clears_floor(exponent, table, t2):
    """Whether every double-Gaussian exponent is at least log(_FLOOR) + 1.

    Such an array has every value above e * _FLOOR, so :func:`amplitude`
    skips the clamp and the flush. The rounded exponent
    round(round(cos_u (t^2 - 1) 2kq) - (1 + t^2) s) is monotone in cos_u
    for a fixed column, so the minimum of every column lies in the row of
    the table's smallest cosine for t > 1 and of its largest otherwise
    (at t = 1 every row is the same); only that row is read, whatever
    the order of the table's cosines.
    """
    cos = table[:, 0]
    row = cos.argmin() if t2 > 1.0 else cos.argmax()
    return exponent[row].min() >= _LOG_FLOOR + 1.0


def mirror_weights(n_theta):
    """Weights of the distinct azimuth rows u = 0 .. n_theta // 2.

    A sum over all n_theta azimuth rows of a radial row equals the sum
    over the distinct rows weighted by these: 1 for u = 0 and, when
    n_theta is even, for u = n_theta / 2, which have no mirror; 2 for
    every other row, which also stands for row n_theta - u.
    """
    weights = np.full(n_theta // 2 + 1, 2.0)
    weights[0] = 1.0
    if n_theta % 2 == 0:
        weights[-1] = 1.0
    return weights


def fill_workspace(n, n_theta):
    """Workspaces for :func:`fill_amplitude_block` on rows of n radial nodes.

    Returns (table, half, work, live): ``cos_table`` of the distinct
    half of the cosine table and three buffers shaped like the
    (n_theta // 2 + 1, n) half-row that the fill writes. A sweep
    allocates them once and hands them to every fill call.
    """
    h = n_theta // 2 + 1
    _, cos_dtheta = angular_grid(n_theta)
    return (
        cos_table(cos_dtheta[:h]),
        np.empty((h, n)),
        np.empty((h, n)),
        np.empty((h, n), dtype=bool),
    )


def fill_amplitude_block(out, family, k_row, k, t, workspace):
    """Fill out[u, j] with the unit-constant amplitude at (k_row, dtheta[u], k[j]).

    The azimuths are the distinct rows u = 0 .. n_theta // 2 of
    ``angular_grid(n_theta)``; the formula runs straight into out from the
    workspace's cosine table, 2 k_row k and k_row^2 + k^2.

    Parameters
    ----------
    out : ndarray, shape (n_theta // 2 + 1, len(k))
        Destination distinct half of a radial row, overwritten in place.
    family : AmplitudeFamily
        As for :func:`amplitude`.
    k_row : float
        Radial magnitude of the first photon, in pump-width units.
    k : ndarray
        Radial magnitudes of the second photon, in pump-width units.
    t : float
        Control parameter b_sigma.
    workspace : tuple
        ``fill_workspace(len(k), n_theta)``.
    """
    table, half, work, live = workspace
    amplitude(
        family, table, 2.0 * k_row * k, k_row * k_row + k * k, t,
        out=out, half=half, work=work, live=live,
    )


def row_blocks(family: AmplitudeFamily, t, grid: RadialGrid, n_theta: int):
    """Sweep the unit-constant amplitude tensor on a grid one radial row at a time.

    Yields (i, row) with row[u, j] the amplitude at (k[i], dtheta[u], k[j])
    on the distinct azimuths u = 0 .. n_theta // 2 of
    ``angular_grid(n_theta)``, shape (n_theta // 2 + 1, N), so the full
    tensor never materializes. The row is one buffer that the next step
    overwrites; consumers may modify it in place. The buffer and the fill
    workspaces are allocated once per sweep.
    """
    k = grid.nodes
    row = np.empty((n_theta // 2 + 1, grid.count))
    workspace = fill_workspace(grid.count, n_theta)
    for i in range(grid.count):
        fill_amplitude_block(row, family, k[i], k, t, workspace)
        yield i, row
