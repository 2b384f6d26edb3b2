"""Reference angular coefficients of the sinc family, free of the azimuth grid.

Two exact identities turn the sector coefficient G_m(k, q) of the
unit-constant sinc amplitude exp(-|k + q|^2) sinc(t^2 |k - q|^2) into a
1-D integral:

- sin(y) / y = Int_0^1 cos(y u) du;
- (1 / 2 pi) Int e^{-z cos theta} cos(m theta) dtheta = (-1)^m I_m(z) for
  complex z, the generating function of I_m (DLMF 10.35.1).

With s = k^2 + q^2 and SciPy's exponentially scaled Ie_m(z) =
e^{-|Re z|} I_m(z),

    G_m(k, q) = (-1)^m e^{-(k - q)^2}
                Re Int_0^1 e^{i t^2 s u} Ie_m(2 k q (1 + i t^2 u)) du.

It shares no step with the tensor fill or the azimuth grid, and a hard
radial filter only restricts the radial domain, so the same G_m serves
filtered grids. Only the tests import this module, so ``import
biphoton`` still loads no SciPy.

The u-integrand turns through t^2 (k + q)^2 <= 4 t^2 k_max^2 radians.
It is integrated on composite 16-point Gauss-Legendre panels of at most
8 radians each, where the rule is exact to round-off; a single
high-order rule carries node errors that grow with its order. Each
pair's sum is a math.fsum, since near k = q = 0 the integrand is 1
everywhere and a plain dot product leaves ~50 eps of it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ive, roots_legendre

_NODES, _WEIGHTS = roots_legendre(16)

_PANEL_PHASE = 8.0
"""Largest phase, in radians, that one 16-point panel integrates."""


def sinc_coefficients(k, q, t: float, m: int, panels: int) -> np.ndarray:
    """G_m(k, q) over matching arrays of node pairs, on the given panel count."""
    k = np.asarray(k, dtype=float)[:, None]
    q = np.asarray(q, dtype=float)[:, None]
    u = ((np.arange(panels)[:, None] + 0.5 * (_NODES + 1.0)) / panels).ravel()
    w = np.tile(_WEIGHTS / (2.0 * panels), panels)
    tu = t * t * u
    values = np.exp(1j * tu * (k * k + q * q)) * ive(m, 2.0 * k * q * (1.0 + 1j * tu))
    integral = np.array([math.fsum(row) for row in values.real * w])
    return (-1.0) ** m * np.exp(-np.square(k[:, 0] - q[:, 0])) * integral


def converged_sinc_coefficients(k, q, t, m, k_max, atol, panels=None) -> np.ndarray:
    """G_m(k, q) on the 2P-panel rule, asserted within atol of the P-panel one.

    P defaults to the panels that cover the phase bound 4 t^2 k_max^2 at
    8 radians each, for node pairs inside [0, k_max].
    """
    if panels is None:
        panels = math.ceil(4.0 * t * t * k_max * k_max / _PANEL_PHASE)
    coarse = sinc_coefficients(k, q, t, m, panels)
    fine = sinc_coefficients(k, q, t, m, 2 * panels)
    gap = float(np.max(np.abs(fine - coarse)))
    assert gap <= atol, f"{panels} and {2 * panels} panels differ by {gap:.2e}"
    return fine
