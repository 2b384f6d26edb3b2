import numpy as np
import pytest

import biphoton
from biphoton import _kernels


@pytest.fixture(scope="session")
def gauss_model_grid():
    """Normalized double-Gaussian model at t = 0.5 with its default grid."""
    grid = biphoton.build_radial_grid(200, 0.0, biphoton.default_k_max(0.5))
    model = biphoton.normalize(
        biphoton.AmplitudeModel.from_b_sigma("gaussian", 0.5), grid
    )
    return model, grid


@pytest.fixture(scope="session")
def gauss_kernels(gauss_model_grid):
    """Angular sectors m = 0 .. 24 of the t = 0.5 double-Gaussian."""
    model, grid = gauss_model_grid
    return biphoton.angular_fourier(model, grid, 24, 512)


@pytest.fixture(scope="session")
def sinc_quarter():
    """Full decomposition of the sinc amplitude at t = 0.25 (default grid)."""
    return biphoton.decompose("sinc", 0.25)


@pytest.fixture
def fill_shapes(monkeypatch):
    """Shapes of the blocks passed to _kernels.fill_amplitude_block, in call order.

    Each call fills the distinct half of one radial row, an
    (n_theta // 2 + 1, N) block.

    perfbench counts the values a run fills the same way, from the size
    of the first argument.
    """
    shapes = []
    fill = _kernels.fill_amplitude_block

    def counting_fill(*args, **kwargs):
        shapes.append(args[0].shape)
        return fill(*args, **kwargs)

    monkeypatch.setattr(_kernels, "fill_amplitude_block", counting_fill)
    return shapes


def _full_tensor(family, t, k_rows, k, n_theta):
    """The unit-constant amplitude at (k_rows[r], dtheta[u], k[j]) on every azimuth.

    Shape (len(k_rows), n_theta, len(k)): one _kernels.amplitude call per
    radial row on cos_table of the whole folded angular_grid(n_theta)
    cosine table, odd n_theta included. The sweep fills only the distinct
    rows u = 0 .. n_theta // 2; this reference does not go through it.
    """
    _, cos_dtheta = biphoton.angular_grid(n_theta)
    table = _kernels.cos_table(cos_dtheta)
    family = biphoton.AmplitudeFamily(family)
    return np.stack(
        [_kernels.amplitude(family, table, 2.0 * kr * k, kr * kr + k * k, t) for kr in k_rows]
    )


@pytest.fixture(scope="session")
def full_tensor():
    """The full-tensor reference, as a function of (family, t, k_rows, k, n_theta)."""
    return _full_tensor
