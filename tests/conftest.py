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

    Each call fills one (n_theta, N) radial row.

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
