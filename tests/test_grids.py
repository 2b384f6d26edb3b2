import numpy as np
import pytest

from biphoton import RadialGrid, angular_grid, build_radial_grid, default_k_max
from biphoton import grids


@pytest.mark.parametrize("degree", [0, 1, 5, 17, 39])
def test_gauss_legendre_integrates_monomials_exactly(degree):
    grid = build_radial_grid(20, 0.0, 3.0)
    numeric = float(grid.weights @ grid.nodes**degree)
    exact = 3.0 ** (degree + 1) / (degree + 1)
    assert numeric == pytest.approx(exact, rel=1e-13)


def test_grid_respects_interval():
    grid = build_radial_grid(50, 2.0, 7.0)
    assert grid.count == 50
    assert grid.k_min == 2.0 and grid.k_max == 7.0
    assert grid.nodes[0] > 2.0 and grid.nodes[-1] < 7.0
    assert np.all(np.diff(grid.nodes) > 0)
    assert float(grid.weights.sum()) == pytest.approx(5.0, rel=1e-14)


def test_legendre_rule_is_computed_once_per_size(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting_leggauss(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting_leggauss)
    grids._legendre_rule.cache_clear()
    first = build_radial_grid(37, 0.5, 4.0)
    second = build_radial_grid(37, 0.5, 4.0)
    assert calls == [37]
    assert np.array_equal(first.nodes, second.nodes)
    assert np.array_equal(first.weights, second.weights)
    x, w = leggauss(37)
    assert np.array_equal(first.nodes, 0.5 + 1.75 * (x + 1.0))
    assert np.array_equal(first.weights, 1.75 * w)
    # Each grid owns its arrays; the cached [-1, 1] rule cannot be edited.
    first.nodes[0] = -1.0
    assert second.nodes[0] > 0.5
    cached_x, _ = grids._legendre_rule(37)
    with pytest.raises(ValueError):
        cached_x[0] = 0.0


def test_grid_validation():
    with pytest.raises(ValueError):
        build_radial_grid(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        build_radial_grid(10, -1.0, 1.0)
    with pytest.raises(ValueError):
        build_radial_grid(10, 2.0, 2.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            build_radial_grid(10, 0.0, bad)
    nodes = np.array([0.5, 0.4])
    weights = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match="matching"):
        RadialGrid(nodes=np.array([0.2, 0.8]), weights=np.ones(3), k_min=0.0, k_max=1.0)
    with pytest.raises(ValueError, match="increasing"):
        RadialGrid(nodes=nodes, weights=weights, k_min=0.0, k_max=1.0)
    with pytest.raises(ValueError, match="positive"):
        RadialGrid(
            nodes=np.array([0.2, 0.8]),
            weights=np.array([0.5, -0.5]),
            k_min=0.0,
            k_max=1.0,
        )


@pytest.mark.parametrize(
    ("b_sigma", "expected"),
    [(0.25, 32.0), (0.5, 16.0), (1.0, 8.0), (2.0, 8.0), (4.0, 8.0)],
)
def test_default_k_max(b_sigma, expected):
    assert default_k_max(b_sigma) == expected


def test_default_k_max_factor_and_errors():
    assert default_k_max(0.5, factor=4.0) == 8.0
    with pytest.raises(ValueError):
        default_k_max(0.0)
    with pytest.raises(ValueError):
        default_k_max(1.0, factor=-1.0)


def test_angular_grid():
    dtheta, cos_dtheta = angular_grid(8)
    assert dtheta[0] == 0.0
    assert dtheta.size == 8
    assert np.allclose(np.diff(dtheta), np.pi / 4)
    assert np.allclose(cos_dtheta, np.cos(dtheta))
    with pytest.raises(ValueError):
        angular_grid(2)
    # the cosine table is exactly even, for even and odd sizes
    for n_theta in (8, 9, 512):
        _, cos_dtheta = angular_grid(n_theta)
        assert np.array_equal(cos_dtheta[1:], cos_dtheta[:0:-1])
