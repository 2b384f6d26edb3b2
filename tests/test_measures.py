import math

import numpy as np
import pytest

from biphoton import SchmidtSpectrum, entanglement_entropy, schmidt_number


def test_schmidt_number_arithmetic():
    number = schmidt_number([0.6, 0.3, 0.1])
    assert number.raw == pytest.approx(1.0 / 0.46)
    assert number.renormalized == pytest.approx(1.0 / 0.46)


def test_schmidt_number_renormalizes_truncated_tables():
    with pytest.warns(UserWarning, match="coverage"):
        number = schmidt_number([0.6, 0.3])
    assert number.raw == pytest.approx(1.0 / 0.45)
    assert number.renormalized == pytest.approx(0.81 / 0.45)


def test_schmidt_number_product_state():
    assert schmidt_number([1.0]) == (1.0, 1.0)


def test_entropy_values():
    assert entanglement_entropy([1.0]) == 0.0
    assert entanglement_entropy([0.25] * 4) == pytest.approx(2.0)
    # zeros contribute nothing and renormalization uses the coverage
    with_zeros = entanglement_entropy([0.5, 0.5, 0.0, 0.0])
    assert with_zeros == pytest.approx(1.0)
    assert entanglement_entropy([0.25, 0.25]) == pytest.approx(1.0)


def test_measures_ignore_the_table_order(sinc_quarter):
    # K, the entropy and the coverage are functions of the lambda multiset:
    # a shuffled table, such as a new tie order would print, gives them
    # bitwise unchanged.
    spectrum = sinc_quarter.spectrum
    rng = np.random.default_rng(20)
    for _ in range(5):
        shuffled = rng.permutation(spectrum.lambdas)
        number = schmidt_number(shuffled)
        assert number.raw == spectrum.k_raw
        assert number.renormalized == spectrum.k
        assert entanglement_entropy(shuffled) == spectrum.entropy
        assert math.fsum(shuffled) == spectrum.coverage


def test_eigenvalue_table_validation():
    with pytest.raises(ValueError, match="empty or all zero"):
        schmidt_number([])
    with pytest.raises(ValueError, match="empty or all zero"):
        entanglement_entropy([0.0, 0.0])
    with pytest.raises(ValueError, match="negative"):
        schmidt_number([0.5, -0.1])


def test_spectrum_invariant_checks():
    good = SchmidtSpectrum(
        entries=[(0, 0, 0.5), (1, 0, 0.5)],
        coverage=1.0,
        k_raw=2.0,
        k=2.0,
        entropy=1.0,
        p_m_table={0: 1.0},
    )
    assert good.lambdas.tolist() == [0.5, 0.5]
    with pytest.raises(ValueError, match="coverage"):
        SchmidtSpectrum(
            entries=[(0, 0, 1.1)],
            coverage=1.1,
            k_raw=1.0,
            k=1.0,
            entropy=0.0,
            p_m_table={0: 1.1},
        )
    with pytest.raises(ValueError, match="below 1"):
        SchmidtSpectrum(
            entries=[(0, 0, 1.0)],
            coverage=1.0,
            k_raw=0.5,
            k=0.5,
            entropy=0.0,
            p_m_table={0: 1.0},
        )
    with pytest.raises(ValueError, match="entropy"):
        SchmidtSpectrum(
            entries=[(0, 0, 1.0)],
            coverage=1.0,
            k_raw=1.0,
            k=1.0,
            entropy=-1.0,
            p_m_table={0: 1.0},
        )

