import math
import os
import subprocess
import sys

import numpy as np
import pytest

import biphoton
from biphoton import (
    AmplitudeFamily,
    AmplitudeModel,
    RunConfig,
    TransverseVector,
    analytic_norm_constant,
    angular_grid,
    build_radial_grid,
    crystal_b,
    default_k_max,
    evaluate,
    normalize,
    unit_norm_integral,
)
from biphoton import _kernels


def _normalized(family, t, n=200, n_theta=512):
    grid = build_radial_grid(n, 0.0, default_k_max(t))
    return normalize(AmplitudeModel.from_b_sigma(family, t), grid, n_theta), grid


def test_family_from_string():
    assert AmplitudeFamily("gaussian") is AmplitudeFamily.DOUBLE_GAUSSIAN
    assert AmplitudeFamily("sinc") is AmplitudeFamily.GAUSSIAN_SINC
    model = AmplitudeModel.from_b_sigma("sinc", 0.3)
    assert model.family is AmplitudeFamily.GAUSSIAN_SINC
    assert model.b_sigma == pytest.approx(0.3)


def test_model_validation():
    with pytest.raises(ValueError):
        AmplitudeModel.from_b_sigma("gaussian", -1.0)
    with pytest.raises(ValueError):
        AmplitudeModel(AmplitudeFamily.GAUSSIAN_SINC, sigma_perp=0.0)
    with pytest.raises(ValueError):
        AmplitudeModel(AmplitudeFamily.GAUSSIAN_SINC, cutoff=-0.1)
    with pytest.raises(ValueError, match="norm_constant"):
        AmplitudeModel(AmplitudeFamily.GAUSSIAN_SINC, norm_constant=-1.0)
    with pytest.raises(ValueError):
        TransverseVector(k_mag=-1.0, theta=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            AmplitudeModel(AmplitudeFamily.GAUSSIAN_SINC, sigma_perp=bad)
        with pytest.raises(ValueError, match="finite"):
            AmplitudeModel.from_b_sigma("sinc", bad)
        with pytest.raises(ValueError, match="finite"):
            AmplitudeModel.from_b_sigma("sinc", 0.5, cutoff=bad)


def test_evaluate_requires_normalization():
    model = AmplitudeModel.from_b_sigma("gaussian", 0.5)
    k = TransverseVector(1.0, 0.0)
    with pytest.raises(ValueError, match="normalize first"):
        evaluate(model, k, k)


def test_evaluate_matches_hand_formula():
    model, _ = _normalized("sinc", 0.5)
    k = TransverseVector(1.2, 0.3)
    q = TransverseVector(0.7, 2.0)
    s = 1.2**2 + 0.7**2
    x = 2.0 * 1.2 * 0.7 * math.cos(0.3 - 2.0)
    arg = 0.25 * (s - x)
    expected = model.norm_constant * math.exp(-(s + x)) * math.sin(arg) / arg
    assert evaluate(model, k, q) == pytest.approx(expected, rel=1e-14)


def test_evaluate_gaussian_phase_matching():
    model, _ = _normalized("gaussian", 2.0)
    k = TransverseVector(0.9, 1.0)
    q = TransverseVector(0.4, -0.5)
    s = 0.9**2 + 0.4**2
    x = 2.0 * 0.9 * 0.4 * math.cos(1.5)
    expected = model.norm_constant * math.exp(-(s + x)) * math.exp(-4.0 * (s - x))
    assert evaluate(model, k, q) == pytest.approx(expected, rel=1e-14)


def test_evaluate_symmetries():
    model, _ = _normalized("sinc", 0.7)
    rng = np.random.default_rng(7)
    for _ in range(20):
        km, qm = rng.uniform(0.05, 3.0, size=2)
        tk, tq, shift = rng.uniform(-np.pi, np.pi, size=3)
        k = TransverseVector(km, tk)
        q = TransverseVector(qm, tq)
        # photon exchange
        assert evaluate(model, k, q) == pytest.approx(
            evaluate(model, q, k), rel=1e-13
        )
        # joint rotation of both azimuths
        rotated = evaluate(
            model,
            TransverseVector(km, tk + shift),
            TransverseVector(qm, tq + shift),
        )
        assert rotated == pytest.approx(evaluate(model, k, q), rel=1e-13)


def test_evaluate_sinc_removable_singularity():
    model, _ = _normalized("sinc", 1.0)
    value = evaluate(model, TransverseVector(1.0, 0.0), TransverseVector(1.0, 0.0))
    # k = q and dtheta = 0 makes the phase-matching argument vanish.
    assert value == pytest.approx(model.norm_constant * math.exp(-4.0), rel=1e-14)


@pytest.mark.parametrize("family", ["gaussian", "sinc"])
def test_fill_block_matches_evaluate(family):
    t = 0.35
    model = AmplitudeModel(AmplitudeFamily(family), b=t, norm_constant=1.0)
    rng = np.random.default_rng(11)
    k_rows = rng.uniform(0.05, 3.0, size=5)
    k = np.append(rng.uniform(0.05, 3.0, size=6), k_rows[2])
    for n_theta in (16, 15):
        dtheta, _ = angular_grid(n_theta)
        out = np.full((k_rows.size, n_theta, k.size), np.nan)
        _kernels.fill_amplitude_block(out, model.family, k_rows, k, t)
        # every entry is written, the mirrored upper half included
        assert np.all(np.isfinite(out))
        for r, kr in enumerate(k_rows):
            for j, kj in enumerate(k):
                for u, du in enumerate(dtheta):
                    expected = evaluate(
                        model, TransverseVector(kr, du), TransverseVector(kj, 0.0)
                    )
                    assert out[r, u, j] == pytest.approx(expected, rel=1e-13, abs=0.0)
        # the fill is exactly even in dtheta: row u equals row n_theta - u
        assert np.array_equal(out[:, 1:], out[:, :0:-1])
        # k = q at dtheta = 0 puts the sinc argument at exactly zero: sinc(0) = 1.
        assert out[2, 0, -1] == pytest.approx(math.exp(-4.0 * k_rows[2] ** 2), rel=1e-14)


def test_gaussian_amplitude_is_the_two_factor_product():
    # One exponential of -(1 + t^2) s - (1 - t^2) xc against the product
    # exp(-|k + q|^2) exp(-t^2 |k - q|^2). Both round their exponents at
    # the scale of the largest term, (1 + t^2) s, which near k = -q far
    # exceeds the exponent itself.
    rng = np.random.default_rng(5)
    for t in (0.2, 0.5, 1.0, 1.25, 2.5):
        k, q = rng.uniform(0.0, 8.0 / min(t, 1.0), size=(2, 500))
        cos = np.cos(rng.uniform(0.0, 2.0 * np.pi, size=8))
        two_kq, s = 2.0 * k * q, k * k + q * q
        xc = cos[:, None] * two_kq
        plus, minus = s + xc, s - xc
        exponent = plus + t * t * minus
        expected = np.exp(-plus) * np.exp(-t * t * minus)
        table = _kernels.cos_table(cos)
        value = _kernels.amplitude(AmplitudeFamily.DOUBLE_GAUSSIAN, table, two_kq, s, t)
        s = np.broadcast_to(s, xc.shape)
        # An exponent beyond log(1 / _FLOOR) = 900 log 2 gives a value
        # below the floor, which is flushed to zero.
        normal = exponent < -math.log(_kernels._FLOOR)
        assert np.count_nonzero(normal) > 500
        rel = np.abs(value[normal] - expected[normal]) / expected[normal]
        assert np.all(rel <= 1e-15 * (1.0 + (1.0 + t * t) * s[normal]))
        flushed = np.abs(value[~normal] - expected[~normal])
        assert np.all(flushed <= _kernels._FLOOR)
        assert np.all((value == 0.0) | (value >= _kernels._FLOOR))


@pytest.mark.parametrize("family", ["gaussian", "sinc"])
def test_amplitude_returns_no_subnormal_values(family):
    # |k + q|^2 from 600 to 760 crosses the floor at 900 log 2 = 623.8 and
    # the subnormal range of exp(-x) beyond 708.
    plus = np.linspace(600.0, 760.0, 4001)
    s = 0.5 * plus + 1.0
    xc = 0.5 * plus - 1.0
    family = AmplitudeFamily(family)
    value = _kernels.amplitude(family, _kernels.cos_table([1.0]), xc, s, 0.3)[0]
    magnitude = np.abs(value)
    assert np.all((magnitude == 0.0) | (magnitude >= _kernels._FLOOR))
    assert np.count_nonzero(magnitude) > 0 and np.count_nonzero(magnitude == 0.0) > 0
    assert np.all(magnitude[plus > 625.0] == 0.0)


def test_exponent_clamp_stays_in_the_fast_range():
    # exp is about ten times slower where it underflows and a hundred
    # times where its result is subnormal, from about -708 down.
    clamped = math.exp(_kernels._LOG_CLAMP)
    assert np.finfo(float).tiny < clamped < _kernels._FLOOR
    assert _kernels._LOG_CLAMP > -700.0
    assert _kernels._LOG_CLAMP < _kernels._LOG_FLOOR < _kernels._LOG_CLAMP + 1.5


def _plain_half(family, k_rows, k, t, n_theta):
    """The amplitude formula on columns 0 .. n_theta // 2, unclamped and unmasked."""
    _, cos_dtheta = angular_grid(n_theta)
    s = (k_rows[:, None] * k_rows[:, None] + k * k)[:, :, None]
    two_kq = (2.0 * k_rows[:, None] * k)[:, :, None]
    cos = cos_dtheta[: n_theta // 2 + 1]
    t2 = t * t
    if family is AmplitudeFamily.DOUBLE_GAUSSIAN:
        # (t^2 - 1) 2 k q times the cosine, then -(1 + t^2) s added, each
        # rounded once, as the fill's matrix product takes it.
        exponent = ((t2 - 1.0) * two_kq) * cos
        exponent += -(1.0 + t2) * s
        return np.exp(exponent)
    xc = two_kq * cos
    # sin(x) / x through tan(h) with h = x / 2, as the fill takes it.
    half = np.maximum((s - xc) * (0.5 * t2), np.finfo(float).tiny)
    tan = np.tan(half)
    return np.exp(-(s + xc)) * (tan / half / (1.0 + tan * tan))


@pytest.mark.parametrize(
    "family, t",
    [
        ("sinc", 0.25),
        ("sinc", 0.5),
        ("gaussian", 2.5),
        ("gaussian", 0.5),
        ("gaussian", 0.999),
        ("gaussian", 1.0),
        ("gaussian", 1.001),
    ],
)
def test_fill_keeps_every_value_above_the_floor_bitwise(family, t):
    # The clamp and the gaussian row shortcut change no value at or
    # above the floor and leave no nonzero value below it.
    # Every gaussian case has rows that never reach the floor, which
    # skip the clamp and the flush, and rows that do. Near t = 1, where
    # t^2 - 1 changes sign and with it the azimuth row the shortcut
    # reads, the exponent is about -2 s, so those cases take a grid to
    # k = 13, on which rows beyond k = 11.9 reach the floor.
    family = AmplitudeFamily(family)
    k_max = default_k_max(t) if abs(t * t - 1.0) > 0.01 else 13.0
    grid = build_radial_grid(200, 0.0, k_max)
    k_rows = grid.nodes[::9]
    n_theta = 512
    out = np.full((k_rows.size, n_theta, grid.count), np.nan)
    _kernels.fill_amplitude_block(out, family, k_rows, grid.nodes, t)
    plain = _plain_half(family, k_rows, grid.nodes, t, n_theta).transpose(0, 2, 1)
    kept = np.abs(plain) >= _kernels._FLOOR
    assert np.any(kept) and np.any(~kept)
    assert np.array_equal(out[:, : n_theta // 2 + 1], np.where(kept, plain, 0.0))
    # The mirror rows are written too: no NaN of the starting buffer is left.
    assert not np.isnan(out).any()
    magnitude = np.abs(out)
    assert not np.any((magnitude > 0.0) & (magnitude < _kernels._FLOOR))


_SINC_GRIDS = [(0.2, 0.0), (1.0, 0.0), (5.0, 0.0), (20.0, 0.0), (0.4, 2.0)]
"""(b_sigma, mu_c) of the sinc accuracy and exception tests: default grids
at both ends of b_sigma and a filtered grid that starts at the cutoff."""


@pytest.mark.parametrize("t, mu_c", _SINC_GRIDS)
def test_sinc_fill_matches_the_sine_formula(t, mu_c):
    # The fill takes sin(x) / x through tan(x / 2); every value stays
    # within 4 eps of the envelope of exp(-|k + q|^2) sin(x) / x taken
    # through np.sin, and a flushed one was below the floor.
    grid = RunConfig(family="sinc", b_sigma=t, mu_c=mu_c).radial_grid()
    k_rows = grid.nodes[::7]
    n_theta = 512
    out = np.empty((k_rows.size, n_theta, grid.count))
    _kernels.fill_amplitude_block(out, AmplitudeFamily.GAUSSIAN_SINC, k_rows, grid.nodes, t)
    _, cos_dtheta = angular_grid(n_theta)
    s = (k_rows[:, None] * k_rows[:, None] + grid.nodes * grid.nodes)[:, None, :]
    xc = (2.0 * k_rows[:, None] * grid.nodes)[:, None, :] * cos_dtheta[:, None]
    envelope = np.exp(-(s + xc))
    arg = np.maximum((s - xc) * (t * t), np.finfo(float).tiny)
    expected = envelope * (np.sin(arg) / arg)
    eps = np.finfo(float).eps
    stored = out != 0.0
    assert np.count_nonzero(stored) > out.size // 4
    assert np.all(np.abs(out - expected)[stored] <= 4.0 * eps * envelope[stored])
    assert np.all(np.abs(expected[~stored]) < _kernels._FLOOR * (1.0 + 4.0 * eps))


@pytest.mark.parametrize("t", [0.2, 1.0, 20.0])
def test_sinc_factor_at_zero_and_at_multiples_of_pi(t):
    # On the diagonal k = q at dtheta = 0 the factor is exactly 1; where
    # t^2 |k - q|^2 is the double nearest n pi, sin nearly vanishes and
    # tan(x / 2) sits at a zero (n even) or next to a pole (n odd).
    eps = np.finfo(float).eps
    k = np.linspace(0.0, 3.0, 31)
    s = 2.0 * k * k
    one = _kernels.cos_table([1.0])
    value = _kernels.amplitude(AmplitudeFamily.GAUSSIAN_SINC, one, s, s, t)[0]
    assert np.array_equal(value, np.exp(-2.0 * s))
    n = np.arange(1.0, 400.0)
    minus = n * np.pi / (t * t)
    plus = np.full_like(minus, 1.0)
    value = _kernels.amplitude(
        AmplitudeFamily.GAUSSIAN_SINC, one, 0.5 * (plus - minus), 0.5 * (plus + minus), t
    )[0]
    arg = (0.5 * (plus + minus) - 0.5 * (plus - minus)) * (t * t)
    expected = np.exp(-plus) * (np.sin(arg) / arg)
    assert np.all(np.isfinite(value))
    assert np.all(np.abs(value - expected) <= 4.0 * eps * np.exp(-plus))


@pytest.mark.parametrize("t, mu_c", _SINC_GRIDS)
def test_sinc_fill_raises_no_floating_point_exception(t, mu_c):
    # The factor runs unmasked over every entry, through the poles of
    # tan(x / 2) included; an overflow, a NaN or a division by zero there
    # must not pass silently. Underflow is left out: a dead entry may go
    # subnormal before the flush zeroes it.
    grid = RunConfig(family="sinc", b_sigma=t, mu_c=mu_c).radial_grid()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for _, row in _kernels.row_blocks(AmplitudeFamily.GAUSSIAN_SINC, t, grid, 512):
            assert np.all(np.isfinite(row))


@pytest.mark.parametrize("t", [0.5, 0.999, 1.0, 1.001, 1.8, 2.5])
def test_gaussian_floor_check_reads_the_extreme_azimuth_row(t):
    # The fill's exponent rows run over the descending distinct half of
    # cos(dtheta) (257 rows), the slice's over the whole non-monotone
    # table (512); the check that reads the row of the extreme cosine
    # decides as the minimum over all of them.
    # Near t = 1 the exponent is about -2 s and the extreme rows differ
    # by |t^2 - 1| 4 k q, so the rows that straddle the floor lie in a
    # narrow band: on a grid to k = 13, radial rows 0.0025 apart across
    # 11.5 .. 12.5 put about ten rows between the two extreme rows'
    # decisions when t^2 - 1 is 0.002 either way.
    if abs(t * t - 1.0) > 0.01:
        k = build_radial_grid(200, 0.0, default_k_max(t)).nodes
        rows = k
    else:
        k = build_radial_grid(200, 0.0, 13.0).nodes
        rows = np.linspace(11.5, 12.5, 401)
    t2 = t * t
    for rows_u in (257, 512):
        c = angular_grid(512)[1][:rows_u, None]
        table = _kernels.cos_table(c[:, 0])
        decisions = set()
        for kr in rows:
            # The exponent as the fill rounds it, see _plain_half.
            exponent = c * ((t2 - 1.0) * (2.0 * kr * k))
            exponent += -(1.0 + t2) * (kr * kr + k * k)
            expected = bool(exponent.min() >= _kernels._LOG_FLOOR + 1.0)
            assert _kernels._clears_floor(exponent, table, t2) == expected
            decisions.add(expected)
        assert decisions == {True, False}


@pytest.mark.parametrize("family", ["gaussian", "sinc"])
def test_amplitude_ignores_stale_workspaces(family):
    # One radial row of the sinc 0.25 grid, which crosses the floor: stale
    # NaN and boolean contents in work and live must not reach the result.
    k = build_radial_grid(200, 0.0, default_k_max(0.25)).nodes
    _, cos_dtheta = angular_grid(512)
    kr = k[150]
    family = AmplitudeFamily(family)
    table = _kernels.cos_table(cos_dtheta[:257])
    row = (table, 2.0 * kr * k, kr * kr + k * k, 0.25)
    fresh = _kernels.amplitude(family, *row)
    assert 0 < np.count_nonzero(fresh) < fresh.size
    for stale in (True, False):
        half = np.full_like(fresh, np.nan)
        work = np.full_like(fresh, np.nan)
        live = np.full(fresh.shape, stale)
        value = _kernels.amplitude(family, *row, half=half, work=work, live=live)
        assert np.array_equal(value, fresh)


@pytest.mark.parametrize("family", ["gaussian", "sinc"])
def test_evaluate_stores_values_below_the_floor_as_zero(family):
    # k = q at dtheta = 0 gives |k + q|^2 = 4 k^2 and |k - q|^2 = 0, so the
    # unit-constant amplitude is exp(-4 k^2) in both families.
    model = AmplitudeModel(AmplitudeFamily(family), b=1.0, norm_constant=1.0)
    for plus in (600.0, 620.0, 630.0, 700.0):
        vec = TransverseVector(math.sqrt(plus / 4.0), 0.0)
        value = evaluate(model, vec, vec)
        expected = math.exp(-4.0 * vec.k_mag**2)
        assert expected > np.finfo(float).tiny
        if expected >= _kernels._FLOOR:
            assert value == pytest.approx(expected, rel=1e-14)
        else:
            assert value == 0.0


def test_cutoff_step():
    grid = build_radial_grid(200, 1.0, default_k_max(0.5) * 1.5)
    model = normalize(
        AmplitudeModel.from_b_sigma("gaussian", 0.5, cutoff=1.0), grid, 512
    )
    below = TransverseVector(0.99, 0.0)
    at = TransverseVector(1.0, 0.0)
    above = TransverseVector(1.5, 1.0)
    assert evaluate(model, below, above) == 0.0
    assert evaluate(model, above, below) == 0.0
    assert evaluate(model, at, at) > 0.0


def test_normalize_sets_unit_norm():
    model, grid = _normalized("sinc", 0.4)
    integral = unit_norm_integral(model, grid, 512)
    assert integral * model.unit_norm_constant**2 == pytest.approx(1.0, rel=1e-12)


def test_normalize_is_reproducible():
    model, grid = _normalized("gaussian", 0.8)
    again = normalize(model, grid, 512)
    assert again.norm_constant == model.norm_constant


def test_gaussian_norm_matches_closed_form():
    for t in (0.25, 0.5, 1.0, 2.0):
        model, _ = _normalized("gaussian", t)
        assert model.unit_norm_constant == pytest.approx(
            analytic_norm_constant(t), rel=1e-10
        )


@pytest.mark.parametrize("family, t", [("gaussian", 1.7), ("sinc", 0.25)])
def test_fill_is_symmetric_under_photon_exchange(family, t):
    # The triangle sweeps rely on C(k_i, k_j, dtheta) and C(k_j, k_i, dtheta)
    # being the same double, not merely close.
    k = build_radial_grid(60, 0.0, default_k_max(t)).nodes
    out = np.empty((k.size, 128, k.size))
    _kernels.fill_amplitude_block(out, AmplitudeFamily(family), k, k, t)
    assert np.any(out != 0.0)
    assert np.array_equal(out, out.transpose(2, 1, 0))


_FILL_DIGEST = """
import hashlib, sys
import numpy as np
from biphoton import AmplitudeFamily, build_radial_grid, default_k_max, _kernels
family, t = AmplitudeFamily(sys.argv[1]), float(sys.argv[2])
k = build_radial_grid(1200, 0.0, default_k_max(t)).nodes
out = np.empty((2, 1024, k.size))
_kernels.fill_amplitude_block(out, family, k[300::600], k, t)
print(hashlib.sha256(out.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("family, t", [("gaussian", 1.5), ("sinc", 0.25)])
def test_fill_bytes_do_not_depend_on_the_blas_thread_count(family, t):
    # Each fill row's forms are one BLAS matrix product. OpenBLAS 0.3.31
    # keeps a (513, 2) x (2, 400) product on one thread, but splits the
    # (513, 2) x (2, 1200) product of n_theta 1024 and N 1200 over two
    # (seen in the per-thread CPU ticks).
    source = os.path.dirname(os.path.dirname(os.path.abspath(biphoton.__file__)))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _FILL_DIGEST, family, str(t)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


@pytest.mark.parametrize("family, t", [("gaussian", 1.5), ("sinc", 0.3)])
def test_row_sweep_is_one_fill_of_the_whole_tensor(family, t):
    # One buffer and one workspace serve every row of a sweep; stale
    # values of the last row and of the workspace must not leak into the
    # next, so every row is bitwise that of one fill of the whole tensor.
    family = AmplitudeFamily(family)
    grid = build_radial_grid(37, 0.0, default_k_max(t))
    full = np.empty((grid.count, 256, grid.count))
    _kernels.fill_amplitude_block(full, family, grid.nodes, grid.nodes, t)
    rows = []
    for i, row in _kernels.row_blocks(family, t, grid, 256):
        assert i == len(rows)
        assert row.shape == (256, grid.count)
        rows.append(row.copy())
        row[...] = np.nan
    assert np.array_equal(np.stack(rows), full)


@pytest.mark.parametrize("n_theta", [15, 64])
def test_unit_norm_integral_sums_every_azimuth(n_theta):
    # The norm reads the distinct azimuth rows with mirror weights; an odd
    # n_theta has no unpaired middle row.
    model = AmplitudeModel.from_b_sigma("sinc", 0.5)
    grid = build_radial_grid(12, 0.0, default_k_max(0.5))
    full = np.empty((grid.count, n_theta, grid.count))
    _kernels.fill_amplitude_block(full, model.family, grid.nodes, grid.nodes, 0.5)
    wk = grid.weights * grid.nodes
    expected = np.einsum("i,iuj,j->", wk, full * full, wk) * (2.0 * np.pi) ** 2 / n_theta
    assert unit_norm_integral(model, grid, n_theta) == pytest.approx(expected, rel=1e-13)


def test_normalize_rejects_vanishing_integral():
    model = AmplitudeModel.from_b_sigma("gaussian", 1.0)
    grid = build_radial_grid(10, 60.0, 70.0)  # far outside the support
    with pytest.raises(ValueError, match="norm integral vanishes"):
        normalize(model, grid, 64)


def test_normalize_rejects_an_overflowing_integral():
    # At b_sigma 1e-80 the radial weights w_i k_i reach ~1e159, so their
    # products overflow; 1 / sqrt(inf) = 0 must not become the constant.
    model = AmplitudeModel.from_b_sigma("gaussian", 1e-80)
    grid = build_radial_grid(20, 0.0, default_k_max(1e-80))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="norm integral overflows"):
            normalize(model, grid, 64)


def test_crystal_b():
    b = crystal_b(2e-3, 4.652e15)
    assert b == pytest.approx(5.68e-6, rel=1e-2)
    assert b == pytest.approx(math.sqrt(299792458.0 * 2e-3 / (4 * 4.652e15)), rel=1e-15)
    with pytest.raises(ValueError):
        crystal_b(-1.0, 1.0)
    with pytest.raises(ValueError):
        crystal_b(1.0, 0.0)
