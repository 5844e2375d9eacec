import errno
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs
from scipy.special import eval_genlaguerre, gammaln

try:
    from scipy.special import sph_harm_y as _sph_harm
except ImportError:  # scipy < 1.15
    from scipy.special import sph_harm as _sph_harm_legacy

    def _sph_harm(k, q, theta, phi):
        return _sph_harm_legacy(q, k, phi, theta)

from dickesim import (
    DickeSpace,
    GateConventions,
    PulseSequence,
    QuantumState,
    TargetKind,
    TargetSpec,
    apply_sequence,
    build_sx,
    build_sy,
    build_sz,
    export_grid,
    make_target,
    planar_wigner,
    spherical_wigner,
)
from dickesim import wigner
from dickesim.core import _hermitian_exp, _psd_factor
from dickesim.wigner import (
    PlaneGrid,
    SphereGrid,
    WindowWarning,
    _hermite_table,
    _kernel_diagonal,
    _planar_kernel_sum,
    _split_rows,
    export_grids,
    spherical_wigner_values,
    _theta_weights,
)
from oracle import (
    clebsch_gordan,
    hermite_table_per_level,
    kernel_diagonal_lanczos,
    load_grid_csv,
    multipole_coefficients,
    planar_kernel_sum_per_point,
    spherical_tensor,
    spherical_wigner_per_row,
)


# --- Clebsch-Gordan ---------------------------------------------------------

def test_cg_singlet():
    assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) == pytest.approx(1 / np.sqrt(2))
    assert clebsch_gordan(0.5, -0.5, 0.5, 0.5, 0, 0) == pytest.approx(-1 / np.sqrt(2))


def test_cg_stretched():
    for j in (0.5, 1, 2.5, 7):
        assert clebsch_gordan(j, j, j, j, 2 * j, 2 * j) == pytest.approx(1.0)


def test_cg_hand_table_values():
    # standard 1 x 1 table entries
    assert clebsch_gordan(1, 0, 1, 0, 2, 0) == pytest.approx(np.sqrt(2 / 3))
    assert clebsch_gordan(1, 0, 1, 0, 1, 0) == pytest.approx(0.0, abs=1e-14)
    assert clebsch_gordan(1, 1, 1, -1, 0, 0) == pytest.approx(1 / np.sqrt(3))
    assert clebsch_gordan(1, 1, 1, -1, 1, 0) == pytest.approx(1 / np.sqrt(2))


def test_cg_orthogonality_sums():
    # sum over (m1, m2) of CG(j1 m1 j2 m2 | J M) CG(j1 m1 j2 m2 | J' M) = delta_JJ'
    j = 5
    for big_j in range(0, 2 * j + 1):
        for big_jp in range(0, 2 * j + 1):
            m_total = 0
            total = 0.0
            for m1 in range(-j, j + 1):
                m2 = m_total - m1
                if abs(m2) > j:
                    continue
                total += (clebsch_gordan(j, m1, j, m2, big_j, m_total)
                          * clebsch_gordan(j, m1, j, m2, big_jp, m_total))
            assert total == pytest.approx(1.0 if big_j == big_jp else 0.0, abs=1e-10)


def test_cg_invalid_quantum_numbers_return_zero():
    assert clebsch_gordan(1, 0, 1, 0, 5, 0) == 0.0          # triangle violated
    assert clebsch_gordan(1, 0.5, 1, 0, 2, 0.5) == 0.0      # m not integral with j
    assert clebsch_gordan(1, 1, 1, 1, 2, 0) == 0.0          # M != m1 + m2
    assert clebsch_gordan(1, 2, 1, -2, 2, 0) == 0.0         # |m| > j


def test_cg_large_j_stability():
    # stretched coefficient stays exactly 1 even at large j
    assert clebsch_gordan(200, 200, 200, 200, 400, 400) == pytest.approx(1.0, rel=1e-9)
    val = clebsch_gordan(128, 0, 128, 0, 128, 0)
    assert np.isfinite(val) and abs(val) < 1.0


# --- spherical tensors ------------------------------------------------------

def test_multipole_operators_orthonormal():
    space = DickeSpace(4)
    ops = {(k, q): spherical_tensor(space, k, q)
           for k in range(5) for q in range(-k, k + 1)}
    keys = list(ops)
    for i, key1 in enumerate(keys):
        for key2 in keys[i:]:
            inner = np.trace(ops[key1].conj().T @ ops[key2])
            expected = 1.0 if key1 == key2 else 0.0
            assert inner == pytest.approx(expected, abs=1e-10)


def test_multipole_k1_q0_proportional_to_sz():
    space = DickeSpace(6)
    t10 = spherical_tensor(space, 1, 0)
    sz = build_sz(space)
    ratio = t10[1, 1] / sz[1, 1]
    assert np.allclose(t10, ratio * sz, atol=1e-12)


# --- spherical Wigner -------------------------------------------------------

def test_ground_state_wigner_peaks_at_south_pole():
    space = DickeSpace(6)
    grid = spherical_wigner(QuantumState.ground(space), n_theta=61, n_phi=64)
    # azimuthal symmetry
    assert np.max(np.std(grid.values, axis=1)) < 1e-10
    # maximal near theta = pi
    peak_row = np.argmax(grid.values[:, 0])
    assert grid.thetas[peak_row] > np.pi * (1 - 2 / 61)


def test_maximally_mixed_wigner_is_flat():
    space = DickeSpace(5)
    mixed = QuantumState(space, density=np.eye(6) / 6)
    grid = spherical_wigner(mixed, n_theta=31, n_phi=32)
    assert np.allclose(grid.values, 1 / (4 * np.pi), atol=1e-12)
    assert grid.integral() == pytest.approx(1.0, abs=1e-10)


def test_rotated_coherent_state_peak_tracks_bloch_vector():
    space = DickeSpace(10)
    sx, sy, sz = build_sx(space), build_sy(space), build_sz(space)
    rng = np.random.default_rng(4)
    for _ in range(3):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.3, 2.5)
        gen = axis[0] * sx + axis[1] * sy + axis[2] * sz
        u = _hermitian_exp(gen, 1j * angle)
        st = QuantumState(space, amplitudes=u @ QuantumState.ground(space).amplitudes)
        # oracle: Bloch direction from spin expectation values
        vec = np.array([np.vdot(st.amplitudes, m @ st.amplitudes).real
                        for m in (sx, sy, sz)])
        vec /= np.linalg.norm(vec)
        theta0 = np.arccos(np.clip(vec[2], -1, 1))
        phi0 = np.arctan2(vec[1], vec[0]) % (2 * np.pi)
        grid = spherical_wigner(st, n_theta=90, n_phi=180)
        i, k = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        dtheta = abs(grid.thetas[i] - theta0)
        dphi = abs((grid.phis[k] - phi0 + np.pi) % (2 * np.pi) - np.pi)
        assert dtheta <= np.pi / 90 + 1e-9
        assert dphi * np.sin(theta0) <= 2 * np.pi / 180 + 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spherical_wigner_normalization_random_states(seed):
    rng = np.random.default_rng(seed)
    space = DickeSpace(10)
    vec = rng.normal(size=11) + 1j * rng.normal(size=11)
    st = QuantumState.from_amplitudes(space, vec, normalize=True)
    grid = spherical_wigner(st, n_theta=16, n_phi=24)
    assert grid.integral() == pytest.approx(1.0, abs=1e-6)


def test_spherical_wigner_rotation_covariance():
    # oracle: the SO(3) matrix M with U^dag S_i U = sum_j M_ij S_j moves
    # expectation values, so W_{U psi}(x) = W_psi(M^T x) pointwise
    space = DickeSpace(8)
    sx, sy, sz = build_sx(space), build_sy(space), build_sz(space)
    spins = [sx, sy, sz]
    rng = np.random.default_rng(12)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = 1.1
    gen = axis[0] * spins[0] + axis[1] * spins[1] + axis[2] * spins[2]
    u = _hermitian_exp(gen, 1j * angle)

    norm = np.trace(spins[0] @ spins[0]).real
    m_rot = np.array([[np.trace(u.conj().T @ spins[i] @ u @ spins[j]).real / norm
                       for j in range(3)] for i in range(3)])
    assert np.allclose(m_rot @ m_rot.T, np.eye(3), atol=1e-10)

    vec = rng.normal(size=9) + 1j * rng.normal(size=9)
    psi = QuantumState.from_amplitudes(space, vec, normalize=True)
    rotated = QuantumState(space, amplitudes=u @ psi.amplitudes)

    thetas = rng.uniform(0.1, np.pi - 0.1, size=20)
    phis = rng.uniform(0, 2 * np.pi, size=20)
    pts = np.stack([np.sin(thetas) * np.cos(phis),
                    np.sin(thetas) * np.sin(phis),
                    np.cos(thetas)])
    back = m_rot.T @ pts
    theta_b = np.arccos(np.clip(back[2], -1, 1))
    phi_b = np.arctan2(back[1], back[0])
    w_rotated = spherical_wigner_values(rotated, thetas, phis)
    w_back = spherical_wigner_values(psi, theta_b, phi_b)
    assert np.max(np.abs(w_rotated - w_back)) < 1e-6


@pytest.mark.parametrize("n", [4, 40])
def test_dicke_state_wigner_is_agarwals_legendre_sum(n):
    # Agarwal (Phys. Rev. A 24, 2889 (1981)): W of |j, m> is
    # sqrt((2j+1)/4pi) sum_k <j m|T_k0|j m> Y_k0(theta), with
    # <j m|T_k0|j m> = sqrt((2k+1)/(2j+1)) <j m; k 0|j m> and
    # Y_k0 = sqrt((2k+1)/4pi) P_k(cos theta); theta -> pi - theta misses
    # the stretched states by 0.98 of max|W|, so this pins the orientation
    space, j = DickeSpace(n), n / 2
    thetas, phis = np.linspace(0.0, np.pi, 37), np.array([0.0, 1.3])
    for index in range(n + 1):
        m = index - j
        weights = [(2 * k + 1) / np.sqrt(4 * np.pi * (2 * j + 1))
                   * clebsch_gordan(j, m, k, 0, j, m) for k in range(n + 1)]
        expected = np.sqrt((2 * j + 1) / (4 * np.pi)) * np.polynomial.legendre.legval(
            np.cos(thetas), weights)
        got = spherical_wigner_values(QuantumState.basis_state(space, index),
                                      thetas[:, None], phis)
        assert np.max(np.abs(got - expected[:, None])) <= 1e-12 * np.max(np.abs(got)), m


def _harmonic_oracle(state, thetas, phis):
    """sqrt((2J+1)/(4 pi)) sum_kq rho_kq Y_kq(theta, phi) with the full harmonics."""
    ref = np.sqrt(state.space.dim / (4 * np.pi)) * sum(
        rho * _sph_harm(k, q, thetas, phis)
        for (k, q), rho in multipole_coefficients(state).items())
    assert np.max(np.abs(ref.imag)) < 1e-12
    return ref.real


def _oracle_states(space, rng):
    d = space.dim
    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    g = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
    rho = g @ g.conj().T
    return [QuantumState.from_amplitudes(space, vec, normalize=True),
            QuantumState(space, density=rho / np.trace(rho).real),
            QuantumState(space, density=np.eye(d) / d)]


def test_spherical_wigner_real():
    rng = np.random.default_rng(33)
    space = DickeSpace(7)
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    st = QuantumState.from_amplitudes(space, vec, normalize=True)
    vals = spherical_wigner_values(st, np.array([0.3, 1.2]), np.array([0.1, 4.0]))
    assert vals.dtype == np.float64
    thetas = rng.uniform(0, np.pi, (4, 1))
    phis = rng.uniform(0, 2 * np.pi, 5)
    vals = spherical_wigner_values(st, thetas, phis)
    assert vals.shape == (4, 5)
    assert np.max(np.abs(vals - _harmonic_oracle(st, thetas, phis))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 7, 20])
def test_rotated_kernel_matches_harmonic_oracle(n):
    rng = np.random.default_rng(100 + n)
    space = DickeSpace(n)
    thetas = rng.uniform(0, np.pi, (3, 1))
    phis = rng.uniform(-np.pi, 3 * np.pi, 4)
    for st in _oracle_states(space, rng):
        vals = spherical_wigner_values(st, thetas, phis)
        assert vals.shape == (3, 4)
        assert np.max(np.abs(vals - _harmonic_oracle(st, thetas, phis))) < 1e-12
        point = spherical_wigner_values(st, thetas[1, 0], phis[2])
        assert point.shape == () and abs(point - vals[1, 2]) < 1e-12
        grid = spherical_wigner(st, n_theta=5, n_phi=6)
        ref = _harmonic_oracle(st, grid.thetas[:, None], grid.phis)
        assert np.max(np.abs(grid.values - ref)) < 1e-12


@pytest.mark.parametrize("n", [40, 41, 100])
def test_frequency_form_matches_row_loop_oracle(n):
    # the trigonometric polynomial in theta against the kernel rotated row by row
    rng = np.random.default_rng(200 + n)
    space = DickeSpace(n)
    thetas, phis = rng.uniform(0, np.pi, (3, 1)), rng.uniform(-np.pi, 3 * np.pi, 4)
    scattered = rng.uniform(0, np.pi, 25), rng.uniform(0, 2 * np.pi, 25)
    pure, rank_3, flat = _oracle_states(space, rng)
    assert _psd_factor(rank_3.density).shape == (space.dim, 3)  # r columns, not d
    # the flat state's (d, d * n_phi) block costs the oracle ~0.1 s per row at N = 100
    for st, stride in ((pure, 1), (rank_3, 1), (flat, 1 if n < 100 else 17)):
        grid = spherical_wigner(st)
        scale = 1e-12 * np.max(np.abs(grid.values))
        for pts in ((thetas, phis), scattered, (thetas[1, 0], phis[2])):
            vals, ref = spherical_wigner_values(st, *pts), spherical_wigner_per_row(st, *pts)
            assert vals.shape == ref.shape
            assert np.max(np.abs(vals - ref)) < scale
        rows = slice(None, None, stride)
        ref = spherical_wigner_per_row(st, grid.thetas[rows, None], grid.phis)
        assert np.max(np.abs(grid.values[rows] - ref)) < scale


@pytest.mark.parametrize("n", [*range(1, 13), 40, 100])
def test_kernel_diagonal_matches_clebsch_gordan(n):
    # oracle: Delta from the q = 0 Clebsch-Gordan coefficients themselves
    t_k0 = [[(-1.0) ** (n - m) * clebsch_gordan(n / 2, m - n / 2, n / 2, n / 2 - m, k, 0)
             for m in range(n + 1)] for k in range(n + 1)]
    ref = math.sqrt(n + 1) / (4 * np.pi) * (np.sqrt(2.0 * np.arange(n + 1) + 1) @ np.array(t_k0))
    assert np.max(np.abs(_kernel_diagonal(n) - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [400, 1000])
def test_kernel_diagonal_matches_lanczos(n):
    ref = kernel_diagonal_lanczos(n)
    assert np.max(np.abs(_kernel_diagonal(n) - ref)) < 1e-12 * np.max(np.abs(ref))


def test_kernel_diagonal_keeps_its_sums_at_n_2000():
    # sum_m diag(T_k0) = sqrt(N+1) delta_k0 and the T_k0 are orthonormal, so
    # sum Delta = (N+1)/(4 pi) and sum Delta^2 = (N+1)/(16 pi^2) sum_k (2k+1)
    n = 2000
    delta = _kernel_diagonal(n)
    assert np.isfinite(delta).all()
    assert abs(delta.sum() / ((n + 1) / (4 * np.pi)) - 1) < 1e-11
    assert abs((delta @ delta) / ((n + 1) ** 3 / (16 * np.pi ** 2)) - 1) < 1e-12


def test_theta_weights_integrate_band_limited_functions():
    w = _theta_weights(20)
    thetas = (np.arange(20) + 0.5) * np.pi / 20
    assert w.sum() == pytest.approx(2.0, abs=1e-13)
    for ell in range(2, 18, 2):
        exact = 2.0 / (1 - ell ** 2)
        assert np.dot(w, np.cos(ell * thetas)) == pytest.approx(exact, abs=1e-12)


# --- planar Wigner ----------------------------------------------------------

def test_vacuum_planar_wigner():
    space = DickeSpace(6)
    grid = planar_wigner(QuantumState.ground(space), x_max=6, p_max=6, resolution=121)
    mid = 60
    assert grid.values[mid, mid] == pytest.approx(1 / np.pi, abs=1e-10)
    assert grid.integral() == pytest.approx(1.0, abs=1e-4)


def test_single_excitation_negative_at_origin():
    space = DickeSpace(6)
    grid = planar_wigner(QuantumState.basis_state(space, 1), x_max=6, p_max=6,
                         resolution=121)
    assert grid.values[60, 60] == pytest.approx(-1 / np.pi, abs=1e-10)


def test_planar_wigner_bounded():
    rng = np.random.default_rng(2)
    space = DickeSpace(12)
    vec = rng.normal(size=13) + 1j * rng.normal(size=13)
    st = QuantumState.from_amplitudes(space, vec, normalize=True)
    grid = planar_wigner(st, x_max=9, p_max=9, resolution=161)
    assert np.max(np.abs(grid.values)) <= 1 / np.pi + 1e-9


@pytest.mark.parametrize("n, axis, sign", [(40, (1, 0, 0), 1), (40, (1, 0, 0), -1),
                                           (40, (0, 1, 0), 1), (40, (0, 1, 0), -1),
                                           (400, (0, 1, 0), -1)])
def test_small_rotation_moves_the_plane_by_sqrt_j_theta(n, axis, sign):
    # Holstein-Primakoff: rotating |0> by theta about x moves the planar
    # grid's first moments to (0, +sqrt(j) theta), about y to
    # (+sqrt(j) theta, 0), and exponent sign -1 flips them; at theta = 0.1
    # they fall short by 4.2e-4 of it at both N (the grid-limited argmax
    # reads 0.478 at N = 40, hence the moments)
    theta = 0.1
    space = DickeSpace(n)
    state = apply_sequence(PulseSequence(space, (), axis, theta), QuantumState.ground(space),
                           GateConventions(exponent_sign=sign))
    grid = planar_wigner(state, resolution=301)
    total = grid.values.sum()
    moments = np.array([(grid.values * grid.xs[:, None]).sum(),
                        (grid.values * grid.ps[None, :]).sum()]) / total
    expected = sign * np.sqrt(n / 2) * theta * np.array(axis[1::-1], dtype=float)
    assert np.max(np.abs(moments - expected)) <= 1e-3 * np.sqrt(n / 2) * theta, moments


def _cross_wigner(alpha, gam, delt):
    """Closed-form Wigner of |gam><delt| in (x, p), alpha = (x + ip)/sqrt(2)."""
    overlap = np.exp(-0.5 * abs(gam) ** 2 - 0.5 * abs(delt) ** 2 + np.conj(delt) * gam)
    return (1 / np.pi) * np.exp(-2 * np.conj(alpha - delt) * (alpha - gam)) * overlap


def test_cat2_planar_wigner_matches_closed_form():
    space = DickeSpace(40)
    st = make_target(TargetSpec(TargetKind.CAT2, gamma=3.0), space)
    grid = planar_wigner(st, x_max=7.5, p_max=7.5, resolution=151)
    X = grid.xs[:, None]
    P = grid.ps[None, :]
    alpha = (X + 1j * P) / np.sqrt(2)
    legs = [(1.0, 3.0), (-1j, -3.0)]
    num = np.zeros_like(alpha)
    norm = 0.0
    for a_i, g_i in legs:
        for a_j, g_j in legs:
            num = num + a_i * np.conj(a_j) * _cross_wigner(alpha, g_i, g_j)
            norm = norm + a_i * np.conj(a_j) * np.exp(
                -0.5 * abs(g_i) ** 2 - 0.5 * abs(g_j) ** 2 + np.conj(g_j) * g_i)
    oracle = (num / norm).real
    assert np.max(np.abs(grid.values - oracle)) < 1e-6
    assert grid.integral() == pytest.approx(1.0, abs=1e-4)


def _planar_oracle(amps, X, P):
    """W = sum_{m,n} c_m conj(c_n) K_mn(alpha), one generalized Laguerre
    polynomial per (m, n) pair."""
    alpha = (X + 1j * P) / np.sqrt(2)
    aa = np.abs(alpha) ** 2
    envelope = np.exp(-2.0 * aa) / np.pi
    with np.errstate(divide="ignore"):
        log2a = np.log(2.0 * np.sqrt(aa))
    phase = np.exp(1j * np.angle(alpha))
    w = np.zeros_like(aa)
    for m, cm in enumerate(amps):
        w += (abs(cm) ** 2 * (-1.0) ** m) * envelope * eval_genlaguerre(m, 0, 4.0 * aa)
        for n in range(m + 1, amps.size):
            k = n - m
            mag = np.exp(0.5 * (gammaln(m + 1) - gammaln(n + 1)) + k * log2a - 2.0 * aa)
            kern = ((-1.0) ** m / np.pi) * mag * phase ** k * eval_genlaguerre(m, k, 4.0 * aa)
            w += 2.0 * np.real(cm * np.conj(amps[n]) * kern)
    return w


def _plane_axes(n, resolution):
    xs = np.linspace(-np.sqrt(2.0 * n) - 3.0, np.sqrt(2.0 * n) + 3.0, resolution)
    return xs[:, None], xs[None, :]


@pytest.mark.parametrize("n, resolution", [(4, 41), (40, 41), (100, 21)])
def test_planar_kernel_matches_laguerre_oracle(n, resolution):
    space = DickeSpace(n)
    rng = np.random.default_rng(n)
    vec = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the N = 4 GKP is truncated on purpose
        states = [QuantumState.from_amplitudes(space, vec, normalize=True),
                  make_target(TargetSpec(TargetKind.CAT2, gamma=3.0 if n >= 40 else 0.5), space),
                  make_target(TargetSpec(TargetKind.GKP_SQUARE, squeezing_db=10.0,
                                         allow_truncation=True), space)]
    X, P = _plane_axes(n, resolution)
    for st in states:
        diff = _planar_kernel_sum(st.amplitudes, X, P) - _planar_oracle(st.amplitudes, X, P)
        assert np.max(np.abs(diff)) < 1e-12


def _sparse_amplitudes():
    """N = 20 amplitudes with zeros mid-ladder, and the same with every odd
    diagonal k empty."""
    rng = np.random.default_rng(5)
    amps = rng.normal(size=21) + 1j * rng.normal(size=21)
    amps[[3, 4, 9, 10, 11, 17, 19, 20]] = 0
    even = amps.copy()
    even[1::2] = 0
    return [vec / np.linalg.norm(vec) for vec in (amps, even)]


def test_planar_kernel_zero_amplitudes_mid_ladder():
    X, P = _plane_axes(20, 31)
    for vec in _sparse_amplitudes():
        diff = _planar_kernel_sum(vec, X, P) - _planar_oracle(vec, X, P)
        assert np.max(np.abs(diff)) < 1e-12


def _random_amplitudes(n, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return vec / np.linalg.norm(vec)


def _assert_matches_per_point_walk(amps, X, P):
    # the bilinear form sums in another order than the Laguerre walk
    diff = _planar_kernel_sum(amps, X, P) - planar_kernel_sum_per_point(amps, X, P)
    assert np.max(np.abs(diff)) <= 1e-13


@pytest.mark.parametrize("n", [4, 40, 100])
@pytest.mark.parametrize("resolution", [40, 41])
def test_planar_kernel_bitwise_equals_per_point_walk(n, resolution):
    _assert_matches_per_point_walk(_random_amplitudes(n, 100 + n), *_plane_axes(n, resolution))


def test_planar_kernel_bitwise_on_asymmetric_window():
    xs, ps = np.linspace(-7.0, 7.0, 61), np.linspace(-5.0, 5.0, 60)
    _assert_matches_per_point_walk(_random_amplitudes(40, 7), xs[:, None], ps[None, :])


def test_planar_kernel_bitwise_with_zero_amplitudes_mid_ladder():
    X, P = _plane_axes(20, 31)
    for vec in _sparse_amplitudes():
        _assert_matches_per_point_walk(vec, X, P)


def test_planar_kernel_bitwise_through_the_rescale():
    # at N = 300 the window corners reach x ~ 3000, where the walk's l_m passes
    # 2^512 and its rescale runs
    st = make_target(TargetSpec(TargetKind.COHERENT, gamma=12.0), DickeSpace(300))
    _assert_matches_per_point_walk(st.amplitudes, *_plane_axes(300, 61))


@pytest.mark.parametrize("n", [4, 40, 100])
def test_planar_kernel_far_points_read_zero(n):
    # far past the support the Gaussian underflows, and the walk skips the point
    # (it would overflow there); both read +0.0
    amps = _random_amplitudes(n, 11 + n)
    near = np.array([-3.0, 0.0, 2.5])
    xs, ps = np.concatenate([[-1e6], near, [1e4]]), np.concatenate([[-1e120], near, [1e6]])
    _assert_matches_per_point_walk(amps, xs[:, None], ps[None, :])
    values = _planar_kernel_sum(amps, xs[:, None], ps[None, :])
    far = np.ones(values.shape, bool)
    far[1:4, 1:4] = False
    assert np.all(values[far] == 0) and not np.signbit(values[far]).any()


def _comb_teeth(n_max: int, spacing: float, offset: float) -> np.ndarray:
    """The teeth offset + s spacing of a square-GKP position comb of
    ``n_max`` levels, out to sqrt(2 n_max) + 6, as a Hermite argument."""
    x_cut = np.sqrt(2.0 * n_max) + 6.0
    s_max = int(np.ceil((x_cut + abs(offset)) / spacing)) + 1
    xs = offset + spacing * np.arange(-s_max, s_max + 1)
    return xs[np.abs(xs) <= x_cut]


def _comb_and_window_points(size: int) -> tuple:
    """Hermite arguments of the two square-GKP combs of ``size`` - 1 levels and
    of a default plane window at N = (size - 1) // 2."""
    x_max = math.sqrt(2.0 * ((size - 1) // 2)) + 3.0
    return (_comb_teeth(size - 1, math.sqrt(2 * math.pi), 0.0),
            _comb_teeth(size - 1, 2 * math.sqrt(math.pi), math.sqrt(math.pi)),
            math.sqrt(2.0) * np.linspace(-x_max, x_max, 201))


@pytest.mark.parametrize("size", [1, 2, 41, 81, 201, 401, 497])
def test_hermite_table_fast_path_equals_the_rescaling_path_bitwise(size):
    # below |u| = 26.6 no entry can reach 2^512, so the rescaling scales none
    # of these columns; one far point at or past 37.5 forces it, and the near
    # points' columns keep every bit
    rng = np.random.default_rng(size)
    near = np.concatenate([[0.0, -0.0, 26.59, -26.59], rng.uniform(-26.6, 26.6, 40),
                           math.sqrt(2.0) * np.linspace(-10.0, 10.0, 201)])
    for far in (37.5, -37.5, 40.0, -1e6):
        assert np.array_equal(_hermite_table(near, size),
                              _hermite_table(np.append(near, far), size)[:-1])
    # and where nothing is scaled, the table keeps the bits of the per-level
    # formula, product order included: on the near points, and up to 201
    # levels (every |u| < 26.6) on comb teeth and a default plane window
    for u in (*(_comb_and_window_points(size) if size <= 201 else ()), near):
        assert np.array_equal(_hermite_table(u, size), hermite_table_per_level(u, size))


@pytest.mark.parametrize("size", [1, 81, 401, 497, 1001, 3000])
def test_hermite_table_unscaled_up_to_the_bound_matches_the_rescaling_path(size):
    # by Cramer's inequality the unscaled per-level formula stays finite up to
    # |u| < 37.5 (an entry would overflow from |u| ~ 37.67 on); there the
    # rescaling table warns nothing and matches it, point by point, to
    # roundoff of the point's largest entry: on random points, and at 401 and
    # 497 levels on comb teeth and a default plane window (|u| up to 37.2)
    rng = np.random.default_rng(size)
    near = np.concatenate([[0.0, 26.6, -26.6, 30.0, 37.49, -37.49, np.nextafter(37.5, 0.0)],
                           rng.uniform(-37.49, 37.49, 40)])
    for u in (*(_comb_and_window_points(size) if size <= 497 else ()), near):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            table, ref = _hermite_table(u, size), hermite_table_per_level(u, size)
        assert np.isfinite(table).all() and np.isfinite(ref).all()
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(table - ref) <= 1e-13 * scale)


def test_planar_grid_keeps_weight_past_gaussian_underflow():
    # e^{-u^2/2} underflows past |u| = sqrt(2)|x| ~ 37.6; at N = 480 and gamma = 17
    # the grid row x = 27.19 (u = 38.5) still carries W ~ 1.6e-5.  gamma = 17
    # leaves a Poisson weight of 4e-25 beyond |480>, so the closed form holds.
    st = make_target(TargetSpec(TargetKind.COHERENT, gamma=17.0), DickeSpace(480))
    grid = planar_wigner(st, resolution=21)
    alpha = (grid.xs[:, None] + 1j * grid.ps[None, :]) / np.sqrt(2)
    exact = np.exp(-2 * np.abs(alpha - 17.0) ** 2) / np.pi
    assert np.max(exact[np.abs(grid.xs) * np.sqrt(2) > 37.6]) > 1e-5
    assert np.max(np.abs(grid.values - exact)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(n=hs.integers(0, 30), resolution=hs.integers(2, 41),
       x_max=hs.floats(0.5, 12.0), p_max=hs.floats(0.5, 12.0),
       seed=hs.integers(0, 2**32 - 1))
def test_planar_kernel_bitwise_property(n, resolution, x_max, p_max, seed):
    xs = np.linspace(-x_max, x_max, resolution)
    ps = np.linspace(-p_max, p_max, resolution)
    _assert_matches_per_point_walk(_random_amplitudes(n, seed), xs[:, None], ps[None, :])


def test_planar_grid_raises_no_runtime_warning():
    rng = np.random.default_rng(6)
    vec = rng.normal(size=41) + 1j * rng.normal(size=41)
    st = QuantumState.from_amplitudes(DickeSpace(40), vec, normalize=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        grid = planar_wigner(st, resolution=41)  # odd: the origin is sampled
    assert grid.xs[20] == 0.0 and np.all(np.isfinite(grid.values))


def test_planar_grid_finite_at_large_n():
    # corners reach x = 4|alpha|^2 ~ 3000, where l_m overflows without rescaling
    space = DickeSpace(300)
    rng = np.random.default_rng(300)
    rand = QuantumState.from_amplitudes(space, rng.normal(size=301), normalize=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.all(np.isfinite(planar_wigner(rand, resolution=21).values))
        # at gamma = 12 the rescaled points carry the state's own weight
        st = make_target(TargetSpec(TargetKind.COHERENT, gamma=12.0), space)
        grid = planar_wigner(st, resolution=61)
    alpha = (grid.xs[:, None] + 1j * grid.ps[None, :]) / np.sqrt(2)
    exact = np.exp(-2 * np.abs(alpha - 12.0) ** 2) / np.pi
    assert np.max(np.abs(grid.values - exact)) < 1e-12
    assert grid.integral() == pytest.approx(1.0, abs=1e-4)


def test_planar_window_warning():
    st = make_target(TargetSpec(TargetKind.CAT2, gamma=3.0), DickeSpace(40))
    with pytest.warns(WindowWarning):
        grid = planar_wigner(st, x_max=2.0, p_max=2.0, resolution=41)
    assert grid.window_clipped


def test_planar_wigner_rejects_density():
    space = DickeSpace(3)
    mixed = QuantumState(space, density=np.eye(4) / 4)
    with pytest.raises(ValueError):
        planar_wigner(mixed)


@pytest.mark.parametrize("resolution", [1, 0])
def test_planar_wigner_rejects_resolution_below_two(resolution):
    with pytest.raises(ValueError):
        planar_wigner(QuantumState.ground(DickeSpace(3)), resolution=resolution)


@pytest.mark.parametrize("window", [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
                                    (4.0, math.nan), (0.0, math.inf), (1e151, 0.0),
                                    (1e120, 1e151)])
def test_planar_wigner_rejects_non_finite_window(window):
    with pytest.raises(ValueError, match="finite"):
        planar_wigner(QuantumState.ground(DickeSpace(3)), *window, resolution=5)


@pytest.mark.parametrize("window", [(-1.0, 0.0), (0.0, -1.0), (-1e-300, 2.0), (3.0, -3.0)])
def test_planar_wigner_rejects_negative_window(window):
    with pytest.raises(ValueError, match="non-negative"):
        planar_wigner(QuantumState.ground(DickeSpace(3)), *window, resolution=5)


@pytest.mark.parametrize("sizes", [(-1, 0), (0, -1), (-5, 8), (8, -5)])
def test_spherical_wigner_rejects_negative_grid_sizes(sizes):
    with pytest.raises(ValueError, match="non-negative"):
        spherical_wigner(QuantumState.ground(DickeSpace(3)), *sizes)


def test_zero_grid_sizes_pick_the_defaults():
    state = QuantumState.ground(DickeSpace(3))
    assert spherical_wigner(state, 0, 0).values.shape == (60, 120)
    for window in ((0.0, 0.0), (-0.0, -0.0)):
        plane = planar_wigner(state, *window, resolution=5)
        assert plane.xs[-1] == plane.ps[-1] == math.sqrt(6.0) + 3.0


# --- CSV export -------------------------------------------------------------

def test_sphere_csv_roundtrip(tmp_path):
    grid = SphereGrid(
        thetas=np.array([0.25, 0.75]),
        phis=np.array([0.0, np.pi]),
        values=np.array([[0.125, -0.5], [0.3333333333333333, 1e-17]]),
        quadrature_weights=np.array([1.0, 1.0]),
    )
    path = tmp_path / "sphere.csv"
    export_grid(grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,phi,w"
    assert len(lines) == 5
    header, rows = load_grid_csv(path)
    assert rows.shape == (4, 3)
    # row-major: theta outer, phi inner
    assert np.array_equal(rows[:, 0], [0.25, 0.25, 0.75, 0.75])
    assert np.array_equal(rows[:, 2], [0.125, -0.5, 0.3333333333333333, 1e-17])


def test_plane_csv_header(tmp_path):
    space = DickeSpace(3)
    grid = planar_wigner(QuantumState.ground(space), x_max=4, p_max=4, resolution=11)
    path = tmp_path / "plane.csv"
    export_grid(grid, path)
    assert path.read_text().splitlines()[0] == "x,p,w"


def _row_by_row_csv(header, outer, inner, values):
    lines = [header + "\n"]
    for i, a in enumerate(outer):
        for k, b in enumerate(inner):
            lines.append(f"{float(a)!r},{float(b)!r},{float(values[i, k])!r}\n")
    return "".join(lines).encode()


def _csv_bytes(grid):
    if isinstance(grid, SphereGrid):
        return _row_by_row_csv("theta,phi,w", grid.thetas, grid.phis, grid.values)
    return _row_by_row_csv("x,p,w", grid.xs, grid.ps, grid.values)


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return QuantumState.from_amplitudes(DickeSpace(n), vec, normalize=True)


def _export_cases():
    st = _random_state(5, 9)
    tiny = PlaneGrid(np.array([-1e-300, 0.1, 2.0 / 3]), np.array([-0.0, 5e-324, 1e22]),
                     np.array([[0.1, -2.5e-17, 1.0], [3.0, -0.0, 1e-5], [7e300, 0.5, 2.0]]))
    return [spherical_wigner(st, n_theta=7, n_phi=9), planar_wigner(st, resolution=11), tiny]


def test_export_bytes_match_row_by_row_formatting(tmp_path):
    for i, grid in enumerate(_export_cases()):
        path = tmp_path / f"grid{i}.csv"
        export_grid(grid, path)
        assert path.read_bytes() == _csv_bytes(grid)


# --- two CSV writers: the bytes of one ---------------------------------------

def test_two_writers_write_the_bytes_of_one(tmp_path, monkeypatch, forks):
    # forced on small grids, the split falls inside each file, the edge
    # values' (-0.0, 5e-324, 1e22, 7e300) included
    monkeypatch.setattr(wigner, "SPLIT_MIN_SAMPLES", 1)
    for i, grid in enumerate(_export_cases()):
        assert 0 < _split_rows([grid.values.shape])[1] < len(grid.values)
        path = tmp_path / f"grid{i}.csv"
        assert export_grids([(grid, path)]) == 2
        assert path.read_bytes() == _csv_bytes(grid)
    assert len(forks) == 3


def test_two_writers_split_a_201_plane_inside_its_file(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(wigner, "SPLIT_MIN_SAMPLES", 1)
    grid = planar_wigner(_random_state(6, 3), resolution=201)
    assert _split_rows([(201, 201)]) == (0, 101)
    path = tmp_path / "plane.csv"
    assert export_grids([(grid, path)]) == 2
    assert path.read_bytes() == _csv_bytes(grid) and len(forks) == 1


@pytest.mark.parametrize("sizes, split", [
    ([(7, 9), (7, 9)], (0, 7)),                 # at the file boundary: an empty share
    ([(7, 9), (11, 13), (5, 8)], (1, 5)),       # inside the second of unequal grids
    ([(12, 10), (3, 4), (4, 4)], (0, 8)),       # inside the first
])
def test_two_writers_split_sphere_grids(tmp_path, monkeypatch, forks, sizes, split):
    monkeypatch.setattr(wigner, "SPLIT_MIN_SAMPLES", 1)
    grids = [spherical_wigner(_random_state(4, seed), *size) for seed, size in enumerate(sizes)]
    assert _split_rows(sizes) == split
    pairs = [(grid, tmp_path / f"step{i:02d}.csv") for i, grid in enumerate(grids)]
    assert export_grids(pairs) == 2
    assert [path.read_bytes() for _, path in pairs] == [_csv_bytes(grid) for grid, _ in pairs]
    assert len(forks) == 1


def test_two_writers_replace_longer_files(tmp_path, monkeypatch, forks):
    # the process opens its files before the fork but truncates them after
    # it: every file, the cut file included, ends where its new bytes end
    monkeypatch.setattr(wigner, "SPLIT_MIN_SAMPLES", 1)
    sizes = [(7, 9), (11, 13), (5, 8)]
    grids = [spherical_wigner(_random_state(4, seed), *size) for seed, size in enumerate(sizes)]
    assert _split_rows(sizes) == (1, 5)
    pairs = [(grid, tmp_path / f"step{i:02d}.csv") for i, grid in enumerate(grids)]
    for _, path in pairs:
        path.write_bytes(b"x" * 100_000)
    assert export_grids(pairs) == 2 and len(forks) == 1
    assert [path.read_bytes() for _, path in pairs] == [_csv_bytes(grid) for grid, _ in pairs]


def test_a_child_failing_at_once_leaves_its_files_to_the_process(tmp_path, monkeypatch, forks):
    # the child formats one row of b.csv, then fails on c.csv while the
    # process still writes its half: the offset goes to a child that is gone
    # without a pipe error, and the process rewrites b.csv and meets c.csv's
    # error itself
    monkeypatch.setattr(wigner, "SPLIT_MIN_SAMPLES", 1)
    rng = np.random.default_rng(5)

    def grid(rows):
        return PlaneGrid(rng.normal(size=rows), rng.normal(size=100), rng.normal(size=(rows, 100)))

    pairs = [(grid(60), tmp_path / "a.csv"), (grid(60), tmp_path / "b.csv"),
             (grid(118), tmp_path / "c.csv")]
    assert _split_rows([g.values.shape for g, _ in pairs]) == (1, 59)
    (tmp_path / "c.csv").mkdir()
    with pytest.raises(IsADirectoryError, match="c.csv"):
        export_grids(pairs)
    assert [path.read_bytes() for _, path in pairs[:2]] == [_csv_bytes(g) for g, _ in pairs[:2]]
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_write_error_in_the_process_leaves_no_later_file(tmp_path, monkeypatch, forks):
    # a full disk on this process's first file: the error propagates, the
    # child's later files never reach their names, and no temporary file is
    # left, as one writer leaves none
    monkeypatch.setattr(wigner, "SPLIT_MIN_SAMPLES", 1)
    parent, stream = os.getpid(), wigner._stream_csv

    def full_disk(job, stop=None, fh=None):
        if os.getpid() == parent:
            raise OSError(errno.ENOSPC, "No space left on device")
        return stream(job, stop, fh)

    monkeypatch.setattr(wigner, "_stream_csv", full_disk)
    sizes = [(7, 9), (11, 13), (5, 8)]
    grids = [spherical_wigner(_random_state(4, seed), *size) for seed, size in enumerate(sizes)]
    assert _split_rows(sizes) == (1, 5)
    pairs = [(grid, tmp_path / f"step{i:02d}.csv") for i, grid in enumerate(grids)]
    with pytest.raises(OSError, match="No space left"):
        export_grids(pairs)
    assert len(forks) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["step00.csv", "step01.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_a_failed_pipe_or_fork_leaves_one_writer(tmp_path, monkeypatch, forks, call):
    # EAGAIN from os.pipe or os.fork: the opened handles and the pipe are
    # closed, and one writer writes every grid, the cut file included
    monkeypatch.setattr(wigner, "SPLIT_MIN_SAMPLES", 1)

    def fail(*args):
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, call, fail)
    sizes = [(7, 9), (11, 13), (5, 8)]
    grids = [spherical_wigner(_random_state(4, seed), *size) for seed, size in enumerate(sizes)]
    assert _split_rows(sizes) == (1, 5)
    pairs = [(grid, tmp_path / f"step{i:02d}.csv") for i, grid in enumerate(grids)]
    fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    assert export_grids(pairs) == 1 and forks == []
    assert [path.read_bytes() for _, path in pairs] == [_csv_bytes(grid) for grid, _ in pairs]
    if fds is not None:
        assert sorted(os.listdir("/proc/self/fd")) == fds


def test_grids_below_the_threshold_never_fork(tmp_path, forks):
    small = planar_wigner(_random_state(4, 1), resolution=99)    # 9,801 samples
    assert small.values.size < wigner.SPLIT_MIN_SAMPLES <= 10_000
    assert export_grids([(small, tmp_path / "small.csv")]) == 1 and forks == []
    assert (tmp_path / "small.csv").read_bytes() == _csv_bytes(small)
    at = planar_wigner(_random_state(4, 1), resolution=100)     # 10,000 samples
    assert export_grids([(at, tmp_path / "at.csv")]) == 2 and len(forks) == 1


def test_one_usable_cpu_means_one_writer(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    grid = planar_wigner(_random_state(4, 1), resolution=120)
    assert export_grids([(grid, tmp_path / "p.csv")]) == 1 and forks == []


def test_export_refuses_an_unsupported_grid_before_forking(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(wigner, "SPLIT_MIN_SAMPLES", 1)
    grid = spherical_wigner(_random_state(3, 0), 8, 8)
    with pytest.raises(TypeError, match="cannot export dict"):
        export_grids([(grid, tmp_path / "a.csv"), ({}, tmp_path / "b.csv")])
    assert forks == [] and list(tmp_path.iterdir()) == []


def test_export_values_roundtrip_exactly(tmp_path):
    rng = np.random.default_rng(8)
    space = DickeSpace(4)
    vec = rng.normal(size=5) + 1j * rng.normal(size=5)
    st = QuantumState.from_amplitudes(space, vec, normalize=True)
    grid = spherical_wigner(st, n_theta=7, n_phi=8)
    path = tmp_path / "grid.csv"
    export_grid(grid, path)
    _, rows = load_grid_csv(path)
    assert np.array_equal(rows[:, 2], grid.values.reshape(-1))
