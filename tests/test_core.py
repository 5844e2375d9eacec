import numpy as np
import pytest

from dickesim import (
    Convention,
    DickeSpace,
    DimensionMismatchError,
    NormDriftError,
    QuantumState,
    build_sminus,
    build_splus,
    build_sx,
    build_sy,
    build_sz,
    fidelity,
)
from dickesim.core import _hermitian_exp
from oracle import _spin_triple, apply, commutator, ladder_norm_constant


def test_splus_matrix_elements_n40():
    sp = build_splus(DickeSpace(40))
    assert sp[1, 0] == pytest.approx(np.sqrt(40), abs=1e-14)
    m = np.arange(40)
    assert np.allclose(sp[m + 1, m], np.sqrt((m + 1) * (40 - m)))
    off = sp.copy()
    off[m + 1, m] = 0
    assert np.all(off == 0)


def test_splus_single_qubit():
    sp = build_splus(DickeSpace(1))
    assert np.array_equal(sp, np.array([[0, 0], [1, 0]], dtype=complex))


def test_splus_convention_independent():
    # both normalizations share S_+: S_x = (S_+ + S_-)/2 or S_+ + S_-
    space = DickeSpace(5)
    sp = build_splus(space)
    for convention, factor in ((Convention.SPIN_J, 0.5), (Convention.PAULI_SUM, 1.0)):
        sx, sy, _ = _spin_triple(space, convention)
        assert np.allclose(sx, factor * (sp + sp.conj().T), atol=1e-14)
        assert np.allclose(sy, factor * (sp - sp.conj().T) / 1j, atol=1e-14)


def test_splus_squared_ladder_coefficient():
    # apply S_+ twice to |0> at N=3; coefficient of |2> must be sqrt(2!*3!/1!) = sqrt(12)
    space = DickeSpace(3)
    sp = build_splus(space)
    vec = np.zeros(4, dtype=complex)
    vec[0] = 1
    vec = sp @ (sp @ vec)
    assert vec[2] == pytest.approx(np.sqrt(12.0), rel=1e-14)


def test_sminus_is_adjoint_of_splus():
    for n in (1, 2, 7, 40):
        space = DickeSpace(n)
        assert np.array_equal(build_sminus(space),
                              build_splus(space).conj().T)


def test_sminus_element_n2():
    sm = build_sminus(DickeSpace(2))
    assert sm[0, 1] == pytest.approx(np.sqrt(2), abs=1e-15)


def test_sminus_annihilates_ground():
    sm = build_sminus(DickeSpace(40))
    assert np.all(sm[:, 0] == 0)


def test_sz_spectra():
    assert np.allclose(np.diag(build_sz(DickeSpace(2))), [-1, 0, 1])
    assert np.allclose(np.diag(_spin_triple(DickeSpace(2), Convention.PAULI_SUM)[2]),
                       [-2, 0, 2])
    assert np.allclose(np.diag(build_sz(DickeSpace(1))), [-0.5, 0.5])


def test_sx_single_qubit_is_half_pauli():
    sx = build_sx(DickeSpace(1))
    assert np.allclose(sx, np.array([[0, 0.5], [0.5, 0]]))
    sy = build_sy(DickeSpace(1))
    assert np.allclose(sy, np.array([[0, 0.5j], [-0.5j, 0]]))


@pytest.mark.parametrize("n", range(1, 11))
def test_spin_j_commutator(n):
    space = DickeSpace(n)
    sx, sy, sz = build_sx(space), build_sy(space), build_sz(space)
    assert commutator(sx, sy) == pytest.approx(1j * sz, abs=1e-12)


def test_pauli_sum_commutator_single_qubit():
    sx, sy, sz = _spin_triple(DickeSpace(1), Convention.PAULI_SUM)
    # direct 2x2 oracle
    direct = sx @ sy - sy @ sx
    assert np.allclose(direct, 2j * sz, atol=1e-14)
    assert np.allclose(sx, [[0, 1], [1, 0]])


def test_commutator_self_is_zero():
    sx = build_sx(DickeSpace(4))
    assert np.all(commutator(sx, sx) == 0)


def test_commutator_sz_splus_sign():
    # the S_z spectrum (m - N/2) implies [S_z, S_+] = +S_+
    space = DickeSpace(5)
    sz, sp = build_sz(space), build_splus(space)
    assert commutator(sz, sp) == pytest.approx(sp, abs=1e-12)


def test_commutator_sx_sysquared_identity():
    space = DickeSpace(3)
    sx, sy, sz = build_sx(space), build_sy(space), build_sz(space)
    lhs = commutator(sx, sy @ sy)
    rhs = 1j * (sz @ sy + sy @ sz)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_hermitian_exp_zero_is_identity():
    space = DickeSpace(6)
    zero = np.zeros((7, 7))
    assert np.allclose(_hermitian_exp(zero, 1j), np.eye(7))


def test_hermitian_exp_diagonal():
    u = _hermitian_exp(build_sz(DickeSpace(2)), 1j * np.pi)
    assert np.allclose(np.diag(u),
                       [np.exp(-1j * np.pi), 1.0, np.exp(1j * np.pi)], atol=1e-14)


def test_hermitian_exp_pi_y_rotation_flips_poles():
    # oracle at N=2: direct 3x3 computation with an independent series expansion
    space2 = DickeSpace(2)
    sy_mat = build_sy(space2)
    series = np.eye(3, dtype=complex)
    term = np.eye(3, dtype=complex)
    for k in range(1, 60):
        term = term @ (1j * np.pi * sy_mat) / k
        series = series + term
    u2 = _hermitian_exp(build_sy(space2), 1j * np.pi)
    assert np.allclose(u2, series, atol=1e-12)
    for n in (2, 5, 40):
        space = DickeSpace(n)
        u = _hermitian_exp(build_sy(space), 1j * np.pi)
        out = u @ QuantumState.ground(space).amplitudes
        assert abs(out[n]) == pytest.approx(1.0, abs=1e-10)


def test_apply_identity():
    space = DickeSpace(5)
    eye = np.eye(6)
    st = QuantumState.basis_state(space, 3)
    assert np.array_equal(apply(eye, st).amplitudes, st.amplitudes)


def test_apply_splus_with_renormalize():
    space = DickeSpace(4)
    out = apply(build_splus(space), QuantumState.ground(space), renormalize=True)
    assert abs(out.amplitudes[1]) == pytest.approx(1.0, abs=1e-14)


def test_apply_norm_drift_raises():
    space = DickeSpace(4)
    with pytest.raises(NormDriftError):
        apply(build_splus(space), QuantumState.ground(space))


def test_apply_unitary_preserves_norm():
    space = DickeSpace(8)
    u = _hermitian_exp(build_sx(space), 0.7j)
    st = apply(u, QuantumState.basis_state(space, 2))
    assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0, abs=1e-10)


def test_apply_density_form():
    space = DickeSpace(3)
    rho = QuantumState(space, density=np.eye(4) / 4)
    u = _hermitian_exp(build_sy(space), 0.3j)
    out = apply(u, rho)
    assert np.trace(out.density).real == pytest.approx(1.0, abs=1e-12)


def test_fidelity_trivials():
    space = DickeSpace(6)
    psi = QuantumState.basis_state(space, 0)
    phi = QuantumState.basis_state(space, 1)
    plus = QuantumState.from_amplitudes(
        space, (psi.amplitudes + phi.amplitudes) / np.sqrt(2))
    assert fidelity(psi, psi) == 1.0
    assert fidelity(psi, phi) == 0.0
    assert fidelity(psi, plus) == pytest.approx(0.5, abs=1e-14)


def test_fidelity_mixed_forms_agree():
    # rank-1 densities enter the Uhlmann form as their one-column factors, so
    # the mixed forms agree with the pure one to roundoff
    rng = np.random.default_rng(7)
    for n in (5, 1, 12, 40):
        space = DickeSpace(n)
        a, b = (QuantumState.from_amplitudes(
            space, rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1), normalize=True)
            for _ in range(2))
        pure = fidelity(a, b)
        rho_b = QuantumState(space, density=b.to_density())
        rho_a = QuantumState(space, density=a.to_density())
        assert fidelity(a, rho_b) == pytest.approx(pure, abs=1e-12)
        assert fidelity(rho_a, rho_b) == pytest.approx(pure, abs=1e-12)


def test_fidelity_of_full_rank_densities_matches_sqrtm():
    from scipy.linalg import sqrtm

    rng = np.random.default_rng(19)
    for n in (1, 4, 9):
        space, d = DickeSpace(n), n + 1
        rho, sigma = (g @ g.conj().T / np.vdot(g, g).real for g in (
            rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)))
        root = sqrtm(rho)
        expected = np.trace(sqrtm(root @ sigma @ root)).real ** 2
        got = fidelity(QuantumState(space, density=rho), QuantumState(space, density=sigma))
        assert got == pytest.approx(expected, abs=1e-10)


def _cut_fidelity_pairs():
    """(rho, sigma) pairs in which rho has one eigenvalue under the 1e-12
    relative cut of core._psd_factor: the N = 1 pair diag(1 - 9e-13, 9e-13)
    against I/2, and seeded full-rank pairs at N = 3 and 8."""
    yield np.diag([1.0 - 9e-13, 9e-13]).astype(complex), np.eye(2) / 2
    rng = np.random.default_rng(31)
    for d in (4, 9):
        for _ in range(3):
            q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            w = rng.uniform(0.2, 1.0, d)
            w[0] = 5e-13 * w.max()
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            yield (q * (w / w.sum())) @ q.conj().T, g @ g.conj().T / np.vdot(g, g).real


def test_fidelity_density_cut_stays_within_its_bound():
    # each dropped eigenvalue lowers sqrt(F) by at most its square root, the
    # bound fidelity's docstring states
    from scipy.linalg import sqrtm

    for rho, sigma in _cut_fidelity_pairs():
        w = np.linalg.eigvalsh(rho)
        dropped = w[w <= 1e-12 * w.max()]
        assert dropped.size == 1
        root = sqrtm(rho)
        expected = np.trace(sqrtm(root @ sigma @ root)).real
        space = DickeSpace(rho.shape[0] - 1)
        got = np.sqrt(fidelity(QuantumState(space, density=rho),
                               QuantumState(space, density=sigma)))
        assert abs(got - expected) <= np.sqrt(np.maximum(dropped, 0.0)).sum() + 1e-12


def test_fidelity_symmetry_and_phase_invariance():
    rng = np.random.default_rng(11)
    space = DickeSpace(7)
    for _ in range(5):
        a = QuantumState.from_amplitudes(
            space, rng.normal(size=8) + 1j * rng.normal(size=8), normalize=True)
        b = QuantumState.from_amplitudes(
            space, rng.normal(size=8) + 1j * rng.normal(size=8), normalize=True)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-14)
        phased = QuantumState.from_amplitudes(space, np.exp(0.3j) * a.amplitudes)
        assert fidelity(phased, b) == pytest.approx(fidelity(a, b), abs=1e-14)


@pytest.mark.parametrize("n", range(1, 13))
def test_su2_algebra_and_casimir(n):
    space = DickeSpace(n)
    sx, sy, sz = build_sx(space), build_sy(space), build_sz(space)
    assert commutator(sx, sy) == pytest.approx(1j * sz, abs=1e-12)
    assert commutator(sy, sz) == pytest.approx(1j * sx, abs=1e-12)
    assert commutator(sz, sx) == pytest.approx(1j * sy, abs=1e-12)
    j = n / 2
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert casimir == pytest.approx(j * (j + 1) * np.eye(n + 1), abs=1e-10)


def test_splus_nilpotent():
    for n in (1, 3, 6):
        space = DickeSpace(n)
        power = np.linalg.matrix_power(build_splus(space), n + 1)
        assert np.all(power == 0)


def test_hermitian_exp_inverse():
    rng = np.random.default_rng(3)
    space = DickeSpace(6)
    for _ in range(5):
        raw = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        h = (raw + raw.conj().T) / 2
        t = rng.uniform(-10, 10)
        u = _hermitian_exp(h, 1j * t)
        uinv = _hermitian_exp(h, -1j * t)
        assert np.max(np.abs((u @ uinv) - np.eye(7))) < 1e-10


def test_ladder_norm_constants_match_repeated_application():
    # c_n = sqrt(n! N!/(N-n)!) against the norm of S_+^n |0> built by iteration
    for n_emitters in range(1, 11):
        space = DickeSpace(n_emitters)
        sp = build_splus(space)
        vec = QuantumState.ground(space).amplitudes.copy()
        for n in range(1, n_emitters + 1):
            vec = sp @ vec
            expected = ladder_norm_constant(n_emitters, n)
            assert np.linalg.norm(vec) == pytest.approx(expected, rel=1e-10)


def test_state_validation():
    space = DickeSpace(3)
    with pytest.raises(ValueError):
        QuantumState(space, amplitudes=np.array([1.0, 1.0, 0, 0]))
    with pytest.raises(DimensionMismatchError):
        QuantumState(space, amplitudes=np.array([1.0, 0]))
    with pytest.raises(ValueError):
        QuantumState(space, density=np.eye(4))  # trace 4


def test_nan_states_are_rejected():
    space = DickeSpace(1)
    with pytest.raises(ValueError, match="norm"):
        QuantumState(space, amplitudes=[np.nan, 0])
    for rho in (np.full((2, 2), np.nan), np.diag([np.nan, 1.0])):
        with pytest.raises(ValueError, match="trace"):
            QuantumState(space, density=rho)


def test_non_finite_density_entries_are_rejected():
    space = DickeSpace(1)
    for off in (np.nan, np.inf, complex(0.1, np.nan)):
        rho = np.array([[0.5, off], [np.conj(off), 0.5]])
        with pytest.raises(ValueError, match="finite") as err:
            QuantumState(space, density=rho)
        assert type(err.value) is ValueError  # exit 2, not a numerical failure


def test_huge_amplitudes_normalize_without_overflow():
    space = DickeSpace(2)
    for vec, expected in (([1e308, 1e308, 0], [1, 1, 0]),
                          ([1.7e308 + 1.7e308j, 0, 1e-320], [1 + 1j, 0, 0]),
                          ([5e-324, 0, 0], [1, 0, 0])):
        st = QuantumState.from_amplitudes(space, vec, normalize=True)
        assert np.allclose(st.amplitudes, np.array(expected) / np.linalg.norm(expected),
                           rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="zero vector"):
        QuantumState.from_amplitudes(space, [0, 0, 0], normalize=True)


def test_operator_immutability():
    for build in (build_splus, build_sminus, build_sx, build_sy, build_sz):
        op = build(DickeSpace(4))
        assert op.dtype == complex
        with pytest.raises(ValueError):
            op[0, 0] = 5.0
