"""The state-vector propagation kernel against the dense unitaries it replaces.

The dense path (``oracle.sequence_unitaries`` + ``oracle.apply``, built
from ``hermitian_exp``) is the oracle.  Amplitudes are compared as well as
overlaps, because for odd N (half-integer spin) a rotation read only up to
SO(3) would differ from the oracle by a global sign that no overlap shows.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dickesim import (
    Convention,
    DickeSpace,
    GateConventions,
    NormDriftError,
    QuantumState,
    apply_sequence,
)
from dickesim.cli import _sweep_combos
from dickesim.core import DimensionMismatchError, build_sx, build_sy
from dickesim.gates import (
    EXPONENT_SIGNS,
    ROTATION_COMPOSITIONS,
    SQUEEZE_COMPOSITIONS,
    SQUEEZE_ORDERS,
    _combined_squeeze,
    propagate,
    squeeze_eigenpairs,
    unflatten_params,
)
from oracle import apply, rotation_from_turns, sequence_unitaries, squeeze_pair_unitary

INFIDELITY_TOL = 1e-12
AMPLITUDE_TOL = 1e-10


def dense_states(space, params, conv, psi0):
    """States after each step and after the final rotation, via dense unitaries."""
    state = QuantumState(space, amplitudes=psi0)
    out = []
    for u in sequence_unitaries(unflatten_params(space, (len(params) - 3) // 5, params), conv):
        state = apply(u, state)
        out.append(state.amplitudes)
    return np.array(out)


def random_state(space, rng):
    vec = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return vec / np.linalg.norm(vec)


def assert_same_state(dense, kernel):
    assert 1.0 - abs(np.vdot(dense, kernel)) ** 2 <= INFIDELITY_TOL
    assert np.max(np.abs(dense - kernel)) <= AMPLITUDE_TOL


@pytest.mark.parametrize("n", [1, 2, 4, 5, 40, 101])
def test_kernel_matches_dense_on_every_convention(n):
    rng = np.random.default_rng(1000 + n)
    for convention, conv in _sweep_combos():
        space = DickeSpace(n, convention)
        params = rng.uniform(-np.pi, np.pi, 5 * 3 + 3)
        ground = QuantumState.ground(space).amplitudes
        assert_same_state(dense_states(space, params, conv, ground)[-1],
                          propagate(space, params, conv, ground))


@pytest.mark.parametrize("n", [3, 6])
def test_per_step_states_match_dense_loop(n):
    rng = np.random.default_rng(7)
    for convention, conv in _sweep_combos():
        space = DickeSpace(n, convention)
        params = rng.uniform(-np.pi, np.pi, 5 * 4 + 3)
        psi0 = random_state(space, rng)
        dense = dense_states(space, params, conv, psi0)
        kernel = propagate(space, params, conv, psi0, per_step=True)
        assert kernel.shape == dense.shape == (5, space.dim)
        for d, k in zip(dense, kernel):
            assert_same_state(d, k)
        assert np.array_equal(kernel[-1], propagate(space, params, conv, psi0))


@pytest.mark.parametrize("n", [4, 5])
def test_zero_parameters_leave_the_state_unchanged(n):
    rng = np.random.default_rng(3)
    space = DickeSpace(n)
    psi0 = random_state(space, rng)
    for _, conv in _sweep_combos():
        assert np.max(np.abs(propagate(space, np.zeros(13), conv, psi0) - psi0)) < 1e-14


# Turns at which an Euler angle set of the kernel is degenerate (middle angle
# 0 or pi, so only the sum or difference of the outer angles is fixed).
# Z-X-Z (combined squeeze): pure z rotations and half-turns about axes in the
# xy plane (first entry of the SU(2) element 0 up to rounding).  The merged
# X-Z-Y and Y-Z-X angles (product squeeze) read R P or P^dag R with P =
# exp(-i pi/2 J_z): quarter turns about z (eighth turns under pauli-sum, which
# doubles every angle), a quarter turn about y under the product rotation,
# and 120-degree turns about body diagonals.
_DIAGONAL = 2 * np.pi / 3 / np.sqrt(3)
DEGENERATE_TURNS = [
    (0.0, 0.0, 0.0),
    (0.0, 0.0, 1.3),
    (0.0, 0.0, -2 * np.pi),
    (np.pi, 0.0, 0.0),
    (0.0, np.pi, 0.0),
    (np.pi / np.sqrt(2), -np.pi / np.sqrt(2), 0.0),
    (3 * np.pi, 0.0, 0.0),
    (0.0, 0.0, np.pi / 2),
    (0.0, 0.0, -np.pi / 2),
    (0.0, 0.0, np.pi / 4),
    (0.0, 0.0, -np.pi / 4),
    (0.0, np.pi / 2, 0.0),
    (_DIAGONAL, _DIAGONAL, _DIAGONAL),
    (_DIAGONAL, _DIAGONAL, -_DIAGONAL),
    (_DIAGONAL, -_DIAGONAL, _DIAGONAL),
    (_DIAGONAL, -_DIAGONAL, -_DIAGONAL),
]


@pytest.mark.parametrize("turns", DEGENERATE_TURNS)
@pytest.mark.parametrize("n", [1, 4, 5])
def test_rotation_at_degenerate_euler_angles(turns, n):
    rng = np.random.default_rng(11)
    for convention, conv in _sweep_combos():
        space = DickeSpace(n, convention)
        psi0 = random_state(space, rng)
        expected = rotation_from_turns(space, turns, conv).matrix @ psi0
        assert_same_state(expected, propagate(space, turns, conv, psi0))


@pytest.mark.parametrize("alpha, beta", [(0.7, 0.7), (-1.9, -1.9), (0.0, 0.0), (0.0, 1.1)])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_combined_squeeze_special_strengths(alpha, beta, n):
    rng = np.random.default_rng(13)
    for convention in Convention:
        space = DickeSpace(n, convention)
        psi0 = random_state(space, rng)
        for sign in (1, -1):
            conv = GateConventions(squeeze_composition="combined", exponent_sign=sign)
            params = np.array([0.0, 0.0, 0.0, alpha, beta, 0.0, 0.0, 0.0])
            expected = squeeze_pair_unitary(space, alpha, beta, conv).matrix @ psi0
            assert_same_state(expected, propagate(space, params, conv, psi0))


@settings(max_examples=150, deadline=None)
@given(turns=st.lists(st.floats(-4 * np.pi, 4 * np.pi), min_size=3, max_size=3),
       n=st.integers(1, 9),
       convention=st.sampled_from(list(Convention)),
       rot=st.sampled_from(ROTATION_COMPOSITIONS),
       sign=st.sampled_from(EXPONENT_SIGNS),
       squeeze=st.sampled_from(SQUEEZE_COMPOSITIONS),
       order=st.sampled_from(SQUEEZE_ORDERS),
       seed=st.integers(0, 2 ** 32 - 1))
def test_euler_path_equals_dense_rotation(turns, n, convention, rot, sign, squeeze, order,
                                          seed):
    space = DickeSpace(n, convention)
    psi0 = random_state(space, np.random.default_rng(seed))
    conv = GateConventions(squeeze_order=order, squeeze_composition=squeeze,
                           rotation_composition=rot, exponent_sign=sign)
    expected = rotation_from_turns(space, turns, conv).matrix @ psi0
    assert_same_state(expected, propagate(space, turns, conv, psi0))


@pytest.mark.parametrize("n", [3, 4])
def test_density_and_column_block_match_dense(n):
    rng = np.random.default_rng(17 + n)
    for convention, conv in _sweep_combos():
        space = DickeSpace(n, convention)
        d = space.dim
        params = rng.uniform(-np.pi, np.pi, 5 * 3 + 3)
        seq = unflatten_params(space, 3, params)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = QuantumState(space, density=g @ g.conj().T / np.vdot(g, g).real)
        expected = rho
        for u in sequence_unitaries(seq, conv):
            expected = apply(u, expected)
        out = apply_sequence(seq, rho, conv)
        assert np.max(np.abs(out.density - expected.density)) <= 1e-12

        columns = [random_state(space, rng) for _ in range(3)]
        block = np.stack(columns, axis=-1) / np.sqrt(3)  # unit Frobenius norm
        for per_step in (False, True):
            kernel = propagate(space, params, conv, block, per_step)
            one_by_one = np.stack([propagate(space, params, conv, c, per_step)
                                   for c in columns], axis=-1)
            assert kernel.shape == one_by_one.shape
            assert np.max(np.abs(kernel * np.sqrt(3) - one_by_one)) <= 1e-13


def s_unit_squeeze(space, alpha, beta, psi):
    """exp(i (alpha S_x^2 + beta S_y^2)) psi, diagonalized in the space's own
    S units: the reference that the J-unit eigenpairs reproduce bit for bit."""
    sq = [(s.matrix @ s.matrix).real for s in (build_sx(space), build_sy(space))]
    diag = alpha * np.diag(sq[0]) + beta * np.diag(sq[1])
    off = alpha * np.diag(sq[0], 2) + beta * np.diag(sq[1], 2)
    out = np.empty_like(psi)
    for parity in (0, 1):
        d, e = diag[parity::2], off[parity::2]
        w, v = np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        out[parity::2] = v @ (np.exp(1j * w) * (v.T @ psi[parity::2]))
    return out


# Strengths whose products with the squared-spin entries underflow (|s| below
# ~1e-300) round differently in the two units, so they are left out.
_STRENGTH = st.floats(-np.pi, np.pi).filter(lambda s: s == 0.0 or abs(s) > 1e-300)


@settings(max_examples=200, deadline=None)
@given(alpha=_STRENGTH, beta=_STRENGTH, n=st.integers(2, 30),
       sign=st.sampled_from(EXPONENT_SIGNS), seed=st.integers(0, 2**32 - 1))
def test_j_unit_squeeze_is_bitwise_the_s_unit_squeeze(alpha, beta, n, sign, seed):
    # Pauli-sum units are S = 2 J: the J-unit eigenvalues times 2**2 are the
    # S-unit ones bit for bit, and the eigenvectors are the same, so one set
    # of eigenpairs serves both operator conventions without changing a bit.
    space = DickeSpace(n, Convention.PAULI_SUM)
    params = [0.0, 0.0, 0.0, alpha, beta, 0.0, 0.0, 0.0]
    (pairs,) = squeeze_eigenpairs(space, params, sign)
    (j_pairs,) = squeeze_eigenpairs(DickeSpace(n), params, sign)
    psi = random_state(space, np.random.default_rng(seed))
    expected = s_unit_squeeze(space, sign * alpha, sign * beta, psi)
    assert np.array_equal(_combined_squeeze(pairs, 2.0, psi), expected)
    assert all(np.array_equal(a, b) for pair, j_pair in zip(pairs, j_pairs)
               for a, b in zip(pair, j_pair))
    assert np.array_equal(_combined_squeeze(j_pairs, 1.0, psi),
                          s_unit_squeeze(DickeSpace(n), sign * alpha, sign * beta, psi))


def test_propagate_rejects_bad_inputs():
    space = DickeSpace(4)
    conv = GateConventions()
    ground = QuantumState.ground(space).amplitudes
    with pytest.raises(ValueError, match="5M \\+ 3"):
        propagate(space, np.zeros(7), conv, ground)
    with pytest.raises(DimensionMismatchError):
        propagate(space, np.zeros(8), conv, np.ones(4) / 2)
    with pytest.raises(DimensionMismatchError):
        propagate(space, np.zeros(8), conv, np.ones((5, 2, 2)) / np.sqrt(20))
    with pytest.raises(NormDriftError):
        propagate(space, [0.0, 0.0, 0.0, np.nan, 0.0, 0.0, 0.0, 0.0], conv, ground)
    with pytest.raises(NormDriftError):
        propagate(space, np.zeros(8), conv, 2 * ground)
