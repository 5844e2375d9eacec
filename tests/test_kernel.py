"""The state-vector propagation kernel against the dense unitaries it replaces.

The dense path (``sequence_unitaries`` + ``core.apply``, built from
``hermitian_exp``) is the oracle.  Amplitudes are compared as well as
overlaps, because for odd N (half-integer spin) a rotation read only up to
SO(3) would differ from the oracle by a global sign that no overlap shows.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dickesim import Convention, DickeSpace, GateConventions, NormDriftError, QuantumState
from dickesim.cli import _sweep_combos
from dickesim.core import DimensionMismatchError, apply
from dickesim.gates import (
    propagate,
    rotation_from_turns,
    sequence_unitaries,
    squeeze_pair_unitary,
    unflatten_params,
)

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


# Turns whose Euler angle b is 0 (pure z rotations) or pi (first entry of the
# SU(2) element 0 up to rounding: half-turns about axes in the xy plane).
DEGENERATE_TURNS = [
    (0.0, 0.0, 0.0),
    (0.0, 0.0, 1.3),
    (0.0, 0.0, -2 * np.pi),
    (np.pi, 0.0, 0.0),
    (0.0, np.pi, 0.0),
    (np.pi / np.sqrt(2), -np.pi / np.sqrt(2), 0.0),
    (3 * np.pi, 0.0, 0.0),
]


@pytest.mark.parametrize("turns", DEGENERATE_TURNS)
@pytest.mark.parametrize("n", [1, 4, 5])
def test_rotation_at_degenerate_euler_angles(turns, n):
    rng = np.random.default_rng(11)
    for convention in Convention:
        space = DickeSpace(n, convention)
        psi0 = random_state(space, rng)
        for rot in ("combined", "product"):
            for sign in (1, -1):
                conv = GateConventions(rotation_composition=rot, exponent_sign=sign)
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
       rot=st.sampled_from(["combined", "product"]),
       sign=st.sampled_from([1, -1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_euler_path_equals_dense_rotation(turns, n, convention, rot, sign, seed):
    space = DickeSpace(n, convention)
    psi0 = random_state(space, np.random.default_rng(seed))
    conv = GateConventions(rotation_composition=rot, exponent_sign=sign)
    expected = rotation_from_turns(space, turns, conv).matrix @ psi0
    assert_same_state(expected, propagate(space, turns, conv, psi0))


def test_propagate_rejects_bad_inputs():
    space = DickeSpace(4)
    conv = GateConventions()
    ground = QuantumState.ground(space).amplitudes
    with pytest.raises(ValueError, match="5M \\+ 3"):
        propagate(space, np.zeros(7), conv, ground)
    with pytest.raises(DimensionMismatchError):
        propagate(space, np.zeros(8), conv, np.ones(4) / 2)
    with pytest.raises(NormDriftError):
        propagate(space, [0.0, 0.0, 0.0, np.nan, 0.0, 0.0, 0.0, 0.0], conv, ground)
    with pytest.raises(NormDriftError):
        propagate(space, np.zeros(8), conv, 2 * ground)
